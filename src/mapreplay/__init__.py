"""mapreplay: trace-driven benchmark generation for hash maps.

Record a workload's map operations, distill them offline into a compact
opcode trace, and replay that trace against pluggable map implementations
under a statistics-bearing benchmark harness.
"""

from .bench import (
    BenchConfig,
    BenchReport,
    binomial_test_one_sided,
    bootstrap_ci_diff,
    bootstrap_ci_mean,
    classify,
    cohens_h,
    compare_reports,
    format_speedup,
    pearson_r,
    pipeline,
    read_report,
    run_bench,
)
from .errors import (
    ConfigError,
    FidelityError,
    MapReplayError,
    TraceFormatError,
    TraceIntegrityError,
)
from .postproc import (
    ProcessedTrace,
    coalesce,
    decode,
    encode,
    insert_free_events,
    process,
    read_processed,
    sanitize,
    stats,
    write_processed,
)
from .refmap import (
    DEFAULT_CONFIG,
    MapAdapter,
    MapConfig,
    MapIterator,
    PyDictMap,
    RefMap,
    View,
    iterate,
    normalize_capacity,
    threshold,
)
from .replay import IMPLEMENTATIONS, ReplaySession, get_implementation
from .tracer import (
    RawOpKind,
    RawTrace,
    TraceSession,
    read_raw_trace,
    write_raw_trace,
)
from .workloads import WORKLOADS, WorkloadSpec, generate, run_direct

__version__ = "0.1.0"
