"""Memory budgets of recording and reading raw traces, measured with tracemalloc."""

import tracemalloc

from mapreplay.tracer import read_raw_trace
from mapreplay.workloads import WorkloadSpec, corpus_tokens, generate


def _peak_traced(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_peak_is_at_most_64_bytes_per_event():
    # The corpus is workload input, loaded once per process; the budget
    # covers what recording keeps: the record buffers, key registry and maps.
    corpus_tokens()
    raw, peak = _peak_traced(generate, WorkloadSpec("wordfreq", seed=1))
    assert peak <= 64 * len(raw)


def test_read_raw_trace_does_not_copy_records(tmp_path):
    path = tmp_path / "wordfreq.mrt"
    generate(WorkloadSpec("wordfreq", seed=1), path)
    _, peak = _peak_traced(read_raw_trace, path)
    assert peak <= 1.1 * path.stat().st_size
