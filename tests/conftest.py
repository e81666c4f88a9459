import numpy as np
import pytest

from mapreplay.postproc import ProcessedTrace, process
from mapreplay.workloads import WorkloadSpec, generate

SMALL_SPECS = {
    "random": WorkloadSpec("random", seed=11, scale=1),
    "churn": WorkloadSpec("churn", seed=11, scale=1, params={"maps": 3, "cycles": 4}),
    "scan": WorkloadSpec("scan", seed=11, scale=1, params={"maps": 40}),
    "populate-copy": WorkloadSpec("populate-copy", seed=11, scale=1, params={"rounds": 30}),
    "mixed": WorkloadSpec("mixed", seed=11, scale=1, params={"rounds": 40}),
    "dedupe": WorkloadSpec("dedupe", seed=11, scale=1, params={"ops": 2000, "universe": 500}),
}


@pytest.fixture(scope="session")
def small_traces():
    """Raw and processed traces for downsized versions of each workload."""
    out = {}
    for name, spec in SMALL_SPECS.items():
        raw = generate(spec)
        out[name] = (spec, raw, process(raw))
    return out


@pytest.fixture
def trace_of_words():
    """Build a trace from a hand-written opcode stream, bypassing post-processing."""

    def build(words, n_keys=0, map_slots=1, iter_slots=0):
        return ProcessedTrace(
            key_hashes=np.arange(n_keys, dtype=np.int32),
            max_map_slots=map_slots,
            max_iter_slots=iter_slots,
            ops=np.asarray(words, dtype=np.int32),
        )

    return build
