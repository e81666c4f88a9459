import numpy as np
import pytest

from mapreplay.postproc import ProcessedTrace, process
from mapreplay.refmap import DEFAULT_CONFIG, MapConfig, RefMap
from mapreplay.replay import ReplaySession
from mapreplay.tracer import (
    ABSENT_HASH,
    ABSENT_OUTCOME,
    ABSENT_U64,
    RAW_DTYPE,
    RawOpKind,
    pack_create_aux,
    unpack_create_aux,
    unpack_iternew_aux,
)
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


def _create_configs_seen(trace, config=DEFAULT_CONFIG):
    """Replay just to observe the configs maps were constructed with,
    copies included (`copy_of` builds through `__init__`)."""
    seen = []

    class Probe(RefMap):
        def __init__(self, config=DEFAULT_CONFIG):
            seen.append(config)
            super().__init__(config)

    ReplaySession(trace).replay(Probe, mode="timing", config=config)
    return seen


@pytest.fixture
def create_configs_seen():
    """`_create_configs_seen`: the configs replay of a trace at a run
    config builds its maps with, in creation order, copies included."""
    return _create_configs_seen


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


#: The aux of a hand-built Create that gives none: a default map's.
_CREATE_AUX = pack_create_aux(16, 750)


def _raw_row(op, map_id, key_id=None, hash=None, aux=None, outcome=None, thread=0):
    if aux is None:
        aux = _CREATE_AUX if op == RawOpKind.CREATE else 0
    return (
        thread,
        op,
        map_id,
        ABSENT_U64 if key_id is None else key_id,
        ABSENT_HASH if hash is None else hash,
        aux,
        ABSENT_OUTCOME if outcome is None else outcome,
        b"",
    )


@pytest.fixture
def raw_records():
    """Build a RAW_DTYPE record array from hand-written event tuples.

    Each tuple is (op, map_id, key_id=None, hash=None, aux=None,
    outcome=None, thread=0); absent key, hash and outcome are stored as
    ABSENT_*, and an absent aux as a default map's Create aux on a Create
    (`pack_create_aux(16, 750)`), 0 elsewhere.
    """

    def build(rows):
        return np.array([_raw_row(*row) for row in rows], dtype=RAW_DTYPE)

    return build


class _OracleKey:
    """A recorded key: equal by key id, hashed by its recorded hash."""

    __slots__ = ("kid", "hash32")

    def __init__(self, kid, h):
        self.kid = kid
        self.hash32 = h

    def __eq__(self, other):
        return isinstance(other, _OracleKey) and other.kid == self.kid

    def __hash__(self):
        return self.kid


#: Each keyed op as a call on a map, giving its outcome bit.
_KEYED_CALLS = {
    RawOpKind.GET: lambda m, k: m.get(k) is not None,
    RawOpKind.PUT: lambda m, k: m.put(k, 1) is not None,
    RawOpKind.REMOVE: lambda m, k: m.remove(k) is not None,
    RawOpKind.CONTAINS_KEY: lambda m, k: m.contains_key(k),
}


def _interpret_raw(events):
    """Oracle: apply raw events one at a time to plain RefMaps, with no
    post-processing. Asserts every recorded outcome, stepping an advance
    `aux` times, and returns each map's state digest in creation order."""
    maps, iters, keys, created = {}, {}, {}, []
    for e in events:
        if e.op == RawOpKind.CREATE:
            maps[e.map_id] = RefMap(MapConfig(*unpack_create_aux(e.aux)))
            created.append(maps[e.map_id])
        elif e.op == RawOpKind.CREATE_COPY:
            # A copy takes the default config, as Java's HashMap(Map) does.
            maps[e.map_id] = RefMap.copy_of(maps[e.aux])
            created.append(maps[e.map_id])
        elif e.op in _KEYED_CALLS:
            key = keys.setdefault(e.key_id, _OracleKey(e.key_id, e.hash))
            assert _KEYED_CALLS[e.op](maps[e.map_id], key) == bool(e.outcome), e
        elif e.op == RawOpKind.CLEAR:
            maps[e.map_id].clear()
        elif e.op == RawOpKind.ITER_NEW:
            iter_id, view = unpack_iternew_aux(e.aux)
            iters[iter_id] = maps[e.map_id].iterator(view)
        elif e.op == RawOpKind.ITER_ADVANCE:
            for _ in range(e.aux):
                assert (iters[e.map_id].advance() is not None) == bool(e.outcome), e
        elif e.op == RawOpKind.ITER_REMOVE:
            iters[e.map_id].remove()
    return [m.state_digest() for m in created]


@pytest.fixture
def interpret_raw():
    """The raw-event oracle `_interpret_raw`: events in, digests out."""
    return _interpret_raw
