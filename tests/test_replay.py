"""Replay semantics: mockup keys, setup preallocation, modes, overrides."""

import pytest

from mapreplay.errors import ConfigError, FidelityError, TraceIntegrityError
from mapreplay.postproc import OUTCOME_BIT, process, stats
from mapreplay.refmap import DEFAULT_CONFIG, MapConfig, PyDictMap, RefMap
from mapreplay.replay import (
    ConfigOverride,
    MockupKey,
    ReplaySession,
    VALUE_TOKEN,
    get_implementation,
)
from mapreplay.tracer import RawOpKind, TraceSession
from mapreplay.workloads import IntKey, WorkloadSpec, generate, run_direct


def _trace_of(build):
    s = TraceSession()
    build(s)
    return process(s.close())


def _insert_only_trace(n_keys):
    def build(s):
        m = s.new_map()
        for i in range(n_keys):
            m.put(IntKey(i, hash32=i), i)

    return _trace_of(build)


# -- mockup keys ----------------------------------------------------------------------


def test_mockup_key_preserves_hash_verbatim():
    k = MockupKey(3, -123456)
    assert k.hash32() == -123456


def test_mockup_key_equality_is_index_identity():
    assert MockupKey(1, 5) == MockupKey(1, 99)
    assert MockupKey(1, 5) != MockupKey(2, 5)
    assert hash(MockupKey(4, 0)) == 4


# -- setup ----------------------------------------------------------------------------


def test_setup_preallocates_all_mockup_keys():
    trace = _insert_only_trace(49)
    session = ReplaySession(trace)
    assert len(session.keys) == len(trace.key_hashes) == 49
    assert [k.hash32() for k in session.keys] == list(trace.key_hashes)


def test_setup_empty_trace():
    trace = _trace_of(lambda s: None)
    session = ReplaySession(trace)
    assert session.keys == []
    result = session.replay(RefMap)
    assert result.ops_executed == 0
    assert result.factory_calls == 0


def test_setup_slot_arrays_match_header():
    trace = _insert_only_trace(5)
    assert trace.max_map_slots == 1
    session = ReplaySession(trace)
    result = session.replay(RefMap, mode="validating")
    assert result.ops_executed == trace.op_count


def test_setup_memory_budget_refusal_names_sizes():
    trace = _insert_only_trace(10)
    with pytest.raises(ConfigError) as err:
        ReplaySession(trace, memory_budget=3)
    msg = str(err.value)
    assert "10 mockup keys" in msg
    assert "budget of 3" in msg


# -- modes ----------------------------------------------------------------------------


def test_validating_replay_reproduces_workload(small_traces):
    for name, (spec, _, trace) in small_traces.items():
        session = ReplaySession(trace)
        result = session.replay(RefMap, mode="validating")
        assert result.ops_executed == trace.op_count, name
        assert result.map_digests == run_direct(spec), name


def test_validating_replay_accepts_pydict():
    trace = _insert_only_trace(20)
    result = ReplaySession(trace).replay(PyDictMap, mode="validating")
    assert result.digests == {}  # no state_digest on dict adapter
    assert result.factory_calls == 1


def test_pydict_validates_on_iterator_traces_without_removal():
    for name, params in (("scan", {"maps": 30}), ("mixed", {"rounds": 30})):
        trace = process(generate(WorkloadSpec(name, seed=4, params=params)))
        ReplaySession(trace).replay(PyDictMap, mode="validating")


def test_iteration_order_divergence_is_flagged_on_iter_remove_traces():
    # An iterator-remove's victim depends on iteration order. A dict-backed
    # adapter iterates in insertion order, not bucket order, so membership
    # may legitimately diverge after the removal, and validation says so.
    def build(s):
        m = s.new_map()
        for i in range(8):
            m.put(IntKey(i, hash32=7 - i), i)  # bucket order reverses insertion
        it = m.iterator()
        it.advance()
        it.remove()
        for i in range(8):
            m.get(IntKey(i, hash32=7 - i))

    trace = _trace_of(build)
    ReplaySession(trace).replay(RefMap, mode="validating")  # reference is exact
    with pytest.raises(FidelityError):
        ReplaySession(trace).replay(PyDictMap, mode="validating")


def test_counting_mode_requires_refmap():
    trace = _insert_only_trace(3)
    with pytest.raises(ConfigError):
        ReplaySession(trace).replay(PyDictMap, mode="counting")


def test_unknown_mode_rejected():
    trace = _insert_only_trace(1)
    with pytest.raises(ConfigError):
        ReplaySession(trace).replay(RefMap, mode="warp")


def test_counting_resizes_for_49_inserts():
    trace = _insert_only_trace(49)
    session = ReplaySession(trace)
    totals = {}
    for dic in (16, 32, 64, 128):
        result = session.replay(RefMap, mode="counting", override=ConfigOverride(dic))
        totals[dic] = result.counters.resizes
    assert totals == {16: 3, 32: 2, 64: 1, 128: 0}


def test_replay_deterministic(small_traces):
    _, _, trace = small_traces["random"]
    session = ReplaySession(trace)
    a = session.replay(RefMap, mode="validating")
    b = session.replay(RefMap, mode="validating")
    assert a.digests == b.digests
    ca = session.replay(RefMap, mode="counting")
    cb = session.replay(RefMap, mode="counting")
    assert ca.counters == cb.counters


def test_monomorphism_factory_call_accounting(small_traces):
    for name, (_, _, trace) in small_traces.items():
        result = ReplaySession(trace).replay(RefMap, mode="validating")
        assert result.factory_calls == stats(trace).creates, name


class CountingRefMap(RefMap):
    """RefMap that counts adapter-level calls, including per iterator step."""

    calls = 0

    def get(self, key):
        CountingRefMap.calls += 1
        return super().get(key)

    def put(self, key, value):
        CountingRefMap.calls += 1
        return super().put(key, value)

    def remove(self, key):
        CountingRefMap.calls += 1
        return super().remove(key)

    def contains_key(self, key):
        CountingRefMap.calls += 1
        return super().contains_key(key)

    def clear(self):
        CountingRefMap.calls += 1
        return super().clear()

    def iterator(self, view=2):
        CountingRefMap.calls += 1
        return _CountingIter(super().iterator(view))


class _CountingIter:
    def __init__(self, inner):
        self._inner = inner

    def advance(self):
        CountingRefMap.calls += 1
        return self._inner.advance()

    def remove(self):
        CountingRefMap.calls += 1
        return self._inner.remove()


def test_coalescing_changes_dispatch_not_adapter_calls(small_traces):
    from mapreplay.postproc import encode, insert_free_events, sanitize

    _, raw, coalesced = small_traces["scan"]
    uncoalesced = encode(insert_free_events(sanitize(raw)))
    assert coalesced.op_count < uncoalesced.op_count  # fewer dispatches

    CountingRefMap.calls = 0
    ReplaySession(coalesced).replay(CountingRefMap, mode="timing")
    with_coalescing = CountingRefMap.calls

    CountingRefMap.calls = 0
    ReplaySession(uncoalesced).replay(CountingRefMap, mode="timing")
    without = CountingRefMap.calls

    assert with_coalescing == without  # one adapter call per recorded step


# -- config overrides --------------------------------------------------------------------


def _create_configs_seen(trace, override=None):
    """Replay just to observe the configs maps were constructed with."""
    seen = []

    class Probe(RefMap):
        def __init__(self, config=DEFAULT_CONFIG):
            seen.append(config)
            super().__init__(config)

    ReplaySession(trace).replay(Probe, mode="timing", override=override)
    return seen


def test_override_applies_to_default_creates():
    trace = _insert_only_trace(1)
    (cfg,) = _create_configs_seen(trace, ConfigOverride(64))
    assert cfg.initial_capacity == 64
    assert cfg.load_factor_milli == 750


def test_override_preserves_explicit_configs():
    def build(s):
        m = s.new_map(MapConfig(100))
        m.put(IntKey(1), 1)

    trace = _trace_of(build)
    (cfg,) = _create_configs_seen(trace, ConfigOverride(64))
    assert cfg.initial_capacity == 100


def test_override_equal_to_default_is_identity():
    _, _, trace = (None, None, None)
    raw = generate(WorkloadSpec("random", seed=21))
    trace = process(raw)
    session = ReplaySession(trace)
    base = session.replay(RefMap, mode="validating")
    same = session.replay(
        RefMap, mode="validating", override=ConfigOverride(16, 750)
    )
    assert base.digests == same.digests


def test_override_rule_fields():
    rule = ConfigOverride(64)
    assert (rule.dic, rule.lf_milli) == (64, 750)
    assert rule.config() == MapConfig(64, 750, True)


# -- fidelity and integrity errors ----------------------------------------------------------


class LossyMap(PyDictMap):
    """Faulty adapter: forgets every eighth insertion."""

    def __init__(self, config=DEFAULT_CONFIG):
        super().__init__(config)
        self._n = 0

    @classmethod
    def copy_of(cls, source, config=DEFAULT_CONFIG):
        new = cls(config)
        new._d = dict(source._d)
        return new

    def put(self, key, value):
        self._n += 1
        if self._n % 8 == 0:
            return self._d.get(key)  # drops the write
        return super().put(key, value)


def test_fidelity_error_cites_op_index():
    def build(s):
        m = s.new_map()
        for i in range(10):
            m.put(IntKey(i), i)
        for i in range(10):
            assert m.get(IntKey(i)) is not None

    trace = _trace_of(build)
    with pytest.raises(FidelityError) as err:
        ReplaySession(trace).replay(LossyMap, mode="validating")
    assert err.value.op_index is not None
    assert "op" in str(err.value)


_CREATE = [int(RawOpKind.CREATE) | (750 << 9) | (1 << 19), 0, 16]


def test_use_after_free_raises_integrity_error(trace_of_words):
    free_map, free_iter = int(RawOpKind.FREE_MAP), int(RawOpKind.FREE_ITER)
    put = int(RawOpKind.PUT)
    streams = [  # (opcode stream, iterator slots, index of the faulty op)
        (_CREATE + [free_map, 0, 0, int(RawOpKind.CLEAR), 0, 0], 0, 2),
        (_CREATE + [free_map, 0, 0, free_map, 0, 0], 0, 2),
        (_CREATE + [int(RawOpKind.ITER_NEW), 0, 0, free_iter, 0, 0, free_iter, 0, 0], 1, 3),
        (_CREATE + [put, 0, -1, put, -1, 0], 0, 1),  # negative indexes would wrap
    ]
    for words, iter_slots, bad_op in streams:
        trace = trace_of_words(words, n_keys=1, iter_slots=iter_slots)
        for mode in ("timing", "counting", "validating"):
            with pytest.raises(TraceIntegrityError) as err:
                ReplaySession(trace).replay(RefMap, mode=mode)
            assert f"op {bad_op}:" in str(err.value)


@pytest.mark.parametrize("mode", ["timing", "counting", "validating"])
def test_bad_key_index_raises_integrity_error(mode, trace_of_words):
    trace = trace_of_words(_CREATE + [int(RawOpKind.GET), 0, 5], n_keys=1)
    with pytest.raises(TraceIntegrityError) as err:
        ReplaySession(trace).replay(RefMap, mode=mode)
    assert "op 1: key index 5" in str(err.value)


@pytest.mark.parametrize("mode", ["timing", "counting", "validating"])
def test_overlong_yielding_advance_is_rejected_at_setup(mode, trace_of_words):
    # Without the setup check, timing mode spins through 2^31 - 1 steps.
    iter_new, put = int(RawOpKind.ITER_NEW), int(RawOpKind.PUT)
    yielding = int(RawOpKind.ITER_ADVANCE) | OUTCOME_BIT
    overlong = trace_of_words(_CREATE + [iter_new, 0, 0, yielding, 0, 2**31 - 1],
                              n_keys=2, iter_slots=1)
    with pytest.raises(TraceIntegrityError, match="op 2: .*2147483647"):
        ReplaySession(overlong).replay(RefMap, mode=mode)
    # A run as long as the key table is still accepted.
    full = trace_of_words(_CREATE + [put, 0, 0, put, 0, 1, iter_new, 0, 0, yielding, 0, 2],
                          n_keys=2, iter_slots=1)
    assert ReplaySession(full).replay(RefMap, mode=mode).ops_executed == 5


@pytest.mark.parametrize("n_keys", [0, 2])
def test_overlong_exhausted_advance_is_rejected_at_setup(n_keys, trace_of_words):
    # Only setup is exercised: a replay of this stream would spin 2^31 - 1 steps.
    iter_new, exhausted = int(RawOpKind.ITER_NEW), int(RawOpKind.ITER_ADVANCE)
    overlong = trace_of_words(_CREATE + [iter_new, 0, 0, exhausted, 0, 2**31 - 1],
                              n_keys=n_keys, iter_slots=1)
    with pytest.raises(TraceIntegrityError, match="op 2: .*2147483647"):
        ReplaySession(overlong)
    # One exhausted step, as coalesce emits it, is accepted even with no keys.
    once = trace_of_words(_CREATE + [iter_new, 0, 0, exhausted, 0, 1],
                          n_keys=n_keys, iter_slots=1)
    assert ReplaySession(once).replay(RefMap, mode="validating").ops_executed == 3


@pytest.mark.parametrize("mode", ["timing", "counting", "validating"])
def test_adapter_fault_is_not_reported_as_trace_fault(mode, trace_of_words):
    class Broken(RefMap):
        def get(self, key):
            raise AttributeError("adapter bug")

    trace = trace_of_words(_CREATE + [int(RawOpKind.GET), 0, 0], n_keys=1)
    with pytest.raises(AttributeError, match="adapter bug"):
        ReplaySession(trace).replay(Broken, mode=mode)


def test_value_token_is_shared_constant():
    def build(s):
        m = s.new_map()
        m.put(IntKey(1), "application value")

    trace = _trace_of(build)
    stored = []

    class Spy(RefMap):
        def put(self, key, value):
            stored.append(value)
            return super().put(key, value)

    ReplaySession(trace).replay(Spy, mode="timing")
    assert stored == [VALUE_TOKEN]


def test_get_implementation_registry():
    assert get_implementation("refmap") is RefMap
    assert get_implementation("pydict") is PyDictMap
    with pytest.raises(ConfigError) as err:
        get_implementation("treemap")
    assert "refmap" in str(err.value)
