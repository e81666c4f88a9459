"""Replay semantics: mockup keys, setup preallocation, modes, overrides."""

import gc

import pytest

from mapreplay import replay
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
    k = MockupKey(-123456)
    assert k.hash32 == -123456
    assert type(k.hash32) is int


def test_mockup_key_equality_is_identity():
    a, b = MockupKey(5), MockupKey(5)
    assert a == a and not a != a
    assert a != b and not a == b  # equal hashes, distinct keys
    assert a != 5 and 5 != a
    assert hash(a) == hash(5) == 5
    assert len({a: 1, b: 2}) == 2


def _zero_and_minus_one_keys(m):
    # Hash 0 makes a falsy MockupKey, and Python hashes -1 as -2; three keys
    # share each hash, so every probe walks a collision chain.
    zeros = [IntKey(i, hash32=0) for i in range(3)]
    minus_ones = [IntKey(10 + j, hash32=-1) for j in range(3)]
    for k in zeros + minus_ones:
        m.put(k, 1)
    for k in zeros + minus_ones:
        m.get(k)
        m.contains_key(k)
    m.remove(zeros[1])
    m.remove(minus_ones[0])
    m.get(zeros[1])
    m.put(zeros[1], 2)
    it = m.iterator()
    while it.advance() is not None:
        pass
    m.contains_key(minus_ones[0])


def test_keys_with_hash_zero_and_minus_one_replay_in_every_mode():
    trace = _trace_of(lambda s: _zero_and_minus_one_keys(s.new_map()))
    assert sorted(set(trace.key_hashes.tolist())) == [-1, 0]
    session = ReplaySession(trace)
    assert not session.keys[0]  # a hash-0 key is falsy
    for mode in ("timing", "counting", "validating"):
        assert session.replay(RefMap, mode=mode).ops_executed == trace.op_count
    session.replay(PyDictMap)
    direct = RefMap()
    _zero_and_minus_one_keys(direct)
    assert session.replay(RefMap, mode="validating").map_digests == [direct.state_digest()]


# -- setup ----------------------------------------------------------------------------


def test_setup_preallocates_all_mockup_keys():
    trace = _insert_only_trace(49)
    session = ReplaySession(trace)
    assert len(session.keys) == len(trace.key_hashes) == 49
    assert [k.hash32 for k in session.keys] == list(trace.key_hashes)


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


def _many_keys_trace(trace_of_words):
    # More than twice the young-generation threshold: built one by one under
    # the collector, these keys would set off at least three collections.
    n_keys = 4 * max(gc.get_threshold()[0], 100)
    return trace_of_words(_CREATE, n_keys=n_keys)


def _collections_during(fn):
    """Generations of the collections that run during fn(), from an empty
    young generation."""
    seen = []

    def watch(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()
    gc.callbacks.append(watch)
    try:
        fn()
    finally:
        gc.callbacks.remove(watch)
    return seen


def test_setup_builds_keys_under_one_young_collection(trace_of_words):
    trace = _many_keys_trace(trace_of_words)
    sessions = []
    assert gc.isenabled()
    assert _collections_during(lambda: sessions.append(ReplaySession(trace))) == [0]
    assert gc.isenabled()
    # A burst that stays under the threshold is left to the collector.
    few = trace_of_words(_CREATE, n_keys=10)
    assert _collections_during(lambda: ReplaySession(few)) == []
    keys = sessions[0].keys
    assert [k.hash32 for k in keys] == trace.key_hashes.tolist()
    assert all(type(k) is MockupKey for k in keys)
    assert len({id(k) for k in keys}) == len(keys)


def test_setup_leaves_a_disabled_collector_off(trace_of_words):
    trace = _many_keys_trace(trace_of_words)
    gc.disable()
    try:
        assert _collections_during(lambda: ReplaySession(trace)) == []
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_setup_restores_the_collector_when_key_construction_raises(enabled, monkeypatch,
                                                                    trace_of_words):
    def broken(h):
        raise RuntimeError("no key")

    monkeypatch.setattr(replay, "MockupKey", broken)
    trace = trace_of_words(_CREATE, n_keys=3)
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(RuntimeError, match="no key"):
            ReplaySession(trace)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


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


@pytest.mark.parametrize("mode", ["timing", "validating"])
def test_pydict_iterator_skips_and_refuses_keys_the_map_lost(mode, trace_of_words):
    # Its cursor walks a snapshot of the keys; one the map lost since must
    # be skipped, not read, and an iterator remove of it is a trace fault.
    put, remove = int(RawOpKind.PUT), int(RawOpKind.REMOVE) | OUTCOME_BIT
    values = int(RawOpKind.ITER_NEW) | (1 << 9)
    advance = int(RawOpKind.ITER_ADVANCE)
    drained = trace_of_words(
        _CREATE + [put, 0, 0, values, 0, 0, remove, 0, 0, advance, 0, 1], n_keys=1, iter_slots=1
    )
    assert ReplaySession(drained).replay(PyDictMap, mode=mode).ops_executed == 5
    removed_twice = trace_of_words(
        _CREATE + [put, 0, 0, values, 0, 0, advance | OUTCOME_BIT, 0, 1, remove, 0, 0,
                   int(RawOpKind.ITER_REMOVE), 0, 0],
        n_keys=1, iter_slots=1,
    )
    with pytest.raises(TraceIntegrityError) as err:
        ReplaySession(removed_twice).replay(PyDictMap, mode=mode)
    assert str(err.value) == "op 5: iterator slot 0: remove() of an element the map no longer holds"


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
def test_fault_op_index_is_exact_at_both_ends(mode, trace_of_words):
    # The loop counts no ops: the index comes from the words left unread.
    put, get, free_map = int(RawOpKind.PUT), int(RawOpKind.GET), int(RawOpKind.FREE_MAP)
    create, iter_new = int(RawOpKind.CREATE), int(RawOpKind.ITER_NEW)
    iter_remove = int(RawOpKind.ITER_REMOVE)
    advance = int(RawOpKind.ITER_ADVANCE) | OUTCOME_BIT
    streams = [  # (opcode stream, index of the faulty op, fault)
        ([put, 0, 0] + _CREATE + [put, 0, 0], 0, "map slot 0 used after free"),
        ([free_map, 0, 0] + _CREATE, 0, "map slot 0 freed twice"),
        ([0, 0, 0] + _CREATE, 0, "unknown opcode 0"),
        (_CREATE + [put, 0, 0, free_map, 0, 0, get, 0, 0], 3, "map slot 0 used after free"),
        (_CREATE + [free_map, 0, 0, free_map, 0, 0], 2, "map slot 0 freed twice"),
        (_CREATE + [put, 0, 0, get, 0, 7], 2, "key index 7 out of range"),
        # Malformed words: a view no iterator has, a config no map accepts,
        # and an iterator remove with nothing to unlink.
        (_CREATE + [iter_new | (3 << 9), 0, 0], 1, "unknown iterator view 3"),
        (_CREATE + [free_map, 0, 0, create | (1 << 19), 0, 16], 2,
         "load factor must be in (0, 1] thousandths, got 0"),
        (_CREATE + [free_map, 0, 0, create | (1001 << 9), 0, 16], 2,
         "load factor must be in (0, 1] thousandths, got 1001"),
        (_CREATE + [free_map, 0, 0, create | (750 << 9), 0, 0], 2,
         "initial capacity must be in [1, 2^31-1], got 0"),
        (_CREATE + [iter_new, 0, 0, iter_remove, 0, 0], 2,
         "iterator slot 0: remove() before advance() or after remove()"),
        (_CREATE + [put, 0, 0, iter_new, 0, 0, advance, 0, 1, iter_remove, 0, 0,
                    iter_remove, 0, 0], 5,
         "iterator slot 0: remove() before advance() or after remove()"),
    ]
    for words, bad_op, fault in streams:
        trace = trace_of_words(words, n_keys=1, iter_slots=1)
        with pytest.raises(TraceIntegrityError) as err:
            ReplaySession(trace).replay(RefMap, mode=mode)
        assert str(err.value) == f"op {bad_op}: {fault}"
    if mode == "validating":  # a recorded hit that replays as a miss, last op
        trace = trace_of_words(_CREATE + [put, 0, 0, get | OUTCOME_BIT, 0, 1], n_keys=2)
        with pytest.raises(FidelityError) as err:
            ReplaySession(trace).replay(RefMap, mode=mode)
        assert err.value.op_index == 2


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


def test_create_above_the_table_limit_is_rejected_at_setup(trace_of_words):
    # Without the setup check, one Create and one Put ask RefMap for a
    # whole table of up to 2^30 slots (8 GiB of list). Only setup is
    # exercised where the table would be large.
    create, put = int(RawOpKind.CREATE) | (750 << 9), int(RawOpKind.PUT)

    def trace(capacity):
        return trace_of_words([create, 0, 16, create, 0, capacity, put, 0, 0], n_keys=1)

    for capacity, slots in [(2**31 - 1, 2**30), (2**24 + 1, 2**25)]:
        with pytest.raises(TraceIntegrityError) as err:
            ReplaySession(trace(capacity))
        assert str(err.value) == f"op 1: create of a {slots}-slot table exceeds the " \
                                 f"{2**24}-slot limit"
    ReplaySession(trace(2**24))


def _puts(n_keys, slot=0):
    return [w for k in range(n_keys) for w in (int(RawOpKind.PUT), slot, k)]


def test_growth_above_the_table_limit_is_rejected_at_setup(trace_of_words):
    # A load factor of 1/1000 makes a 16-slot map double until its table
    # has 1000 slots per entry: 2^15 puts would build 2^25 slots.
    create = int(RawOpKind.CREATE) | (1 << 9)
    trace = trace_of_words([create, 0, 16] + _puts(2**15), n_keys=2**15)
    with pytest.raises(TraceIntegrityError) as err:
        ReplaySession(trace)
    assert str(err.value) == (
        f"op 0: a map with load factor 1/1000 grows to a {2**25}-slot table holding "
        f"the trace's {2**15} keys, above the {2**24}-slot limit"
    )


@pytest.mark.parametrize("held", [1, 2**15 - 1])
def test_growth_is_bounded_by_the_keys_put_into_each_map(held, trace_of_words):
    # A trace of 2^15 keys whose map of load factor 1/1000 holds `held` of
    # them, each put twice; the puts into its slot after its FreeMap are
    # another map's. One entry needs a 1024-slot table and replays;
    # 2^15 - 1 need 2^25 slots.
    tiny = int(RawOpKind.CREATE) | (1 << 9)
    create, free = int(RawOpKind.CREATE) | (750 << 9), int(RawOpKind.FREE_MAP)
    ops = [tiny, 0, 16] + _puts(held) * 2 + [free, 0, 0, create, 0, 16] + _puts(2**15)
    trace = trace_of_words(ops, n_keys=2**15)
    if held == 1:
        assert ReplaySession(trace).replay(RefMap).ops_executed == len(ops) // 3
        return
    with pytest.raises(TraceIntegrityError) as err:
        ReplaySession(trace)
    assert str(err.value) == (
        f"op 0: a map with load factor 1/1000 grows to a {2**25}-slot table holding "
        f"{held} of the trace's {2**15} keys, above the {2**24}-slot limit"
    )


class _Largest(RefMap):
    """RefMap recording the largest table any of its maps reached."""

    seen = 0

    def put(self, key, value):
        out = super().put(key, value)
        _Largest.seen = max(_Largest.seen, self.capacity())
        return out


@pytest.mark.parametrize(
    "n_keys, lf, copy, rejected_op",
    [(64, 63, False, None), (64, 62, False, 0), (768, 1000, True, None), (769, 1000, True, 770)],
)
def test_table_limit_is_tight(n_keys, lf, copy, rejected_op, monkeypatch, trace_of_words):
    # A map that reaches exactly the limit replays; one more slot's worth
    # is rejected. With lf 63/1000, 64 entries need 1016 slots, with 62
    # they need 1033. A copy is sized with the default 750/1000: its 768
    # entries need 1024 slots, 769 need 1026.
    monkeypatch.setattr(replay, "MAX_TABLE_SLOTS", 1 << 10)
    create = int(RawOpKind.CREATE) | (lf << 9)
    ops = [create, 0, 16] + _puts(n_keys) + [int(RawOpKind.CREATE_COPY), 1, 0] * copy
    trace = trace_of_words(ops, n_keys=n_keys, map_slots=2)
    if rejected_op is not None:
        with pytest.raises(TraceIntegrityError, match=(
            f"op {rejected_op}: a map with load factor {750 if copy else lf}/1000 "
            f"grows to a 2048-slot table holding the trace's {n_keys} keys, above "
            f"the 1024-slot limit"
        )):
            ReplaySession(trace)
        return
    _Largest.seen = 0
    ReplaySession(trace).replay(_Largest, mode="validating")
    assert _Largest.seen == 1 << 10


@pytest.mark.parametrize("mode", ["timing", "counting", "validating"])
def test_adapter_fault_is_not_reported_as_trace_fault(mode, trace_of_words):
    trace = trace_of_words(_CREATE + [int(RawOpKind.GET), 0, 0], n_keys=1)
    for error in (AttributeError, RuntimeError, ConfigError):

        class Broken(RefMap):
            def get(self, key):
                raise error("adapter bug")

        with pytest.raises(error, match="adapter bug"):
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
