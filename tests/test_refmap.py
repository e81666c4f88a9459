"""Reference map semantics: capacities, thresholds, probes, iteration, digests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapreplay.errors import ConfigError
from mapreplay.refmap import (
    MAX_CAPACITY,
    DEFAULT_CONFIG,
    MapConfig,
    PyDictMap,
    RefMap,
    View,
    bucket_index,
    iterate,
    normalize_capacity,
    run_config,
    threshold,
)
from mapreplay.tracer import TraceSession
from mapreplay.workloads import IntKey


def k(i, h=None):
    return IntKey(i, hash32=i if h is None else h)


# -- normalize_capacity ------------------------------------------------------------


def test_normalize_capacity_power_of_two_identity():
    assert normalize_capacity(16) == 16


def test_normalize_capacity_rounds_up():
    assert normalize_capacity(17) == 32


def test_normalize_capacity_cap():
    # Oracle: the largest power of two within the signed 32-bit budget.
    largest = max(1 << e for e in range(40) if (1 << e) <= 2**31 - 1)
    assert largest == 2**30
    assert normalize_capacity(2**30 + 1) == largest
    assert normalize_capacity(2**31 - 1) == largest


def test_normalize_capacity_rejects_zero():
    with pytest.raises(ConfigError):
        normalize_capacity(0)


def test_normalize_capacity_small_values():
    assert [normalize_capacity(n) for n in (1, 2, 3, 5, 9)] == [1, 2, 4, 8, 16]


# -- run_config --------------------------------------------------------------------

_RUN = MapConfig(64, 500)


def test_run_config_gives_a_default_request_the_runs_config():
    # An explicit (16, 750) is the default: MRT1 records it with the
    # default's aux, so replay cannot tell the two apart.
    assert run_config(16, 750, _RUN) is _RUN
    s = TraceSession()
    s.new_map()
    s.new_map(MapConfig(16, 750))
    first, second = s.close().events
    assert first.aux == second.aux


@pytest.mark.parametrize("capacity, lf", [(16, 500), (64, 750), (64, 500), (1, 1000)])
def test_run_config_keeps_any_other_request(capacity, lf):
    assert run_config(capacity, lf, _RUN) == MapConfig(capacity, lf)
    assert run_config(capacity, lf, DEFAULT_CONFIG) == MapConfig(capacity, lf)


@pytest.mark.parametrize("capacity, lf", [(0, 750), (16, 0), (16, 1001), (2**31, 750)])
def test_run_config_rejects_a_request_no_map_accepts(capacity, lf):
    with pytest.raises(ConfigError):
        run_config(capacity, lf, _RUN)


# -- bucket_index -------------------------------------------------------------------


def _bucket_oracle(h: int, capacity: int) -> int:
    """Independent reimplementation: string-level XOR and modulo."""
    bits = format(h % (1 << 32), "032b")
    shifted = ("0" * 16 + bits)[:32]
    return int("".join("01"[a != b] for a, b in zip(bits, shifted)), 2) % capacity


def test_bucket_index_zero_hash():
    assert bucket_index(0, 16) == 0


def test_bucket_index_low_bits_identity():
    assert bucket_index(5, 16) == 5


def test_bucket_index_spreads_high_bits():
    # 65537 = 0x10001; spread folds bit 16 down: 65537 ^ 1 = 65536, & 15 = 0.
    assert bucket_index(65537, 16) == 0
    assert _bucket_oracle(65537, 16) == 0


def test_a_key_without_hash32_is_not_a_key():
    # One hashing rule: the map reads every key's hash from `hash32`.
    with pytest.raises(AttributeError):
        RefMap().put("word", 1)


@pytest.mark.parametrize("op", ["get", "contains_key", "remove"])
def test_a_key_without_hash32_is_refused_before_the_table_exists(op):
    # A map with no table yet holds nothing, but it reads the hash first,
    # as put does, so such a key fails on every op and not only later ones.
    m = RefMap()
    with pytest.raises(AttributeError):
        getattr(m, op)("word")
    assert m.capacity() == 0


def test_bucket_index_matches_oracle():
    rng = random.Random(42)
    for _ in range(500):
        h = rng.randint(-(2**31), 2**31 - 1)
        cap = 1 << rng.randint(0, 30)
        assert bucket_index(h, cap) == _bucket_oracle(h, cap), (h, cap)


# -- threshold ---------------------------------------------------------------------


def test_threshold_paper_default():
    assert threshold(16, 750) == 12


def test_threshold_examples():
    assert threshold(32, 750) == 24
    assert threshold(16, 1000) == 16


# -- put / resize schedule ------------------------------------------------------------


def _analytic_resizes(n_inserts: int, dic: int, lf_milli: int = 750) -> int:
    cap = normalize_capacity(dic)
    thr = threshold(cap, lf_milli)
    resizes = 0
    for size in range(1, n_inserts + 1):
        while size > thr and cap < MAX_CAPACITY:
            cap *= 2
            thr = threshold(cap, lf_milli)
            resizes += 1
    return resizes


def test_first_resize_at_13():
    m = RefMap()
    for i in range(13):
        m.put(k(i), i)
    assert m.counters.resizes == 1
    assert m.capacity() == 32


def test_resize_points_13_25_49():
    m = RefMap()
    points = []
    for i in range(49):
        before = m.counters.resizes
        m.put(k(i), i)
        if m.counters.resizes != before:
            points.append(i + 1)
    assert points == [13, 25, 49]


@pytest.mark.parametrize("dic,expected", [(16, 3), (32, 2), (64, 1), (128, 0)])
def test_resize_counts_49_keys(dic, expected):
    assert _analytic_resizes(49, dic) == expected  # oracle agrees with the schedule
    m = RefMap(MapConfig(dic))
    for i in range(49):
        m.put(k(i), i)
    assert m.counters.resizes == expected


def test_put_existing_key_updates():
    m = RefMap()
    assert m.put(k(1), "a") is None
    before = m.counters.resizes
    old = m.put(IntKey(1, hash32=1), "b")  # equal but not identical key
    assert old == "a"
    assert m.size() == 1
    assert m.counters.resizes == before
    assert m.get(k(1)) == "b"


def test_size_stays_at_or_below_threshold():
    m = RefMap(MapConfig(1, 1000))
    for i in range(100):
        m.put(k(i), i)
        assert m.size() <= threshold(m.capacity(), 1000)


def test_tiny_load_factor_doubles_repeatedly():
    m = RefMap(MapConfig(1, 1))
    m.put(k(0), 0)
    # threshold stays 0 until capacity * 1/1000 >= 1, i.e. capacity 1024
    assert m.capacity() == 1024
    assert m.size() == 1


# -- get / contains / remove ----------------------------------------------------------


def test_get_on_unallocated_map():
    m = RefMap()
    assert m.get(k(1)) is None
    assert m.counters.collision_probes == 0
    assert m.capacity() == 0


def test_collision_probe_counts():
    # Manual chain-walk oracle: three keys in one bucket, probe the third.
    m = RefMap()
    for i in range(3):
        m.put(k(100 + i, h=7), i)
    m.counters.reset()
    assert m.get(k(102, h=7)) == 2
    assert m.counters.collision_probes == 2  # walked past two earlier entries
    assert m.get(k(100, h=7)) == 0
    assert m.counters.collision_probes == 2  # head hit adds none


def test_miss_probes_whole_chain():
    m = RefMap()
    for i in range(3):
        m.put(k(100 + i, h=7), i)
    m.counters.reset()
    assert m.get(k(999, h=7)) is None
    assert m.counters.collision_probes == 3


def test_remove_absent():
    m = RefMap()
    m.put(k(1), 1)
    assert m.remove(k(2)) is None
    assert m.size() == 1


def test_remove_unlinks_and_preserves_chain_order():
    m = RefMap()
    for i in range(3):
        m.put(k(100 + i, h=7), i)
    assert m.remove(k(101, h=7)) == 1
    assert m.size() == 2
    it = m.iterator(View.KEYS)
    seen = []
    while (x := it.advance()) is not None:
        seen.append(x.ident)
    assert seen == [100, 102]


def test_clear_keeps_capacity():
    m = RefMap()
    for i in range(20):
        m.put(k(i), i)
    cap = m.capacity()
    m.clear()
    assert m.size() == 0
    assert m.capacity() == cap
    assert m.get(k(1)) is None


# -- iteration -----------------------------------------------------------------------


def test_full_scan_of_empty_allocated_map():
    m = RefMap()
    m.put(k(0), 0)
    m.remove(k(0))
    m.counters.reset()
    assert iterate(m, View.ENTRIES) == 0
    assert m.counters.buckets_scanned == 16


def test_full_scan_visits_capacity_slots_exactly():
    m = RefMap(MapConfig(128))
    for i in range(8):
        m.put(k(i * 17), i)
    m.counters.reset()
    assert iterate(m, View.KEYS) == 8
    assert m.counters.buckets_scanned == 128
    assert m.counters.buckets_scanned >= 121


def test_full_scan_single_bucket_chain():
    m = RefMap()
    for i in range(8):
        m.put(k(i, h=3), i)
    m.counters.reset()
    assert iterate(m, View.VALUES) == 8
    assert m.counters.buckets_scanned == 16


def test_unallocated_map_scan():
    m = RefMap()
    m.counters.reset()
    assert iterate(m) == 0
    assert m.counters.buckets_scanned == 0


def test_advance_past_exhaustion_signals_none():
    m = RefMap()
    m.put(k(1), 1)
    it = m.iterator(View.KEYS)
    assert it.advance() is not None
    assert it.advance() is None
    assert it.advance() is None  # idempotent, no error


def test_iterator_remove():
    m = RefMap()
    for i in range(6):
        m.put(k(i), i)
    it = m.iterator(View.KEYS)
    removed = []
    while (key := it.advance()) is not None:
        if key.ident % 2 == 0:
            it.remove()
            removed.append(key.ident)
    assert sorted(removed) == [0, 2, 4]
    assert m.size() == 3
    assert not m.contains_key(k(0))
    assert m.contains_key(k(1))


def test_iterator_remove_before_advance_raises():
    m = RefMap()
    m.put(k(1), 1)
    it = m.iterator()
    with pytest.raises(RuntimeError):
        it.remove()


def test_iterator_remove_of_an_entry_the_map_lost_raises():
    m = RefMap()
    m.put(k(1), 1)
    it = m.iterator(View.KEYS)
    assert it.advance() == k(1)
    m.remove(k(1))
    with pytest.raises(RuntimeError, match="stale iterator: entry no longer in its bucket"):
        it.remove()


def test_iteration_order_is_bucket_then_chain():
    m = RefMap()
    m.put(k(5), "a")  # bucket 5
    m.put(k(21, h=5), "b")  # chains after ident 5 in bucket 5
    m.put(k(2), "c")  # bucket 2
    it = m.iterator(View.VALUES)
    order = []
    while (v := it.advance()) is not None:
        order.append(v)
    assert order == ["c", "a", "b"]


# -- copy construction ---------------------------------------------------------------


def test_copy_presizes_to_fit():
    src = RefMap()
    for i in range(12):
        src.put(k(i), i)
    dup = RefMap.copy_of(src)
    assert dup.size() == 12
    assert dup.capacity() == 16  # ceil(12 / 0.75) = 16
    assert dup.counters.resizes == 0
    for i in range(12):
        assert dup.get(k(i)) == i


def test_copy_of_larger_source():
    src = RefMap()
    for i in range(40):
        src.put(k(i), i)
    dup = RefMap.copy_of(src)
    assert dup.capacity() == 64  # ceil(40 / 0.75) = 54 -> 64
    assert dup.counters.resizes == 0


def test_copy_of_empty_source_stays_lazy():
    dup = RefMap.copy_of(RefMap())
    assert dup.size() == 0
    assert dup.capacity() == 0


@pytest.mark.parametrize("cls, other", [(RefMap, PyDictMap), (PyDictMap, RefMap)],
                         ids=["RefMap", "PyDictMap"])
def test_copy_of_another_map_kind_is_refused(cls, other):
    name = cls.__name__
    with pytest.raises(TypeError, match=f"^{name}.copy_of requires a {name} source$"):
        cls.copy_of(other())


# -- digests ------------------------------------------------------------------------


def test_digest_empty_maps_equal():
    assert RefMap().state_digest() == RefMap().state_digest()


def test_digest_deterministic_for_same_hash_sequence():
    a, b = RefMap(), RefMap()
    for m in (a, b):
        for i in range(30):
            m.put(k(i), i)
    assert a.state_digest() == b.state_digest()


def test_digest_differs_when_one_hash_differs():
    a, b = RefMap(), RefMap()
    for i in range(10):
        a.put(k(i), i)
        b.put(k(i, h=i if i != 5 else 1 << 20), i)
    # structural oracle: the bucket layouts differ, so digests must differ
    assert a.state_digest() != b.state_digest()


def test_digest_ignores_values():
    a, b = RefMap(), RefMap()
    a.put(k(1), "x")
    b.put(k(1), "y")
    assert a.state_digest() == b.state_digest()


def test_digest_distinguishes_allocated_from_lazy():
    allocated = RefMap()
    allocated.put(k(0), 0)
    allocated.remove(k(0))
    assert allocated.state_digest() != RefMap().state_digest()


# -- whole-map equivalence against an association-list oracle --------------------------


class AssocOracle:
    """Brute-force reference: a list of (key, value) pairs, equality by ==."""

    def __init__(self):
        self.items = []

    def _find(self, key):
        for i, (key_i, _) in enumerate(self.items):
            if key_i == key:
                return i
        return -1

    def put(self, key, value):
        i = self._find(key)
        if i >= 0:
            old = self.items[i][1]
            self.items[i] = (key, value)
            return old
        self.items.append((key, value))
        return None

    def get(self, key):
        i = self._find(key)
        return None if i < 0 else self.items[i][1]

    def remove(self, key):
        i = self._find(key)
        if i < 0:
            return None
        return self.items.pop(i)[1]

    def contains_key(self, key):
        return self._find(key) >= 0

    def clear(self):
        self.items = []

    def size(self):
        return len(self.items)


def _apply_sequence(m, oracle, ops):
    for op, ident, value in ops:
        key = IntKey(ident, hash32=ident % 11 if ident % 3 == 0 else ident)
        if op == 0:
            assert m.put(key, value) == oracle.put(key, value)
        elif op == 1:
            assert m.get(key) == oracle.get(key)
        elif op == 2:
            assert m.remove(key) == oracle.remove(key)
        elif op == 3:
            assert m.contains_key(key) == oracle.contains_key(key)
        else:
            m.clear()
            oracle.clear()
        assert m.size() == oracle.size()


ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 3),  # clears are covered by the seeded test below
        st.integers(0, 40),
        st.integers(0, 10**6),
    ),
    max_size=200,
)


@settings(max_examples=150, deadline=None)
@given(ops_strategy, st.integers(1, 64))
def test_refmap_matches_assoc_oracle(ops, dic):
    m = RefMap(MapConfig(dic, 750))
    _apply_sequence(m, AssocOracle(), ops)
    _check_bucket_invariant(m)


def _check_bucket_invariant(m: RefMap):
    # Every entry lives in the bucket its hash maps to at the current capacity.
    if m._table is None:
        return
    cap = len(m._table)
    for idx, head in enumerate(m._table):
        e = head
        while e is not None:
            assert bucket_index(e.hash, cap) == idx
            e = e.next


_EDGE_HASHES = (0, -1, -(2**31), 2**31 - 1, 0x5EED)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),  # put, else remove
            st.integers(0, 24),
            st.one_of(st.sampled_from(_EDGE_HASHES), st.integers(-(2**31), 2**31 - 1)),
        ),
        max_size=120,
    ),
    st.integers(1, 16),
)
def test_entries_sit_in_their_bucket_after_puts_and_removes(ops, dic):
    # RefMap computes the bucket inline; bucket_index is the reference.
    # Keys that draw the same edge hash collide.
    m = RefMap(MapConfig(dic, 750))
    hashes, present = {}, set()
    for put, ident, h in ops:
        key = IntKey(ident, hash32=hashes.setdefault(ident, h))
        if put:
            m.put(key, ident)
            present.add(ident)
        else:
            m.remove(key)
            present.discard(ident)
        _check_bucket_invariant(m)
    assert m.size() == len(present)
    for ident, h in hashes.items():
        key = IntKey(ident, hash32=h)
        assert m.get(key) == (ident if ident in present else None)
        assert m.contains_key(key) == (ident in present)


def test_randomized_sequences_match_oracle():
    # 1000 seeded sequences of up to 200 operations, clears included.
    rng = random.Random(99)
    for _ in range(1000):
        m = RefMap(MapConfig(rng.choice((1, 4, 16, 64))))
        oracle = AssocOracle()
        ops = [
            (rng.choices((0, 1, 2, 3, 4), weights=(8, 6, 4, 4, 1))[0],
             rng.randrange(30), rng.randrange(1000))
            for _ in range(rng.randrange(201))
        ]
        _apply_sequence(m, oracle, ops)
        _check_bucket_invariant(m)


# -- PyDictMap adapter ----------------------------------------------------------------


def test_pydict_adapter_basics():
    m = PyDictMap(DEFAULT_CONFIG)
    assert m.put(k(1), "a") is None
    assert m.put(k(1), "b") == "a"
    assert m.get(k(1)) == "b"
    assert m.contains_key(k(1))
    assert m.remove(k(1)) == "b"
    assert m.size() == 0


def test_pydict_copy_and_iteration():
    m = PyDictMap()
    for i in range(5):
        m.put(k(i), i)
    c = PyDictMap.copy_of(m)
    assert c.size() == 5
    assert iterate(c, View.ENTRIES) == 5
    it = c.iterator(View.KEYS)
    it.advance()
    it.remove()
    assert c.size() == 4
    assert m.size() == 5
