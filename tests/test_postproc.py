"""Post-processing: sanitization, coalescing, free placement, encoding, stats."""

import zlib

import numpy as np
import pytest

from mapreplay.errors import TraceFormatError, TraceIntegrityError
from mapreplay.postproc import (
    MAGIC,
    OP_KIND_MASK,
    Characterization,
    coalesce,
    decode,
    encode,
    insert_free_events,
    process,
    read_processed,
    sanitize,
    stats,
    to_bytes,
    write_processed,
)
from mapreplay.refmap import RefMap, View
from mapreplay.replay import ReplaySession
from mapreplay.tracer import (
    RawEvent,
    RawOpKind,
    RawTrace,
    TraceSession,
    pack_iternew_aux,
    unpack_iternew_aux,
)
from mapreplay.workloads import IntKey, WorkloadSpec, generate

OP = RawOpKind


def ev(op, map_id, key_id=None, hash32=None, aux=0, outcome=None, thread=0):
    return RawEvent(thread, op, map_id, key_id, hash32, aux, outcome)


def _session_trace(build):
    s = TraceSession()
    build(s)
    return s.close()


# -- sanitize ------------------------------------------------------------------------


def test_sanitize_identity_when_clean():
    raw = generate(WorkloadSpec("random", seed=3))
    assert sanitize(raw).events == raw.events


def test_sanitize_drops_orphan_map_events():
    # Fresh ids: injected traffic must not collide with recorded keys.
    orphan = ev(OP.GET, map_id=(7 << 40) | 12345, key_id=(7 << 40) | 1, hash32=1, outcome=0)
    raw = generate(WorkloadSpec("random", seed=3))
    injected = RawTrace(raw.events[:5] + [orphan] + raw.events[5:])
    cleaned = sanitize(injected)
    assert cleaned.events == sanitize(raw).events


def test_sanitize_drops_foreign_map_traffic():
    s = TraceSession(start_open=False)
    foreign = s.new_map()
    s.open()
    inside = s.new_map()
    inside.put(IntKey(1), 1)
    foreign.put(IntKey(2), 2)
    foreign.get(IntKey(2))
    raw = s.close()
    cleaned = sanitize(raw)
    assert all(e.map_id != foreign.map_id for e in cleaned.events)
    assert len(cleaned.events) == 2  # create + put on the traced map


def test_sanitize_drops_poisoned_map_entirely():
    class Unstable:
        def __init__(self):
            self.h = 5

        def hash32(self):
            return self.h

        def __eq__(self, other):
            return isinstance(other, Unstable)

        def __hash__(self):
            return 1

    s = TraceSession()
    healthy = s.new_map()
    healthy.put(IntKey(1), 1)
    sick = s.new_map()
    bad = Unstable()
    sick.put(bad, 1)
    bad.h = 6
    sick.get(bad)
    raw = s.close()

    # Oracle: the poisoned-map id set is exactly {sick.map_id}.
    cleaned = sanitize(raw)
    assert {e.map_id for e in cleaned.events} == {healthy.map_id}
    assert len(cleaned.events) == 2


def test_sanitize_cascades_to_copies_of_dropped_maps():
    s = TraceSession(start_open=False)
    foreign = s.new_map()
    s.open()
    foreign.put(IntKey(1), 1)
    copy = s.copy_map(foreign)
    copy.get(IntKey(1))
    copy2 = s.copy_map(copy)
    copy2.get(IntKey(1))
    kept = s.new_map()
    kept.put(IntKey(9), 9)
    cleaned = sanitize(s.close())
    assert {e.map_id for e in cleaned.events} == {kept.map_id}


def test_sanitize_drops_iterators_of_dropped_maps():
    s = TraceSession(start_open=False)
    foreign = s.new_map()
    s.open()
    foreign.put(IntKey(1), 1)
    it = foreign.iterator(View.KEYS)
    it.advance()
    kept = s.new_map()
    kept.put(IntKey(2), 2)
    cleaned = sanitize(s.close())
    ops = [e.op for e in cleaned.events]
    assert OP.ITER_NEW not in ops
    assert OP.ITER_ADVANCE not in ops


def test_sanitize_rejects_unknown_map_in_copy():
    events = [
        ev(OP.CREATE_COPY, map_id=2, aux=999),
        ev(OP.GET, map_id=2, key_id=1, hash32=1, outcome=0),
    ]
    assert sanitize(RawTrace(events)).events == []


# -- coalesce ------------------------------------------------------------------------


def _advance_run(trace):
    return [e for e in trace.events if e.op is OP.ITER_ADVANCE]


def test_coalesce_merges_long_run():
    def build(s):
        m = s.new_map()
        for i in range(1000):
            m.put(IntKey(i, hash32=i), i)
        it = m.iterator(View.KEYS)
        for _ in range(1000):
            assert it.advance() is not None

    raw = _session_trace(build)
    out = coalesce(raw)
    runs = _advance_run(out)
    assert len(runs) == 1
    assert runs[0].aux == 1000
    assert runs[0].outcome == 1


def test_coalesce_breaks_at_iterator_remove():
    def build(s):
        m = s.new_map()
        for i in range(5):
            m.put(IntKey(i), i)
        it = m.iterator(View.KEYS)
        it.advance()
        it.remove()
        it.advance()

    out = coalesce(_session_trace(build))
    runs = _advance_run(out)
    assert [r.aux for r in runs] == [1, 1]
    ops = [e.op for e in out.events]
    assert ops.index(OP.ITER_REMOVE) == ops.index(OP.ITER_ADVANCE) + 1


def test_coalesce_breaks_at_mutation_of_same_map():
    def build(s):
        m = s.new_map()
        for i in range(6):
            m.put(IntKey(i), i)
        it = m.iterator(View.KEYS)
        it.advance()
        it.advance()
        m.put(IntKey(100), 100)  # mutation interrupts the run
        it2 = m.iterator(View.KEYS)
        it2.advance()

    out = coalesce(_session_trace(build))
    runs = _advance_run(out)
    assert [r.aux for r in runs] == [2, 1]


def test_coalesce_survives_reads_and_other_maps():
    def build(s):
        m = s.new_map()
        other = s.new_map()
        for i in range(4):
            m.put(IntKey(i), i)
        it = m.iterator(View.KEYS)
        it.advance()
        m.get(IntKey(0))       # read on same map: run continues
        it.advance()
        other.put(IntKey(9), 9)  # mutation of another map: run continues
        it.advance()

    out = coalesce(_session_trace(build))
    runs = _advance_run(out)
    assert [r.aux for r in runs] == [3]


def test_coalesce_splits_on_outcome_flip():
    def build(s):
        m = s.new_map()
        m.put(IntKey(1), 1)
        it = m.iterator(View.KEYS)
        it.advance()   # yield
        it.advance()   # exhausted
        it.advance()   # exhausted again

    out = coalesce(_session_trace(build))
    runs = _advance_run(out)
    assert [(r.aux, r.outcome) for r in runs] == [(1, 1), (2, 0)]


def test_coalesce_no_advances_is_identity():
    raw = generate(WorkloadSpec("dedupe", seed=1, params={"ops": 50, "universe": 20}))
    assert coalesce(raw).events == raw.events


def test_coalesce_preserves_yield_totals():
    raw = generate(WorkloadSpec("scan", seed=2, params={"maps": 20}))
    before = sum(e.aux for e in raw.events if e.op is OP.ITER_ADVANCE and e.outcome == 1)
    out = coalesce(raw)
    after = sum(e.aux for e in out.events if e.op is OP.ITER_ADVANCE and e.outcome == 1)
    assert before == after


# -- free events -----------------------------------------------------------------------


def _last_use_oracle(events):
    """Independent last-use scan (mirrors the spec's rule, separate code)."""
    iter_owner = {}
    for e in events:
        if e.op is OP.ITER_NEW:
            iter_owner[unpack_iternew_aux(e.aux)[0]] = e.map_id
    last = {}
    for i, e in enumerate(events):
        if e.op in (OP.FREE_MAP, OP.FREE_ITER):
            continue
        if e.op in (OP.ITER_ADVANCE, OP.ITER_REMOVE):
            last[("iter", e.map_id)] = i
            last[("map", iter_owner[e.map_id])] = i
        else:
            last[("map", e.map_id)] = i
            if e.op is OP.CREATE_COPY:
                last[("map", e.aux)] = i
            elif e.op is OP.ITER_NEW:
                last[("iter", unpack_iternew_aux(e.aux)[0])] = i
    return last


def _check_free_placement(annotated):
    events = annotated.events
    last = _last_use_oracle(events)
    frees = {}
    for i, e in enumerate(events):
        if e.op is OP.FREE_MAP:
            key = ("map", e.map_id)
        elif e.op is OP.FREE_ITER:
            key = ("iter", e.map_id)
        else:
            continue
        assert key not in frees, f"duplicate free for {key}"
        frees[key] = i
    assert set(frees) == set(last)
    base = {k: v for k, v in last.items()}
    for key, free_idx in frees.items():
        last_idx = base[key]
        assert free_idx > last_idx
        between = events[last_idx + 1 : free_idx]
        assert all(e.op in (OP.FREE_MAP, OP.FREE_ITER) for e in between), key


def test_free_directly_after_single_use():
    def build(s):
        m = s.new_map()
        m.put(IntKey(1), 1)
        other = s.new_map()
        other.put(IntKey(2), 2)

    out = insert_free_events(_session_trace(build))
    ops = [e.op for e in out.events]
    assert ops == [OP.CREATE, OP.PUT, OP.FREE_MAP, OP.CREATE, OP.PUT, OP.FREE_MAP]


def test_free_at_stream_end():
    def build(s):
        m = s.new_map()
        m.put(IntKey(1), 1)

    out = insert_free_events(_session_trace(build))
    assert out.events[-1].op is OP.FREE_MAP


def test_free_iter_before_unrelated_opcodes():
    def build(s):
        m = s.new_map()
        m.put(IntKey(1), 1)
        it = m.iterator(View.KEYS)
        while it.advance() is not None:
            pass
        other = s.new_map()
        other.put(IntKey(2), 2)

    out = insert_free_events(coalesce(_session_trace(build)))
    ops = [e.op for e in out.events]
    free_iter_at = ops.index(OP.FREE_ITER)
    later_create = ops.index(OP.CREATE, 1)
    assert free_iter_at < later_create
    _check_free_placement(out)


def test_free_map_waits_for_its_iterators():
    def build(s):
        m = s.new_map()
        for i in range(3):
            m.put(IntKey(i), i)
        it = m.iterator(View.KEYS)
        it.advance()
        it.remove()  # mutates the map through the iterator

    out = insert_free_events(coalesce(_session_trace(build)))
    ops = [e.op for e in out.events]
    assert ops.index(OP.FREE_MAP) > ops.index(OP.ITER_REMOVE)
    _check_free_placement(out)


@pytest.mark.parametrize("name", ["random", "scan", "populate-copy", "mixed"])
def test_free_placement_on_workloads(small_traces, name):
    _, raw, _ = small_traces[name]
    _check_free_placement(insert_free_events(coalesce(sanitize(raw))))


# -- encode / decode -------------------------------------------------------------------


def test_encode_empty_trace():
    trace = encode(RawTrace([]))
    assert trace.op_count == 0
    assert len(trace.key_hashes) == 0
    assert trace.counts == Characterization(bytes=trace.encoded_size)
    again = decode(to_bytes(trace))
    assert again == trace


def test_encode_requires_free_annotations():
    def build(s):
        s.new_map().put(IntKey(1), 1)

    with pytest.raises(TraceIntegrityError):
        encode(_session_trace(build))


@pytest.mark.parametrize(
    "events, message",
    [
        ([ev(OP.CREATE, 1), ev(OP.CREATE, 1), ev(OP.FREE_MAP, 1)], "created more than once"),
        ([ev(OP.CREATE, 1), ev(OP.FREE_MAP, 1), ev(OP.GET, 1, 5, 5, outcome=0)], "not live"),
        ([ev(OP.CREATE_COPY, 1, aux=1), ev(OP.FREE_MAP, 1)], "not live"),
    ],
    ids=["create-twice", "use-after-free", "copy-of-itself"],
)
def test_encode_rejects_broken_lifetimes(events, message):
    with pytest.raises(TraceIntegrityError, match=message):
        encode(RawTrace(events))


def test_round_trip_on_workloads(small_traces):
    for name, (_, _, trace) in small_traces.items():
        assert decode(to_bytes(trace)) == trace, name


def test_round_trip_file(tmp_path, small_traces):
    _, _, trace = small_traces["random"]
    path = tmp_path / "t.mpt"
    write_processed(trace, path)
    assert read_processed(path) == trace


def test_disjoint_lifetimes_share_slot_zero():
    def build(s):
        a = s.new_map()
        a.put(IntKey(1), 1)
        b = s.new_map()  # created after a's last use
        b.put(IntKey(2), 2)

    trace = process(_session_trace(build))
    assert trace.max_map_slots == 1
    creates = [t for t in trace.triples() if t[0] & OP_KIND_MASK == OP.CREATE]
    assert [c[1] for c in creates] == [0, 0]


def _interval_overlap_oracle(events):
    """Max simultaneously live maps, from create/free index intervals."""
    live = 0
    peak = 0
    for e in events:
        if e.op in (OP.CREATE, OP.CREATE_COPY):
            live += 1
            peak = max(peak, live)
        elif e.op is OP.FREE_MAP:
            live -= 1
    return peak


def test_slot_bound_matches_interval_overlap_oracle(small_traces):
    for name, (_, raw, trace) in small_traces.items():
        annotated = insert_free_events(coalesce(sanitize(raw)))
        assert trace.max_map_slots == _interval_overlap_oracle(annotated.events), name


def test_decode_bad_magic():
    with pytest.raises(TraceFormatError) as err:
        decode(b"XXXX" + b"\x00" * 10)
    assert err.value.offset == 0


def test_decode_bad_version():
    with pytest.raises(TraceFormatError) as err:
        decode(MAGIC + (9).to_bytes(4, "little") + b"\x00" * 4)
    assert err.value.offset == 4


def test_decode_corrupt_payload():
    with pytest.raises(TraceFormatError) as err:
        decode(MAGIC + (1).to_bytes(4, "little") + b"not deflate")
    assert err.value.offset == 8


def test_decode_truncated_payload_names_offset(small_traces):
    _, _, trace = small_traces["random"]
    payload = zlib.decompress(to_bytes(trace)[8:])
    clipped = MAGIC + (1).to_bytes(4, "little") + zlib.compress(payload[:-5])
    with pytest.raises(TraceFormatError) as err:
        decode(clipped)
    assert err.value.offset is not None


def test_decode_trailing_bytes_rejected(small_traces):
    _, _, trace = small_traces["random"]
    payload = zlib.decompress(to_bytes(trace)[8:])
    padded = MAGIC + (1).to_bytes(4, "little") + zlib.compress(payload + b"\x00" * 4)
    with pytest.raises(TraceFormatError) as err:
        decode(padded)
    assert "trailing" in str(err.value)


# -- stats ------------------------------------------------------------------------------


def test_stats_empty():
    c = stats(encode(RawTrace([])))
    assert (c.events, c.creates, c.reads, c.writes, c.iterates) == (0, 0, 0, 0, 0)


def test_stats_creates_puts_frees():
    def build(s):
        for i in range(10):
            m = s.new_map()
            m.put(IntKey(i), i)

    trace = process(_session_trace(build))
    c = trace.counts
    assert c.events == 30  # 10 creates + 10 puts + 10 frees
    assert c.creates == 10
    assert c.writes == 10
    assert c.reads == 0
    assert c.iterates == 0


def test_stats_matches_direct_tally(small_traces):
    for name, (_, _, trace) in small_traces.items():
        tally = {"creates": 0, "reads": 0, "writes": 0, "iterates": 0}
        for word, _, _ in trace.triples():
            kind = OP(word & OP_KIND_MASK)
            if kind in (OP.CREATE, OP.CREATE_COPY):
                tally["creates"] += 1
            elif kind in (OP.GET, OP.CONTAINS_KEY):
                tally["reads"] += 1
            elif kind in (OP.PUT, OP.REMOVE, OP.CLEAR):
                tally["writes"] += 1
            elif kind in (OP.ITER_NEW, OP.ITER_ADVANCE, OP.ITER_REMOVE):
                tally["iterates"] += 1
        c = stats(trace)
        assert (c.creates, c.reads, c.writes, c.iterates) == (
            tally["creates"], tally["reads"], tally["writes"], tally["iterates"]
        ), name
        assert c.creates + c.reads + c.writes + c.iterates <= c.events
        assert c.bytes == trace.encoded_size


# -- post-processing preserves map-state evolution ----------------------------------------


def _raw_subsequence_digests(events):
    """Oracle: interpret the raw per-map event stream directly."""
    from mapreplay.refmap import DEFAULT_CONFIG, MapConfig
    from mapreplay.tracer import unpack_create_aux

    class K:
        __slots__ = ("kid", "h")

        def __init__(self, kid, h):
            self.kid = kid
            self.h = h

        def hash32(self):
            return self.h

        def __eq__(self, other):
            return other.kid == self.kid

        def __hash__(self):
            return self.kid

    maps = {}
    order = []
    iters = {}
    keys = {}
    for e in events:
        if e.op is OP.CREATE:
            cap, lf, spread = unpack_create_aux(e.aux)
            maps[e.map_id] = RefMap(MapConfig(cap, lf, spread))
            order.append(e.map_id)
        elif e.op is OP.CREATE_COPY:
            maps[e.map_id] = RefMap.copy_of(maps[e.aux], DEFAULT_CONFIG)
            order.append(e.map_id)
        elif e.op in (OP.GET, OP.PUT, OP.REMOVE, OP.CONTAINS_KEY):
            key = keys.setdefault(e.key_id, K(e.key_id, e.hash))
            getattr(maps[e.map_id], {OP.GET: "get", OP.PUT: "put",
                                     OP.REMOVE: "remove", OP.CONTAINS_KEY: "contains_key"}[e.op])(
                *(key, 1) if e.op is OP.PUT else (key,)
            )
        elif e.op is OP.CLEAR:
            maps[e.map_id].clear()
        elif e.op is OP.ITER_NEW:
            iter_id, view = unpack_iternew_aux(e.aux)
            iters[iter_id] = maps[e.map_id].iterator(view)
        elif e.op is OP.ITER_ADVANCE:
            for _ in range(e.aux):
                iters[e.map_id].advance()
        elif e.op is OP.ITER_REMOVE:
            iters[e.map_id].remove()
    return [maps[mid].state_digest() for mid in order]


def test_processing_preserves_state_evolution(small_traces):
    for name, (_, raw, trace) in small_traces.items():
        oracle = _raw_subsequence_digests(sanitize(raw).events)
        result = ReplaySession(trace).replay(RefMap, mode="validating")
        assert result.map_digests == oracle, name


def test_counting_same_for_coalesced_and_uncoalesced(small_traces):
    for name, (_, raw, trace) in small_traces.items():
        uncoalesced = encode(insert_free_events(sanitize(raw)))
        a = ReplaySession(uncoalesced).replay(RefMap, mode="counting")
        b = ReplaySession(trace).replay(RefMap, mode="counting")
        assert a.counters == b.counters, name
