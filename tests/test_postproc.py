"""Post-processing: sanitization, coalescing, free placement, encoding, stats."""

import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapreplay import postproc
from mapreplay.errors import TraceFormatError, TraceIntegrityError
from mapreplay.postproc import (
    MAGIC,
    OP_KIND_MASK,
    Characterization,
    ProcessedTrace,
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
    RawOpKind,
    RawTrace,
    TraceSession,
    pack_create_aux,
    pack_iternew_aux,
    unpack_iternew_aux,
)
from mapreplay.workloads import WORKLOADS, IntKey, WorkloadSpec, generate

OP = RawOpKind
#: A default map's Create aux, for hand-built Create rows.
CREATE_AUX = pack_create_aux(16, 750)


def _session_trace(build):
    s = TraceSession()
    build(s)
    return s.close()


# -- sanitize ------------------------------------------------------------------------


def test_sanitize_identity_when_clean():
    raw = generate(WorkloadSpec("random", seed=3))
    assert sanitize(raw).events == raw.events


def test_sanitize_drops_orphan_map_events(raw_records):
    # Fresh ids: injected traffic must not collide with recorded keys.
    orphan = raw_records([(OP.GET, (7 << 40) | 12345, (7 << 40) | 1, 1, 0, 0)])
    raw = generate(WorkloadSpec("random", seed=3))
    injected = RawTrace(np.insert(raw.records, 5, orphan))
    cleaned = sanitize(injected)
    assert cleaned.events == sanitize(raw).events


def test_sanitize_drops_foreign_map_traffic(raw_records):
    # A foreign map's traffic is recorded but it has no Create, as for a map
    # built before tracing began.
    foreign, inside = 1, 2
    raw = RawTrace(raw_records([
        (OP.CREATE, inside),
        (OP.PUT, inside, 1, 1, 0, 0),
        (OP.PUT, foreign, 2, 2, 0, 0),
        (OP.GET, foreign, 2, 2, 0, 1),
    ]))
    cleaned = sanitize(raw)
    assert all(e.map_id != foreign for e in cleaned.events)
    assert len(cleaned.events) == 2  # create + put on the traced map


def test_sanitize_drops_poisoned_map_entirely():
    class Unstable:
        def __init__(self):
            self.h = 5

        @property
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


def test_sanitize_cascades_to_copies_of_dropped_maps(raw_records):
    foreign, copy, copy2, kept = 1, 2, 3, 4
    raw = RawTrace(raw_records([
        (OP.PUT, foreign, 1, 1, 0, 0),
        (OP.CREATE_COPY, copy, None, None, foreign),
        (OP.GET, copy, 1, 1, 0, 1),
        (OP.CREATE_COPY, copy2, None, None, copy),
        (OP.GET, copy2, 1, 1, 0, 1),
        (OP.CREATE, kept),
        (OP.PUT, kept, 2, 9, 0, 0),
    ]))
    cleaned = sanitize(raw)
    assert {e.map_id for e in cleaned.events} == {kept}


def test_sanitize_drops_iterators_of_dropped_maps(raw_records):
    foreign, kept, it = 1, 2, 1
    raw = RawTrace(raw_records([
        (OP.PUT, foreign, 1, 1, 0, 0),
        (OP.ITER_NEW, foreign, None, None, pack_iternew_aux(it, View.KEYS)),
        (OP.ITER_ADVANCE, it, None, None, 1, 1),
        (OP.CREATE, kept),
        (OP.PUT, kept, 2, 2, 0, 0),
    ]))
    cleaned = sanitize(raw)
    ops = [e.op for e in cleaned.events]
    assert OP.ITER_NEW not in ops
    assert OP.ITER_ADVANCE not in ops


def test_sanitize_rejects_unknown_map_in_copy(raw_records):
    records = raw_records([
        (OP.CREATE_COPY, 2, None, None, 999),
        (OP.GET, 2, 1, 1, 0, 0),
    ])
    assert sanitize(RawTrace(records)).events == []


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
    assert [(r.aux, r.outcome) for r in runs] == [(1, 1), (1, 0)]


def test_coalesce_collapses_exhausted_run_to_one_step():
    def build(s):
        m = s.new_map()
        it = m.iterator(View.KEYS)
        for _ in range(3):
            assert it.advance() is None

    runs = _advance_run(coalesce(_session_trace(build)))
    assert [(r.aux, r.outcome) for r in runs] == [(1, 0)]


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


def test_iterator_never_advanced_is_freed_after_its_iter_new():
    def build(s):
        m = s.new_map()
        m.put(IntKey(1), 1)
        m.iterator()
        m.get(IntKey(1))

    raw = _session_trace(build)
    out = insert_free_events(raw)
    assert list(out.records["op"]) == [
        OP.CREATE, OP.PUT, OP.ITER_NEW, OP.FREE_ITER, OP.GET, OP.FREE_MAP
    ]
    with mock.patch.object(postproc, "_CHUNK", 1):
        assert process(raw) == encode(out)


@pytest.mark.parametrize("name", ["random", "scan", "populate-copy", "mixed"])
def test_free_placement_on_workloads(small_traces, name):
    _, raw, _ = small_traces[name]
    _check_free_placement(insert_free_events(coalesce(sanitize(raw))))


# -- encode / decode -------------------------------------------------------------------


def test_encode_empty_trace(raw_records):
    trace = encode(RawTrace(raw_records([])))
    assert trace.op_count == 0
    assert len(trace.key_hashes) == 0
    assert stats(trace) == Characterization()
    again = decode(to_bytes(trace))
    assert again == trace


@pytest.mark.parametrize("chunk", [1, 8192])
def test_encode_rejects_a_key_recorded_with_two_hashes(raw_records, chunk):
    # Sanitize drops such a key's maps; encode alone refuses every keyed
    # row of such a key, in whichever chunk it falls.
    rows = [(OP.CREATE, 1, None, None, CREATE_AUX, None, 0), (OP.PUT, 1, 5, 7, 0, 0, 0),
            (OP.GET, 1, 5, 7, 0, 1, 0), (OP.GET, 1, 5, 8, 0, 1, 0),
            (OP.FREE_MAP, 1, None, None, 0, None, 0)]
    with mock.patch.object(postproc, "_CHUNK", chunk):
        with pytest.raises(TraceIntegrityError, match="key 5 hash changed; trace was not sanitized"):
            encode(RawTrace(raw_records(rows)))


def test_encode_requires_free_annotations():
    def build(s):
        s.new_map().put(IntKey(1), 1)

    with pytest.raises(
        TraceIntegrityError,
        match="^object 1 is never freed: input is missing free events; "
        "run insert_free_events first$",
    ):
        encode(_session_trace(build))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(OP.CREATE, 1), (OP.CREATE, 1), (OP.FREE_MAP, 1)], "created more than once"),
        ([(OP.CREATE, 1), (OP.FREE_MAP, 1), (OP.GET, 1, 5, 5, 0, 0)], "not live"),
        ([(OP.CREATE_COPY, 1, None, None, 1), (OP.FREE_MAP, 1)], "not live"),
    ],
    ids=["create-twice", "use-after-free", "copy-of-itself"],
)
def test_encode_rejects_broken_lifetimes(rows, message, raw_records):
    with pytest.raises(TraceIntegrityError, match=message):
        encode(RawTrace(raw_records(rows)))


#: A map whose iterator 3 advances with no IterNew.
_ORPHAN_ADVANCE = [(OP.CREATE, 1), (OP.ITER_ADVANCE, 3, None, None, 1, 1), (OP.FREE_MAP, 1)]


@pytest.mark.parametrize("pass_", [coalesce, insert_free_events])
def test_passes_refuse_an_iterator_with_no_iter_new(pass_, raw_records):
    # Both passes look up the map owning each advanced iterator.
    with pytest.raises(TraceIntegrityError, match="^iterator 3 has no IterNew event$"):
        pass_(RawTrace(raw_records(_ORPHAN_ADVANCE)))


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("pass_", [coalesce, insert_free_events])
def test_passes_refuse_an_iterator_with_no_iter_new_beside_owned_ones(pass_, block, raw_records):
    # Iterator 3 removes through itself between two advances of iterator
    # 4, which has an IterNew: coalescing looks 3's owner up as a mutation,
    # free insertion as a use, and ranking may see them in separate blocks.
    rows = [(OP.CREATE, 1), (OP.PUT, 1, 5, 7, 0, 0), (OP.ITER_NEW, 1, None, None, 4 << 2),
            (OP.ITER_ADVANCE, 4, None, None, 1, 1), (OP.ITER_REMOVE, 3),
            (OP.ITER_ADVANCE, 4, None, None, 1, 0)]
    with mock.patch.object(postproc, "_CHECK_BLOCK", block or postproc._CHECK_BLOCK):
        with pytest.raises(TraceIntegrityError, match="^iterator 3 has no IterNew event$"):
            pass_(RawTrace(raw_records(rows)))


#: Map 1 is created; map 2 is not, so sanitize drops it as foreign.
_TWO_MAPS = [(OP.CREATE, 1), (OP.PUT, 1, 5, 7, 0, 0), (OP.PUT, 1, 6, 8, 0, 0),
             (OP.PUT, 2, 5, 7, 0, 0)]
#: Iterator 3 advances, removes through itself, and drains.
_ITERATION = [(OP.ITER_ADVANCE, 3, None, None, 1, 1), (OP.ITER_ADVANCE, 3, None, None, 1, 1),
              (OP.ITER_REMOVE, 3), (OP.ITER_ADVANCE, 3, None, None, 1, 0)]


@pytest.mark.parametrize("block", [None, len(_TWO_MAPS) + 1, 1],
                         ids=["one-block", "new-per-block", "row-per-block"])
@pytest.mark.parametrize("last", [1, 2], ids=["last-on-created", "last-on-foreign"])
def test_an_iterator_belongs_to_the_map_of_its_last_iter_new(last, block, raw_records):
    # The iterator gets one IterNew on each map, `last`'s second. Its rows
    # survive sanitize exactly when `last` does; the IterNew on map 1
    # always does. With a block of len(_TWO_MAPS) + 1 rows, ranking sees
    # the two IterNews in separate blocks.
    news = [(OP.ITER_NEW, m, None, None, 3 << 2) for m in (3 - last, last)]
    raw = RawTrace(raw_records(_TWO_MAPS + news + _ITERATION))
    n = len(_TWO_MAPS)
    kept = [0, 1, 2, n + (last == 1)]
    if last == 1:
        kept += range(n + 2, len(raw))
    with mock.patch.object(postproc, "_CHECK_BLOCK", block or postproc._CHECK_BLOCK):
        assert sanitize(raw).records.tobytes() == raw.records[kept].tobytes()
        assert process(raw) == encode(insert_free_events(coalesce(sanitize(raw))))


def test_encode_refuses_an_iterator_op_when_no_iterator_lives(raw_records):
    # No IterNew or FreeIter row: the iterator slot table is empty.
    with pytest.raises(TraceIntegrityError, match="^object 3 is not live at event 1$"):
        encode(RawTrace(raw_records(_ORPHAN_ADVANCE)))


def test_round_trip_on_workloads(small_traces):
    for name, (_, _, trace) in small_traces.items():
        assert decode(to_bytes(trace)) == trace, name


def test_round_trip_file(tmp_path, small_traces):
    _, _, trace = small_traces["random"]
    path = tmp_path / "t.mpt"
    assert write_processed(trace, path) == path.stat().st_size
    assert read_processed(path) == trace


def test_process_and_write_compress_once(tmp_path, small_traces, monkeypatch):
    compressors = []

    class CountingZlib:
        def __getattr__(self, name):
            return getattr(zlib, name)

        def compressobj(self, *args, **kwargs):
            compressors.append(args)
            return zlib.compressobj(*args, **kwargs)

    monkeypatch.setattr(postproc, "zlib", CountingZlib())
    _, raw, _ = small_traces["random"]
    write_processed(process(raw), tmp_path / "t.mpt")
    assert len(compressors) == 1


def test_process_equals_the_public_pass_chain(small_traces):
    # process() ranks the records once and runs every kernel on the ranked
    # rows; each public pass ranks its input and applies its kernel's result
    # to the records. Both must give the same artifact.
    for name, (_, raw, trace) in small_traces.items():
        assert trace == encode(insert_free_events(coalesce(sanitize(raw)))), name


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_process_in_small_chunks_equals_the_public_pass_chain(small_traces, chunk):
    # process() edits its rows in place and its kernels scan them a chunk
    # at a time; small chunks put chunk edges inside every run, lifetime
    # and gap that the small workloads have.
    with mock.patch.object(postproc, "_CHUNK", chunk):
        for name, (_, raw, trace) in small_traces.items():
            assert process(raw) == trace, name


@st.composite
def _row_edits(draw):
    """Rows, a keep mask over them, and sorted insertion points in [0, n]."""
    n = draw(st.integers(0, 40))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    at = sorted(draw(st.lists(st.integers(0, n), max_size=10)))
    return n, keep, at


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edits=_row_edits(), chunk=st.integers(1, 6))
@example(edits=(0, [], []), chunk=1)  # an empty trace
@example(edits=(0, [], [0, 0]), chunk=1)  # frees into an empty trace
@example(edits=(7, [True] * 7, []), chunk=3)  # nothing deleted, nothing inserted
@example(edits=(7, [False] * 7, [7, 7, 7]), chunk=2)  # everything deleted; frees after the last row
@example(edits=(9, [True, False] * 4 + [True], [0, 4, 4, 9]), chunk=4)
def test_in_place_compact_and_expand_equal_delete_and_insert(edits, chunk):
    n, keep, at = edits
    rows = np.arange(3 * n, dtype=np.int32).reshape(n, 3)
    keep, at = np.array(keep, dtype=bool), np.array(at, dtype=np.intp)
    new = -1 - np.arange(3 * at.size, dtype=np.int32).reshape(-1, 3)
    buffer = np.full((n + at.size + 2, 3), 99, dtype=np.int32)
    with mock.patch.object(postproc, "_CHUNK", chunk):
        buffer[:n] = rows
        kept = postproc._compact(buffer[:n], keep)
        assert np.array_equal(buffer[:kept], np.delete(rows, np.flatnonzero(~keep), axis=0))
        buffer[:n] = rows
        grown = postproc._expand(buffer, n, at, new)
        assert np.array_equal(buffer[:grown], np.insert(rows, at, new, axis=0))
    assert (buffer[grown:] == 99).all()  # nothing is written past the new length


# Ids as the tracer allocates them for thread slots 1 and 2: above 32 bits,
# and equal in their low bits.
A, B, C = (1 << 40) | 1, (2 << 40) | 1, (2 << 40) | 2


@pytest.mark.parametrize(
    "rows, message",
    [
        (
            [(OP.CREATE, A, None, None, CREATE_AUX, None, 1),
             (OP.CREATE, B, None, None, CREATE_AUX, None, 2),
             (OP.PUT, B, C, 7, 0, 0, 2), (OP.FREE_MAP, B, None, None, 0, None, 2),
             (OP.GET, B, C, 7, 0, 1, 2), (OP.PUT, A, C, 7, 0, 0, 1)],
            f"object {B} is not live",
        ),
        (
            [(OP.CREATE, A, None, None, CREATE_AUX, None, 1),
             (OP.CREATE, B, None, None, CREATE_AUX, None, 2),
             (OP.PUT, A, C, 7, 0, 0, 1), (OP.CREATE, B, None, None, CREATE_AUX, None, 2)],
            f"object {B} is created more than once",
        ),
        (
            [(OP.CREATE, A, None, None, CREATE_AUX, None, 1),
             (OP.CREATE_COPY, B, None, None, C, None, 2),
             (OP.CREATE, C, None, None, CREATE_AUX, None, 2), (OP.PUT, A, B, 7, 0, 0, 1)],
            f"object {C} is not live at event 1",
        ),
    ],
    ids=["use-after-free", "create-twice", "copy-of-a-later-map"],
)
def test_process_errors_name_raw_ids(rows, message, raw_records):
    # Ranks are dense and small (here 0 and 1), so a message naming one
    # would not show the raw id.
    raw = RawTrace(raw_records(rows))
    with pytest.raises(TraceIntegrityError) as chain:
        encode(insert_free_events(coalesce(sanitize(raw))))
    with pytest.raises(TraceIntegrityError) as distilled:
        process(raw)
    assert str(distilled.value) == str(chain.value) == message


def _record_field(index, field_offset):
    """MRT1 byte offset of a field of record `index`: a 16-byte header, then
    40-byte records (key_id at 17 bytes in, aux at 29)."""
    return 16 + 40 * index + field_offset


_IT = 3
_ITERATED = [(OP.CREATE, 1), (OP.PUT, 1, 5, 7, 0, 0), (OP.ITER_NEW, 1, None, None, _IT << 2)]


@pytest.mark.parametrize(
    "rows, error, offset, message",
    [
        (
            [(OP.CREATE, 1), (OP.GET, 1, None, None, 0, 0)],
            TraceFormatError, _record_field(1, 17), "GET record has no key id",
        ),
        (
            [(OP.CREATE, 1), (OP.PUT, 1, 5, 7, 0, 0), (OP.CLEAR, 1, 5, 7)],
            TraceFormatError, _record_field(2, 17), "CLEAR record names key 5 but takes no key",
        ),
        (
            [(OP.CREATE, 1, None, None, pack_create_aux(2**31, 750)), (OP.PUT, 1, 5, 7, 0, 0)],
            TraceFormatError, _record_field(0, 29), "Create capacity 2147483648 overflows i32",
        ),
        (
            [*_ITERATED, (OP.ITER_ADVANCE, _IT, None, None, 1, 1),
             (OP.ITER_ADVANCE, _IT, None, None, 2**31, 0)],
            TraceFormatError, _record_field(4, 29),
            "IterAdvance step count 2147483648 overflows i32",
        ),
        (
            [*_ITERATED, (OP.ITER_ADVANCE, _IT, None, None, 2**30, 1),
             (OP.ITER_ADVANCE, _IT, None, None, 2**30, 1)],
            TraceIntegrityError, None, "advance step count 2147483648 overflows i32",
        ),
        (
            [(OP.CREATE, 1, None, None, 750 << 32 | 16), (OP.PUT, 1, 5, 7, 0, 0)],
            TraceFormatError, _record_field(0, 29),
            "Create with the spread bit (aux bit 42) clear: every map spreads its hashes",
        ),
    ],
    ids=[
        "keyed-op-without-key",
        "keyless-op-naming-a-key",
        "capacity-above-i32",
        "exhausted-step-count-above-i32",
        "summed-step-count-above-i32",
        "create-with-spread-bit-clear",
    ],
)
def test_distill_refuses_what_a_row_cannot_hold(rows, error, offset, message, raw_records):
    # A trace built from an array checks its records as one read from a
    # file does, and ranking refuses operands that do not fit an int32 row,
    # at the field's offset; process and the public chain refuse alike.
    records = raw_records(rows)
    if offset is not None:
        message = f"at offset {offset}: {message}"
    for distill in (process, lambda raw: encode(insert_free_events(coalesce(sanitize(raw))))):
        with pytest.raises(error) as err:
            distill(RawTrace(records))
        assert str(err.value) == message
        assert getattr(err.value, "offset", None) == offset


def test_disjoint_lifetimes_share_slot_zero():
    def build(s):
        a = s.new_map()
        a.put(IntKey(1), 1)
        b = s.new_map()  # created after a's last use
        b.put(IntKey(2), 2)

    trace = process(_session_trace(build))
    assert trace.max_map_slots == 1
    creates = [t for t in trace.ops.reshape(-1, 3).tolist() if t[0] & OP_KIND_MASK == OP.CREATE]
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


@pytest.fixture(params=["libdeflate", "zlib"])
def inflated(request, monkeypatch):
    """Make decode inflate through one path. On the libdeflate path the
    list it returns records, for each call, whether libdeflate gave the
    payload; on the zlib path it returns None."""
    if request.param == "zlib":
        monkeypatch.setattr(postproc, "_libdeflate", lambda: None)
        return None
    made = []
    inflate = postproc._libdeflate()
    if inflate is None:
        pytest.skip("libdeflate does not load on this host; the zlib half still runs")

    def recorded(body):
        out = inflate(body)
        made.append(out is not None)
        return out

    monkeypatch.setattr(postproc, "_libdeflate", lambda: recorded)
    return made


def test_decode_paths_agree_on_every_workload(small_traces, inflated):
    traces = {name: trace for name, (_, _, trace) in small_traces.items()}
    traces["wordfreq"] = process(generate(WorkloadSpec("wordfreq", seed=1)))
    assert set(traces) == set(WORKLOADS)
    for name, trace in traces.items():
        decoded = decode(to_bytes(trace))
        assert decoded == trace, name
        assert not decoded.ops.flags.writeable and not decoded.key_hashes.flags.writeable
    assert inflated in (None, [True] * len(traces))


@pytest.mark.parametrize("field", ["keys", "ops"])
def test_decode_forged_count_allocates_nothing(small_traces, inflated, field):
    # A count forged past DEFLATE's 1032:1 limit over the stream is not
    # trusted: decode allocates no buffer of the declared size and reports
    # the payload as truncated, as a plain zlib.decompress does.
    _, _, trace = small_traces["random"]
    payload = bytearray(zlib.decompress(to_bytes(trace)[8:]))
    limit = 1032 * len(zlib.compress(payload))
    if field == "keys":
        struct.pack_into("<I", payload, 0, limit // 2)
        what = "key hashes"
    else:
        struct.pack_into("<Q", payload, 4 + 4 * len(trace.key_hashes) + 8, limit // 6)
        what = "op triples"
    forged = MAGIC + (1).to_bytes(4, "little") + zlib.compress(payload)
    tracemalloc.start()
    try:
        with pytest.raises(TraceFormatError, match=f"payload truncated reading {what}"):
            decode(forged)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit // 4
    assert inflated in (None, [True])


def test_decode_checks_adler32_and_ignores_input_after_the_stream(small_traces, inflated):
    _, _, trace = small_traces["random"]
    data = to_bytes(trace)
    assert decode(data + b"\x00junk") == trace  # as zlib.decompress allows
    bad_check = data[:-1] + bytes([data[-1] ^ 1])
    with pytest.raises(TraceFormatError, match="incorrect data check") as err:
        decode(bad_check)
    assert err.value.offset == 8
    assert inflated in (None, [True, False])


class _Buffers:
    """Stands in for numpy in postproc and records the size of each buffer
    the libdeflate inflater allocates: one per libdeflate call. With
    `refuse` set, no buffer can be had."""

    def __init__(self, refuse=False):
        self.sizes = []
        self.refuse = refuse

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, size, dtype):
        self.sizes.append(size)
        if self.refuse:
            raise MemoryError
        return np.empty(size, dtype)


def _buffers(monkeypatch, refuse=False):
    buffers = _Buffers(refuse)
    monkeypatch.setattr(postproc, "np", buffers)
    return buffers.sizes


@pytest.fixture(scope="module")
def builtin_traces():
    """Every built-in workload at scale 1, and churn at the benchmark's scale 2."""
    specs = [WorkloadSpec(name, seed=1) for name in WORKLOADS]
    specs.append(WorkloadSpec("churn", seed=1, scale=2))
    return {f"{s.name}/scale={s.scale}": process(generate(s)) for s in specs}


def _identical_ops():
    # 60,000 copies of one op inflate to over 500 times their stream.
    return ProcessedTrace(
        key_hashes=np.zeros(0, dtype=np.int32),
        max_map_slots=1,
        max_iter_slots=0,
        ops=np.tile(np.array([int(OP.CLEAR), 0, 0], dtype=np.int32), 60_000),
    )


def test_decode_inflates_a_workload_in_one_call(builtin_traces, inflated, monkeypatch):
    trace = builtin_traces["wordfreq/scale=1"]
    data = to_bytes(trace)
    buffers = _buffers(monkeypatch)
    assert decode(data) == trace
    assert inflated in (None, [True])
    assert buffers == ([] if inflated is None else [32 * (len(data) - 8)])


def test_decode_grows_its_inflate_buffer_until_the_payload_fits(inflated, monkeypatch):
    trace = _identical_ops()
    data = to_bytes(trace)
    stream, payload = len(data) - 8, len(zlib.decompress(data[8:]))
    assert payload > 128 * stream
    buffers = _buffers(monkeypatch)
    assert decode(data) == trace
    assert inflated in (None, [True])
    if inflated:
        assert buffers[0] == 32 * stream and len(buffers) > 2
        assert all(b == 4 * a for a, b in zip(buffers, buffers[1:]))
        assert buffers[-2] < payload <= buffers[-1]


def test_decode_falls_back_to_zlib_past_the_inflate_bound(inflated, monkeypatch):
    # A bound below the payload's ratio stands in for a stream that would
    # inflate past DEFLATE's limit: libdeflate stops there and zlib decodes.
    monkeypatch.setattr(postproc, "_MAX_INFLATE_RATIO", 16)
    trace = _identical_ops()
    data = to_bytes(trace)
    buffers = _buffers(monkeypatch)
    assert decode(data) == trace
    assert inflated in (None, [False])
    assert buffers == ([] if inflated is None else [16 * (len(data) - 8)])


def test_decode_falls_back_to_zlib_without_an_inflate_buffer(small_traces, inflated, monkeypatch):
    _, _, trace = small_traces["random"]
    data = to_bytes(trace)
    buffers = _buffers(monkeypatch, refuse=True)
    assert decode(data) == trace
    assert inflated in (None, [False])
    assert buffers == ([] if inflated is None else [32 * (len(data) - 8)])


def test_zlib_path_peaks_near_the_payload(monkeypatch):
    # zlib inflates a piece at a time into one buffer; a single
    # zlib.decompress call peaked near 2.9 times the payload here.
    monkeypatch.setattr(postproc, "_libdeflate", lambda: None)
    trace = _identical_ops()
    data = to_bytes(trace)
    stream, payload = len(data) - 8, len(zlib.decompress(data[8:]))
    tracemalloc.start()
    try:
        decoded = decode(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded == trace and not decoded.ops.flags.writeable
    assert peak <= 1.5 * payload + stream


class _NoZlib:
    def __getattr__(self, name):
        raise AssertionError(f"decode called zlib.{name}")


def test_libdeflate_decodes_every_workload_in_one_call_without_zlib(
    builtin_traces, monkeypatch
):
    if postproc._libdeflate() is None:
        pytest.skip("libdeflate does not load on this host; decode inflates with zlib")
    data = {name: to_bytes(trace) for name, trace in builtin_traces.items()}
    monkeypatch.setattr(postproc, "zlib", _NoZlib())
    buffers = _buffers(monkeypatch)
    for name, trace in builtin_traces.items():
        buffers.clear()
        assert decode(data[name]) == trace, name
        assert len(buffers) == 1, name


@pytest.mark.parametrize("ops", ["random", "identical"])
def test_decode_memory_is_bounded_by_the_stream_and_payload(inflated, ops):
    # The libdeflate inflater's first buffer is 32 times the stream, and a
    # larger one is 4 times one the payload did not fit, each let go before
    # the next, so its peak is the larger of the two, plus the stream as
    # room for the rest. 6,000 incompressible key hashes and 60,000
    # incompressible ops make the first term govern; 60,000 identical ops,
    # whose buffer must grow, the second. zlib's path keeps the same bound.
    if ops == "random":
        rng = np.random.default_rng(7)
        trace = ProcessedTrace(
            key_hashes=rng.integers(-(2**31), 2**31, 6000, dtype=np.int32),
            max_map_slots=1,
            max_iter_slots=0,
            ops=rng.integers(0, 2**31, 3 * 60_000, dtype=np.int32),
        )
    else:
        trace = _identical_ops()
    data = to_bytes(trace)
    stream, payload = len(data) - 8, len(zlib.decompress(data[8:]))
    tracemalloc.start()
    try:
        decoded = decode(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded == trace
    assert peak <= max(32 * stream, 4 * payload) + stream


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


def test_decode_rejects_more_slots_than_ops():
    # Each slot's first occupant needs its own create or IterNew op, so a
    # header claiming 2^32-1 map slots over no ops is rejected before any
    # replay could allocate them.
    payload = struct.pack("<IIIQ", 0, 0xFFFFFFFF, 0, 0)
    with pytest.raises(TraceFormatError) as err:
        decode(MAGIC + (1).to_bytes(4, "little") + zlib.compress(payload))
    assert err.value.offset == 4  # the slot bounds follow the 4-byte key count


def test_decode_trailing_bytes_rejected(small_traces):
    _, _, trace = small_traces["random"]
    payload = zlib.decompress(to_bytes(trace)[8:])
    padded = MAGIC + (1).to_bytes(4, "little") + zlib.compress(payload + b"\x00" * 4)
    with pytest.raises(TraceFormatError) as err:
        decode(padded)
    assert "trailing" in str(err.value)


# -- stats ------------------------------------------------------------------------------


def test_stats_empty(raw_records):
    c = stats(encode(RawTrace(raw_records([]))))
    assert (c.events, c.creates, c.reads, c.writes, c.iterates) == (0, 0, 0, 0, 0)


def test_stats_creates_puts_frees():
    def build(s):
        for i in range(10):
            m = s.new_map()
            m.put(IntKey(i), i)

    trace = process(_session_trace(build))
    c = stats(trace)
    assert c.events == 30  # 10 creates + 10 puts + 10 frees
    assert c.creates == 10
    assert c.writes == 10
    assert c.reads == 0
    assert c.iterates == 0


def test_stats_matches_direct_tally(small_traces):
    for name, (_, _, trace) in small_traces.items():
        tally = {"creates": 0, "reads": 0, "writes": 0, "iterates": 0}
        for word, _, _ in trace.ops.reshape(-1, 3).tolist():
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


# -- post-processing preserves map-state evolution ----------------------------------------


def test_processing_preserves_state_evolution(small_traces, interpret_raw):
    for name, (_, raw, trace) in small_traces.items():
        oracle = interpret_raw(sanitize(raw).events)
        result = ReplaySession(trace).replay(RefMap, mode="validating")
        assert result.map_digests == oracle, name


def test_counting_same_for_coalesced_and_uncoalesced(small_traces):
    for name, (_, raw, trace) in small_traces.items():
        uncoalesced = encode(insert_free_events(sanitize(raw)))
        a = ReplaySession(uncoalesced).replay(RefMap, mode="counting")
        b = ReplaySession(trace).replay(RefMap, mode="counting")
        assert a.counters == b.counters, name
