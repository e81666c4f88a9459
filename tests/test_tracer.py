"""Tracer behavior: canonical keys, outcome bits, raw file format, thread slots."""

import gc
import struct
import weakref

import pytest

from mapreplay.errors import TraceFormatError
from mapreplay.refmap import DEFAULT_CONFIG, MapConfig, RefMap, View, bucket_index
from mapreplay.tracer import (
    ABSENT_U64,
    MAGIC,
    RawEvent,
    RawOpKind,
    RawTrace,
    TraceSession,
    pack_create_aux,
    raw_trace_from_bytes,
    raw_trace_to_bytes,
    read_raw_trace,
    unpack_create_aux,
    unpack_iternew_aux,
    write_raw_trace,
)
from mapreplay.workloads import IntKey


def events_of(session):
    return session.close().events


def by_op(events, op):
    return [e for e in events if e.op is op]


# -- creation events -------------------------------------------------------------


def test_create_event_records_default_config():
    s = TraceSession()
    s.new_map()
    (e,) = events_of(s)
    assert e.op is RawOpKind.CREATE
    assert unpack_create_aux(e.aux) == (16, 750, True)


def test_create_event_records_requested_capacity():
    s = TraceSession()
    s.new_map(MapConfig(100, 600, False))
    (e,) = events_of(s)
    assert unpack_create_aux(e.aux) == (100, 600, False)


def test_copy_event_references_source():
    s = TraceSession()
    m = s.new_map()
    m.put(IntKey(1), 1)
    c = s.copy_map(m)
    assert c.size() == 1
    events = events_of(s)
    (copy_event,) = by_op(events, RawOpKind.CREATE_COPY)
    assert copy_event.aux == m.map_id
    assert copy_event.map_id == c.map_id


def test_foreign_map_has_no_create_event():
    s = TraceSession(start_open=False)
    m = s.new_map()  # constructed before tracing begins
    assert m.foreign
    s.open()
    m.put(IntKey(1), 1)
    inside = s.new_map()
    inside.put(IntKey(2), 2)
    events = events_of(s)
    created = {e.map_id for e in by_op(events, RawOpKind.CREATE)}
    assert inside.map_id in created
    assert m.map_id not in created
    assert any(e.op is RawOpKind.PUT and e.map_id == m.map_id for e in events)


def test_events_after_close_are_dropped():
    s = TraceSession()
    m = s.new_map()
    m.put(IntKey(1), 1)
    s.close()
    m.put(IntKey(2), 2)
    assert len(s.raw_trace().events) == 2


# -- canonical keys ----------------------------------------------------------------


def test_equal_keys_share_canonical_id():
    s = TraceSession()
    m = s.new_map()
    m.put(IntKey(7), "a")
    m.get(IntKey(7))  # equal but not identical
    put, get = [e for e in events_of(s) if e.key_id is not None]
    assert put.key_id == get.key_id
    assert put.hash == get.hash


def test_distinct_keys_with_same_hash_get_distinct_ids():
    s = TraceSession()
    m = s.new_map()
    m.put(IntKey(1, hash32=42), 1)
    m.put(IntKey(2, hash32=42), 2)
    puts = by_op(events_of(s), RawOpKind.PUT)
    assert puts[0].key_id != puts[1].key_id  # registry resolves by equality
    assert puts[0].hash == puts[1].hash == 42


def test_same_key_against_two_maps_gets_per_map_ids():
    s = TraceSession()
    a, b = s.new_map(), s.new_map()
    a.put(IntKey(7), 1)
    b.put(IntKey(7), 1)
    puts = by_op(events_of(s), RawOpKind.PUT)
    assert puts[0].key_id != puts[1].key_id
    assert puts[0].hash == puts[1].hash


def test_copy_inherits_source_key_ids():
    s = TraceSession()
    m = s.new_map()
    m.put(IntKey(7), 1)
    c = s.copy_map(m)
    assert c.get(IntKey(7)) == 1
    events = events_of(s)
    put = by_op(events, RawOpKind.PUT)[0]
    get = by_op(events, RawOpKind.GET)[0]
    assert get.map_id == c.map_id
    assert get.key_id == put.key_id  # resolves to the source's canonical key


class MutableHashKey:
    """Key whose 32-bit hash can be changed mid-run (a stability violation)."""

    def __init__(self, ident):
        self.ident = ident
        self.h = 100

    def hash32(self):
        return self.h

    def __eq__(self, other):
        return isinstance(other, MutableHashKey) and other.ident == self.ident

    def __hash__(self):
        return self.ident


def test_unstable_hash_is_emitted_as_observed():
    s = TraceSession()
    m = s.new_map()
    key = MutableHashKey(1)
    m.put(key, 1)
    key.h = 200
    m.get(key)
    put, get = [e for e in events_of(s) if e.key_id is not None]
    assert put.key_id == get.key_id
    assert (put.hash, get.hash) == (100, 200)  # conflict visible to the sanitizer


# -- outcome bits --------------------------------------------------------------------


def test_outcome_bits_for_reads_and_writes():
    s = TraceSession()
    m = s.new_map()
    m.get(IntKey(1))  # miss
    m.put(IntKey(1), "a")  # insert
    m.put(IntKey(1), "b")  # update
    m.get(IntKey(1))  # hit
    m.contains_key(IntKey(2))  # false
    m.remove(IntKey(1))  # removed
    m.remove(IntKey(1))  # absent
    outcomes = [(e.op, e.outcome) for e in events_of(s) if e.key_id is not None]
    assert outcomes == [
        (RawOpKind.GET, 0),
        (RawOpKind.PUT, 0),
        (RawOpKind.PUT, 1),
        (RawOpKind.GET, 1),
        (RawOpKind.CONTAINS_KEY, 0),
        (RawOpKind.REMOVE, 1),
        (RawOpKind.REMOVE, 0),
    ]


# -- iterator events ------------------------------------------------------------------


def test_iterator_events_one_per_advance():
    s = TraceSession()
    m = s.new_map()
    for i in range(3):
        m.put(IntKey(i), i)
    it = m.iterator(View.VALUES)
    while it.advance() is not None:
        pass
    events = events_of(s)
    (new,) = by_op(events, RawOpKind.ITER_NEW)
    iter_id, view = unpack_iternew_aux(new.aux)
    assert new.map_id == m.map_id
    assert view is View.VALUES
    advances = by_op(events, RawOpKind.ITER_ADVANCE)
    assert len(advances) == 4  # 3 yields + exhaustion
    assert all(e.map_id == iter_id and e.aux == 1 for e in advances)
    assert [e.outcome for e in advances] == [1, 1, 1, 0]


def test_iterator_remove_event_and_exception_elision():
    s = TraceSession()
    m = s.new_map()
    m.put(IntKey(1), 1)
    it = m.iterator(View.KEYS)
    it.advance()
    it.remove()
    bad = m.iterator(View.KEYS)
    with pytest.raises(RuntimeError):
        bad.remove()  # raises before advancing: must not be traced
    events = events_of(s)
    assert len(by_op(events, RawOpKind.ITER_REMOVE)) == 1


def test_fresh_iterator_ids_per_iter_new():
    s = TraceSession()
    m = s.new_map()
    m.put(IntKey(1), 1)
    m.iterator(View.KEYS)
    m.iterator(View.KEYS)
    news = by_op(events_of(s), RawOpKind.ITER_NEW)
    ids = [unpack_iternew_aux(e.aux)[0] for e in news]
    assert len(set(ids)) == 2


# -- per-thread id namespacing ----------------------------------------------------------


def test_thread_slot_ids_are_namespaced():
    s = TraceSession()
    main_map = s.new_map()
    with s.thread(2):
        worker_map = s.new_map()
        worker_map.put(IntKey(1), 1)
    events = events_of(s)
    assert main_map.map_id >> 40 == 0
    assert worker_map.map_id >> 40 == 2
    worker_events = [e for e in events if e.thread_id == 2]
    assert len(worker_events) == 2  # create + put, buffered on slot 2


# -- raw trace file format ----------------------------------------------------------------


def _session_with_traffic():
    s = TraceSession()
    m = s.new_map()
    for i in range(10):
        m.put(IntKey(i), i)
    m.get(IntKey(3))
    m.remove(IntKey(4))
    it = m.iterator(View.ENTRIES)
    while it.advance() is not None:
        pass
    return s


def test_raw_round_trip_bytes():
    trace = _session_with_traffic().close()
    assert raw_trace_from_bytes(raw_trace_to_bytes(trace)).events == trace.events


def test_raw_round_trip_file(tmp_path):
    path = tmp_path / "t.mrt"
    trace = _session_with_traffic().close()
    write_raw_trace(trace, path)
    assert read_raw_trace(path).events == trace.events


def test_raw_file_bad_magic(tmp_path):
    path = tmp_path / "bad.mrt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(TraceFormatError) as err:
        read_raw_trace(path)
    assert err.value.offset == 0


def test_raw_file_bad_version(tmp_path):
    path = tmp_path / "bad.mrt"
    path.write_bytes(MAGIC + struct.pack("<IQ", 9, 0))
    with pytest.raises(TraceFormatError) as err:
        read_raw_trace(path)
    assert err.value.offset == 4


def test_raw_file_missing_end_marker_rejected(tmp_path):
    path = tmp_path / "trunc.mrt"
    data = raw_trace_to_bytes(_session_with_traffic().close())
    # Simulate a crash before the count patch: sentinel still in place.
    broken = data[:8] + b"\xff" * 8 + data[16:]
    path.write_bytes(broken)
    with pytest.raises(TraceFormatError) as err:
        read_raw_trace(path)
    assert "end-marker" in str(err.value)
    assert err.value.offset == 8


def test_raw_file_size_mismatch(tmp_path):
    path = tmp_path / "short.mrt"
    data = raw_trace_to_bytes(_session_with_traffic().close())
    path.write_bytes(data[:-8])  # chop mid-record
    with pytest.raises(TraceFormatError):
        read_raw_trace(path)


def _patched_record(data: bytes, op: RawOpKind, field_offset: int, value: int) -> tuple[bytes, int]:
    """Overwrite one byte of the first `op` record; returns (bytes, absolute offset)."""
    index = next(i for i, e in enumerate(raw_trace_from_bytes(data).events) if e.op is op)
    offset = 16 + index * 40 + field_offset
    return data[:offset] + bytes([value]) + data[offset + 1 :], offset


def test_raw_file_unknown_op_names_offset(tmp_path):
    path = tmp_path / "op.mrt"
    data = raw_trace_to_bytes(_session_with_traffic().close())
    broken, offset = _patched_record(data, RawOpKind.GET, 8, 99)
    path.write_bytes(broken)
    with pytest.raises(TraceFormatError) as err:
        read_raw_trace(path)
    assert "unknown op 99" in str(err.value)
    assert err.value.offset == offset


def test_raw_file_bad_iternew_view_names_offset(tmp_path):
    path = tmp_path / "view.mrt"
    data = raw_trace_to_bytes(_session_with_traffic().close())
    # aux starts 29 bytes into a record; its low two bits are the view.
    new = by_op(raw_trace_from_bytes(data).events, RawOpKind.ITER_NEW)[0]
    broken, offset = _patched_record(data, RawOpKind.ITER_NEW, 29, (new.aux & 0xFF) | 0x3)
    path.write_bytes(broken)
    with pytest.raises(TraceFormatError) as err:
        read_raw_trace(path)
    assert "view 3" in str(err.value)
    assert err.value.offset == offset


def test_raw_trace_from_events_validates_like_a_file():
    with pytest.raises(TraceFormatError) as err:
        RawTrace([RawEvent(0, RawOpKind.CREATE, 1), RawEvent(0, 99, 1)])
    assert err.value.offset == 16 + 40 + 8


def test_raw_trace_events_view_round_trips():
    trace = _session_with_traffic().close()
    assert len(trace) == len(trace.events)
    again = RawTrace(trace.events)
    assert raw_trace_to_bytes(again) == raw_trace_to_bytes(trace)
    assert not trace.records.flags.writeable


def test_record_read_and_distill_build_no_raw_events(monkeypatch, tmp_path):
    from mapreplay import tracer
    from mapreplay.postproc import process
    from mapreplay.workloads import WorkloadSpec, generate

    def forbidden(*args, **kwargs):
        raise AssertionError("a RawEvent was built")

    monkeypatch.setattr(tracer, "RawEvent", forbidden)
    path = tmp_path / "t.mrt"
    raw = generate(WorkloadSpec("random", seed=3), path)
    write_raw_trace(raw, tmp_path / "again.mrt")
    assert process(read_raw_trace(path)).op_count > 0


@pytest.mark.parametrize(
    "spec",
    [("wordfreq", {}), ("churn", {"maps": 4, "cycles": 2, "threads": 2})],
    ids=["wordfreq", "churn-2-threads"],
)
def test_generate_frees_session_without_cycle_collection(monkeypatch, spec):
    from mapreplay import workloads

    sessions = []

    class WatchedSession(TraceSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(weakref.ref(self))

    monkeypatch.setattr(workloads, "TraceSession", WatchedSession)
    name, params = spec
    gc.disable()
    try:
        raw = workloads.generate(workloads.WorkloadSpec(name, seed=1, params=params))
        # Reference counting alone must release the session and its buffers.
        assert sessions[0]() is None
    finally:
        gc.enable()
    assert len(raw) > 0


def test_absent_fields_encode_as_all_ones():
    s = TraceSession()
    s.new_map()
    data = raw_trace_to_bytes(s.close())
    # One record after the 16-byte header: key id field is bytes 17..25.
    thread_id, op, map_id, key_id, h, aux, outcome = struct.unpack_from(
        "<QBQQiQB2x", data, 16
    )
    assert key_id == ABSENT_U64
    assert h == -1
    assert outcome == 0xFF


def test_record_layout_is_40_bytes():
    s = TraceSession()
    m = s.new_map()
    m.put(IntKey(1), 1)
    data = raw_trace_to_bytes(s.close())
    assert len(data) == 16 + 2 * 40


# -- recorded control flow matches application keys ------------------------------------


def test_key_substitution_preserves_bucket_and_outcome():
    from mapreplay.refmap import hash32_of

    s = TraceSession()
    m = s.new_map()
    used = []
    for i in range(30):
        key = IntKey(i % 11, hash32=(i % 11) * 65536)
        used.append(key)
        if i % 3 == 0:
            m.put(key, i)
        else:
            m.get(key)
    events = [e for e in events_of(s) if e.key_id is not None]
    assert len(events) == len(used)
    for e, key in zip(events, used):
        assert e.hash == hash32_of(key)
        for cap in (16, 64, 1024):
            assert bucket_index(e.hash, cap) == bucket_index(hash32_of(key), cap)


def test_outcome_bits_reproducible_by_raw_interpretation():
    """Replaying each map's raw event subsequence reproduces recorded outcomes."""
    from mapreplay.workloads import WorkloadSpec, generate

    raw = generate(WorkloadSpec("random", seed=5, scale=2))
    maps: dict[int, RefMap] = {}
    iters: dict[int, tuple] = {}
    keys: dict[int, object] = {}

    class OracleKey:
        __slots__ = ("kid", "h")

        def __init__(self, kid, h):
            self.kid = kid
            self.h = h

        def hash32(self):
            return self.h

        def __eq__(self, other):
            return isinstance(other, OracleKey) and other.kid == self.kid

        def __hash__(self):
            return self.kid

    def key_for(e):
        if e.key_id not in keys:
            keys[e.key_id] = OracleKey(e.key_id, e.hash)
        return keys[e.key_id]

    for e in raw.events:
        if e.op is RawOpKind.CREATE:
            cap, lf, spread = unpack_create_aux(e.aux)
            maps[e.map_id] = RefMap(MapConfig(cap, lf, spread))
        elif e.op is RawOpKind.CREATE_COPY:
            maps[e.map_id] = RefMap.copy_of(maps[e.aux], DEFAULT_CONFIG)
        elif e.op is RawOpKind.GET:
            assert (maps[e.map_id].get(key_for(e)) is not None) == bool(e.outcome)
        elif e.op is RawOpKind.PUT:
            assert (maps[e.map_id].put(key_for(e), 1) is not None) == bool(e.outcome)
        elif e.op is RawOpKind.REMOVE:
            assert (maps[e.map_id].remove(key_for(e)) is not None) == bool(e.outcome)
        elif e.op is RawOpKind.CONTAINS_KEY:
            assert maps[e.map_id].contains_key(key_for(e)) == bool(e.outcome)
        elif e.op is RawOpKind.CLEAR:
            maps[e.map_id].clear()
        elif e.op is RawOpKind.ITER_NEW:
            iter_id, view = unpack_iternew_aux(e.aux)
            iters[iter_id] = maps[e.map_id].iterator(view)
        elif e.op is RawOpKind.ITER_ADVANCE:
            assert (iters[e.map_id].advance() is not None) == bool(e.outcome)
        elif e.op is RawOpKind.ITER_REMOVE:
            iters[e.map_id].remove()
