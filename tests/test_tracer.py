"""Tracer behavior: canonical keys, outcome bits, raw file format, thread slots."""

import gc
import os
import struct
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from mapreplay import tracer
from mapreplay.errors import ConfigError, TraceFormatError
from mapreplay.postproc import process, to_bytes
from mapreplay.refmap import MapConfig, View, bucket_index
from mapreplay.tracer import (
    ABSENT_HASH,
    ABSENT_OUTCOME,
    ABSENT_U64,
    MAGIC,
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
from mapreplay.workloads import WORKLOADS, IntKey, WorkloadSpec, generate


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
    assert unpack_create_aux(e.aux) == (16, 750)
    assert e.aux >> 42 & 1  # the spread bit, set on every Create


@pytest.mark.parametrize("make", ["new_map", "copy_map"])
def test_refused_map_construction_records_nothing_and_takes_no_id(make):
    s = TraceSession()
    with pytest.raises(AttributeError):
        getattr(s, make)(object())  # neither a MapConfig nor a TracedMap
    assert s.new_map().map_id == 1
    assert [e.op for e in events_of(s)] == [RawOpKind.CREATE]


def test_create_event_records_requested_capacity():
    s = TraceSession()
    s.new_map(MapConfig(100, 600))
    (e,) = events_of(s)
    assert unpack_create_aux(e.aux) == (100, 600)
    assert e.aux >> 42 & 1


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


def test_events_after_close_are_dropped():
    s = TraceSession()
    m = s.new_map()
    m.put(IntKey(1), 1)
    s.close()
    m.put(IntKey(2), 2)
    assert len(s.close().events) == 2


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

    @property
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


def test_hash32_method_key_is_rejected_on_first_use():
    class OldStyleKey:
        def hash32(self):
            return 7

    s = TraceSession()
    m = s.new_map()
    with pytest.raises(TypeError, match=r"OldStyleKey\.hash32 must be an int attribute, got method"):
        m.put(OldStyleKey(), 1)
    assert [e for e in events_of(s) if e.key_id is not None] == []  # nothing recorded


def test_key_without_hash32_is_rejected_before_an_id_is_taken():
    s = TraceSession()
    m = s.new_map()
    with pytest.raises(TypeError, match=r"^str key has no hash32 attribute$"):
        m.put("word", 1)
    assert len(m) == 0
    m.put(IntKey(1), 1)
    (put,) = [e for e in events_of(s) if e.key_id is not None]
    assert put.key_id == 1  # the first id of slot 0: the rejected key took none


@pytest.mark.parametrize("bad", [2**31, -(2**31) - 1])
def test_out_of_range_hash_is_rejected_on_first_use(bad):
    s = TraceSession()
    m = s.new_map()
    with pytest.raises(ConfigError, match=rf"IntKey\.hash32 is {bad}, outside signed 32 bits"):
        m.put(IntKey(1, hash32=bad), 1)
    assert m.size() == 0
    m.put(IntKey(2), 2)  # the next key takes the first id: none was spent
    events = events_of(s)
    (put,) = [e for e in events if e.key_id is not None]
    assert put.key_id == 1


def test_hash_leaving_range_later_is_rejected_before_the_map_changes():
    s = TraceSession()
    m = s.new_map()
    key = MutableHashKey(1)
    m.put(key, 1)
    key.h = 2**31
    with pytest.raises(ConfigError, match=r"MutableHashKey\.hash32 is 2147483648"):
        m.remove(key)
    assert m.size() == 1
    key.h = 100
    assert m.get(key) == 1
    ops = [e.op for e in events_of(s) if e.key_id is not None]
    assert ops == [RawOpKind.PUT, RawOpKind.GET]


def test_none_value_is_refused_before_the_map_or_key_table_changes():
    # None means absent: a stored None would read as a miss on get and a
    # hit on contains_key, which no replay can reproduce.
    s = TraceSession()
    m = s.new_map()
    with pytest.raises(TypeError, match="^a map value must not be None: None means absent$"):
        m.put(IntKey(1), None)
    assert m.size() == 0 and m._keys == {}
    m.put(IntKey(2), 2)
    raw = s.close()
    assert [(e.op, e.key_id) for e in raw.events] == [(RawOpKind.CREATE, None), (RawOpKind.PUT, 1)]
    assert process(raw).op_count == 3  # Create, Put and the inserted FreeMap


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


@pytest.mark.parametrize("view", [5, 3, -1, "keys"])
def test_refused_view_records_nothing_and_takes_no_id(view):
    def session(refused):
        s = TraceSession()
        m = s.new_map()
        m.put(IntKey(1), 1)
        if refused:
            with pytest.raises(ValueError):
                m.iterator(view)
        it = m.iterator(View.KEYS)
        while it.advance() is not None:
            pass
        return s.close(), it.iter_id

    (clean, clean_id), (raw, iter_id) = session(False), session(True)
    assert iter_id == clean_id == 1
    assert raw.events == clean.events
    assert to_bytes(process(raw)) == to_bytes(process(clean))


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


@pytest.mark.parametrize("slot", [-1, 1 << 24])
def test_thread_slot_out_of_range_is_refused(slot):
    with pytest.raises(ValueError, match="thread slot out of range"):
        TraceSession().thread(slot)


def test_threads_binding_slots_at_once_lose_no_record():
    # Eight threads, four to a slot, bind their slots at once under a short
    # switch interval while the main thread records to slot 0: a slot whose
    # state was made twice would drop one state's records.
    s = TraceSession()
    puts = 200

    def worker(slot, t):
        with s.thread(slot):
            m = s.new_map()
            for i in range(puts):
                m.put(IntKey(t * puts + i), i)
        s.new_map()  # unbound again: slot 0

    threads = [threading.Thread(target=worker, args=(1 + t % 2, t)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        m = s.new_map()
        for i in range(puts):
            m.put(IntKey(i), i)
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    r = s.close().records
    slots = r["thread_id"]
    assert np.bincount(slots).tolist() == [1 + puts + 8, 4 * (1 + puts), 4 * (1 + puts)]
    assert (slots[1:] >= slots[:-1]).all()  # written in slot order
    assert ((r["map_id"] >> 40) == slots).all()


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


def test_raw_create_with_spread_bit_clear_names_offset(tmp_path):
    path = tmp_path / "spread.mrt"
    data = raw_trace_to_bytes(_session_with_traffic().close())
    # aux starts 29 bytes into a record; its bit 42, the spread flag, is
    # bit 2 of the field's sixth byte.
    create = by_op(raw_trace_from_bytes(data).events, RawOpKind.CREATE)[0]
    assert create.aux == pack_create_aux(16, 750)
    broken, offset = _patched_record(data, RawOpKind.CREATE, 34, (create.aux >> 40) & 0xFB)
    path.write_bytes(broken)
    for read in (lambda: read_raw_trace(path), lambda: raw_trace_from_bytes(broken)):
        with pytest.raises(TraceFormatError, match=r"spread bit \(aux bit 42\) clear") as err:
            read()
        assert err.value.offset == offset - 5


def test_raw_trace_from_events_validates_like_a_file(raw_records):
    records = raw_records([(RawOpKind.CREATE, 1), (99, 1)])
    with pytest.raises(TraceFormatError) as err:
        raw_trace_from_bytes(raw_trace_to_bytes(RawTrace(records)))
    assert err.value.offset == 16 + 40 + 8


# -- file-backed raw traces -------------------------------------------------------------


def test_read_raw_trace_keeps_no_records_and_reads_blocks_back(tmp_path):
    trace = _session_with_traffic().close()
    path = tmp_path / "t.mrt"
    write_raw_trace(trace, path)
    raw = read_raw_trace(path)
    assert raw._records is None and len(raw) == len(trace) == 24
    for source in (trace, raw):
        blocks = list(source.blocks(5))
        assert [len(b) for b in blocks] == [5, 5, 5, 5, 4]
        assert not any(b.flags.writeable for b in blocks)
        assert np.concatenate(blocks).tobytes() == trace.records.tobytes()
    # An in-memory trace's blocks are slices of its array.
    assert all(np.shares_memory(b, trace.records) for b in trace.blocks(5))
    assert raw.records.tobytes() == trace.records.tobytes()
    assert not raw.records.flags.writeable


def test_file_backed_trace_can_be_written_over_its_file(tmp_path):
    trace = _session_with_traffic().close()
    path = tmp_path / "t.mrt"
    write_raw_trace(trace, path)
    write_raw_trace(read_raw_trace(path), path)
    assert path.read_bytes() == raw_trace_to_bytes(trace)


def _truncate(path, data):
    os.truncate(path, len(data) - 100)


def _rewrite_in_place(path, data):
    # Event 1's op byte becomes 99; the stamp or the block check catches it.
    with open(path, "r+b") as fh:
        fh.seek(16 + 40 + 8)
        fh.write(bytes([99]))


def _touch(path, data):
    # The same bytes with another modification time: only the stamp can tell.
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def _replace(path, data):
    other = path.with_name("other.mrt")
    other.write_bytes(data)
    os.replace(other, path)


@pytest.mark.parametrize("change", [_truncate, _rewrite_in_place, _touch, _replace])
def test_file_changed_after_read_fails_with_an_offset(tmp_path, change):
    path = tmp_path / "t.mrt"
    generate(WorkloadSpec("churn", seed=1), path)
    raw = read_raw_trace(path)
    change(path, path.read_bytes())
    for consume in (process, lambda raw: raw.records, lambda raw: list(raw.blocks(64))):
        with pytest.raises(TraceFormatError) as err:
            consume(raw)
        assert err.value.offset is not None


def test_short_read_names_where_the_body_ends(tmp_path):
    path = tmp_path / "t.mrt"
    write_raw_trace(_session_with_traffic().close(), path)
    count = len(read_raw_trace(path))
    os.truncate(path, 16 + 5 * 40 + 12)
    # A file cut while it is being read: its stamp still checks out.
    blocks = tracer._read_blocks(path, tracer._stamp(os.stat(path)), count, 4)
    with pytest.raises(TraceFormatError, match=f"ends inside event 5 of {count}") as err:
        list(blocks)
    assert err.value.offset == 16 + 5 * 40 + 12


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_file_backed_and_in_memory_traces_distill_alike(tmp_path, name):
    path = tmp_path / f"{name}.mrt"
    generate(WorkloadSpec(name, seed=1), path)
    from_file = to_bytes(process(read_raw_trace(path)))
    assert from_file == to_bytes(process(raw_trace_from_bytes(path.read_bytes())))


def test_file_backed_trace_leaves_no_handle_open(tmp_path):
    path = tmp_path / "t.mrt"
    write_raw_trace(_session_with_traffic().close(), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        raw = read_raw_trace(path)
        process(raw)
        next(raw.blocks(2))  # a pass dropped after its first block
        del raw
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize(
    "spec",
    [WorkloadSpec(name, seed=1) for name in sorted(WORKLOADS)]
    + [WorkloadSpec("churn", seed=1, params={"threads": 2})],
    ids=[*sorted(WORKLOADS), "churn-2-threads"],
)
def test_streamed_file_equals_writing_an_in_memory_session(tmp_path, spec):
    streamed, written = tmp_path / "streamed.mrt", tmp_path / "written.mrt"
    raw = generate(spec, streamed)
    write_raw_trace(generate(spec), written)
    assert streamed.read_bytes() == written.read_bytes()
    # The session returns a trace that reads the file it wrote.
    assert raw._records is None
    assert len(raw) == (streamed.stat().st_size - 16) // 40


def test_session_streams_slot_0_while_recording_and_keeps_later_slots(tmp_path):
    path = tmp_path / "t.mrt"
    s = TraceSession(path)
    m = s.new_map()
    puts = tracer._FLUSH_BYTES // 40  # with the Create, just past one flush
    for i in range(puts):
        m.put(IntKey(i), i)
    with s.thread(1):
        other = s.new_map()
        other.put(IntKey(1), 1)
    m.get(IntKey(0))
    # Slot 0 has flushed once, under the sentinel count; slot 1 has not.
    data = path.read_bytes()
    assert struct.unpack_from("<Q", data, 8) == (tracer._SENTINEL_COUNT,)
    assert len(data) - 16 == tracer._FLUSH_BYTES + 40 - tracer._FLUSH_BYTES % 40
    assert len(s._states[0].buffer) < tracer._FLUSH_BYTES
    raw = s.close()
    assert s.close() is raw
    ops = raw.records["op"]
    assert len(raw) == 1 + puts + 1 + 2
    # Slot 0 in stream order, then slot 1's records.
    assert ops[-3] == RawOpKind.GET and list(ops[-2:]) == [RawOpKind.CREATE, RawOpKind.PUT]
    assert raw_trace_to_bytes(raw) == path.read_bytes()


def test_workload_raising_mid_recording_leaves_a_truncated_file(tmp_path, monkeypatch):
    from mapreplay import workloads

    def failing(env, rng, scale):
        m = env.new_map()
        for i in range(3 * tracer._FLUSH_BYTES // 40):
            m.put(IntKey(i), i)
        raise RuntimeError("workload failed")

    monkeypatch.setitem(workloads.WORKLOADS, "failing", failing)
    path = tmp_path / "t.mrt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="workload failed"):
            generate(WorkloadSpec("failing"), path)
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert path.stat().st_size > 16 + tracer._FLUSH_BYTES
    with pytest.raises(TraceFormatError, match="missing end-marker") as err:
        read_raw_trace(path)
    assert err.value.offset == 8


def test_write_raw_trace_failing_mid_write_leaves_a_truncated_file(tmp_path, monkeypatch):
    trace = _session_with_traffic().close()
    write = tracer._RawWriter.write

    def failing(self, records):
        write(self, bytes(records)[: 3 * 40])
        raise OSError("disk full")

    monkeypatch.setattr(tracer._RawWriter, "write", failing)
    path = tmp_path / "t.mrt"
    with pytest.raises(OSError, match="disk full"):
        write_raw_trace(trace, path)
    assert path.stat().st_size == 16 + 3 * 40
    with pytest.raises(TraceFormatError, match="missing end-marker") as err:
        read_raw_trace(path)
    assert err.value.offset == 8


def test_session_left_by_an_exception_records_nothing_more(tmp_path):
    path = tmp_path / "t.mrt"
    with pytest.raises(RuntimeError):
        with TraceSession(path) as s:
            m = s.new_map()
            raise RuntimeError
    m.put(IntKey(1), 1)  # dropped
    assert len(s._states[0].buffer) == 40
    with pytest.raises(ValueError, match="abandoned"):
        s.close()
    assert not path.exists()  # the one record never reached a flush


def test_session_whose_directory_is_missing_fails_to_close(tmp_path):
    path = tmp_path / "missing" / "t.mrt"
    s = TraceSession(path)
    s.new_map().put(IntKey(1), 1)
    with pytest.raises(OSError):
        s.close()
    assert not path.exists()
    with pytest.raises(ValueError, match="abandoned"):
        s.close()


def test_raw_trace_wraps_only_raw_records():
    with pytest.raises(TypeError, match="RAW_DTYPE"):
        RawTrace([])
    with pytest.raises(TypeError, match="RAW_DTYPE"):
        RawTrace(np.zeros(2, dtype=np.uint64))


def test_raw_trace_events_view_round_trips():
    # The layer benchmark counts through `.events` (`e.op is RawOpKind.X`),
    # so each field must read back its column, with absent fields as None.
    trace = _session_with_traffic().close()
    r = trace.records
    events = trace.events
    assert len(trace) == len(events) == len(r)
    assert not r.flags.writeable
    for i, e in enumerate(events):
        assert e.op is RawOpKind(r["op"][i])
        assert (e.thread_id, e.map_id, e.aux) == (
            r["thread_id"][i], r["map_id"][i], r["aux"][i]
        )
        keyed = r["key_id"][i] != ABSENT_U64
        assert e.key_id == (r["key_id"][i] if keyed else None)
        assert e.hash == (r["hash"][i] if keyed else None)
        assert (r["hash"][i] == ABSENT_HASH) == (not keyed)
        absent = r["outcome"][i] == ABSENT_OUTCOME
        assert e.outcome == (None if absent else r["outcome"][i])
    assert {e.key_id is None for e in events} == {True, False}
    assert {e.outcome is None for e in events} == {True, False}


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
    assert tracer.RAW_DTYPE == np.dtype({
        "names": ["thread_id", "op", "map_id", "key_id", "hash", "aux", "outcome", "pad"],
        "formats": ["<u8", "u1", "<u8", "<u8", "<i4", "<u8", "u1", "V2"],
        "offsets": [0, 8, 9, 17, 25, 29, 37, 38],
        "itemsize": 40,
    })


# -- recorded control flow matches application keys ------------------------------------


def test_key_substitution_preserves_bucket_and_outcome():
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
        assert e.hash == key.hash32
        for cap in (16, 64, 1024):
            assert bucket_index(e.hash, cap) == bucket_index(key.hash32, cap)


def test_outcome_bits_reproducible_by_raw_interpretation(interpret_raw):
    """Replaying each map's raw event subsequence reproduces recorded outcomes."""
    from mapreplay.workloads import WorkloadSpec, generate

    interpret_raw(generate(WorkloadSpec("random", seed=5, scale=2)))
