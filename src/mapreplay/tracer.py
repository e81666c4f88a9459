"""In-process tracing of map operations behind the adapter interface.

A TraceSession hands out TracedMap wrappers that delegate to RefMap and
record one fixed-width record per operation: operation kind, map identity,
canonical key identity, 32-bit hash, and a hit/miss outcome bit. Values are
never recorded. Equal-but-not-identical keys are collapsed onto one
canonical key id per map, so replay can use identity-equality mockup keys
while reproducing the exact hash/bucket control flow. Each TracedMap keeps
its own canonical-key table, so the table dies with the map; the session
keeps only the record buffers and id counters.

Every traced call checks its arguments and performs its map operation
first, and only then takes an id (for a new map, iterator or key) and
records. A refused call (a bad key, a None value, a bad view, config or
copy source) records nothing and takes no id, so the trace holds only
calls that happened and each slot's ids are dense.

Records are packed straight into per-thread-slot byte buffers in the MRT1
record layout below; no Python object is kept per event. Every session
streams: each time slot 0's buffer reaches 64 KiB it is appended to the
session's sink (its file, or an in-memory buffer when it has no path),
which is started (header and sentinel count) on the first such flush.
The later slots keep their buffers until `close`, which appends slot 0's
remainder and then each later slot in slot order, patches the count in
and returns a trace of the sink, so a closed session keeps no slot
buffer. A session that records less than 64 KiB starts its sink only at
close. If the traced code raises, a file is closed as it stands, sentinel
in place: the crash signature below.

A RawTrace is consumed a block of records at a time, each block a
read-only numpy structured array in RAW_DTYPE, one row per event. It
holds its records in one of two ways. Built from an array (by
`TraceSession.close` without a path, `raw_trace_from_bytes` or a public
post-processing pass) it checks every record, a block at a time, wraps
the array, and its blocks are slices of it. Returned by `read_raw_trace`,
or by `TraceSession.close` with a path, it holds no records at all:
reading checks the header, the event count against the file size and
every record, a block at a time, and keeps only the path and the file's
identity, size and modification time (a session takes these once the
file is complete). Each later pass reads the body
back from the file, checks every block again, and checks that the file
has not changed, so a truncated, rewritten or replaced file raises
TraceFormatError rather than yield other records.
`RawTrace.records` loads the whole checked body as one array, and
`RawTrace.events` materializes RawEvent objects from it on demand, as a
debug view that the layer benchmark still counts through.

Raw trace file format (little-endian):

    magic "MRT1" | u32 version=1 | u64 event count | 40-byte records

The event count doubles as the end-marker: it is a sentinel (all ones)
while the file is being written and is patched at close, so a crashed
session, or a failed `write_raw_trace`, leaves a detectably truncated
file. Both drive one writer of header, records and patch the same way:
write, then close, or abandon on any exception. Each record is

    u64 thread_id | u8 op | u64 map_id | u64 key_id | i32 hash |
    u64 aux | u8 outcome | 2 pad bytes

laid out once, in `_LAYOUT`, with absent fields encoded as all-ones.
`aux` is op-specific: Create packs requested capacity (bits 0-31), load
factor thousandths (bits 32-41) and the spread flag (bit 42), which is
always 1: every map spreads its keys' hashes, and a Create with the bit
clear is refused by every RawTrace. CreateCopy carries the source map id; IterNew packs
(iterator id << 2) | view; IterAdvance carries the step count. Iterator
events (IterAdvance, IterRemove) carry the iterator id in the map_id field.
"""

from __future__ import annotations

import io
import itertools
import os
import struct
import sys
import threading
from collections import deque
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

from .errors import ConfigError, TraceFormatError
from .refmap import DEFAULT_CONFIG, MapConfig, RefMap, View

MAGIC = b"MRT1"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")
_SENTINEL_COUNT = 0xFFFFFFFFFFFFFFFF
ABSENT_U64 = 0xFFFFFFFFFFFFFFFF
ABSENT_HASH = -1
ABSENT_OUTCOME = 0xFF

#: The MRT1 record layout, field by field, then 2 pad bytes: the record
#: struct and RAW_DTYPE both derive from it.
_LAYOUT = (
    ("thread_id", "Q"), ("op", "B"), ("map_id", "Q"), ("key_id", "Q"),
    ("hash", "i"), ("aux", "Q"), ("outcome", "B"),
)
_FIELDS = tuple(name for name, _ in _LAYOUT)
_RECORD = struct.Struct("<" + "".join(code for _, code in _LAYOUT) + "2x")
#: One MRT1 record as a numpy row. The pad bytes are a field too, so the
#: dtype has no holes and numpy copies whole records, pad included.
RAW_DTYPE = np.dtype([(name, "<" + code) for name, code in _LAYOUT] + [("pad", "V2")])

_SLOT_SHIFT = 40  # ids are (thread slot << 40) | per-slot counter


class RawOpKind(IntEnum):
    CREATE = 1
    CREATE_COPY = 2
    GET = 3
    PUT = 4
    REMOVE = 5
    CONTAINS_KEY = 6
    CLEAR = 7
    ITER_NEW = 8
    ITER_ADVANCE = 9
    ITER_REMOVE = 10
    # Inserted by post-processing only; never recorded live.
    FREE_MAP = 11
    FREE_ITER = 12


#: The op bytes as plain ints: numpy compares a uint8 column with an
#: IntEnum member through int64 buffers, several times slower than with
#: an int.
_OP = SimpleNamespace(**{op.name: int(op) for op in RawOpKind})


def _op_table(*ops: int) -> np.ndarray:
    """Membership table indexed by op byte: `_op_table(...)[op]` is a mask."""
    table = np.zeros(256, dtype=bool)
    table[list(ops)] = True
    return table


#: Ops whose map_id field names a map, ops on an iterator, keyed ops, and
#: the ops that create a map.
_MAP_OPS = _op_table(
    _OP.CREATE, _OP.CREATE_COPY, _OP.GET, _OP.PUT, _OP.REMOVE, _OP.CONTAINS_KEY,
    _OP.CLEAR, _OP.ITER_NEW, _OP.FREE_MAP,
)
_ITER_OPS = _op_table(_OP.ITER_ADVANCE, _OP.ITER_REMOVE, _OP.FREE_ITER)
_KEYED_OPS = _op_table(_OP.GET, _OP.PUT, _OP.REMOVE, _OP.CONTAINS_KEY)
_CREATES = _op_table(_OP.CREATE, _OP.CREATE_COPY)


@dataclass(frozen=True, slots=True)
class RawEvent:
    """One raw event as Python values: the debug view of a record.

    Only `RawTrace.events` builds these. The layer benchmark counts events
    through that view; once it counts from `records["op"]`, this class and
    the view can go.
    """

    thread_id: int
    op: RawOpKind
    map_id: int  # iterator id for ITER_ADVANCE / ITER_REMOVE / FREE_ITER
    key_id: int | None = None
    hash: int | None = None
    aux: int = 0
    outcome: int | None = None


class RawTrace:
    """Serialized-order event stream, before or after sanitization.

    Its records are laid out exactly like the MRT1 body and are read
    through `blocks(n)`, and every one has passed `_check_records`. A
    trace built from a RAW_DTYPE array checks it a block at a time, as
    reading it from a file would (an error names the offset in that
    file), and wraps it, read-only and contiguous; one from
    `read_raw_trace` reads and checks its body again from the file on
    each pass (see the module docstring).
    """

    __slots__ = ("_records", "_source", "_count")

    def __init__(self, records: np.ndarray):
        dtype = getattr(records, "dtype", type(records).__name__)
        if not isinstance(records, np.ndarray) or dtype != RAW_DTYPE:
            raise TypeError(f"raw records must be an array of RAW_DTYPE, not {dtype}")
        records = np.ascontiguousarray(records).view()
        records.flags.writeable = False
        for first in range(0, len(records), _CHECK_BLOCK):
            _check_records(records[first : first + _CHECK_BLOCK], first)
        self._records = records
        self._source: tuple[Path, tuple[int, ...]] | None = None
        self._count = len(records)

    @classmethod
    def _of_file(cls, path: Path, stamp: tuple[int, ...], count: int) -> "RawTrace":
        trace = cls.__new__(cls)
        trace._records = None
        trace._source = (path, stamp)
        trace._count = count
        return trace

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"RawTrace({len(self)} events)"

    def blocks(self, n: int) -> Iterator[np.ndarray]:
        """The records in order, as read-only arrays of at most `n` each.

        A file-backed trace opens its file for each call, and reads and
        checks one block at a time; a block is a fresh array, so a caller
        may keep what it slices from one.
        """
        if self._source is None:
            r = self._records
            return (r[start : start + n] for start in range(0, len(r), n))
        return _read_blocks(*self._source, self._count, n)

    @property
    def records(self) -> np.ndarray:
        """Every record as one read-only array; a file-backed trace reads
        and checks its whole body again on each access."""
        if self._source is None:
            return self._records
        whole = list(self.blocks(max(len(self), 1)))
        return whole[0] if whole else np.empty(0, dtype=RAW_DTYPE)

    @property
    def events(self) -> list[RawEvent]:
        """Materialize every record as a RawEvent (debug view; costs ~100 B/event)."""
        r = self.records
        columns = (r[name].tolist() for name in _FIELDS)
        out = []
        for thread_id, op, map_id, key_id, h, aux, outcome in zip(*columns):
            # Hash presence tracks key presence: keyed ops always record one.
            has_key = key_id != ABSENT_U64
            out.append(
                RawEvent(
                    thread_id,
                    RawOpKind(op),
                    map_id,
                    key_id if has_key else None,
                    h if has_key else None,
                    aux,
                    None if outcome == ABSENT_OUTCOME else outcome,
                )
            )
        return out


#: The Create aux bit that says the map spreads its hashes; always set.
SPREAD_AUX_BIT = 1 << 42


def pack_create_aux(capacity: int, lf_milli: int) -> int:
    return (capacity & 0xFFFFFFFF) | (lf_milli << 32) | SPREAD_AUX_BIT


def unpack_create_aux(aux: int) -> tuple[int, int]:
    return aux & 0xFFFFFFFF, (aux >> 32) & 0x3FF


def pack_iternew_aux(iter_id: int, view: View) -> int:
    return (iter_id << 2) | int(view)


def unpack_iternew_aux(aux: int) -> tuple[int, View]:
    return aux >> 2, View(aux & 0x3)


#: Bytes of records slot 0 holds before it appends them to the session's
#: sink; the later slots write theirs only at close.
_FLUSH_BYTES = 1 << 16


class _SlotState:
    __slots__ = ("slot", "buffer", "flush_at", "map_ids", "iter_ids", "key_ids")

    def __init__(self, slot: int):
        self.slot = slot
        self.buffer = bytearray()  # packed MRT1 records
        self.flush_at = _FLUSH_BYTES if slot == 0 else sys.maxsize
        first = (slot << _SLOT_SHIFT) + 1
        self.map_ids = itertools.count(first)
        self.iter_ids = itertools.count(first)
        self.key_ids = itertools.count(first)


class _Bound(threading.local):
    """The slot state a thread records to: slot 0's until it binds another."""

    def __init__(self, first: _SlotState):
        self.state = first


class TraceSession:
    """Collects raw records from traced maps and writes the raw trace.

    Thread slots keep multi-threaded tracing deterministic: each slot has
    its own record buffer and id counters (ids are slot << 40 | counter),
    and buffers are written in slot order. Wrap worker-thread code in
    `with session.thread(slot):`; unwrapped code records to slot 0. A
    single map shared across threads still needs caller-side locking.

    Slot 0's records stream to the sink in 64 KiB pieces while recording;
    the later slots keep theirs until `close()` appends them, in slot
    order, after slot 0's. With a path the sink is that file: it is not
    created until the first piece is written, and it reads as truncated
    (its count still the sentinel) until `close()` patches the count.
    Without one it is an in-memory buffer. Used as a context manager, the
    session closes on a clean exit; on an exception it stops recording and
    closes a file as it stands, and `close()` then raises ValueError.

    The session records from construction until `close()`; later events
    are dropped. Maps hold the session and the session holds no map, so
    reference counting alone frees a finished session and its buffers.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path).absolute() if path is not None else None
        first = _SlotState(0)
        self._states: dict[int, _SlotState] = {0: first}
        self._lock = threading.Lock()
        self._local = _Bound(first)
        self._writer: _RawWriter | None = None
        self._recording = True
        self._trace: RawTrace | None = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> RawTrace:
        """Stop recording and return the trace; closing again returns it again.

        What slot 0 has not yet flushed and then each later slot's buffer,
        in slot order, are appended to the sink and the count is patched
        in. With a path the trace returned reads the file; without one it
        wraps the records in memory.
        """
        if self._trace is None:
            if not self._recording:
                raise ValueError("the session was abandoned and holds no trace")
            self._recording = False
            try:
                for slot in sorted(self._states):
                    self._flush(self._states[slot])
            except BaseException:
                self._abandon()
                raise
            writer, self._writer = self._writer, None
            self._trace = writer.close()
        return self._trace

    def __enter__(self) -> "TraceSession":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:
            self._abandon()

    def _abandon(self) -> None:
        """Stop recording after a failure. A file already started is closed
        as it stands, its sentinel count in place, so it reads as truncated."""
        self._recording = False
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.abandon()

    def _flush(self, state: _SlotState) -> None:
        """Append a slot's records to the sink, starting the sink first."""
        if self._writer is None:
            self._writer = _RawWriter(self._path)
        self._writer.write(state.buffer)
        state.buffer = bytearray()

    # -- thread slots ------------------------------------------------------------

    def thread(self, slot: int) -> AbstractContextManager[None]:
        """Bind the calling thread's events and ids to `slot`, from 0 (the
        slot unwrapped code records to) to 2^24 - 1, within a `with` block.
        Each slot counts its map, iterator and key ids from 1 with no gaps,
        since a refused traced call takes none."""
        if slot < 0 or slot >= (1 << 24):
            raise ValueError("thread slot out of range")
        with self._lock:
            state = self._states.get(slot)
            if state is None:
                state = self._states[slot] = _SlotState(slot)
        return _bind(self._local, state)

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        op: RawOpKind,
        map_id: int,
        key_id: int = ABSENT_U64,
        hash32: int = ABSENT_HASH,
        aux: int = 0,
        outcome: int = ABSENT_OUTCOME,
    ) -> None:
        if not self._recording:
            return
        state = self._local.state
        buffer = state.buffer
        buffer += _RECORD.pack(state.slot, op, map_id, key_id, hash32, aux, outcome)
        if len(buffer) >= state.flush_at:
            self._flush(state)

    # -- traced map construction ----------------------------------------------------

    def new_map(self, config: MapConfig = DEFAULT_CONFIG) -> "TracedMap":
        """Create a traced map; emits a Create event with the requested config."""
        aux = pack_create_aux(config.initial_capacity, config.load_factor_milli)
        map_id = next(self._local.state.map_ids)
        self.record(RawOpKind.CREATE, map_id, aux=aux)
        return TracedMap(self, RefMap(config), map_id, {})

    def copy_map(self, source: "TracedMap") -> "TracedMap":
        """Copy-construct a traced map; it inherits the source's key ids, so
        lookups against the copy resolve to the source's canonical keys.

        The copy takes the default config, not its source's, as Java's
        `HashMap(Map)` does, so the CreateCopy event records only the source.
        """
        inner = RefMap.copy_of(source._inner)
        map_id = next(self._local.state.map_ids)
        self.record(RawOpKind.CREATE_COPY, map_id, aux=source.map_id)
        return TracedMap(self, inner, map_id, dict(source._keys))


@contextmanager
def _bind(local: _Bound, state: _SlotState) -> Iterator[None]:
    """Record the calling thread's events to `state` until the block ends."""
    prev, local.state = local.state, state
    try:
        yield
    finally:
        local.state = prev


class TracedMap:
    """Adapter-shaped wrapper that records every operation against a RefMap.

    `_keys` maps each key this map has seen to its canonical id: two equal
    keys share one id, found through the key's `__eq__`/`__hash__`, while
    the hash is read from the key's `hash32` attribute on every op and
    recorded as observed. A key whose 32-bit hash changes is thus emitted
    with two hashes under one id; post-processing spots the conflict and
    drops every map that touched the key. A key without an int `hash32`
    (a `str`, or an old-style `hash32()` method, say), or whose hash lies
    outside signed 32 bits, is rejected before an id is taken or the inner
    map is touched.
    """

    __slots__ = ("_session", "_inner", "map_id", "_keys")

    def __init__(self, session: TraceSession, inner: RefMap, map_id: int, keys: dict[Any, int]):
        self._session = session
        self._inner = inner
        self.map_id = map_id
        self._keys = keys

    def _key(self, key: Any) -> tuple[int, int]:
        try:
            observed = key.hash32
        except AttributeError:
            raise TypeError(f"{type(key).__name__} key has no hash32 attribute") from None
        if not isinstance(observed, int):
            raise TypeError(
                f"{type(key).__name__}.hash32 must be an int attribute, "
                f"got {type(observed).__name__}"
            )
        if not -0x80000000 <= observed <= 0x7FFFFFFF:
            raise ConfigError(
                f"{type(key).__name__}.hash32 is {observed}, outside signed 32 bits"
            )
        kid = self._keys.get(key)
        if kid is None:
            kid = self._keys[key] = next(self._session._local.state.key_ids)
        return kid, observed

    def get(self, key: Any) -> Any | None:
        kid, h = self._key(key)
        value = self._inner.get(key)
        self._session.record(
            RawOpKind.GET, self.map_id, kid, h, outcome=int(value is not None)
        )
        return value

    def put(self, key: Any, value: Any) -> Any | None:
        if value is None:
            raise TypeError("a map value must not be None: None means absent")
        kid, h = self._key(key)
        old = self._inner.put(key, value)
        self._session.record(
            RawOpKind.PUT, self.map_id, kid, h, outcome=int(old is not None)
        )
        return old

    def remove(self, key: Any) -> Any | None:
        kid, h = self._key(key)
        old = self._inner.remove(key)
        self._session.record(
            RawOpKind.REMOVE, self.map_id, kid, h, outcome=int(old is not None)
        )
        return old

    def contains_key(self, key: Any) -> bool:
        kid, h = self._key(key)
        found = self._inner.contains_key(key)
        self._session.record(
            RawOpKind.CONTAINS_KEY, self.map_id, kid, h, outcome=int(found)
        )
        return found

    def clear(self) -> None:
        self._inner.clear()
        self._session.record(RawOpKind.CLEAR, self.map_id)

    def size(self) -> int:
        # Size queries cost nothing in the modeled map; not traced.
        return self._inner.size()

    def __len__(self) -> int:
        return self._inner.size()

    def iterator(self, view: View = View.ENTRIES) -> "TracedIterator":
        inner = self._inner.iterator(view)  # refuses a bad view
        iter_id = next(self._session._local.state.iter_ids)
        self._session.record(
            RawOpKind.ITER_NEW, self.map_id, aux=pack_iternew_aux(iter_id, view)
        )
        return TracedIterator(self._session, inner, iter_id)


class TracedIterator:
    __slots__ = ("_session", "_inner", "iter_id")

    def __init__(self, session: TraceSession, inner, iter_id: int):
        self._session = session
        self._inner = inner
        self.iter_id = iter_id

    def advance(self) -> Any | None:
        item = self._inner.advance()
        self._session.record(
            RawOpKind.ITER_ADVANCE, self.iter_id, aux=1, outcome=int(item is not None)
        )
        return item

    def remove(self) -> None:
        self._inner.remove()
        self._session.record(RawOpKind.ITER_REMOVE, self.iter_id)


# -- raw trace file I/O ---------------------------------------------------------


#: Records checked per block, by `RawTrace` and `read_raw_trace`: what
#: reading holds.
_CHECK_BLOCK = 1 << 12
#: The largest IterNew view, as a plain int: the check runs on every block.
_LAST_VIEW = int(max(View))


def _check_records(records: np.ndarray, first: int = 0) -> None:
    """Reject unknown ops, IterNew views and Creates whose spread bit is
    clear, in one vectorized pass.

    `records` start at event `first` of the file; errors name the byte
    offset of the bad field in the MRT1 file.
    """
    op = records["op"]
    if op.size and (op.min() < _OP.CREATE or op.max() > _OP.FREE_ITER):
        i = int(np.argmax((op < _OP.CREATE) | (op > _OP.FREE_ITER)))
        raise TraceFormatError(f"unknown op {op[i]}", offset=_field_offset(first + i, "op"))
    news = np.flatnonzero(op == _OP.ITER_NEW)
    views = records["aux"][news] & 0x3
    bad = np.flatnonzero(views > _LAST_VIEW)
    if bad.size:
        raise TraceFormatError(
            f"IterNew view {views[bad[0]]} is not a valid view",
            offset=_field_offset(first + int(news[bad[0]]), "aux"),
        )
    creates = np.flatnonzero(op == _OP.CREATE)
    unspread = np.flatnonzero((records["aux"][creates] & SPREAD_AUX_BIT) == 0)
    if unspread.size:
        raise TraceFormatError(
            "Create with the spread bit (aux bit 42) clear: every map spreads its hashes",
            offset=_field_offset(first + int(creates[unspread[0]]), "aux"),
        )


def _field_offset(index: int, field: str) -> int:
    return _HEADER.size + index * RAW_DTYPE.itemsize + RAW_DTYPE.fields[field][1]


def raw_trace_to_bytes(trace: RawTrace) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, len(trace)) + trace.records.tobytes()


class _RawWriter:
    """An MRT1 stream being written to a file or, without a path, to an
    in-memory buffer: the header goes first with the sentinel count, then
    records are appended, and `close` patches the count in last. A writer
    abandoned instead leaves the sentinel, which readers treat as a
    missing end-marker."""

    __slots__ = ("_path", "_fh", "_count")

    def __init__(self, path: Path | None):
        self._path = path
        self._fh = open(path, "wb") if path is not None else io.BytesIO()
        self._fh.write(_HEADER.pack(MAGIC, VERSION, _SENTINEL_COUNT))
        self._count = 0

    def write(self, records) -> None:
        """Append packed records: a buffer of whole 40-byte records."""
        self._fh.write(records)
        self._count += memoryview(records).nbytes // _RECORD.size

    def close(self) -> RawTrace:
        """Patch the count in and close; returns a trace reading the file,
        or, in memory, one wrapping the records after the header."""
        fh = self._fh
        fh.seek(len(MAGIC) + 4)
        fh.write(struct.pack("<Q", self._count))
        if self._path is None:
            # The trace's records are a view that keeps the buffer alive.
            return RawTrace(np.frombuffer(fh.getbuffer(), RAW_DTYPE, self._count, _HEADER.size))
        with fh:
            fh.flush()
            stamp = _stamp(os.fstat(fh.fileno()))
        return RawTrace._of_file(self._path, stamp, self._count)

    def abandon(self) -> None:
        self._fh.close()


def write_raw_trace(trace: RawTrace, path: str | Path) -> None:
    """Write with a sentinel count first, patching it in last.

    A crash mid-write leaves the sentinel in place, which readers treat as
    a missing end-marker. A file-backed trace is loaded before the file is
    opened, so it can be written over the file it was read from.
    """
    records = trace.records
    writer = _RawWriter(Path(path).absolute())
    try:
        writer.write(records.data)
    except BaseException:
        writer.abandon()
        raise
    writer.close()


def _event_count(header: bytes, size: int) -> int:
    """The event count of an MRT1 file of `size` bytes that starts with
    `header`, once the header and the size agree with it."""
    if len(header) < _HEADER.size:
        raise TraceFormatError("raw trace shorter than header", offset=0)
    magic, version, count = _HEADER.unpack_from(header, 0)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise TraceFormatError(f"unsupported raw trace version {version}", offset=4)
    if count == _SENTINEL_COUNT:
        raise TraceFormatError("missing end-marker: trace truncated at close", offset=8)
    body = size - _HEADER.size
    if body != count * _RECORD.size:
        raise TraceFormatError(
            f"event count {count} disagrees with body of {body} bytes",
            offset=_HEADER.size,
        )
    return count


def raw_trace_from_bytes(data: bytes) -> RawTrace:
    """Map the records onto RAW_DTYPE without copying; the trace checks them."""
    count = _event_count(data[: _HEADER.size], len(data))
    return RawTrace(np.frombuffer(data, dtype=RAW_DTYPE, count=count, offset=_HEADER.size))


def _stamp(st: os.stat_result) -> tuple[int, ...]:
    """What identifies one version of a file: device, inode, size, mtime."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _check_unchanged(fh, stamp: tuple[int, ...]) -> None:
    """Raise unless the open file `fh` is the version `stamp` describes."""
    now = _stamp(os.fstat(fh.fileno()))
    if now == stamp:
        return
    size, was = now[2], stamp[2]
    if size != was:
        raise TraceFormatError(
            f"raw trace file changed since it was read: now {size} bytes, was {was}",
            offset=min(size, was),
        )
    raise TraceFormatError("raw trace file rewritten or replaced since it was read", offset=0)


def _read_blocks(path: Path, stamp: tuple[int, ...], count: int, n: int) -> Iterator[np.ndarray]:
    """Read and check the `count` records of an MRT1 file, `n` at a time."""
    with open(path, "rb") as fh:
        _check_unchanged(fh, stamp)
        fh.seek(_HEADER.size)
        for first in range(0, count, n):
            # Built in a call of its own, so this frame holds no block.
            yield _read_block(fh, first, min(n, count - first), count)
        _check_unchanged(fh, stamp)


def _read_block(fh, first: int, n: int, count: int) -> np.ndarray:
    """Records `first` to `first + n` of `count`, read from `fh` and checked."""
    block = np.empty(n, dtype=RAW_DTYPE)
    got = fh.readinto(block)
    if got != block.nbytes:
        raise TraceFormatError(
            f"raw trace ends inside event {first + got // _RECORD.size} of {count}",
            offset=_HEADER.size + first * _RECORD.size + got,
        )
    _check_records(block, first)
    block.flags.writeable = False
    return block


def read_raw_trace(path: str | Path) -> RawTrace:
    """Check an MRT1 file and return a trace that reads it back on each pass.

    The header, the event count against the file size and every record
    are checked here, one block at a time, so a malformed file fails here
    with the byte offset at fault. No record is kept.
    """
    path = Path(path).absolute()
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        stamp = _stamp(os.fstat(fh.fileno()))
    trace = RawTrace._of_file(path, stamp, _event_count(header, stamp[2]))
    deque(trace.blocks(_CHECK_BLOCK), maxlen=0)  # consumed without holding a block
    return trace
