"""In-process tracing of map operations behind the adapter interface.

A TraceSession hands out TracedMap wrappers that delegate to RefMap and
record one fixed-width record per operation: operation kind, map identity,
canonical key identity, 32-bit hash, and a hit/miss outcome bit. Values are
never recorded. Equal-but-not-identical keys are collapsed onto one
canonical key id per map, so replay can use identity-equality mockup keys
while reproducing the exact hash/bucket control flow. Each TracedMap keeps
its own canonical-key table, so the table dies with the map; the session
keeps only the record buffers and id counters.

Records are packed straight into per-thread-slot byte buffers in the MRT1
record layout below; no Python object is kept per event. A RawTrace is
consumed a block of records at a time, each block a read-only numpy
structured array in RAW_DTYPE, one row per event. It holds its records in
one of two ways. Built from an array (by `TraceSession.close`,
`raw_trace_from_bytes` or a public post-processing pass) it wraps that
array, and its blocks are slices of it. Returned by `read_raw_trace` it
holds no records at all: reading checks the header, the event count
against the file size and every record, a block at a time, and keeps only
the path and the file's identity, size and modification time. Each later
pass reads the body back from the file, checks every block again, and
checks that the file has not changed, so a truncated, rewritten or
replaced file raises TraceFormatError rather than yield other records.
`RawTrace.records` loads the whole checked body as one array, and
`RawTrace.events` materializes RawEvent objects from it on demand, as a
debug view that the layer benchmark still counts through.

Raw trace file format (little-endian):

    magic "MRT1" | u32 version=1 | u64 event count | 40-byte records

The event count doubles as the end-marker: it is a sentinel (all ones)
while the file is being written and is patched at close, so a crashed
session leaves a detectably truncated file. Each record is

    u64 thread_id | u8 op | u64 map_id | u64 key_id | i32 hash |
    u64 aux | u8 outcome | 2 pad bytes

with absent fields encoded as all-ones. `aux` is op-specific:
Create packs requested capacity (bits 0-31), load factor thousandths
(bits 32-41) and the spread flag (bit 42); CreateCopy carries the source
map id; IterNew packs (iterator id << 2) | view; IterAdvance carries the
step count. Iterator events (IterAdvance, IterRemove) carry the iterator
id in the map_id field.
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError, TraceFormatError
from .refmap import DEFAULT_CONFIG, MapConfig, RefMap, View, hash32_of

MAGIC = b"MRT1"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")
_RECORD = struct.Struct("<QBQQiQB2x")
_SENTINEL_COUNT = 0xFFFFFFFFFFFFFFFF
ABSENT_U64 = 0xFFFFFFFFFFFFFFFF
ABSENT_HASH = -1
ABSENT_OUTCOME = 0xFF

_FIELDS = ("thread_id", "op", "map_id", "key_id", "hash", "aux", "outcome")
#: One MRT1 record as a numpy row. The pad bytes are a field too, so the
#: dtype has no holes and numpy copies whole records, pad included.
RAW_DTYPE = np.dtype(
    {
        "names": [*_FIELDS, "pad"],
        "formats": ["<u8", "u1", "<u8", "<u8", "<i4", "<u8", "u1", "V2"],
        "offsets": [0, 8, 9, 17, 25, 29, 37, 38],
        "itemsize": _RECORD.size,
    }
)

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
    through `blocks(n)`. A trace built from a RAW_DTYPE array wraps it,
    read-only and contiguous; one from `read_raw_trace` reads its body
    back from the file on each pass (see the module docstring).
    """

    __slots__ = ("_records", "_source", "_count")

    def __init__(self, records: np.ndarray):
        dtype = getattr(records, "dtype", type(records).__name__)
        if not isinstance(records, np.ndarray) or dtype != RAW_DTYPE:
            raise TypeError(f"raw records must be an array of RAW_DTYPE, not {dtype}")
        records = np.ascontiguousarray(records).view()
        records.flags.writeable = False
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


def pack_create_aux(capacity: int, lf_milli: int, spread: bool) -> int:
    return (capacity & 0xFFFFFFFF) | (lf_milli << 32) | (int(spread) << 42)


def unpack_create_aux(aux: int) -> tuple[int, int, bool]:
    return aux & 0xFFFFFFFF, (aux >> 32) & 0x3FF, bool(aux >> 42 & 1)


def pack_iternew_aux(iter_id: int, view: View) -> int:
    return (iter_id << 2) | int(view)


def unpack_iternew_aux(aux: int) -> tuple[int, View]:
    return aux >> 2, View(aux & 0x3)


class _SlotState:
    __slots__ = ("slot", "buffer", "map_ids", "iter_ids", "key_ids")

    def __init__(self, slot: int):
        self.slot = slot
        self.buffer = bytearray()  # packed MRT1 records
        first = (slot << _SLOT_SHIFT) + 1
        self.map_ids = itertools.count(first)
        self.iter_ids = itertools.count(first)
        self.key_ids = itertools.count(first)


class TraceSession:
    """Collects raw records from traced maps and writes the raw trace file.

    Thread slots keep multi-threaded tracing deterministic: each slot has
    its own record buffer and id counters (ids are slot << 40 | counter),
    and buffers are concatenated in slot order at close. Wrap worker-thread
    code in `with session.thread(slot):`; unwrapped code records to slot 0.
    A single map shared across threads still needs caller-side locking.

    The session records from construction until `close()`; later events
    are dropped. Maps hold the session and the session holds no map, so
    reference counting alone frees a finished session and its buffers.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._states: dict[int, _SlotState] = {0: _SlotState(0)}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._trace: RawTrace | None = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> RawTrace:
        """Join the slot buffers (slot order), optionally write the file.

        Closing again returns the same trace.
        """
        if self._trace is None:
            self._trace = RawTrace(np.frombuffer(self._join(), dtype=RAW_DTYPE))
            if self._path is not None:
                write_raw_trace(self._trace, self._path)
        return self._trace

    def __enter__(self) -> "TraceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- thread slots ------------------------------------------------------------

    def thread(self, slot: int) -> "_ThreadSlot":
        """Bind the calling thread's events and ids to `slot` (> 0)."""
        if slot < 0 or slot >= (1 << 24):
            raise ValueError("thread slot out of range")
        return _ThreadSlot(self._local, slot)

    def _state(self) -> _SlotState:
        slot = getattr(self._local, "slot", 0)
        state = self._states.get(slot)
        if state is None:
            with self._lock:
                state = self._states.setdefault(slot, _SlotState(slot))
        return state

    def _join(self) -> bytearray:
        """Concatenate the buffers in slot order, emptying the later ones."""
        states = [self._states[slot] for slot in sorted(self._states)]
        joined = states[0].buffer
        for state in states[1:]:
            joined += state.buffer
            state.buffer = bytearray()
        return joined

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        op: RawOpKind,
        map_id: int,
        key_id: int | None = None,
        hash32: int | None = None,
        aux: int = 0,
        outcome: int | None = None,
    ) -> None:
        if self._trace is not None:
            return
        state = self._state()
        state.buffer += _RECORD.pack(
            state.slot,
            op,
            map_id,
            ABSENT_U64 if key_id is None else key_id,
            ABSENT_HASH if hash32 is None else hash32,
            aux,
            ABSENT_OUTCOME if outcome is None else outcome,
        )

    # -- traced map construction ----------------------------------------------------

    def new_map(self, config: MapConfig = DEFAULT_CONFIG) -> "TracedMap":
        """Create a traced map; emits a Create event with the requested config."""
        map_id = next(self._state().map_ids)
        self.record(
            RawOpKind.CREATE,
            map_id,
            aux=pack_create_aux(
                config.initial_capacity, config.load_factor_milli, config.spread_hashes
            ),
        )
        return TracedMap(self, RefMap(config), map_id, {})

    def copy_map(self, source: "TracedMap", config: MapConfig = DEFAULT_CONFIG) -> "TracedMap":
        """Copy-construct a traced map; it inherits the source's key ids, so
        lookups against the copy resolve to the source's canonical keys."""
        map_id = next(self._state().map_ids)
        self.record(RawOpKind.CREATE_COPY, map_id, aux=source.map_id)
        return TracedMap(
            self, RefMap.copy_of(source._inner, config), map_id, dict(source._keys)
        )


class _ThreadSlot:
    __slots__ = ("_local", "_slot", "_prev")

    def __init__(self, local: threading.local, slot: int):
        self._local = local
        self._slot = slot

    def __enter__(self):
        self._prev = getattr(self._local, "slot", 0)
        self._local.slot = self._slot
        return self

    def __exit__(self, *exc):
        self._local.slot = self._prev


class TracedMap:
    """Adapter-shaped wrapper that records every operation against a RefMap.

    `_keys` maps each key this map has seen to its canonical id: two equal
    keys share one id, found through the key's `__eq__`/`__hash__`, while
    the hash is read through `hash32_of` on every op and recorded as
    observed. A key whose 32-bit hash changes is thus emitted with two
    hashes under one id; post-processing spots the conflict and drops every
    map that touched the key. A hash that is not an int (an
    old-style `hash32()` method, say) or lies outside signed 32 bits is
    rejected before an id is taken or the inner map is touched.
    """

    __slots__ = ("_session", "_inner", "map_id", "_keys")

    def __init__(self, session: TraceSession, inner: RefMap, map_id: int, keys: dict[Any, int]):
        self._session = session
        self._inner = inner
        self.map_id = map_id
        self._keys = keys

    def _key(self, key: Any) -> tuple[int, int]:
        observed = hash32_of(key)
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
            kid = self._keys[key] = next(self._session._state().key_ids)
        return kid, observed

    def get(self, key: Any) -> Any | None:
        kid, h = self._key(key)
        value = self._inner.get(key)
        self._session.record(
            RawOpKind.GET, self.map_id, kid, h, outcome=int(value is not None)
        )
        return value

    def put(self, key: Any, value: Any) -> Any | None:
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
        iter_id = next(self._session._state().iter_ids)
        self._session.record(
            RawOpKind.ITER_NEW, self.map_id, aux=pack_iternew_aux(iter_id, view)
        )
        return TracedIterator(self._session, self._inner.iterator(view), iter_id)


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


#: Records checked per block by `read_raw_trace`: what reading holds.
_CHECK_BLOCK = 1 << 12
#: The op bytes and IterNew views a record may hold, as plain ints: the
#: check runs on every block, and numpy compares with an IntEnum slowly.
_FIRST_OP, _LAST_OP = int(RawOpKind.CREATE), int(RawOpKind.FREE_ITER)
_ITER_NEW = int(RawOpKind.ITER_NEW)
_LAST_VIEW = int(max(View))


def _check_records(records: np.ndarray, first: int = 0) -> None:
    """Reject unknown ops and IterNew views in one vectorized pass.

    `records` start at event `first` of the file; errors name the byte
    offset of the bad field in the MRT1 file.
    """
    op = records["op"]
    if op.size and (op.min() < _FIRST_OP or op.max() > _LAST_OP):
        i = int(np.argmax((op < _FIRST_OP) | (op > _LAST_OP)))
        raise TraceFormatError(f"unknown op {op[i]}", offset=_field_offset(first + i, "op"))
    news = np.flatnonzero(op == _ITER_NEW)
    views = records["aux"][news] & 0x3
    bad = np.flatnonzero(views > _LAST_VIEW)
    if bad.size:
        raise TraceFormatError(
            f"IterNew view {views[bad[0]]} is not a valid view",
            offset=_field_offset(first + int(news[bad[0]]), "aux"),
        )


def _field_offset(index: int, field: str) -> int:
    return _HEADER.size + index * RAW_DTYPE.itemsize + RAW_DTYPE.fields[field][1]


def raw_trace_to_bytes(trace: RawTrace) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, len(trace)) + trace.records.tobytes()


def write_raw_trace(trace: RawTrace, path: str | Path) -> None:
    """Write with a sentinel count first, patching it in last.

    A crash mid-write leaves the sentinel in place, which readers treat as
    a missing end-marker. A file-backed trace is loaded before the file is
    opened, so it can be written over the file it was read from.
    """
    path = Path(path)
    records = trace.records
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, _SENTINEL_COUNT))
        fh.write(records.data)
        fh.flush()
        fh.seek(len(MAGIC) + 4)
        fh.write(struct.pack("<Q", len(trace)))


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
    """Map the records onto RAW_DTYPE without copying, then validate them."""
    count = _event_count(data[: _HEADER.size], len(data))
    records = np.frombuffer(data, dtype=RAW_DTYPE, count=count, offset=_HEADER.size)
    _check_records(records)
    return RawTrace(records)


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
