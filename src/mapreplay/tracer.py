"""In-process tracing of map operations behind the adapter interface.

A TraceSession hands out TracedMap wrappers that delegate to RefMap and
record one fixed-width record per operation: operation kind, map identity,
canonical key identity, 32-bit hash, and a hit/miss outcome bit. Values are
never recorded. Equal-but-not-identical keys are collapsed onto one
canonical key id per map, so replay can use identity-equality mockup keys
while reproducing the exact hash/bucket control flow.

Records are packed straight into per-thread-slot byte buffers in the MRT1
record layout below; no Python object is kept per event. A RawTrace is a
columnar view of those bytes and is built from nothing else: it wraps one
read-only numpy structured array in RAW_DTYPE, one row per event. Reading
a raw file maps its body onto that dtype without copying.
`RawTrace.events` materializes RawEvent objects on demand, as a debug view
that the layer benchmark still counts through.

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

import struct
import threading
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import TraceFormatError
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

    `records` is a read-only, contiguous RAW_DTYPE array laid out exactly
    like the MRT1 body; it is the only thing a RawTrace is built from.
    """

    __slots__ = ("records",)

    def __init__(self, records: np.ndarray):
        dtype = getattr(records, "dtype", type(records).__name__)
        if not isinstance(records, np.ndarray) or dtype != RAW_DTYPE:
            raise TypeError(f"raw records must be an array of RAW_DTYPE, not {dtype}")
        records = np.ascontiguousarray(records).view()
        records.flags.writeable = False
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"RawTrace({len(self)} events)"

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


class KeyRegistry:
    """Canonical key ids and recorded hashes, scoped per map.

    Two equal keys used against one map share a canonical id; the id's
    hash is recorded once. A copy-constructed map inherits its source's
    ids so lookups against the copy still resolve to the source's keys.
    If a key's 32-bit hash is later observed to differ from the recorded
    one, the differing hash is emitted as-is; post-processing spots the
    conflict and drops every map that touched the key.
    """

    def __init__(self, alloc_key_id: Callable[[], int]):
        self._alloc_key_id = alloc_key_id
        self._by_map: dict[int, dict[Any, tuple[int, int]]] = {}

    def canonicalize(self, map_id: int, key: Any) -> tuple[int, int]:
        keys = self._by_map.setdefault(map_id, {})
        observed = hash32_of(key)
        hit = keys.get(key)
        if hit is not None:
            return hit[0], observed
        kid = self._alloc_key_id()
        keys[key] = (kid, observed)
        return kid, observed

    def seed_copy(self, new_map_id: int, source_map_id: int) -> None:
        self._by_map[new_map_id] = dict(self._by_map.get(source_map_id, {}))


class _SlotState:
    __slots__ = ("slot", "buffer", "next_map", "next_iter", "next_key")

    def __init__(self, slot: int):
        self.slot = slot
        self.buffer = bytearray()  # packed MRT1 records
        self.next_map = 1
        self.next_iter = 1
        self.next_key = 1


class _SlotTable:
    """Per-thread-slot record buffers and id counters.

    Kept apart from TraceSession so the KeyRegistry can allocate key ids
    without holding the session: no reference cycle keeps a finished
    session and its buffers alive until the cyclic collector runs.
    """

    def __init__(self):
        self._states: dict[int, _SlotState] = {0: _SlotState(0)}
        self._lock = threading.Lock()
        self.local = threading.local()

    def state(self) -> _SlotState:
        slot = getattr(self.local, "slot", 0)
        state = self._states.get(slot)
        if state is None:
            with self._lock:
                state = self._states.setdefault(slot, _SlotState(slot))
        return state

    def alloc_map_id(self) -> int:
        state = self.state()
        state.next_map += 1
        return (state.slot << _SLOT_SHIFT) | (state.next_map - 1)

    def alloc_iter_id(self) -> int:
        state = self.state()
        state.next_iter += 1
        return (state.slot << _SLOT_SHIFT) | (state.next_iter - 1)

    def alloc_key_id(self) -> int:
        state = self.state()
        state.next_key += 1
        return (state.slot << _SLOT_SHIFT) | (state.next_key - 1)

    def join(self) -> bytearray:
        """Concatenate the buffers in slot order, emptying the later ones."""
        states = [self._states[slot] for slot in sorted(self._states)]
        joined = states[0].buffer
        for state in states[1:]:
            joined += state.buffer
            state.buffer = bytearray()
        return joined


class TraceSession:
    """Collects raw records from traced maps and writes the raw trace file.

    Thread slots keep multi-threaded tracing deterministic: each slot has
    its own record buffer and id counters (ids are slot << 40 | counter),
    and buffers are concatenated in slot order at close. Wrap worker-thread
    code in `with session.thread(slot):`; unwrapped code records to slot 0.
    A single map shared across threads still needs caller-side locking.
    """

    def __init__(self, path: str | Path | None = None, start_open: bool = True):
        self._path = Path(path) if path is not None else None
        self._slots = _SlotTable()
        self._open = start_open
        self._closed = False
        self._trace: RawTrace | None = None
        self.registry = KeyRegistry(self._slots.alloc_key_id)

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> None:
        """Begin recording. Maps handed out before this are foreign: their
        later events are recorded but carry no creation event, mirroring
        maps that exist before tracing can start."""
        if self._closed:
            raise RuntimeError("session already closed")
        self._open = True

    def close(self) -> RawTrace:
        """Join the slot buffers (slot order), optionally write the file.

        Closing again returns the same trace.
        """
        if self._closed:
            return self._trace
        self._open = False
        self._closed = True
        self._trace = RawTrace(np.frombuffer(self._slots.join(), dtype=RAW_DTYPE))
        if self._path is not None:
            write_raw_trace(self._trace, self._path)
        return self._trace

    def __enter__(self) -> "TraceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- thread slots and ids --------------------------------------------------

    def thread(self, slot: int) -> "_ThreadSlot":
        """Bind the calling thread's events and ids to `slot` (> 0)."""
        if slot < 0 or slot >= (1 << 24):
            raise ValueError("thread slot out of range")
        return _ThreadSlot(self._slots.local, slot)

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
        if not self._open:
            return
        state = self._slots.state()
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
        """Create a traced map; emits a Create event with the requested config.

        On a closed session the handle still works but is foreign: no
        creation event exists, so post-processing drops its activity.
        """
        map_id = self._slots.alloc_map_id()
        foreign = not self._open
        if not foreign:
            self.record(
                RawOpKind.CREATE,
                map_id,
                aux=pack_create_aux(
                    config.initial_capacity, config.load_factor_milli, config.spread_hashes
                ),
            )
        return TracedMap(self, RefMap(config), map_id, foreign=foreign)

    def copy_map(self, source: "TracedMap", config: MapConfig = DEFAULT_CONFIG) -> "TracedMap":
        map_id = self._slots.alloc_map_id()
        foreign = not self._open
        if not foreign:
            self.record(RawOpKind.CREATE_COPY, map_id, aux=source.map_id)
        self.registry.seed_copy(map_id, source.map_id)
        return TracedMap(
            self, RefMap.copy_of(source._inner, config), map_id, foreign=foreign
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
    """Adapter-shaped wrapper that records every operation against a RefMap."""

    __slots__ = ("_session", "_inner", "map_id", "foreign")

    def __init__(self, session: TraceSession, inner: RefMap, map_id: int, foreign: bool = False):
        self._session = session
        self._inner = inner
        self.map_id = map_id
        self.foreign = foreign

    def _key(self, key: Any) -> tuple[int, int]:
        return self._session.registry.canonicalize(self.map_id, key)

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
        iter_id = self._session._slots.alloc_iter_id()
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


def _check_records(records: np.ndarray) -> None:
    """Reject unknown ops and IterNew views in one vectorized pass.

    Errors name the byte offset of the bad field in the MRT1 file.
    """
    op = records["op"]
    if op.size and (op.min() < RawOpKind.CREATE or op.max() > RawOpKind.FREE_ITER):
        i = int(np.argmax((op < RawOpKind.CREATE) | (op > RawOpKind.FREE_ITER)))
        raise TraceFormatError(f"unknown op {op[i]}", offset=_field_offset(i, "op"))
    news = np.flatnonzero(op == RawOpKind.ITER_NEW)
    views = records["aux"][news] & 0x3
    bad = np.flatnonzero(views > max(View))
    if bad.size:
        raise TraceFormatError(
            f"IterNew view {views[bad[0]]} is not a valid view",
            offset=_field_offset(int(news[bad[0]]), "aux"),
        )


def _field_offset(index: int, field: str) -> int:
    return _HEADER.size + index * RAW_DTYPE.itemsize + RAW_DTYPE.fields[field][1]


def raw_trace_to_bytes(trace: RawTrace) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, len(trace)) + trace.records.tobytes()


def write_raw_trace(trace: RawTrace, path: str | Path) -> None:
    """Write with a sentinel count first, patching it in last.

    A crash mid-write leaves the sentinel in place, which readers treat as
    a missing end-marker.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, _SENTINEL_COUNT))
        fh.write(trace.records.data)
        fh.flush()
        fh.seek(len(MAGIC) + 4)
        fh.write(struct.pack("<Q", len(trace)))


def raw_trace_from_bytes(data: bytes) -> RawTrace:
    """Map the records onto RAW_DTYPE without copying, then validate them."""
    if len(data) < _HEADER.size:
        raise TraceFormatError("raw trace shorter than header", offset=0)
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise TraceFormatError(f"unsupported raw trace version {version}", offset=4)
    if count == _SENTINEL_COUNT:
        raise TraceFormatError("missing end-marker: trace truncated at close", offset=8)
    body = len(data) - _HEADER.size
    if body != count * _RECORD.size:
        raise TraceFormatError(
            f"event count {count} disagrees with body of {body} bytes",
            offset=_HEADER.size,
        )
    records = np.frombuffer(data, dtype=RAW_DTYPE, count=count, offset=_HEADER.size)
    _check_records(records)
    return RawTrace(records)


def read_raw_trace(path: str | Path) -> RawTrace:
    return raw_trace_from_bytes(Path(path).read_bytes())
