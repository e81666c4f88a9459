"""Reference chained hash map with a power-of-two table and work counters.

RefMap models the classic bucket-array-of-chains design: lazy table
allocation, capacity always a power of two, resize-on-threshold doubling,
and a table that never shrinks (clear() empties buckets but keeps the
array). An instrumented counting mode tracks resizes, collision probes,
buckets scanned, and entries moved, giving a deterministic stand-in for
wall-clock trends.

Keys carry their 32-bit hash as a value, an int attribute `hash32`,
which each keyed operation reads once and spreads as Java 8's HashMap
does (see `bucket_index`); equality stays the key's own `__eq__`. A key
without `hash32` is not a key of this map.

The module also defines MapAdapter, the interface every benchmarked map
implementation satisfies, and PyDictMap, a dict-backed adapter useful as a
second implementation when exercising the harness.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Iterator

from .errors import ConfigError

MAX_CAPACITY = 1 << 30
DEFAULT_INITIAL_CAPACITY = 16
DEFAULT_LOAD_FACTOR_MILLI = 750

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


class View(IntEnum):
    """Which projection of the map an iterator yields."""

    KEYS = 0
    VALUES = 1
    ENTRIES = 2


@dataclass(frozen=True, slots=True)
class MapConfig:
    """Construction parameters for a map.

    `initial_capacity` is the requested table size; it is normalized to a
    power of two when the table is first allocated. The load factor is kept
    in integer thousandths so threshold arithmetic is exact everywhere.
    """

    initial_capacity: int = DEFAULT_INITIAL_CAPACITY
    load_factor_milli: int = DEFAULT_LOAD_FACTOR_MILLI

    def __post_init__(self) -> None:
        if not 1 <= self.initial_capacity <= 2**31 - 1:
            raise ConfigError(
                f"initial capacity must be in [1, 2^31-1], got {self.initial_capacity}"
            )
        if not 1 <= self.load_factor_milli <= 1000:
            raise ConfigError(
                f"load factor must be in (0, 1] thousandths, got {self.load_factor_milli}"
            )


DEFAULT_CONFIG = MapConfig()


def run_config(capacity: int, load_factor_milli: int, run: MapConfig) -> MapConfig:
    """The config a map requested at (`capacity`, `load_factor_milli`) is
    built with in a run at `run`: the run's when the request is the default
    (16, 750), else the requested one. Replay and the direct run share it."""
    if capacity == DEFAULT_INITIAL_CAPACITY and load_factor_milli == DEFAULT_LOAD_FACTOR_MILLI:
        return run
    return MapConfig(capacity, load_factor_milli)


def normalize_capacity(requested: int) -> int:
    """Round `requested` up to the smallest power of two, capped at 2^30."""
    if requested < 1:
        raise ConfigError(f"requested capacity must be >= 1, got {requested}")
    if requested >= MAX_CAPACITY:
        return MAX_CAPACITY
    return 1 << (requested - 1).bit_length() if requested > 1 else 1


def threshold(capacity: int, load_factor_milli: int) -> int:
    """Resize threshold: floor(capacity * load factor)."""
    return capacity * load_factor_milli // 1000


def to_signed32(value: int) -> int:
    """Interpret the low 32 bits of `value` as a signed 32-bit integer."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value


def bucket_index(hash32: int, capacity: int) -> int:
    """Bucket slot for a hash: the unsigned hash spread by folding its high
    16 bits into the low ones (u XOR u >>> 16), masked by capacity-1.
    RefMap computes the same rule inline."""
    u = hash32 & 0xFFFFFFFF
    return (u ^ (u >> 16)) & (capacity - 1)


@dataclass(slots=True)
class OpCounters:
    """Monotone work counters accumulated by RefMap operations."""

    resizes: int = 0
    collision_probes: int = 0
    buckets_scanned: int = 0
    entries_moved: int = 0

    def add(self, other: "OpCounters") -> None:
        self.resizes += other.resizes
        self.collision_probes += other.collision_probes
        self.buckets_scanned += other.buckets_scanned
        self.entries_moved += other.entries_moved

    def reset(self) -> None:
        self.resizes = 0
        self.collision_probes = 0
        self.buckets_scanned = 0
        self.entries_moved = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "resizes": self.resizes,
            "collision_probes": self.collision_probes,
            "buckets_scanned": self.buckets_scanned,
            "entries_moved": self.entries_moved,
        }


class MapIterator(ABC):
    """Cursor over one view of a map.

    `advance()` returns the next element the map still holds, or None once
    exhausted (repeated calls after exhaustion keep returning None); an
    element removed from the map is never yielded. `remove()` unlinks the
    last element yielded, and raises RuntimeError when there is none to
    unlink (before any advance, after a remove, or once the map changed
    under the cursor); replay reports that as a fault of the trace.
    """

    @abstractmethod
    def advance(self) -> Any | None: ...

    @abstractmethod
    def remove(self) -> None: ...


class MapAdapter(ABC):
    """Interface every benchmarked map implementation satisfies.

    Keys are compared with the key type's own equality; values are opaque
    tokens the harness never inspects (and must not be None, since None
    encodes absence). A benchmark run binds exactly one adapter class.
    """

    @abstractmethod
    def __init__(self, config: MapConfig = DEFAULT_CONFIG): ...

    @classmethod
    @abstractmethod
    def copy_of(cls, source: "MapAdapter", config: MapConfig = DEFAULT_CONFIG) -> "MapAdapter":
        """Construct a new map holding the same mappings as `source`, built
        with `config`. Replay and the direct run pass the run's config: a
        copy keeps none of its source's."""

    @abstractmethod
    def get(self, key: Any) -> Any | None: ...

    @abstractmethod
    def put(self, key: Any, value: Any) -> Any | None:
        """Insert or update; returns the previous value or None."""

    @abstractmethod
    def remove(self, key: Any) -> Any | None: ...

    @abstractmethod
    def contains_key(self, key: Any) -> bool: ...

    @abstractmethod
    def clear(self) -> None: ...

    @abstractmethod
    def size(self) -> int: ...

    @abstractmethod
    def iterator(self, view: View = View.ENTRIES) -> MapIterator: ...

    def __len__(self) -> int:
        return self.size()


class _Entry:
    __slots__ = ("hash", "key", "value", "next")

    def __init__(self, hash32: int, key: Any, value: Any):
        self.hash = hash32
        self.key = key
        self.value = value
        self.next: _Entry | None = None


class RefMap(MapAdapter):
    """Chained hash map with counters; the harness's reference implementation.

    Keyed operations and resizes compute `bucket_index` inline, masking
    with the cached `capacity - 1`, so finding a bucket calls no function.
    """

    __slots__ = ("config", "counters", "_table", "_size", "_threshold", "_mask")

    def __init__(self, config: MapConfig = DEFAULT_CONFIG):
        self.config = config
        self.counters = OpCounters()
        self._table: list[_Entry | None] | None = None
        self._size = 0
        self._threshold = 0
        self._mask = 0

    @classmethod
    def copy_of(cls, source: MapAdapter, config: MapConfig = DEFAULT_CONFIG) -> "RefMap":
        """New map with `source`'s mappings, pre-sized to hold them without resizing.

        An empty source leaves the table unallocated, matching lazy
        construction.
        """
        new = cls(config)
        if not isinstance(source, RefMap):
            raise TypeError("RefMap.copy_of requires a RefMap source")
        n = source._size
        if n > 0:
            need = -(-n * 1000 // config.load_factor_milli)  # ceil(n / lf)
            new._allocate(normalize_capacity(need))
            for entry in source._entries_in_order():
                new.put(entry.key, entry.value)
        return new

    # -- internals ---------------------------------------------------------

    def _allocate(self, capacity: int) -> None:
        self._table = [None] * capacity
        self._threshold = threshold(capacity, self.config.load_factor_milli)
        self._mask = capacity - 1

    def _entries_in_order(self) -> Iterator[_Entry]:
        if self._table is None:
            return
        for head in self._table:
            e = head
            while e is not None:
                yield e
                e = e.next

    def _resize(self) -> None:
        old = self._table
        new_cap = len(old) * 2
        table = self._table = [None] * new_cap
        self._threshold = threshold(new_cap, self.config.load_factor_milli)
        mask = self._mask = new_cap - 1
        # Rebuild by appending at chain tails in old bucket+chain order, which
        # preserves the relative order of entries that share a new bucket.
        tails: dict[int, _Entry] = {}
        moved = 0
        for head in old:
            e = head
            while e is not None:
                nxt = e.next
                e.next = None
                u = e.hash & 0xFFFFFFFF
                idx = (u ^ (u >> 16)) & mask
                tail = tails.get(idx)
                if tail is None:
                    table[idx] = e
                else:
                    tail.next = e
                tails[idx] = e
                moved += 1
                e = nxt
        self.counters.entries_moved += moved
        self.counters.resizes += 1

    # -- public operations --------------------------------------------------

    def capacity(self) -> int:
        """Current table length, 0 before the first insertion."""
        return 0 if self._table is None else len(self._table)

    def put(self, key: Any, value: Any) -> Any | None:
        h = key.hash32
        if self._table is None:
            self._allocate(normalize_capacity(self.config.initial_capacity))
        table = self._table
        u = h & 0xFFFFFFFF
        idx = (u ^ (u >> 16)) & self._mask
        e = table[idx]
        tail = None
        while e is not None:
            if e.hash == h and (e.key is key or e.key == key):
                old = e.value
                e.value = value
                return old
            self.counters.collision_probes += 1
            tail = e
            e = e.next
        entry = _Entry(h, key, value)
        if tail is None:
            table[idx] = entry
        else:
            tail.next = entry
        self._size += 1
        while self._size > self._threshold and len(self._table) < MAX_CAPACITY:
            self._resize()
        return None

    def get(self, key: Any) -> Any | None:
        h = key.hash32
        table = self._table
        if table is None:
            return None
        u = h & 0xFFFFFFFF
        e = table[(u ^ (u >> 16)) & self._mask]
        while e is not None:
            if e.hash == h and (e.key is key or e.key == key):
                return e.value
            self.counters.collision_probes += 1
            e = e.next
        return None

    def contains_key(self, key: Any) -> bool:
        h = key.hash32
        table = self._table
        if table is None:
            return False
        u = h & 0xFFFFFFFF
        e = table[(u ^ (u >> 16)) & self._mask]
        while e is not None:
            if e.hash == h and (e.key is key or e.key == key):
                return True
            self.counters.collision_probes += 1
            e = e.next
        return False

    def remove(self, key: Any) -> Any | None:
        h = key.hash32
        table = self._table
        if table is None:
            return None
        u = h & 0xFFFFFFFF
        idx = (u ^ (u >> 16)) & self._mask
        e = table[idx]
        prev = None
        while e is not None:
            if e.hash == h and (e.key is key or e.key == key):
                if prev is None:
                    table[idx] = e.next
                else:
                    prev.next = e.next
                self._size -= 1
                return e.value
            self.counters.collision_probes += 1
            prev = e
            e = e.next
        return None

    def clear(self) -> None:
        # Capacity is retained; the table never shrinks.
        if self._table is not None:
            for i in range(len(self._table)):
                self._table[i] = None
        self._size = 0

    def size(self) -> int:
        return self._size

    def iterator(self, view: View = View.ENTRIES) -> "_RefMapIterator":
        return _RefMapIterator(self, view)

    def state_digest(self) -> int:
        """64-bit FNV-1a digest of the logical table state.

        Folds capacity, size, then per-bucket (index, chain length, entry
        hashes in chain order). Values are not folded; two maps with the
        same structure and hashes digest identically.
        """
        acc = _FNV64_OFFSET
        acc = _fold_u64(acc, self.capacity())
        acc = _fold_u64(acc, self._size)
        if self._table is not None:
            for idx, head in enumerate(self._table):
                if head is None:
                    continue
                chain = []
                e = head
                while e is not None:
                    chain.append(e.hash)
                    e = e.next
                acc = _fold_u64(acc, idx)
                acc = _fold_u64(acc, len(chain))
                for h in chain:
                    acc = _fold_u64(acc, h & 0xFFFFFFFF)
        return acc


def _fold_u64(acc: int, value: int) -> int:
    for _ in range(8):
        acc = ((acc ^ (value & 0xFF)) * _FNV64_PRIME) & _U64
        value >>= 8
    return acc


class _RefMapIterator(MapIterator):
    """Bucket-order, chain-order cursor; counts every table slot it visits."""

    __slots__ = ("_map", "_view", "_bucket", "_entry", "_last", "_last_bucket")

    def __init__(self, map_: RefMap, view: View):
        self._map = map_
        self._view = View(view)
        self._bucket = 0  # next slot to scan
        self._entry: _Entry | None = None
        self._last: _Entry | None = None
        self._last_bucket = -1

    def advance(self) -> Any | None:
        e = self._entry
        if e is not None and e.next is not None:
            # Chain successor shares the current bucket; no slot visit.
            nxt = e.next
            self._entry = nxt
            self._last = nxt
            return self._project(nxt)
        table = self._map._table
        if table is None:
            return None
        counters = self._map.counters
        n = len(table)
        while self._bucket < n:
            head = table[self._bucket]
            self._bucket += 1
            counters.buckets_scanned += 1
            if head is not None:
                self._entry = head
                self._last = head
                self._last_bucket = self._bucket - 1
                return self._project(head)
        self._entry = None
        return None

    def remove(self) -> None:
        """Unlink the last yielded entry; the cursor remains valid."""
        e = self._last
        if e is None:
            raise RuntimeError("remove() before advance() or after remove()")
        table = self._map._table
        idx = self._last_bucket
        cur = table[idx]
        prev = None
        while cur is not None and cur is not e:
            prev = cur
            cur = cur.next
        if cur is None:
            raise RuntimeError("stale iterator: entry no longer in its bucket")
        if prev is None:
            table[idx] = e.next
        else:
            prev.next = e.next
        # e.next stays intact so advance() can keep walking from it.
        self._map._size -= 1
        self._last = None

    def _project(self, e: _Entry) -> Any:
        if self._view is View.KEYS:
            return e.key
        if self._view is View.VALUES:
            return e.value
        return (e.key, e.value)


def iterate(map_: MapAdapter, view: View = View.ENTRIES) -> int:
    """Advance a fresh iterator to exhaustion; returns the number of
    elements yielded."""
    it = map_.iterator(view)
    yielded = 0
    while it.advance() is not None:
        yielded += 1
    return yielded


class PyDictMap(MapAdapter):
    """Adapter over a plain dict; no structural counters, no digest.

    Exists to demonstrate pluggability. Reproduces recorded outcomes for
    every operation except traces with iterator-removes: the removed
    victim depends on iteration order, and dicts iterate in insertion
    order rather than bucket order, so membership legitimately diverges
    afterwards (the harness's validation pre-check flags such pairings).
    """

    __slots__ = ("config", "_d")

    def __init__(self, config: MapConfig = DEFAULT_CONFIG):
        self.config = config
        self._d: dict[Any, Any] = {}

    @classmethod
    def copy_of(cls, source: MapAdapter, config: MapConfig = DEFAULT_CONFIG) -> "PyDictMap":
        new = cls(config)
        if not isinstance(source, PyDictMap):
            raise TypeError("PyDictMap.copy_of requires a PyDictMap source")
        new._d = dict(source._d)
        return new

    def get(self, key: Any) -> Any | None:
        return self._d.get(key)

    def put(self, key: Any, value: Any) -> Any | None:
        old = self._d.get(key)
        self._d[key] = value
        return old

    def remove(self, key: Any) -> Any | None:
        return self._d.pop(key, None)

    def contains_key(self, key: Any) -> bool:
        return key in self._d

    def clear(self) -> None:
        self._d.clear()

    def size(self) -> int:
        return len(self._d)

    def iterator(self, view: View = View.ENTRIES) -> "_PyDictIterator":
        return _PyDictIterator(self, view)


class _PyDictIterator(MapIterator):
    """Cursor over a snapshot of the keys taken at creation.

    Keys the map lost since then are skipped, so the cursor never yields
    an element the map no longer holds. Values are never None, so a
    lookup that returns None means the key is gone.
    """

    __slots__ = ("_map", "_view", "_keys", "_pos", "_last")

    def __init__(self, map_: PyDictMap, view: View):
        self._map = map_
        self._view = View(view)
        self._keys = list(map_._d)
        self._pos = 0
        self._last: Any | None = None

    def advance(self) -> Any | None:
        d = self._map._d
        while self._pos < len(self._keys):
            k = self._keys[self._pos]
            self._pos += 1
            v = d.get(k)
            if v is None:
                continue
            self._last = k
            if self._view is View.KEYS:
                return k
            return v if self._view is View.VALUES else (k, v)
        return None

    def remove(self) -> None:
        if self._last is None:
            raise RuntimeError("remove() before advance() or after remove()")
        if self._map._d.pop(self._last, None) is None:
            raise RuntimeError("remove() of an element the map no longer holds")
        self._last = None
