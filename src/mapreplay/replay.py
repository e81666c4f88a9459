"""Replay of processed traces against one pluggable map implementation.

Setup preallocates every mockup key and the map/iterator slot arrays so the
timed phase creates nothing but maps and iterators. Mockup keys are ints
holding the recorded hashes (see MockupKey), built in C by one
`list(map(MockupKey, hashes))`. MockupKey is a type the cyclic garbage
collector does not track, so building thousands of keys counts no
allocations toward a collection and freeing them walks no collector list:
setup leaves the collector alone, and the replay loop runs with it as the
caller left it. The opcode stream is held once, as one packed
`array("i")` copied from the decoded trace, and the session's `trace.ops`
is a read-only numpy view of it: setup boxes no per-op ints, the stream
costs 12 bytes per op, and the session keeps nothing of the trace it was
given. The replay phase is a single dispatch loop over that buffer, bound
to exactly one adapter class per run (monomorphic replay). It reads three
words at a time from one iterator, `for w, a, b in zip(it, it, it)`, so
the array creates each int as it yields it, and calls the handler the op
kind selects from a table built per run; the modes differ only in that
table and in the hook its FreeMap handler calls:

    timing      plain handlers; the result is the wall-clock of the loop
    counting    plain handlers; the FreeMap hook adds the map's OpCounters
                (the adapter must be RefMap-based)
    validating  get, put, remove, containsKey and iterator advance compare
                each outcome bit against the recorded one; the FreeMap hook
                captures the map's state digest, reported in map
                creation order (None for an adapter without one)

The loop checks nothing per op. Setup rejects, once for the whole stream,
a negative word or operand, since Python would wrap a negative index; an
iterator advance of more steps than the key table has keys (more than one
step, when exhausted), which no map can yield and which would otherwise
spin for up to 2^31 steps; and a Create or CreateCopy whose map can reach
a table of more than MAX_TABLE_SLOTS slots, since a map allocates its
whole table at once. A map's table is the larger of its normalized
capacity and the table its load factor needs to hold its entries: for a
CreateCopy every key of the trace, for a Create, when that would pass
the limit, the distinct keys put into its map. The run's config is the
caller's own and is not bounded. A slot used after free, an operand out
of range or an IterNew view of 3 surfaces as the AttributeError or
IndexError it causes, and is reported as a
TraceIntegrityError naming the op index; FreeMap, FreeIter and the
CreateCopy source check for a freed slot themselves, and a Create checks
that its spread bit is set, since every map spreads its hashes. So are the
ConfigError of a Create whose load factor or capacity no map accepts, and
the RuntimeError of an iterator remove() with no entry to unlink. The loop
keeps no op counter: on the error path only, the failing op's index is
worked out from the words the iterator has left, `(n - left) // 3 - 1` for
a stream of n words.

Put always stores the one shared VALUE_TOKEN; recorded traces carry no
value information. A run has one config, DEFAULT_CONFIG unless the caller
passes another. Every CreateCopy takes it, as Java's `HashMap(Map)` takes
no config of its own, and is sized to its source by the adapter itself. A
Create takes it only when it was recorded at the default (16, 750); any
other Create keeps its recorded configuration. That rule is
`refmap.run_config`, which `workloads.DirectEnv` applies as well.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FidelityError, TraceIntegrityError
from .postproc import (
    LF_MASK,
    LF_SHIFT,
    OP_KIND_MASK,
    OUTCOME_BIT,
    SPREAD_BIT,
    VIEW_MASK,
    VIEW_SHIFT,
    ProcessedTrace,
)
from .refmap import (
    DEFAULT_CONFIG,
    MapConfig,
    OpCounters,
    PyDictMap,
    RefMap,
    View,
    normalize_capacity,
    run_config,
)
from .tracer import _CREATES, _ITER_OPS, _KEYED_OPS, _OP

MODES = ("timing", "counting", "validating")

#: The largest table a trace's map may reach, a power of two below
#: MAX_CAPACITY: a table is one list allocated whole, 8 bytes a slot, so
#: 2^24 slots is 128 MiB, where 2^30 would be 8 GiB.
MAX_TABLE_SLOTS = 1 << 24

#: IterNew's view field, indexed by its value; the unused value 3 is an
#: IndexError, which the loop reports as a trace fault.
_VIEWS = (View.KEYS, View.VALUES, View.ENTRIES)


class _ValueToken:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<value>"


#: The single opaque value stored by every replayed put.
VALUE_TOKEN = _ValueToken()


class _TypeSlot(ctypes.Structure):
    _fields_ = [("slot", ctypes.c_int), ("pfunc", ctypes.c_void_p)]


class _TypeSpec(ctypes.Structure):
    _fields_ = [
        ("name", ctypes.c_char_p),
        ("basicsize", ctypes.c_int),
        ("itemsize", ctypes.c_int),
        ("flags", ctypes.c_uint),
        ("slots", ctypes.POINTER(_TypeSlot)),
    ]


def _mockup_key_type() -> tuple[type, tuple]:
    """Make MockupKey through `PyType_FromSpecWithBases(spec, (int,))`, and
    return it with the ctypes objects its spec is made of.

    A class statement would give the subclass Py_TPFLAGS_HAVE_GC, so every
    key would be tracked by the cyclic collector and carry its header. The
    spec's flags are 0, Py_TPFLAGS_DEFAULT: no Py_TPFLAGS_HAVE_GC, so keys
    are untracked and the size of a plain int, and no Py_TPFLAGS_BASETYPE,
    so the type cannot be subclassed. Basic size and item size 0 inherit
    int's layout.
    """
    slots = (_TypeSlot * 1)()  # zeroed: the {0, NULL} terminator
    spec = _TypeSpec(b"mapreplay.replay.MockupKey", 0, 0, 0, slots)
    from_spec = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.POINTER(_TypeSpec), ctypes.py_object)(
        ("PyType_FromSpecWithBases", ctypes.pythonapi)
    )
    cls = from_spec(spec, (int,))

    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    def __repr__(self) -> str:
        return f"MockupKey(hash={int(self)})"

    for method in (__eq__, __ne__, __repr__):
        method.__qualname__ = f"MockupKey.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.hash32 = int.real
    cls.__hash__ = int.__hash__
    cls.__doc__ = """Stand-in for an application key: preserved hash, identity equality.

    Its int value is the recorded signed 32-bit hash, so `MockupKey(h)` is
    built in C with no Python frame, and `hash32` (the map's hash protocol)
    is `int.real`, a C accessor returning that value as a plain int. Keys
    compare by identity: two keys built from one hash are distinct keys
    that collide. `__hash__` is the int's, which only dict-backed adapters
    use. A key whose recorded hash is 0 is falsy, so nothing may test a
    key's truth. Keys are not tracked by the cyclic garbage collector.
    """
    return cls, (spec, slots)


# The spec and its slot array stay referenced for as long as the type.
MockupKey, _MOCKUP_KEY_SPEC = _mockup_key_type()


@dataclass(slots=True)
class ReplayResult:
    elapsed: float
    ops_executed: int
    factory_calls: int
    counters: OpCounters | None = None
    map_digests: list[int] | None = None  # state at each FreeMap, in map-creation order


class ReplaySession:
    """Decoded trace plus everything preallocated for repeated replays."""

    def __init__(self, trace: ProcessedTrace):
        # Replay reads the ops as whole triples and would drop a cut-off tail.
        if trace.ops.size % 3:
            raise TraceIntegrityError(
                f"op {trace.ops.size // 3}: {trace.ops.size % 3} of its 3 words, the rest cut off"
            )
        # Valid words and operands are never negative; a negative index
        # would wrap around the slot and key lists instead of failing.
        if trace.ops.size and trace.ops.min() < 0:
            i = int(np.argmax(trace.ops < 0))
            raise TraceIntegrityError(f"op {i // 3}: negative word or operand {trace.ops[i]}")
        # A yielding advance run visits distinct entries of one unmutated
        # map, so its count never exceeds the key count; an exhausted run
        # is one step, since coalesce collapses repeats that change nothing.
        # A Create's capacity normalizes above the table limit exactly when
        # it exceeds it. Only the few ops whose second operand exceeds the
        # key count or the limit are looked at further, and only when one
        # strided max says there are any.
        n_keys = len(trace.key_hashes)
        limit = MAX_TABLE_SLOTS
        seconds = trace.ops[2::3]
        too_big = np.empty(0, np.intp)
        if seconds.size and seconds.max() > min(n_keys, limit):
            over = np.flatnonzero(seconds > min(n_keys, limit))
            words = trace.ops[3 * over]
            kinds = words & OP_KIND_MASK
            second = seconds[over]
            too_long = over[
                (kinds == _OP.ITER_ADVANCE)
                & (second > n_keys)
                & (((words & OUTCOME_BIT) != 0) | (second > 1))
            ]
            if too_long.size:
                i = too_long[0]
                raise TraceIntegrityError(
                    f"op {i}: iterator advance of {trace.ops[3 * i + 2]} steps but the "
                    f"trace has {n_keys} keys"
                )
            too_big = over[(kinds == _OP.CREATE) & (second > limit)]
        outgrown, held = _outgrown(trace.ops, n_keys, limit)
        if too_big.size or outgrown.size:
            i = min(too_big[:1].tolist() + outgrown[:1].tolist())
            w, capacity = int(trace.ops[3 * i]), int(trace.ops[3 * i + 2])
            if w & OP_KIND_MASK == _OP.CREATE and capacity > limit:
                raise TraceIntegrityError(
                    f"op {i}: create of a {normalize_capacity(capacity)}-slot table "
                    f"exceeds the {limit}-slot limit"
                )
            lf = DEFAULT_CONFIG.load_factor_milli  # a CreateCopy's, at the default config
            if w & OP_KIND_MASK == _OP.CREATE:
                lf = (w >> LF_SHIFT) & LF_MASK
            k = int(held[0])
            slots = normalize_capacity(-(-k * 1000 // lf))
            keys = f"the trace's {n_keys}" if k == n_keys else f"{k} of the trace's {n_keys}"
            raise TraceIntegrityError(
                f"op {i}: a map with load factor {lf}/1000 grows to a {slots}-slot "
                f"table holding {keys} keys, above the {limit}-slot limit"
            )
        # One copy into a packed buffer, whose ints are created as the loop
        # reads them; `self.trace` is rebuilt over it and a copy of the key
        # hashes, so the session holds no array of the caller's or of the
        # decoded payload. Imported here so that recording and distilling,
        # which import this module, never load `array`.
        from array import array

        self._ops = array("i")
        self._ops.frombytes(memoryview(np.ascontiguousarray(trace.ops, np.int32)).cast("B"))
        ops, hashes = np.frombuffer(self._ops, np.int32), np.array(trace.key_hashes, np.int32)
        ops.flags.writeable = hashes.flags.writeable = False
        self.trace = ProcessedTrace(hashes, trace.max_map_slots, trace.max_iter_slots, ops)
        self.keys = list(map(MockupKey, memoryview(hashes)))

    def replay(
        self,
        factory: type,
        mode: str = "timing",
        config: MapConfig = DEFAULT_CONFIG,
    ) -> ReplayResult:
        """Interpret the opcode stream once against one adapter class, at
        the run's `config` (see the module docstring)."""
        if mode not in MODES:
            raise ConfigError(f"unknown replay mode {mode!r}; expected one of {MODES}")
        if mode == "counting" and not (isinstance(factory, type) and issubclass(factory, RefMap)):
            raise ConfigError("counting mode requires a RefMap-based adapter")
        validating = mode == "validating"
        digesting = validating and hasattr(factory, "state_digest")
        ops = self._ops
        keys = self.keys
        maps: list = [None] * self.trace.max_map_slots
        iters: list = [None] * self.trace.max_iter_slots
        ordinal = [0] * len(maps)  # creation ordinal of each slot's occupant
        map_digests: list[int] = []  # one per create; 0 until the map is freed
        counters = OpCounters() if mode == "counting" else None

        # The FreeMap hook: the only place counting and digesting happen.
        if counters is not None:

            def on_free(m, a):
                counters.add(m.counters)

        elif digesting:

            def on_free(m, a):
                map_digests[ordinal[a]] = m.state_digest()

        else:

            def on_free(m, a):
                pass

        def unknown(w, a, b):
            raise TraceIntegrityError(f"unknown opcode {w & OP_KIND_MASK}")

        def create(w, a, b):
            maps[a] = factory(_create_config(w, b, config))
            ordinal[a] = len(map_digests)
            map_digests.append(0)

        def create_copy(w, a, b):
            source = maps[b]
            if source is None:
                raise TraceIntegrityError(f"map slot {b} used after free")
            maps[a] = factory.copy_of(source, config)
            ordinal[a] = len(map_digests)
            map_digests.append(0)

        def get(w, a, b):
            maps[a].get(keys[b])

        def put(w, a, b):
            maps[a].put(keys[b], VALUE_TOKEN)

        def remove(w, a, b):
            maps[a].remove(keys[b])

        def contains_key(w, a, b):
            maps[a].contains_key(keys[b])

        def clear(w, a, b):
            maps[a].clear()

        def iter_new(w, a, b):
            iters[b] = maps[a].iterator(_VIEWS[(w >> VIEW_SHIFT) & VIEW_MASK])

        def iter_advance(w, a, b):
            step = iters[a].advance
            for _ in range(b):
                step()

        def iter_remove(w, a, b):
            iters[a].remove()

        def free_map(w, a, b):
            m = maps[a]
            if m is None:
                raise TraceIntegrityError(f"map slot {a} freed twice")
            on_free(m, a)
            maps[a] = None

        def free_iter(w, a, b):
            if iters[a] is None:
                raise TraceIntegrityError(f"iterator slot {a} freed twice")
            iters[a] = None

        # Indexed by RawOpKind value, 1 (CREATE) through 12 (FREE_ITER).
        table = [unknown, create, create_copy, get, put, remove, contains_key, clear,
                 iter_new, iter_advance, iter_remove, free_map, free_iter]
        table += [unknown] * (OP_KIND_MASK + 1 - len(table))

        if validating:

            def checked_get(w, a, b):
                _check("get", maps[a].get(keys[b]) is not None, w)

            def checked_put(w, a, b):
                _check("put", maps[a].put(keys[b], VALUE_TOKEN) is not None, w)

            def checked_remove(w, a, b):
                _check("remove", maps[a].remove(keys[b]) is not None, w)

            def checked_contains_key(w, a, b):
                _check("containsKey", bool(maps[a].contains_key(keys[b])), w)

            def checked_iter_advance(w, a, b):
                step = iters[a].advance
                for _ in range(b):
                    _check("iterator advance", step() is not None, w)

            table[_OP.GET] = checked_get
            table[_OP.PUT] = checked_put
            table[_OP.REMOVE] = checked_remove
            table[_OP.CONTAINS_KEY] = checked_contains_key
            table[_OP.ITER_ADVANCE] = checked_iter_advance

        n = len(ops)
        it = iter(ops)
        start = time.perf_counter()
        # Handlers raise without an op index, and the loop keeps no counter:
        # the failing op is the last triple taken from `it`.
        try:
            for w, a, b in zip(it, it, it):
                table[w & OP_KIND_MASK](w, a, b)
        except FidelityError as exc:
            raise FidelityError(str(exc), op_index=_failed_op(n, it)) from None
        except TraceIntegrityError as exc:
            raise TraceIntegrityError(f"op {_failed_op(n, it)}: {exc}") from None
        except ConfigError as exc:
            if w & OP_KIND_MASK != _OP.CREATE:
                raise
            raise TraceIntegrityError(f"op {_failed_op(n, it)}: {exc}") from None
        except RuntimeError as exc:
            # An iterator's remove() with no entry to unlink, by contract.
            if w & OP_KIND_MASK != _OP.ITER_REMOVE:
                raise
            raise TraceIntegrityError(f"op {_failed_op(n, it)}: iterator slot {a}: {exc}") from None
        except (AttributeError, IndexError):
            fault = self._trace_fault(w, a, b, maps, iters)
            if fault is None:
                raise  # the adapter's own bug, not the trace's
            raise TraceIntegrityError(f"op {_failed_op(n, it)}: {fault}") from None
        elapsed = time.perf_counter() - start

        return ReplayResult(
            elapsed, n // 3, len(map_digests), counters, map_digests if digesting else None
        )

    def _trace_fault(self, w: int, a: int, b: int, maps: list, iters: list) -> str | None:
        """Name the trace fault behind an AttributeError or IndexError raised
        by op (w, a, b), or None when its operands are sound."""
        kind = w & OP_KIND_MASK
        on_iter = _ITER_OPS[kind]
        slots, what = (iters, "iterator") if on_iter else (maps, "map")
        if not 0 <= a < len(slots):
            return f"{what} slot {a} out of range"
        if _KEYED_OPS[kind] and not 0 <= b < len(self.keys):
            return f"key index {b} out of range"
        if kind == _OP.CREATE_COPY and not 0 <= b < len(maps):
            return f"map slot {b} out of range"
        if kind == _OP.ITER_NEW and not 0 <= b < len(iters):
            return f"iterator slot {b} out of range"
        if not _CREATES[kind] and slots[a] is None:
            return f"{what} slot {a} used after free"
        if kind == _OP.ITER_NEW and (w >> VIEW_SHIFT) & VIEW_MASK >= len(_VIEWS):
            return f"unknown iterator view {(w >> VIEW_SHIFT) & VIEW_MASK}"
        return None


def _failed_op(n: int, it) -> int:
    """Index of the op whose handler raised, from the words `it` has left
    of a stream of n; called only on the error path."""
    return (n - sum(1 for _ in it)) // 3 - 1


def _check(what: str, hit: bool, w: int) -> None:
    recorded = bool(w & OUTCOME_BIT)
    if hit != recorded:
        raise FidelityError(
            f"{what}: replay produced {'hit' if hit else 'miss'} but the "
            f"trace recorded {'hit' if recorded else 'miss'}"
        )


def _outgrown(ops: np.ndarray, n_keys: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the Create and CreateCopy ops whose map outgrows a table
    of `limit` slots, and the entries each is bounded by.

    A map whose load factor is lf thousandths holds n entries in
    ceil(1000 n / lf) slots, rounded up to a power of two, which exceeds
    the power of two `limit` exactly when 1000 n > limit * lf. No map
    holds more entries than the trace has keys, so only a trace with more
    than limit / 1000 keys can outgrow the limit, at the lowest load
    factor, and a smaller one makes no pass over the words. A Create that
    this bound flags is bounded again by the distinct keys put into its
    map, up to its slot's next FreeMap; a CreateCopy keeps the trace's
    key count. A load factor of 0 fails when the map is built, and is
    left to that check.
    """
    if 1000 * n_keys <= limit:
        return np.empty(0, np.intp), np.empty(0, np.int64)
    words = ops[0::3]
    kinds = words & OP_KIND_MASK
    creates = np.flatnonzero(_CREATES[kinds])
    is_create = kinds[creates] == _OP.CREATE
    lf = np.where(
        is_create, (words[creates] >> LF_SHIFT) & LF_MASK, DEFAULT_CONFIG.load_factor_milli
    ).astype(np.int64)
    flagged = (lf >= 1) & (lf * limit < 1000 * n_keys)
    creates, lf, is_create = creates[flagged], lf[flagged], is_create[flagged]
    held = np.full(creates.size, n_keys, dtype=np.int64)
    if is_create.any():
        held[is_create] = np.minimum(_keys_put(ops, kinds, creates[is_create]), n_keys)
    over = lf * limit < 1000 * held
    return creates[over], held[over]


def _keys_put(ops: np.ndarray, kinds: np.ndarray, creates: np.ndarray) -> np.ndarray:
    """The distinct keys put into the map of each Create in `creates`
    (sorted op indices) before its slot next holds another map or none:
    its next Create, CreateCopy or FreeMap."""
    slots, keys = ops[1::3], ops[2::3]
    puts = kinds == _OP.PUT
    events = np.flatnonzero(puts | _CREATES[kinds] | (kinds == _OP.FREE_MAP))
    # By slot, then in stream order: a put's map was begun by the latest
    # non-put event before it, when that event is on the put's slot.
    events = events[np.lexsort((events, slots[events]))]
    begins = ~puts[events]
    at = np.flatnonzero(~begins)
    begun = events[np.maximum.accumulate(np.where(begins, np.arange(events.size), 0))[at]]
    at = events[at]
    j = np.minimum(np.searchsorted(creates, begun), creates.size - 1)
    into = (creates[j] == begun) & (slots[begun] == slots[at])
    # Distinct (Create, key) pairs; keys are non-negative int32.
    pairs = np.sort((j[into].astype(np.int64) << 32) | keys[at[into]], kind="stable")
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    return np.bincount(pairs[first] >> 32, minlength=creates.size)


def _create_config(word: int, capacity: int, config: MapConfig) -> MapConfig:
    """The config a Create builds its map with, by `run_config`: the run's
    `config` when it was recorded at the default, else its recorded one."""
    if not word & SPREAD_BIT:
        raise TraceIntegrityError("create with the spread bit (bit 19) clear")
    return run_config(capacity, (word >> LF_SHIFT) & LF_MASK, config)


#: Named adapter implementations selectable from the command line.
IMPLEMENTATIONS: dict[str, type] = {
    "refmap": RefMap,
    "pydict": PyDictMap,
}


def get_implementation(name: str) -> type:
    try:
        return IMPLEMENTATIONS[name]
    except KeyError:
        known = ", ".join(sorted(IMPLEMENTATIONS))
        raise ConfigError(f"unknown implementation {name!r}; known: {known}") from None
