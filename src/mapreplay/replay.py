"""Replay of processed traces against one pluggable map implementation.

Setup preallocates every mockup key and the map/iterator slot arrays so the
timed phase creates nothing but maps and iterators. The replay phase is a
single dispatch loop over the opcode triples, bound to exactly one adapter
class per run (monomorphic replay). Each triple calls the handler its op
kind selects from a table built per run; the modes differ only in that
table and in the hook its FreeMap handler calls:

    timing      plain handlers; the result is the wall-clock of the loop
    counting    plain handlers; the FreeMap hook adds the map's OpCounters
                (the adapter must be RefMap-based)
    validating  get, put, remove, containsKey and iterator advance compare
                each outcome bit against the recorded one; the FreeMap hook
                captures the map's state digest

The loop checks nothing per op. Setup rejects a negative word or operand
once for the whole stream, since Python would wrap a negative index, and
an iterator advance of more steps than the key table has keys (more than
one step, when exhausted), which no map can yield and which would
otherwise spin for up to 2^31 steps. A
slot used after free or an operand out of range surfaces as the
AttributeError or IndexError it causes, and is reported as a
TraceIntegrityError naming the op index; FreeMap, FreeIter and the
CreateCopy source check for a freed slot themselves.

Put always stores the one shared VALUE_TOKEN; recorded traces carry no
value information. Copy construction uses the run's default configuration
(the override's, when set), sized to its source by the adapter itself.
"""

from __future__ import annotations

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
)
from .tracer import RawOpKind

MODES = ("timing", "counting", "validating")

_OP = RawOpKind
#: Kinds whose second operand is a key index.
_KEYED = (_OP.GET, _OP.PUT, _OP.REMOVE, _OP.CONTAINS_KEY)


class _ValueToken:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<value>"


#: The single opaque value stored by every replayed put.
VALUE_TOKEN = _ValueToken()


class MockupKey:
    """Stand-in for an application key: preserved hash, identity equality."""

    __slots__ = ("index", "_hash")

    def __init__(self, index: int, hash32: int):
        self.index = index
        self._hash = hash32

    def hash32(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, MockupKey) and other.index == self.index)

    def __hash__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        return f"MockupKey({self.index}, hash={self._hash})"


@dataclass(frozen=True, slots=True)
class ConfigOverride:
    """Replay-time substitute for creates that recorded the default config.

    Creates recorded with the default (capacity, load factor, spreading) are
    constructed with (dic, lf_milli) instead; creates with explicit
    non-default arguments keep their recorded configuration.
    """

    dic: int
    lf_milli: int = DEFAULT_CONFIG.load_factor_milli

    def config(self) -> MapConfig:
        return MapConfig(self.dic, self.lf_milli, DEFAULT_CONFIG.spread_hashes)


@dataclass(slots=True)
class ReplayResult:
    elapsed: float
    ops_executed: int
    factory_calls: int
    counters: OpCounters | None = None
    digests: dict[int, int] | None = None  # FreeMap op index -> state digest
    map_digests: list[int] | None = None  # digests in map-creation order


class ReplaySession:
    """Decoded trace plus everything preallocated for repeated replays."""

    def __init__(self, trace: ProcessedTrace, memory_budget: int | None = None):
        required = len(trace.key_hashes) + trace.max_map_slots + trace.max_iter_slots
        if memory_budget is not None and required > memory_budget:
            raise ConfigError(
                f"trace needs {len(trace.key_hashes)} mockup keys, "
                f"{trace.max_map_slots} map slots and {trace.max_iter_slots} iterator "
                f"slots ({required} objects), above the budget of {memory_budget}"
            )
        # Valid words and operands are never negative; a negative index
        # would wrap around the slot and key lists instead of failing.
        if trace.ops.size and trace.ops.min() < 0:
            i = int(np.argmax(trace.ops < 0))
            raise TraceIntegrityError(f"op {i // 3}: negative word or operand {trace.ops[i]}")
        # A yielding advance run visits distinct entries of one unmutated
        # map, so its count never exceeds the key count; an exhausted run
        # is one step, since coalesce collapses repeats that change nothing.
        # Only the few ops whose second operand exceeds the key count are
        # looked at further.
        n_keys = len(trace.key_hashes)
        over = np.flatnonzero(trace.ops[2::3] > n_keys)
        words = trace.ops[3 * over]
        too_long = over[
            ((words & OP_KIND_MASK) == _OP.ITER_ADVANCE)
            & (((words & OUTCOME_BIT) != 0) | (trace.ops[3 * over + 2] > 1))
        ]
        if too_long.size:
            i = too_long[0]
            raise TraceIntegrityError(
                f"op {i}: iterator advance of {trace.ops[3 * i + 2]} steps but the "
                f"trace has {n_keys} keys"
            )
        self.trace = trace
        self.keys = [
            MockupKey(i, int(h)) for i, h in enumerate(trace.key_hashes)
        ]
        self._ops: list[int] = trace.ops.tolist()

    def replay(
        self,
        factory: type,
        mode: str = "timing",
        override: ConfigOverride | None = None,
    ) -> ReplayResult:
        """Interpret the opcode stream once against one adapter class."""
        if mode not in MODES:
            raise ConfigError(f"unknown replay mode {mode!r}; expected one of {MODES}")
        if mode == "counting" and not (isinstance(factory, type) and issubclass(factory, RefMap)):
            raise ConfigError("counting mode requires a RefMap-based adapter")
        validating = mode == "validating"
        ops = self._ops
        keys = self.keys
        maps: list = [None] * self.trace.max_map_slots
        iters: list = [None] * self.trace.max_iter_slots
        default_cfg = override.config() if override else DEFAULT_CONFIG
        ordinal = [0] * len(maps)  # creation ordinal of each slot's occupant
        map_digests: list[int] = []  # one per create; 0 until the map is freed
        freed: list[int] = []  # state digest at each FreeMap, in op order
        counters = OpCounters() if mode == "counting" else None

        # The FreeMap hook: the only place counting and digesting happen.
        if counters is not None:

            def on_free(m, a):
                counters.add(m.counters)

        elif validating and hasattr(factory, "state_digest"):

            def on_free(m, a):
                d = m.state_digest()
                freed.append(d)
                map_digests[ordinal[a]] = d

        else:

            def on_free(m, a):
                pass

        def unknown(w, a, b):
            raise TraceIntegrityError(f"unknown opcode {w & OP_KIND_MASK}")

        def create(w, a, b):
            maps[a] = factory(_create_config(w, b, override))
            ordinal[a] = len(map_digests)
            map_digests.append(0)

        def create_copy(w, a, b):
            source = maps[b]
            if source is None:
                raise TraceIntegrityError(f"map slot {b} used after free")
            maps[a] = factory.copy_of(source, default_cfg)
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
            iters[b] = maps[a].iterator(View((w >> VIEW_SHIFT) & VIEW_MASK))

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
        start = time.perf_counter()
        # Handlers raise without an op index: only the loop knows it.
        try:
            for i in range(0, n, 3):
                w = ops[i]
                table[w & OP_KIND_MASK](w, ops[i + 1], ops[i + 2])
        except FidelityError as exc:
            raise FidelityError(str(exc), op_index=i // 3) from None
        except TraceIntegrityError as exc:
            raise TraceIntegrityError(f"op {i // 3}: {exc}") from None
        except (AttributeError, IndexError):
            fault = self._trace_fault(ops[i], ops[i + 1], ops[i + 2], maps, iters)
            if fault is None:
                raise  # the adapter's own bug, not the trace's
            raise TraceIntegrityError(f"op {i // 3}: {fault}") from None
        elapsed = time.perf_counter() - start

        result = ReplayResult(elapsed, n // 3, len(map_digests), counters=counters)
        if validating:
            free_ops = np.flatnonzero((self.trace.ops[0::3] & OP_KIND_MASK) == _OP.FREE_MAP)
            result.digests = dict(zip(free_ops.tolist(), freed))
            result.map_digests = map_digests
        return result

    def _trace_fault(self, w: int, a: int, b: int, maps: list, iters: list) -> str | None:
        """Name the trace fault behind an AttributeError or IndexError raised
        by op (w, a, b), or None when its operands are sound."""
        kind = w & OP_KIND_MASK
        on_iter = kind in (_OP.ITER_ADVANCE, _OP.ITER_REMOVE, _OP.FREE_ITER)
        slots, what = (iters, "iterator") if on_iter else (maps, "map")
        if not 0 <= a < len(slots):
            return f"{what} slot {a} out of range"
        if kind in _KEYED and not 0 <= b < len(self.keys):
            return f"key index {b} out of range"
        if kind == _OP.CREATE_COPY and not 0 <= b < len(maps):
            return f"map slot {b} out of range"
        if kind == _OP.ITER_NEW and not 0 <= b < len(iters):
            return f"iterator slot {b} out of range"
        if kind not in (_OP.CREATE, _OP.CREATE_COPY) and slots[a] is None:
            return f"{what} slot {a} used after free"
        return None


def _check(what: str, hit: bool, w: int) -> None:
    recorded = bool(w & OUTCOME_BIT)
    if hit != recorded:
        raise FidelityError(
            f"{what}: replay produced {'hit' if hit else 'miss'} but the "
            f"trace recorded {'hit' if recorded else 'miss'}"
        )


def _create_config(word: int, capacity: int, override: ConfigOverride | None) -> MapConfig:
    lf = (word >> LF_SHIFT) & LF_MASK
    spread = bool(word & SPREAD_BIT)
    if (
        override is not None
        and capacity == DEFAULT_CONFIG.initial_capacity
        and lf == DEFAULT_CONFIG.load_factor_milli
        and spread == DEFAULT_CONFIG.spread_hashes
    ):
        return override.config()
    return MapConfig(capacity, lf, spread)


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
