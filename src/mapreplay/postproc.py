"""Offline trace post-processing: sanitize, coalesce, free-annotate, encode.

The pipeline turns a raw event stream into the replayable artifact:

    sanitize          drop activity on maps without creation events, on
                      copies of such maps, and on maps whose keys showed
                      unstable hashes
    coalesce          merge uninterrupted same-outcome iterator-advance
                      runs into one counted opcode
    insert_free_events  add one FreeMap/FreeIter immediately after each
                      object's last use
    encode            renumber ids into dense reusable slots and key
                      indexes, and pack everything into int32 opcode
                      triples

Every pass works on the columns of a RawTrace's structured record array
(see `tracer.RAW_DTYPE`) with whole-array numpy operations; no pass builds
a Python object per event. The one sequential loop left is slot
assignment in `encode`, which visits only create and free rows. Passes
never modify their input: each returns a new RawTrace, or the input's
records unchanged when there is nothing to do.

Processed trace file format: magic "MPT1", u32 version=1, then a single
zlib/DEFLATE stream compressing the payload:

    u32 key count | i32 key hashes | u32 max_map_slots | u32 max_iter_slots |
    u64 op-triple count | op triples (3 x i32 each)

Each triple is (word, operand1, operand2). The word carries the op kind in
bits 0-7 plus op-specific flags: outcome in bit 8 (hit/update/yielded);
for IterNew the view in bits 9-10; for Create the load factor thousandths
in bits 9-18 and the spread flag in bit 19. Operands:

    Create       map slot, requested capacity
    CreateCopy   map slot, source map slot
    Get/Put/Remove/ContainsKey   map slot, key index
    Clear        map slot, 0
    IterNew      map slot, iterator slot
    IterAdvance  iterator slot, step count
    IterRemove   iterator slot, 0
    FreeMap      map slot, 0
    FreeIter     iterator slot, 0
"""

from __future__ import annotations

import heapq
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import TraceFormatError, TraceIntegrityError
from .tracer import ABSENT_HASH, ABSENT_OUTCOME, ABSENT_U64, RAW_DTYPE, RawOpKind, RawTrace

MAGIC = b"MPT1"
VERSION = 1

OP_KIND_MASK = 0xFF
OUTCOME_BIT = 1 << 8
VIEW_SHIFT = 9
VIEW_MASK = 0x3
LF_SHIFT = 9
LF_MASK = 0x3FF
SPREAD_BIT = 1 << 19
_I32_MAX = 0x7FFFFFFF

_OP = RawOpKind


def _op_table(*ops: RawOpKind) -> np.ndarray:
    """Membership table indexed by op byte: `_op_table(...)[op]` is a mask."""
    table = np.zeros(256, dtype=bool)
    table[list(ops)] = True
    return table


_MAP_OPS = _op_table(
    _OP.CREATE, _OP.CREATE_COPY, _OP.GET, _OP.PUT, _OP.REMOVE, _OP.CONTAINS_KEY,
    _OP.CLEAR, _OP.ITER_NEW, _OP.FREE_MAP,
)
_ITER_OPS = _op_table(_OP.ITER_ADVANCE, _OP.ITER_REMOVE, _OP.FREE_ITER)
_KEYED_OPS = _op_table(_OP.GET, _OP.PUT, _OP.REMOVE, _OP.CONTAINS_KEY)
_CREATES = _op_table(_OP.CREATE, _OP.CREATE_COPY)
# Ops that end an open advance run: map mutations, direct or through an iterator.
_RUN_BREAKERS = _op_table(_OP.PUT, _OP.REMOVE, _OP.CLEAR, _OP.ITER_REMOVE)


@dataclass(frozen=True, slots=True)
class Characterization:
    """Operation-mix tallies for one processed trace."""

    events: int = 0
    creates: int = 0
    reads: int = 0
    writes: int = 0
    iterates: int = 0
    bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "events": self.events,
            "creates": self.creates,
            "reads": self.reads,
            "writes": self.writes,
            "iterates": self.iterates,
            "bytes": self.bytes,
        }


@dataclass(slots=True)
class ProcessedTrace:
    """The replayable artifact: dense key hashes, slot bounds, opcode triples."""

    key_hashes: np.ndarray  # int32, index = key index
    max_map_slots: int
    max_iter_slots: int
    ops: np.ndarray  # int32, flat (word, op1, op2) triples
    encoded_size: int
    counts: Characterization

    @property
    def op_count(self) -> int:
        return len(self.ops) // 3

    def triples(self):
        ops = self.ops
        for i in range(0, len(ops), 3):
            yield int(ops[i]), int(ops[i + 1]), int(ops[i + 2])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcessedTrace):
            return NotImplemented
        return (
            self.max_map_slots == other.max_map_slots
            and self.max_iter_slots == other.max_iter_slots
            and np.array_equal(self.key_hashes, other.key_hashes)
            and np.array_equal(self.ops, other.ops)
            and self.counts == other.counts
        )


# Plain np.unique, and np.isin/union1d/setdiff1d built on it, import
# numpy.ma on first use: ~13 ms and over 1 MB resident in a fresh process,
# about what all four passes take on a 50k-event trace. Set operations
# here are therefore sort/searchsorted based; np.unique with return_index
# takes another path and is fine.


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _search(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each query in sorted, distinct, non-empty `keys`, and a found mask."""
    idx = np.searchsorted(keys, queries)
    np.minimum(idx, keys.size - 1, out=idx)
    return idx, keys[idx] == queries


def _isin(values: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Mask of the values present in sorted, distinct `distinct`."""
    if distinct.size == 0:
        return np.zeros(values.shape, dtype=bool)
    return _search(distinct, values)[1]


def _lookup(keys: np.ndarray, values: np.ndarray, queries: np.ndarray):
    """(found mask, value) of each query in sorted, distinct `keys`."""
    if keys.size == 0:
        return np.zeros(queries.shape, dtype=bool), np.zeros(queries.shape, values.dtype)
    idx, found = _search(keys, queries)
    return found, values[idx]


def _iter_owners(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted iterator ids and their owning map ids, from IterNew rows.

    The iterator id is IterNew's `aux >> 2`; if an id repeats, its last
    IterNew wins.
    """
    news = records[records["op"] == _OP.ITER_NEW]
    iter_ids = news["aux"][::-1] >> 2
    ids, last = np.unique(iter_ids, return_index=True)
    return ids, news["map_id"][::-1][last]


def _owners_of(records: np.ndarray, iter_ids: np.ndarray) -> np.ndarray:
    """Owning map id of each iterator; every one must have an IterNew."""
    found, owners = _lookup(*_iter_owners(records), iter_ids)
    if not found.all():
        bad = iter_ids[np.argmin(found)]
        raise TraceIntegrityError(f"iterator {bad} has no IterNew event")
    return owners


def _dense(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ids, and each element's index among them."""
    distinct = _distinct(ids)
    return distinct, np.searchsorted(distinct, ids)


def _unstable_keys(key_ids: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Key ids recorded with more than one distinct hash."""
    ids, idx = _dense(key_ids)
    # Store any one recorded hash per key: a key with a second hash has a
    # row that disagrees with the stored one, whichever write won.
    some_hash = np.empty(ids.size, dtype=hashes.dtype)
    some_hash[idx] = hashes
    return _distinct(key_ids[hashes != some_hash[idx]])


def sanitize(raw: RawTrace) -> RawTrace:
    """Drop events that cannot be replayed consistently.

    Removed: activity on maps with no creation event in the trace
    (foreign maps), on maps that touched a key whose recorded hash was
    unstable (poisoned), on copies of removed maps (transitively), and on
    iterators of removed maps. Order of surviving events is unchanged.
    """
    r = raw.records
    op, map_id, key_id, aux = r["op"], r["map_id"], r["key_id"], r["aux"]

    keyed = key_id != ABSENT_U64
    poisoned_keys = _unstable_keys(key_id[keyed], r["hash"][keyed])
    map_rows = _MAP_OPS[op]
    poisoned_maps = map_id[map_rows & keyed & _isin(key_id, poisoned_keys)]

    copies = op == _OP.CREATE_COPY
    copy_ids, sources = map_id[copies], aux[copies]
    referenced = _distinct(np.concatenate((map_id[map_rows], sources)))
    foreign = referenced[~_isin(referenced, _distinct(map_id[_CREATES[op]]))]
    dropped = _distinct(np.concatenate((foreign, poisoned_maps)))
    while True:  # copies of dropped maps, transitively
        orphaned = copy_ids[_isin(sources, dropped) & ~_isin(copy_ids, dropped)]
        if orphaned.size == 0:
            break
        dropped = _distinct(np.concatenate((dropped, orphaned)))

    iter_rows = _ITER_OPS[op]
    found, owners = _lookup(*_iter_owners(r), map_id[iter_rows])
    keep = ~_isin(map_id, dropped)
    keep[iter_rows] = found & ~_isin(owners, dropped)
    return RawTrace(r if keep.all() else r[keep])


def coalesce(raw: RawTrace) -> RawTrace:
    """Merge consecutive same-outcome advances of one iterator.

    A run is broken by any mutating operation on the iterator's map (put,
    remove, clear, or an iterator-remove through any of its iterators) and
    by an outcome flip (yielding vs. exhausted), so the merged step count
    always equals the number of recorded yields for yielding runs.

    An advance joins the previous advance of its iterator when both have
    the same outcome and the same mutation epoch of the owning map: the
    count of that map's mutations so far in the stream.
    """
    r = raw.records
    op, map_id = r["op"], r["map_id"]
    adv = np.flatnonzero(op == _OP.ITER_ADVANCE)
    if adv.size == 0:
        return RawTrace(r)
    adv_iters = map_id[adv]

    # Only mutations between the first and last advance can split a run.
    muts = np.flatnonzero(_RUN_BREAKERS[op][adv[0] : adv[-1]]) + adv[0]
    mut_maps = map_id[muts]
    through_iter = op[muts] == _OP.ITER_REMOVE
    mut_maps[through_iter] = _owners_of(r, mut_maps[through_iter])

    # Sort mutations and advances by (map, position); a running count of
    # mutations then differs between two advances of one map exactly when
    # that map was mutated in between.
    maps = np.concatenate((mut_maps, _owners_of(r, adv_iters)))
    rows = np.concatenate((muts, adv))
    by_map = np.lexsort((rows, maps))
    epoch = np.empty(rows.size, dtype=np.int64)
    epoch[by_map] = np.cumsum(by_map < muts.size)
    epoch = epoch[muts.size:]

    by_iter = np.lexsort((adv, adv_iters))
    iters, outcomes, epochs = adv_iters[by_iter], r["outcome"][adv][by_iter], epoch[by_iter]
    joins = np.zeros(adv.size, dtype=bool)
    joins[1:] = (
        (iters[1:] == iters[:-1]) & (outcomes[1:] == outcomes[:-1]) & (epochs[1:] == epochs[:-1])
    )
    heads = np.flatnonzero(~joins)
    steps = np.add.reduceat(r["aux"][adv][by_iter], heads)

    merged = np.sort(adv[by_iter[joins]])
    out = np.delete(r, merged)
    head_rows = adv[by_iter[heads]]
    out["aux"][head_rows - np.searchsorted(merged, head_rows)] = steps
    return RawTrace(out)


def _last_rows(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of a per-row column, and the last row holding it."""
    ids, from_end = np.unique(column[::-1], return_index=True)
    return ids, column.size - 1 - from_end


def _last_use(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct id of some (id, row) uses, and the last row using it."""
    order = np.lexsort((rows, ids))
    ids, rows = ids[order], rows[order]
    final = np.ones(ids.size, dtype=bool)
    final[:-1] = ids[1:] != ids[:-1]
    return ids[final], rows[final]


def _free_records(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The FreeIter/FreeMap records to insert, in order, and the row each follows."""
    op, map_id, aux = r["op"], r["map_id"], r["aux"]
    iter_rows = np.flatnonzero(_ITER_OPS[op])
    copies = np.flatnonzero(op == _OP.CREATE_COPY)
    news = np.flatnonzero(op == _OP.ITER_NEW)

    # Every row uses one map (iterator ops: the iterator's owner); reduce
    # that column to a last row per map, then add the uses by copies.
    map_of_row = map_id.copy()
    map_of_row[iter_rows] = _owners_of(r, map_id[iter_rows])
    maps, map_last = _last_rows(map_of_row)
    maps, map_last = _last_use(
        np.concatenate((maps, aux[copies])), np.concatenate((map_last, copies))
    )
    iters, iter_last = _last_use(
        np.concatenate((map_id[iter_rows], aux[news] >> 2)), np.concatenate((iter_rows, news))
    )

    frees = np.zeros(iters.size + maps.size, dtype=RAW_DTYPE)
    after = np.concatenate((iter_last, map_last))
    frees["op"][: iters.size] = _OP.FREE_ITER
    frees["op"][iters.size :] = _OP.FREE_MAP
    frees["map_id"] = np.concatenate((iters, maps))
    order = np.lexsort((frees["map_id"], frees["op"] == _OP.FREE_MAP, after))
    frees, after = frees[order], after[order]
    frees["thread_id"] = r["thread_id"][after]
    frees["key_id"] = ABSENT_U64
    frees["hash"] = ABSENT_HASH
    frees["outcome"] = ABSENT_OUTCOME
    return frees, after


def insert_free_events(raw: RawTrace) -> RawTrace:
    """Place one FreeMap/FreeIter directly after each object's last use.

    A map's uses include every event of its iterators and every copy made
    from it, so the map is provably final when its free event runs. Frees
    after one row come iterators first, then maps, each in id order.
    """
    frees, after = _free_records(raw.records)
    return RawTrace(np.insert(raw.records, after + 1, frees))


class _Lifetimes(NamedTuple):
    """One row per object, sorted by id: its slot and first and last row."""

    ids: np.ndarray
    slot: np.ndarray
    first: np.ndarray
    last: np.ndarray


def _assign_slots(obj_ids: np.ndarray, acquires: np.ndarray, rows: np.ndarray):
    """Lowest-free-first slots over one object kind's create/free rows.

    `obj_ids`, `acquires` and `rows` describe the create (acquire) and free
    rows in stream order. Returns the lifetimes and the slot-table size.
    """
    created = obj_ids[acquires]
    ids, first = np.unique(created, return_index=True)
    if ids.size != created.size:
        twice = np.delete(created, first)[0]
        raise TraceIntegrityError(f"object {twice} is created more than once")

    slots = np.empty(obj_ids.size, dtype=np.int32)
    free: list[int] = []
    live: dict[int, int] = {}
    high_water = 0
    for j, (obj, acquire) in enumerate(zip(obj_ids.tolist(), acquires.tolist())):
        if acquire:
            if free:
                slot = heapq.heappop(free)
            else:
                slot = high_water
                high_water += 1
            live[obj] = slot
        else:
            slot = live.pop(obj, None)
            if slot is None:
                raise TraceIntegrityError(f"object {obj} is not live")
            heapq.heappush(free, slot)
        slots[j] = slot
    if live:
        raise TraceIntegrityError("input is missing free events; run insert_free_events first")

    freed = np.argsort(obj_ids[~acquires])  # each created object is freed exactly once
    lives = _Lifetimes(ids, slots[acquires][first], rows[acquires][first], rows[~acquires][freed])
    return lives, high_water


def _slots_at(lives: _Lifetimes, obj_ids: np.ndarray, rows: np.ndarray, uses=None):
    """Slot of the object named at each row.

    Every object named where `uses` is set (everywhere by default) must be
    live at its row, its own create and free rows included. Other rows get
    an arbitrary slot.
    """
    if uses is None:
        uses = np.ones(obj_ids.shape, dtype=bool)
    if lives.ids.size == 0:
        live = np.zeros(obj_ids.shape, dtype=bool)
        i = np.zeros(obj_ids.shape, dtype=np.intp)
    else:
        i = np.searchsorted(lives.ids, obj_ids)
        np.minimum(i, lives.ids.size - 1, out=i)
        live = lives.ids[i] == obj_ids
        live &= lives.first[i] <= rows
        live &= rows <= lives.last[i]
    dead = np.flatnonzero(uses & ~live)
    if dead.size:
        bad = dead[0]
        raise TraceIntegrityError(f"object {obj_ids[bad]} is not live at event {rows[bad]}")
    return lives.slot[i] if lives.ids.size else i.astype(np.int32)


def _key_indexes(key_ids: np.ndarray, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense key index per keyed row, in first-use order, and the hash table."""
    ids, idx = _dense(key_ids)
    first_use = np.full(ids.size, key_ids.size)
    np.minimum.at(first_use, idx, np.arange(key_ids.size))
    by_first_use = np.argsort(first_use)
    rank = np.empty(ids.size, dtype=np.int32)
    rank[by_first_use] = np.arange(ids.size, dtype=np.int32)
    index = rank[idx]
    table = hashes[first_use[by_first_use]]
    changed = np.flatnonzero(hashes != table[index])
    if changed.size:
        raise TraceIntegrityError(
            f"key {key_ids[changed[0]]} hash changed; trace was not sanitized"
        )
    return index, table


def encode(raw: RawTrace) -> ProcessedTrace:
    """Pack a sanitized, coalesced, free-annotated stream into opcode triples.

    Every object must be created once, used only while live, and freed
    once; anything else raises TraceIntegrityError.
    """
    r = raw.records
    op, map_id, aux, outcome = r["op"], r["map_id"], r["aux"], r["outcome"]
    triples = np.zeros((len(r), 3), dtype=np.int32)
    words = triples[:, 0]
    words[:] = op

    keyed = _KEYED_OPS[op]
    key_index, key_hashes = _key_indexes(r["key_id"][keyed], r["hash"][keyed])
    triples[keyed, 2] = key_index

    # Map slots. Every map op, creates and frees included, names its map in
    # map_id; iterator ops name their iterator there and are overwritten below.
    life = np.flatnonzero(_CREATES[op] | (op == _OP.FREE_MAP))
    map_lives, max_map_slots = _assign_slots(map_id[life], _CREATES[op[life]], life)
    triples[:, 1] = _slots_at(map_lives, map_id, np.arange(len(r)), _MAP_OPS[op])
    copies = np.flatnonzero(op == _OP.CREATE_COPY)
    sources = aux[copies]
    self_copies = np.flatnonzero(sources == map_id[copies])
    if self_copies.size:
        raise TraceIntegrityError(f"map {sources[self_copies[0]]} is not live before its copy")
    triples[copies, 2] = _slots_at(map_lives, sources, copies)

    # Iterator slots: IterNew acquires the iterator in its aux, FreeIter releases.
    life = np.flatnonzero((op == _OP.ITER_NEW) | (op == _OP.FREE_ITER))
    news = op[life] == _OP.ITER_NEW
    iter_ids = np.where(news, aux[life] >> 2, map_id[life])
    iter_lives, max_iter_slots = _assign_slots(iter_ids, news, life)
    triples[life[news], 2] = _slots_at(iter_lives, iter_ids[news], life[news])
    iter_rows = np.flatnonzero(_ITER_OPS[op])
    triples[iter_rows, 1] = _slots_at(iter_lives, map_id[iter_rows], iter_rows)

    flagged = keyed | (op == _OP.ITER_ADVANCE)
    words[flagged & (outcome != 0) & (outcome != ABSENT_OUTCOME)] |= OUTCOME_BIT

    creates = np.flatnonzero(op == _OP.CREATE)
    create_aux = aux[creates]
    capacity = create_aux & 0xFFFFFFFF
    _check_i32(capacity, "requested capacity")
    lf = (create_aux >> 32) & LF_MASK
    spread = (create_aux >> 42) & 1
    words[creates] |= ((lf << LF_SHIFT) | (spread * SPREAD_BIT)).astype(np.int32)
    triples[creates, 2] = capacity

    news = np.flatnonzero(op == _OP.ITER_NEW)
    words[news] |= ((aux[news] & VIEW_MASK) << VIEW_SHIFT).astype(np.int32)

    advances = np.flatnonzero(op == _OP.ITER_ADVANCE)
    _check_i32(aux[advances], "advance step count")
    triples[advances, 2] = aux[advances]

    trace = ProcessedTrace(
        key_hashes=key_hashes.astype(np.int32),
        max_map_slots=max_map_slots,
        max_iter_slots=max_iter_slots,
        ops=triples.ravel(),
        encoded_size=0,
        counts=Characterization(),
    )
    trace.encoded_size = len(to_bytes(trace))
    trace.counts = stats(trace)
    return trace


def _check_i32(values: np.ndarray, what: str) -> None:
    big = np.flatnonzero(values > _I32_MAX)
    if big.size:
        raise TraceIntegrityError(f"{what} {values[big[0]]} overflows i32")


def process(raw: RawTrace) -> ProcessedTrace:
    """Full post-processing pipeline: sanitize, coalesce, free-annotate, encode.

    Only the latest stage's output is held, so each input can be freed as
    soon as the next pass returns (unless the caller still holds `raw`).
    """
    trace = raw
    del raw
    for stage in (sanitize, coalesce, insert_free_events):
        trace = stage(trace)
    return encode(trace)


def stats(trace: ProcessedTrace) -> Characterization:
    """Tally the operation mix: creates, reads, writes, iterates, total events."""
    kinds = trace.ops[0::3] & OP_KIND_MASK
    count = np.bincount(kinds, minlength=int(RawOpKind.FREE_ITER) + 1)

    def n(*ops: RawOpKind) -> int:
        return int(sum(count[int(o)] for o in ops))

    return Characterization(
        events=trace.op_count,
        creates=n(RawOpKind.CREATE, RawOpKind.CREATE_COPY),
        reads=n(RawOpKind.GET, RawOpKind.CONTAINS_KEY),
        writes=n(RawOpKind.PUT, RawOpKind.REMOVE, RawOpKind.CLEAR),
        iterates=n(RawOpKind.ITER_NEW, RawOpKind.ITER_ADVANCE, RawOpKind.ITER_REMOVE),
        bytes=trace.encoded_size,
    )


# -- serialization ----------------------------------------------------------------


def to_bytes(trace: ProcessedTrace) -> bytes:
    # Streaming the payload pieces through one compressor yields the same
    # DEFLATE stream as compressing their concatenation, without the copy.
    z = zlib.compressobj()
    parts = [MAGIC, struct.pack("<I", VERSION)]
    for piece in (
        struct.pack("<I", len(trace.key_hashes)),
        np.ascontiguousarray(trace.key_hashes, dtype="<i4"),
        struct.pack("<II", trace.max_map_slots, trace.max_iter_slots),
        struct.pack("<Q", trace.op_count),
        np.ascontiguousarray(trace.ops, dtype="<i4"),
    ):
        parts.append(z.compress(piece))
    parts.append(z.flush())
    return b"".join(parts)


def decode(data: bytes) -> ProcessedTrace:
    if len(data) < 8:
        raise TraceFormatError("shorter than the 8-byte header", offset=0)
    if data[:4] != MAGIC:
        raise TraceFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", offset=0)
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise TraceFormatError(f"unsupported version {version}", offset=4)
    try:
        payload = zlib.decompress(data[8:])
    except zlib.error as exc:
        raise TraceFormatError(f"corrupt DEFLATE payload: {exc}", offset=8) from None

    # Offsets below are relative to the decompressed payload.
    pos = 0

    def need(nbytes: int, what: str) -> int:
        nonlocal pos
        if pos + nbytes > len(payload):
            raise TraceFormatError(f"payload truncated reading {what}", offset=pos)
        start = pos
        pos += nbytes
        return start

    (key_count,) = struct.unpack_from("<I", payload, need(4, "key count"))
    key_hashes = np.frombuffer(
        payload, dtype="<i4", count=key_count, offset=need(4 * key_count, "key hashes")
    ).astype(np.int32)
    map_slots, iter_slots = struct.unpack_from("<II", payload, need(8, "slot bounds"))
    (op_count,) = struct.unpack_from("<Q", payload, need(8, "op count"))
    ops = np.frombuffer(
        payload, dtype="<i4", count=op_count * 3, offset=need(12 * op_count, "op triples")
    ).astype(np.int32)
    if pos != len(payload):
        raise TraceFormatError(
            f"{len(payload) - pos} trailing bytes after op triples", offset=pos
        )

    trace = ProcessedTrace(
        key_hashes=key_hashes,
        max_map_slots=map_slots,
        max_iter_slots=iter_slots,
        ops=ops,
        encoded_size=len(data),
        counts=Characterization(),
    )
    trace.counts = stats(trace)
    return trace


def write_processed(trace: ProcessedTrace, path: str | Path) -> None:
    Path(path).write_bytes(to_bytes(trace))


def read_processed(path: str | Path) -> ProcessedTrace:
    return decode(Path(path).read_bytes())
