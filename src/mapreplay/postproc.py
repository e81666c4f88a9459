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

Each pass's logic is one column kernel: whole-array numpy operations that
read the fields they need by name, either from a RawTrace's structured
record array (see `tracer.RAW_DTYPE`) or from a dict of plain per-field
arrays. Sanitize's kernel yields a keep mask, coalesce's the rows to merge
away and the step counts to set, free insertion's the free rows and the
row each follows, and encode's the opcode triples. No kernel builds a
Python object per event; the one sequential loop left is slot assignment
in encode, which visits only create and free rows.

The public passes `sanitize`, `coalesce`, `insert_free_events` and
`encode` wrap those kernels: each runs its kernel on the records and
applies the result to them. They never modify their input: each returns a
new RawTrace, or the input's records unchanged when there is nothing to
do. `process` runs sanitize on the records, copies out only the columns
the later passes read (op, map id, aux and outcome of each kept row, 18
bytes against a record's 40, and key id and hash of each kept keyed row),
and lets the records go, so the raw bytes are freed there when the caller
holds no RawTrace. It runs the other three kernels on those columns and
builds no record array after sanitize.

A ProcessedTrace is the payload below and nothing else: its size is the
size of the file it is written to or read from, and `stats()` tallies its
op mix on demand.

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


@dataclass(frozen=True, slots=True)
class ProcessedTrace:
    """The replayable artifact: dense key hashes, slot bounds, opcode triples."""

    key_hashes: np.ndarray  # int32, index = key index
    max_map_slots: int
    max_iter_slots: int
    ops: np.ndarray  # int32, flat (word, op1, op2) triples

    @property
    def op_count(self) -> int:
        return len(self.ops) // 3

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcessedTrace):
            return NotImplemented
        return (
            self.max_map_slots == other.max_map_slots
            and self.max_iter_slots == other.max_iter_slots
            and np.array_equal(self.key_hashes, other.key_hashes)
            and np.array_equal(self.ops, other.ops)
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


def _iter_owners(t) -> tuple[np.ndarray, np.ndarray]:
    """Sorted iterator ids and their owning map ids, from IterNew rows.

    The iterator id is IterNew's `aux >> 2`; if an id repeats, its last
    IterNew wins.
    """
    news = np.flatnonzero(t["op"] == _OP.ITER_NEW)[::-1]
    ids, last = np.unique(t["aux"][news] >> 2, return_index=True)
    return ids, t["map_id"][news[last]]


def _owners_of(owners: tuple[np.ndarray, np.ndarray], iter_ids: np.ndarray) -> np.ndarray:
    """Owning map id of each iterator; every one must have an IterNew."""
    found, maps = _lookup(*owners, iter_ids)
    if not found.all():
        bad = iter_ids[np.argmin(found)]
        raise TraceIntegrityError(f"iterator {bad} has no IterNew event")
    return maps


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


# -- pass kernels ---------------------------------------------------------------------
#
# Kernels read columns by field name from `t`: a RAW_DTYPE record array or
# a dict of plain per-row arrays. Only sanitize reads `key_id` and `hash`
# per row. Coalescing removes only advance rows and free insertion adds
# only free rows, so keyed rows pass through both in order, and `process`
# carries their key ids and hashes as two arrays beside the row columns.

#: The per-row fields the passes after sanitize read.
_ROW_FIELDS = ("op", "map_id", "aux", "outcome")


def _kept_rows(t) -> np.ndarray:
    """Sanitize's kernel: the mask of rows that survive."""
    op, map_id, key_id, aux = t["op"], t["map_id"], t["key_id"], t["aux"]

    keyed = key_id != ABSENT_U64
    poisoned_keys = _unstable_keys(key_id[keyed], t["hash"][keyed])
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
    found, owners = _lookup(*_iter_owners(t), map_id[iter_rows])
    keep = ~_isin(map_id, dropped)
    keep[iter_rows] = found & ~_isin(owners, dropped)
    return keep


def sanitize(raw: RawTrace) -> RawTrace:
    """Drop events that cannot be replayed consistently.

    Removed: activity on maps with no creation event in the trace
    (foreign maps), on maps that touched a key whose recorded hash was
    unstable (poisoned), on copies of removed maps (transitively), and on
    iterators of removed maps. Order of surviving events is unchanged.
    """
    r = raw.records
    keep = _kept_rows(r)
    return RawTrace(r if keep.all() else r[keep])


class _Merge(NamedTuple):
    """Coalesce's plan: rows to delete, then step counts to set."""

    merged: np.ndarray  # sorted rows of advances folded into an earlier one
    heads: np.ndarray  # each run's first advance, as a row after the deletion
    steps: np.ndarray  # each run's step count


def _merge_plan(t) -> _Merge | None:
    """Coalesce's kernel; None when the stream has no advances."""
    op, map_id = t["op"], t["map_id"]
    adv = np.flatnonzero(op == _OP.ITER_ADVANCE)
    if adv.size == 0:
        return None
    owners = _iter_owners(t)

    # Only mutations between the first and last advance can split a run.
    muts = np.flatnonzero(_RUN_BREAKERS[op[adv[0] : adv[-1]]]) + adv[0]
    mut_maps = map_id[muts]
    through_iter = op[muts] == _OP.ITER_REMOVE
    mut_maps[through_iter] = _owners_of(owners, mut_maps[through_iter])

    # Group the advances by iterator, in stream order within each group.
    adv = adv[np.argsort(map_id[adv], kind="stable")]
    iters = map_id[adv]
    joins = np.zeros(adv.size, dtype=bool)
    joins[1:] = iters[1:] == iters[:-1]
    epochs = _epochs(mut_maps, muts, _owners_of(owners, iters), adv)
    joins[1:] &= epochs[1:] == epochs[:-1]
    outcomes = t["outcome"][adv]
    joins[1:] &= outcomes[1:] == outcomes[:-1]

    heads = np.flatnonzero(~joins)
    steps = np.add.reduceat(t["aux"][adv], heads)
    steps[outcomes[heads] == 0] = 1
    merged = np.sort(adv[joins])
    head_rows = adv[heads]
    return _Merge(merged, head_rows - np.searchsorted(merged, head_rows), steps)


def _epochs(mut_maps: np.ndarray, muts: np.ndarray, maps: np.ndarray, rows: np.ndarray):
    """Mutation epoch of map `maps[i]` at row `rows[i]`.

    The epoch is the number of mutations (`mut_maps`, `muts`) that sort
    before (map, row) by map, then row. Between two rows of one map it
    moves exactly when that map was mutated in between.
    """
    mutated, rank = _dense(mut_maps)
    stride = max(int(muts.max(initial=0)), int(rows.max(initial=0))) + 1
    keys = np.sort(rank * stride + muts)
    found, at = _lookup(mutated, np.arange(mutated.size), maps)
    # A map never mutated here has one epoch throughout; -1 sorts first.
    return np.searchsorted(keys, np.where(found, at * stride + rows, -1))


def coalesce(raw: RawTrace) -> RawTrace:
    """Merge consecutive same-outcome advances of one iterator.

    A run is broken by any mutating operation on the iterator's map (put,
    remove, clear, or an iterator-remove through any of its iterators) and
    by an outcome flip (yielding vs. exhausted), so the merged step count
    always equals the number of recorded yields for yielding runs. An
    exhausted run keeps a count of 1: advancing a drained iterator again
    returns None and changes nothing.

    An advance joins the previous advance of its iterator when both have
    the same outcome and the same mutation epoch of the owning map: the
    count of that map's mutations so far in the stream.
    """
    r = raw.records
    merge = _merge_plan(r)
    if merge is None:
        return RawTrace(r)
    out = np.delete(r, merge.merged)
    out["aux"][merge.heads] = merge.steps
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


class _Frees(NamedTuple):
    """Free insertion's plan: the FreeIter/FreeMap rows, in stream order."""

    op: np.ndarray  # FREE_ITER or FREE_MAP
    ids: np.ndarray  # the iterator or map freed
    after: np.ndarray  # the row each free follows, before insertion


def _free_plan(t) -> _Frees:
    """Free insertion's kernel."""
    op, map_id, aux = t["op"], t["map_id"], t["aux"]
    iter_rows = np.flatnonzero(_ITER_OPS[op])
    copies = np.flatnonzero(op == _OP.CREATE_COPY)
    news = np.flatnonzero(op == _OP.ITER_NEW)

    # Every row uses one map (iterator ops: the iterator's owner); reduce
    # that column to a last row per map, then add the uses by copies.
    map_of_row = map_id.copy()
    map_of_row[iter_rows] = _owners_of(_iter_owners(t), map_id[iter_rows])
    maps, map_last = _last_rows(map_of_row)
    maps, map_last = _last_use(
        np.concatenate((maps, aux[copies])), np.concatenate((map_last, copies))
    )
    iters, iter_last = _last_use(
        np.concatenate((map_id[iter_rows], aux[news] >> 2)), np.concatenate((iter_rows, news))
    )

    ops = np.full(iters.size + maps.size, _OP.FREE_MAP, dtype=np.uint8)
    ops[: iters.size] = _OP.FREE_ITER
    ids = np.concatenate((iters, maps))
    after = np.concatenate((iter_last, map_last))
    order = np.lexsort((ids, ops == _OP.FREE_MAP, after))
    return _Frees(ops[order], ids[order], after[order])


def _free_fields(frees: _Frees) -> dict:
    """Field values of the inserted free rows, thread id aside."""
    return {
        "op": frees.op,
        "map_id": frees.ids,
        "key_id": ABSENT_U64,
        "hash": ABSENT_HASH,
        "aux": 0,
        "outcome": ABSENT_OUTCOME,
    }


def insert_free_events(raw: RawTrace) -> RawTrace:
    """Place one FreeMap/FreeIter directly after each object's last use.

    A map's uses include every event of its iterators and every copy made
    from it, so the map is provably final when its free event runs. Frees
    after one row come iterators first, then maps, each in id order, and
    take that row's thread id.
    """
    r = raw.records
    frees = _free_plan(r)
    rows = np.zeros(frees.after.size, dtype=RAW_DTYPE)
    for name, values in _free_fields(frees).items():
        rows[name] = values
    rows["thread_id"] = r["thread_id"][frees.after]
    return RawTrace(np.insert(r, frees.after + 1, rows))


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


def _encode(t, key_ids: np.ndarray, hashes: np.ndarray) -> ProcessedTrace:
    """Encode's kernel; `key_ids` and `hashes` hold the keyed rows' fields."""
    op, map_id, aux, outcome = t["op"], t["map_id"], t["aux"], t["outcome"]
    triples = np.zeros((op.size, 3), dtype=np.int32)
    words = triples[:, 0]
    words[:] = op

    keyed = _KEYED_OPS[op]
    key_index, key_hashes = _key_indexes(key_ids, hashes)
    triples[keyed, 2] = key_index
    del key_index  # before the slot lookups' row-sized temporaries

    # Map slots. Every map op, creates and frees included, names its map in
    # map_id; iterator ops name their iterator there and are overwritten below.
    life = np.flatnonzero(_CREATES[op] | (op == _OP.FREE_MAP))
    map_lives, max_map_slots = _assign_slots(map_id[life], _CREATES[op[life]], life)
    triples[:, 1] = _slots_at(map_lives, map_id, np.arange(op.size), _MAP_OPS[op])
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

    return ProcessedTrace(
        key_hashes=key_hashes.astype(np.int32),
        max_map_slots=max_map_slots,
        max_iter_slots=max_iter_slots,
        ops=triples.ravel(),
    )


def encode(raw: RawTrace) -> ProcessedTrace:
    """Pack a sanitized, coalesced, free-annotated stream into opcode triples.

    Every object must be created once, used only while live, and freed
    once; anything else raises TraceIntegrityError.
    """
    r = raw.records
    keyed = _KEYED_OPS[r["op"]]
    return _encode(r, r["key_id"][keyed], r["hash"][keyed])


def _check_i32(values: np.ndarray, what: str) -> None:
    big = np.flatnonzero(values > _I32_MAX)
    if big.size:
        raise TraceIntegrityError(f"{what} {values[big[0]]} overflows i32")


def process(raw: RawTrace) -> ProcessedTrace:
    """Full post-processing pipeline: sanitize, coalesce, free-annotate, encode.

    Sanitize runs on the records; then only the columns the later passes
    read are copied out (the row fields of the kept rows, and the key id
    and hash of kept keyed rows), and the records are let go, so a caller
    that holds no reference to `raw` has its bytes freed here. Coalescing,
    free insertion and encoding run on those columns through the same
    kernels as the public passes, and build no record array; the result
    equals `encode(insert_free_events(coalesce(sanitize(raw))))`.
    """
    records = raw.records
    del raw
    keep = _kept_rows(records)
    keyed = keep & _KEYED_OPS[records["op"]]
    key_ids, hashes = records["key_id"][keyed], records["hash"][keyed]
    t = {name: records[name][keep] for name in _ROW_FIELDS}
    del records, keep, keyed

    merge = _merge_plan(t)
    if merge is not None:
        for name in _ROW_FIELDS:
            t[name] = np.delete(t[name], merge.merged)
        t["aux"][merge.heads] = merge.steps
    frees = _free_plan(t)
    values = _free_fields(frees)
    for name in _ROW_FIELDS:
        t[name] = np.insert(t[name], frees.after + 1, values[name])
    return _encode(t, key_ids, hashes)


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
    # On a little-endian host both arrays are read-only views of the payload;
    # a big-endian one byte-swaps them into copies. Nothing writes to them.
    key_hashes = np.frombuffer(
        payload, dtype="<i4", count=key_count, offset=need(4 * key_count, "key hashes")
    ).astype(np.int32, copy=False)
    bounds = need(8, "slot bounds")
    map_slots, iter_slots = struct.unpack_from("<II", payload, bounds)
    (op_count,) = struct.unpack_from("<Q", payload, need(8, "op count"))
    # Each slot's first occupant is created by an op of its own.
    if map_slots + iter_slots > op_count:
        raise TraceFormatError(
            f"{map_slots} map and {iter_slots} iterator slots exceed {op_count} ops",
            offset=bounds,
        )
    ops = np.frombuffer(
        payload, dtype="<i4", count=op_count * 3, offset=need(12 * op_count, "op triples")
    ).astype(np.int32, copy=False)
    if pos != len(payload):
        raise TraceFormatError(
            f"{len(payload) - pos} trailing bytes after op triples", offset=pos
        )

    return ProcessedTrace(
        key_hashes=key_hashes, max_map_slots=map_slots, max_iter_slots=iter_slots, ops=ops
    )


def write_processed(trace: ProcessedTrace, path: str | Path) -> int:
    """Write the MPT1 file; returns its size in bytes."""
    return Path(path).write_bytes(to_bytes(trace))


def read_processed(path: str | Path) -> ProcessedTrace:
    return decode(Path(path).read_bytes())
