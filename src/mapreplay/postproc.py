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

The passes run on the events in ranked form: every map, iterator and key
id renumbered to its dense int32 rank, and each event one int32 row
(word, operand, operand) laid out like the MPT1 triple it becomes, beside
small per-object tables (the raw id of each rank, each key's hash). Each
pass's logic is one kernel of whole-array numpy operations on those rows.
Sanitize's kernel yields a keep mask, coalesce's the rows to merge away
and the step counts to set, free insertion's the free rows and the row
each follows, and encode's kernel rewrites the rows into the opcode
triples. No kernel builds a Python object per event; the one sequential
loop left is slot assignment in encode, which visits only create and free
rows.

The public passes `sanitize`, `coalesce`, `insert_free_events` and
`encode` rank their RawTrace's records, run their kernel, and apply its
result to the records. They never modify their input: each returns a new
RawTrace, or the input's records unchanged when there is nothing to do.
`process` never holds the records: it ranks them from `RawTrace.blocks`,
one block at a time, in two passes (the id tables, then the rows), so a
trace read from a file is ranked straight from it and the only row-sized
array is the int32 rows (12 bytes an event against a record's 40). It
then runs the four kernels on the rows.

A ProcessedTrace is the payload below and nothing else: its size is the
size of the file it is written to or read from, and `stats()` tallies its
op mix on demand.

Processed trace file format: magic "MPT1", u32 version=1, then a single
zlib/DEFLATE stream compressing the payload:

    u32 key count | i32 key hashes | u32 max_map_slots | u32 max_iter_slots |
    u64 op-triple count | op triples (3 x i32 each)

`decode` inflates the payload with the host's libdeflate
(`libdeflate_zlib_decompress_ex`, loaded by soname on the first decode)
when it loads, in one call into an uninitialized buffer of exactly the
payload's size. It first inflates only the header prefix (the key count,
the key hashes, the slot bounds and the op count), in 16 KiB slices of
the stream, and computes the payload size from it; a size beyond
DEFLATE's 1032:1 limit over the stream is not trusted and allocates
nothing. libdeflate checks the stream's adler32 and, like zlib, ignores
input after the stream's end. Where the library does not load, or its
result is anything but exactly that many bytes, decode makes one plain
`zlib.decompress` call, so every error (a corrupt stream, a truncated
payload, trailing bytes) is raised from zlib's result and reads the same
on every host. The decoded arrays are read-only views of the payload.

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
import sys
import zlib
from dataclasses import dataclass
from functools import cache
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
#: Ops whose word carries an outcome bit, and the outcome bytes that set it.
_OUTCOME_OPS = _op_table(_OP.GET, _OP.PUT, _OP.REMOVE, _OP.CONTAINS_KEY, _OP.ITER_ADVANCE)
_YIELDED = np.ones(256, dtype=bool)
_YIELDED[[0, ABSENT_OUTCOME]] = False
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


def _isin(values: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Mask of the values present in sorted, distinct `distinct`."""
    if distinct.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(distinct, values)
    np.minimum(idx, distinct.size - 1, out=idx)
    return distinct[idx] == values


# -- the ranked stream ----------------------------------------------------------------
#
# Every map, iterator and key id becomes its rank among the distinct ids of
# its kind, so rank order is id order. One event is one int32 row:
#
#     word       op kind, outcome bit, IterNew view, Create load factor and
#                spread, as in MPT1; an IterAdvance also keeps its recorded
#                outcome byte in bits 20-27, which coalescing compares
#     operand 1  iterator rank for IterAdvance, IterRemove and FreeIter,
#                map rank for every other op
#     operand 2  key entry for Get/Put/Remove/ContainsKey, source map rank
#                for CreateCopy, iterator rank for IterNew, requested
#                capacity for Create, step count for IterAdvance, else 0
#
# A capacity or step count above 2^31-1 is stored as -(j + 1), its u64
# value in `big[j]`. Key entry e below len(keys) is key rank e with the
# hash recorded for that key; a keyed op that recorded another hash gets
# an entry of its own in `extra`. Both references travel with their row,
# so deleting and inserting rows keeps every field of every event exact.

_RAW_OUTCOME_SHIFT = 20
_RAW_OUTCOME_BITS = 0xFF << _RAW_OUTCOME_SHIFT
#: The word's low byte, the op kind, within a row's 12 bytes.
_OP_BYTE = 0 if sys.byteorder == "little" else 3
#: Records ranked per block (160 KiB of them): a block and its
#: temporaries stay small beside the int32 rows, the only row-sized array
#: while ranking, and a file-backed trace is read in few calls.
_BLOCK = 1 << 12


class _Ranked(NamedTuple):
    """A raw event stream as int32 rows and the tables their ranks index."""

    rows: np.ndarray  # int32 (n, 3): word, operand, operand
    maps: np.ndarray  # u64 raw id of each map rank, sorted
    iters: np.ndarray  # u64 raw id of each iterator rank, sorted
    keys: np.ndarray  # u64 raw id of each key rank, sorted
    key_hash: np.ndarray  # int32 hash recorded for each key rank
    extra: np.ndarray  # int32 (m, 2): (key rank, hash) of key entries from len(keys) on
    big: np.ndarray  # u64 capacities and step counts above 2^31-1
    unstable: np.ndarray  # bool per key rank: recorded with two hashes
    stray: np.ndarray  # int32 (m, 2): (map rank, key rank) of keyless map ops naming a key


def _ops(rows: np.ndarray) -> np.ndarray:
    """The op kind of each row: a uint8 view of the words' low bytes."""
    return rows.view(np.uint8)[:, _OP_BYTE]


def _with_ids(ids: np.ndarray, more: np.ndarray) -> np.ndarray:
    """Sorted distinct `ids` merged with the distinct values of `more`."""
    more = _distinct(more)
    new = more[~_isin(more, ids)]
    return np.insert(ids, np.searchsorted(ids, new), new) if new.size else ids


def _id_tables(raw: RawTrace) -> list[np.ndarray]:
    """Sorted distinct map, iterator and key ids of the records."""
    tables = [np.empty(0, dtype=np.uint64)] * 3
    # No rows exist yet, so these blocks can be larger: fewer table merges.
    for block in raw.blocks(2 * _BLOCK):
        op, map_id, aux, key_id = block["op"], block["map_id"], block["aux"], block["key_id"]
        iter_rows = _ITER_OPS[op]
        found = (
            (map_id[~iter_rows], aux[op == _OP.CREATE_COPY]),
            (map_id[iter_rows], aux[op == _OP.ITER_NEW] >> 2),
            (key_id[(key_id != ABSENT_U64) | _KEYED_OPS[op]],),
        )
        tables = [_with_ids(t, np.concatenate(ids)) for t, ids in zip(tables, found)]
    return tables


def _operand(values: np.ndarray, big: list) -> np.ndarray:
    """int32 operands of u64 values; a value above 2^31-1 is appended to
    `big` and stored as -(its index there + 1)."""
    out = values.astype(np.int32)
    over = np.flatnonzero(values > _I32_MAX)
    if over.size:
        start = sum(map(len, big))
        out[over] = -1 - np.arange(start, start + over.size)
        big.append(values[over])
    return out


def _u64(t: _Ranked, operands: np.ndarray) -> np.ndarray:
    """The u64 values of capacity or step-count operands."""
    values = operands.astype(np.uint64)
    over = np.flatnonzero(operands < 0)
    values[over] = t.big[-1 - operands[over]]
    return values


def _rank(raw: RawTrace) -> _Ranked:
    """Rank a raw trace's records, one block at a time, in two passes:
    the id tables, then the rows."""
    maps, iters, keys = _id_tables(raw)
    # While ranking, `extra`, `big` and `stray` are lists of arrays.
    t = _Ranked(
        rows=np.zeros((len(raw), 3), dtype=np.int32),
        maps=maps,
        iters=iters,
        keys=keys,
        key_hash=np.zeros(keys.size, dtype=np.int32),
        extra=[],
        big=[],
        unstable=np.zeros(keys.size, dtype=bool),
        stray=[],
    )
    seen = np.zeros(keys.size, dtype=bool)
    start = 0
    for block in raw.blocks(_BLOCK):
        row = t.rows[start : start + block.size]
        start += block.size
        row[:, 0] = block["op"]
        _rank_objects(t, block, row)
        _rank_keys(t, seen, block, row)
        _rank_arguments(t, block, row)
    return t._replace(
        extra=np.concatenate([np.empty((0, 2), dtype=np.int32), *t.extra]),
        big=np.concatenate([np.empty(0, dtype=np.uint64), *t.big]),
        stray=np.concatenate([np.empty((0, 2), dtype=np.int32), *t.stray]),
    )


def _rank_objects(t: _Ranked, block: np.ndarray, row: np.ndarray) -> None:
    """The map or iterator rank of each record of a block."""
    map_id, first = block["map_id"], row[:, 1]
    iter_rows = _ITER_OPS[block["op"]]
    if iter_rows.any():
        first[iter_rows] = np.searchsorted(t.iters, map_id[iter_rows])
        iter_rows = ~iter_rows
        first[iter_rows] = np.searchsorted(t.maps, map_id[iter_rows])
    else:
        first[:] = np.searchsorted(t.maps, map_id)


def _rank_keys(t: _Ranked, seen: np.ndarray, block: np.ndarray, row: np.ndarray) -> None:
    """Key entries of a block's keyed ops, and sanitize's hash analysis.

    The keys are those named on any op, and those of keyed ops even when
    absent, which encode indexes like any other. Each key's recorded hash
    is fixed by the block that first names it; a key is unstable when a
    record naming it, on any op, differs from that hash.
    """
    op, key_id = block["op"], block["key_id"]
    named = key_id != ABSENT_U64
    keyed = _KEYED_OPS[op]
    at = np.flatnonzero(named | keyed)
    key = np.searchsorted(t.keys, key_id[at]).astype(np.int32)
    hashes = block["hash"][at]
    fresh = ~seen[key]
    if fresh.any():
        t.key_hash[key[fresh]] = hashes[fresh]
        seen[key[fresh]] = True
    named, keyed = named[at], keyed[at]
    other = hashes != t.key_hash[key]
    if other.any():
        t.unstable[key[other & named]] = True
        # A keyed op recording another hash than its key's gets an entry.
        other &= keyed
        if other.any():
            entries = t.keys.size + sum(map(len, t.extra))
            t.extra.append(np.column_stack((key[other], hashes[other])))
            key[other] = np.arange(entries, entries + len(t.extra[-1]))
    second = row[:, 2]
    second[at[keyed]] = key[keyed]
    if not keyed.all():
        # A map op that takes no key can still poison its map with one.
        off = ~keyed & _MAP_OPS[op[at]]
        t.stray.append(np.column_stack((row[at[off], 1], key[off])))


def _rank_arguments(t: _Ranked, block: np.ndarray, row: np.ndarray) -> None:
    """The word flags and argument operands of a block's records."""
    op, aux, outcome = block["op"], block["aux"], block["outcome"]
    words, second = row[:, 0], row[:, 2]
    words[_OUTCOME_OPS[op] & _YIELDED[outcome]] |= OUTCOME_BIT
    count = np.bincount(op, minlength=256)
    if count[_OP.ITER_ADVANCE]:
        advances = np.flatnonzero(op == _OP.ITER_ADVANCE)
        words[advances] |= outcome[advances].astype(np.int32) << _RAW_OUTCOME_SHIFT
        second[advances] = _operand(aux[advances], t.big)
    if count[_OP.CREATE]:
        creates = np.flatnonzero(op == _OP.CREATE)
        create_aux = aux[creates]
        lf = (create_aux >> 32) & LF_MASK
        spread = (create_aux >> 42) & 1
        words[creates] |= ((lf << LF_SHIFT) | (spread * SPREAD_BIT)).astype(np.int32)
        second[creates] = _operand(create_aux & 0xFFFFFFFF, t.big)
    if count[_OP.ITER_NEW]:
        news = np.flatnonzero(op == _OP.ITER_NEW)
        words[news] |= ((aux[news] & VIEW_MASK) << VIEW_SHIFT).astype(np.int32)
        second[news] = np.searchsorted(t.iters, aux[news] >> 2)
    if count[_OP.CREATE_COPY]:
        copies = np.flatnonzero(op == _OP.CREATE_COPY)
        second[copies] = np.searchsorted(t.maps, aux[copies])


def _entry_keys(t: _Ranked, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The key rank and the recorded hash of each key entry."""
    if not t.extra.size:
        return entries, t.key_hash[entries]
    own = np.flatnonzero(entries >= t.keys.size)
    ranks = entries.copy()
    ranks[own] = t.extra[entries[own] - t.keys.size, 0]
    hashes = t.key_hash[ranks]
    hashes[own] = t.extra[entries[own] - t.keys.size, 1]
    return ranks, hashes


def _owners(t: _Ranked) -> np.ndarray:
    """The map rank owning each iterator rank, -1 for one with no IterNew.

    The owner is the map of the iterator's last IterNew row.
    """
    news = np.flatnonzero(_ops(t.rows) == _OP.ITER_NEW)[::-1]
    its, last = np.unique(t.rows[news, 2], return_index=True)
    owner = np.full(t.iters.size, -1, dtype=np.int32)
    owner[its] = t.rows[news[last], 1]
    return owner


def _owners_of(t: _Ranked, owner: np.ndarray, iter_ranks: np.ndarray) -> np.ndarray:
    """Owning map rank of each iterator; every one must have an IterNew."""
    maps = owner[iter_ranks]
    missing = np.flatnonzero(maps < 0)
    if missing.size:
        bad = t.iters[iter_ranks[missing[0]]]
        raise TraceIntegrityError(f"iterator {bad} has no IterNew event")
    return maps


# -- pass kernels ---------------------------------------------------------------------
#
# Each kernel reads a _Ranked stream and returns what its pass changes. The
# public passes rank their RawTrace's records and apply the result to
# those records; `process` ranks once and applies each result to the rows.


def _kept_rows(t: _Ranked) -> np.ndarray:
    """Sanitize's kernel: the mask of rows that survive."""
    rows = t.rows
    op = _ops(rows)
    map_of = rows[:, 1]  # a map rank on every row but the iterator ops'

    dropped = np.zeros(t.maps.size, dtype=bool)  # poisoned, foreign, and copies of those
    if t.unstable.any():
        keyed = np.flatnonzero(_KEYED_OPS[op])
        poisoned = t.unstable[_entry_keys(t, rows[keyed, 2])[0]]
        dropped[map_of[keyed[poisoned]]] = True
        dropped[t.stray[t.unstable[t.stray[:, 1]], 0]] = True

    copies = np.flatnonzero(op == _OP.CREATE_COPY)
    copy_ids, sources = map_of[copies], rows[copies, 2]
    referenced = np.zeros(t.maps.size, dtype=bool)
    referenced[map_of[_MAP_OPS[op]]] = True
    referenced[sources] = True
    created = np.zeros(t.maps.size, dtype=bool)
    created[map_of[_CREATES[op]]] = True
    dropped |= referenced & ~created
    while True:  # copies of dropped maps, transitively
        orphaned = copy_ids[dropped[sources] & ~dropped[copy_ids]]
        if orphaned.size == 0:
            break
        dropped[orphaned] = True

    iter_rows = _ITER_OPS[op]
    keep = np.empty(len(rows), dtype=bool)
    keep[~iter_rows] = ~dropped[map_of[~iter_rows]]
    owner = _owners(t)[map_of[iter_rows]]
    owned = owner >= 0
    owned[owned] = ~dropped[owner[owned]]
    keep[iter_rows] = owned
    return keep


def sanitize(raw: RawTrace) -> RawTrace:
    """Drop events that cannot be replayed consistently.

    Removed: activity on maps with no creation event in the trace
    (foreign maps), on maps that touched a key whose recorded hash was
    unstable (poisoned), on copies of removed maps (transitively), and on
    iterators of removed maps. Order of surviving events is unchanged.
    """
    r = raw.records
    keep = _kept_rows(_rank(RawTrace(r)))
    return RawTrace(r if keep.all() else r[keep])


class _Merge(NamedTuple):
    """Coalesce's plan: rows to delete, then step counts to set."""

    merged: np.ndarray  # sorted rows of advances folded into an earlier one
    heads: np.ndarray  # each run's first advance, as a row after the deletion
    steps: np.ndarray  # each run's step count, u64


def _merge_plan(t: _Ranked) -> _Merge | None:
    """Coalesce's kernel; None when the stream has no advances."""
    rows = t.rows
    op = _ops(rows)
    adv = np.flatnonzero(op == _OP.ITER_ADVANCE)
    if adv.size == 0:
        return None
    owner = _owners(t)

    # Only mutations between the first and last advance can split a run.
    muts = np.flatnonzero(_RUN_BREAKERS[op[adv[0] : adv[-1]]]) + adv[0]
    mut_maps = rows[muts, 1]
    through_iter = op[muts] == _OP.ITER_REMOVE
    mut_maps[through_iter] = _owners_of(t, owner, mut_maps[through_iter])

    # Group the advances by iterator, in stream order within each group.
    adv = adv[np.argsort(rows[adv, 1], kind="stable")]
    iters = rows[adv, 1]
    joins = np.zeros(adv.size, dtype=bool)
    joins[1:] = iters[1:] == iters[:-1]
    epochs = _epochs(mut_maps, muts, _owners_of(t, owner, iters), adv)
    joins[1:] &= epochs[1:] == epochs[:-1]
    outcomes = rows[adv, 0] & _RAW_OUTCOME_BITS
    joins[1:] &= outcomes[1:] == outcomes[:-1]

    heads = np.flatnonzero(~joins)
    steps = np.add.reduceat(_u64(t, rows[adv, 2]), heads)
    steps[outcomes[heads] == 0] = 1
    merged = np.sort(adv[joins])
    head_rows = adv[heads]
    return _Merge(merged, head_rows - np.searchsorted(merged, head_rows), steps)


def _epochs(mut_maps: np.ndarray, muts: np.ndarray, maps: np.ndarray, rows: np.ndarray):
    """Mutation epoch of map rank `maps[i]` at row `rows[i]`.

    The epoch is the number of mutations (`mut_maps`, `muts`) that sort
    before (map, row) by map, then row. Between two rows of one map it
    moves exactly when that map was mutated in between.
    """
    stride = max(int(muts.max(initial=0)), int(rows.max(initial=0))) + 1
    keys = np.sort(mut_maps.astype(np.int64) * stride + muts)
    return np.searchsorted(keys, maps.astype(np.int64) * stride + rows)


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
    merge = _merge_plan(_rank(RawTrace(r)))
    if merge is None:
        return RawTrace(r)
    out = np.delete(r, merge.merged)
    out["aux"][merge.heads] = merge.steps
    return RawTrace(out)


def _coalesced(t: _Ranked, merge: _Merge) -> _Ranked:
    rows = np.delete(t.rows, merge.merged, axis=0)
    big = [t.big]
    rows[merge.heads, 2] = _operand(merge.steps, big)
    return t._replace(rows=rows, big=np.concatenate(big))


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
    ids: np.ndarray  # the rank of the iterator or map freed
    after: np.ndarray  # the row each free follows, before insertion


def _free_plan(t: _Ranked) -> _Frees:
    """Free insertion's kernel."""
    rows = t.rows
    op = _ops(rows)
    iter_rows = np.flatnonzero(_ITER_OPS[op])
    copies = np.flatnonzero(op == _OP.CREATE_COPY)
    news = np.flatnonzero(op == _OP.ITER_NEW)

    # Every row uses one map (iterator ops: the iterator's owner); reduce
    # that column to a last row per map, then add the uses by copies.
    map_of_row = rows[:, 1].copy()
    map_of_row[iter_rows] = _owners_of(t, _owners(t), rows[iter_rows, 1])
    maps, map_last = _last_rows(map_of_row)
    del map_of_row
    maps, map_last = _last_use(
        np.concatenate((maps, rows[copies, 2])), np.concatenate((map_last, copies))
    )
    iters, iter_last = _last_use(
        np.concatenate((rows[iter_rows, 1], rows[news, 2])), np.concatenate((iter_rows, news))
    )

    ops = np.full(iters.size + maps.size, _OP.FREE_MAP, dtype=np.uint8)
    ops[: iters.size] = _OP.FREE_ITER
    ids = np.concatenate((iters, maps))
    after = np.concatenate((iter_last, map_last))
    order = np.lexsort((ids, ops == _OP.FREE_MAP, after))
    return _Frees(ops[order], ids[order], after[order])


def insert_free_events(raw: RawTrace) -> RawTrace:
    """Place one FreeMap/FreeIter directly after each object's last use.

    A map's uses include every event of its iterators and every copy made
    from it, so the map is provably final when its free event runs. Frees
    after one row come iterators first, then maps, each in id order, and
    take that row's thread id.
    """
    r = raw.records
    t = _rank(RawTrace(r))
    frees = _free_plan(t)
    rows = np.zeros(frees.after.size, dtype=RAW_DTYPE)
    rows["op"] = frees.op
    of_iter = frees.op == _OP.FREE_ITER
    rows["map_id"][of_iter] = t.iters[frees.ids[of_iter]]
    rows["map_id"][~of_iter] = t.maps[frees.ids[~of_iter]]
    rows["key_id"] = ABSENT_U64
    rows["hash"] = ABSENT_HASH
    rows["outcome"] = ABSENT_OUTCOME
    rows["thread_id"] = r["thread_id"][frees.after]
    return RawTrace(np.insert(r, frees.after + 1, rows))


def _freed(t: _Ranked, frees: _Frees) -> _Ranked:
    rows = np.zeros((frees.after.size, 3), dtype=np.int32)
    rows[:, 0] = frees.op
    rows[:, 1] = frees.ids
    return t._replace(rows=np.insert(t.rows, frees.after + 1, rows, axis=0))


class _Lifetimes(NamedTuple):
    """One row per object, sorted by rank: its slot and first and last row."""

    ids: np.ndarray
    slot: np.ndarray
    first: np.ndarray
    last: np.ndarray


def _assign_slots(obj_ids: np.ndarray, acquires: np.ndarray, rows: np.ndarray, names):
    """Lowest-free-first slots over one object kind's create/free rows.

    `obj_ids`, `acquires` and `rows` describe the create (acquire) and free
    rows in stream order; `names` holds the raw id of each object rank.
    Returns the lifetimes and the slot-table size.
    """
    created = obj_ids[acquires]
    ids, first = np.unique(created, return_index=True)
    if ids.size != created.size:
        twice = names[np.delete(created, first)[0]]
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
                raise TraceIntegrityError(f"object {names[obj]} is not live")
            heapq.heappush(free, slot)
        slots[j] = slot
    if live:
        raise TraceIntegrityError("input is missing free events; run insert_free_events first")

    freed = np.argsort(obj_ids[~acquires])  # each created object is freed exactly once
    lives = _Lifetimes(ids, slots[acquires][first], rows[acquires][first], rows[~acquires][freed])
    return lives, high_water


#: Entries looked up per chunk by `_slots_at`, so that its intp and int64
#: temporaries stay small beside the int32 rows.
_LOOKUP_CHUNK = 1 << 13


def _slots_at(
    lives: _Lifetimes, obj_ids: np.ndarray, rows: np.ndarray | None, names, uses=None
):
    """Slot of the object named at each row.

    `rows` holds the row of each entry of `obj_ids`; None means entry j
    is row j. Every object named where `uses` is set (everywhere by
    default) must be live at its row, its own create and free rows
    included. Other rows get an arbitrary slot.
    """
    slots = np.zeros(obj_ids.size, dtype=np.int32)
    for start in range(0, obj_ids.size, _LOOKUP_CHUNK):
        part = slice(start, start + _LOOKUP_CHUNK)
        ids = obj_ids[part]
        at = np.arange(start, start + ids.size) if rows is None else rows[part]
        if lives.ids.size == 0:
            live = np.zeros(ids.shape, dtype=bool)
        else:
            i = np.searchsorted(lives.ids, ids)
            np.minimum(i, lives.ids.size - 1, out=i)
            live = lives.ids[i] == ids
            live &= lives.first[i] <= at
            live &= at <= lives.last[i]
            slots[part] = lives.slot[i]
        dead = np.flatnonzero(~live if uses is None else uses[part] & ~live)
        if dead.size:
            bad = dead[0]
            raise TraceIntegrityError(f"object {names[ids[bad]]} is not live at event {at[bad]}")
    return slots


def _key_indexes(t: _Ranked, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense key index of each keyed row's entry, in first-use order, and
    the hash table."""
    ranks, hashes = _entry_keys(t, entries)
    first_use = np.full(t.keys.size, ranks.size)
    np.minimum.at(first_use, ranks, np.arange(ranks.size))
    by_first_use = np.argsort(first_use)[: np.count_nonzero(first_use < ranks.size)]
    index_of = np.empty(t.keys.size, dtype=np.int32)
    index_of[by_first_use] = np.arange(by_first_use.size, dtype=np.int32)
    index = index_of[ranks]
    table = hashes[first_use[by_first_use]]
    changed = np.flatnonzero(hashes != table[index])
    if changed.size:
        raise TraceIntegrityError(
            f"key {t.keys[ranks[changed[0]]]} hash changed; trace was not sanitized"
        )
    return index, table


def _encode(t: _Ranked) -> ProcessedTrace:
    """Encode's kernel: rewrites `t.rows` into the opcode triples, in place."""
    rows = t.rows
    op = _ops(rows)

    keyed = _KEYED_OPS[op]
    key_index, key_hashes = _key_indexes(t, rows[keyed, 2])
    rows[keyed, 2] = key_index
    del keyed, key_index

    # Read the iterator and copy operands before map slots overwrite them.
    iter_rows = np.flatnonzero(_ITER_OPS[op])
    iter_ranks = rows[iter_rows, 1]
    iter_life = np.flatnonzero((op == _OP.ITER_NEW) | (op == _OP.FREE_ITER))
    news = op[iter_life] == _OP.ITER_NEW
    iter_ids = np.where(news, rows[iter_life, 2], rows[iter_life, 1])
    copies = np.flatnonzero(op == _OP.CREATE_COPY)
    copy_ids, sources = rows[copies, 1], rows[copies, 2]

    # Map slots. Every map op, creates and frees included, names its map in
    # operand 1; iterator ops name their iterator there and are rewritten below.
    life = np.flatnonzero(_CREATES[op] | (op == _OP.FREE_MAP))
    map_lives, max_map_slots = _assign_slots(rows[life, 1], _CREATES[op[life]], life, t.maps)
    rows[:, 1] = _slots_at(map_lives, rows[:, 1], None, t.maps, _MAP_OPS[op])
    self_copies = np.flatnonzero(sources == copy_ids)
    if self_copies.size:
        raise TraceIntegrityError(
            f"map {t.maps[sources[self_copies[0]]]} is not live before its copy"
        )
    rows[copies, 2] = _slots_at(map_lives, sources, copies, t.maps)

    # Iterator slots: IterNew acquires the iterator in operand 2, FreeIter releases.
    iter_lives, max_iter_slots = _assign_slots(iter_ids, news, iter_life, t.iters)
    rows[iter_life[news], 2] = _slots_at(iter_lives, iter_ids[news], iter_life[news], t.iters)
    rows[iter_rows, 1] = _slots_at(iter_lives, iter_ranks, iter_rows, t.iters)

    rows[:, 0] &= ~_RAW_OUTCOME_BITS
    _check_i32(t, rows[op == _OP.CREATE, 2], "requested capacity")
    _check_i32(t, rows[op == _OP.ITER_ADVANCE, 2], "advance step count")

    return ProcessedTrace(
        key_hashes=key_hashes,
        max_map_slots=max_map_slots,
        max_iter_slots=max_iter_slots,
        ops=rows.ravel(),
    )


def encode(raw: RawTrace) -> ProcessedTrace:
    """Pack a sanitized, coalesced, free-annotated stream into opcode triples.

    Every object must be created once, used only while live, and freed
    once; anything else raises TraceIntegrityError.
    """
    return _encode(_rank(raw))


def _check_i32(t: _Ranked, operands: np.ndarray, what: str) -> None:
    big = np.flatnonzero(operands < 0)
    if big.size:
        raise TraceIntegrityError(f"{what} {t.big[-1 - operands[big[0]]]} overflows i32")


def process(raw: RawTrace) -> ProcessedTrace:
    """Full post-processing pipeline: sanitize, coalesce, free-annotate, encode.

    The records are ranked from `raw.blocks`, one block at a time, into
    int32 rows and small per-object tables; a trace from `read_raw_trace`
    is read from its file block by block and never held whole, and an
    in-memory one is let go here when the caller holds no other reference
    to it. Sanitizing, coalescing and free insertion select, delete and
    insert rows through the same kernels as the public passes, and
    encoding rewrites the rows into the opcode triples in place; the
    result equals `encode(insert_free_events(coalesce(sanitize(raw))))`.
    """
    t = _rank(raw)
    del raw
    keep = _kept_rows(t)
    if not keep.all():
        t = t._replace(rows=t.rows[keep])
    del keep
    merge = _merge_plan(t)
    if merge is not None:
        t = _coalesced(t, merge)
    t = _freed(t, _free_plan(t))
    return _encode(t)


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


#: DEFLATE's largest expansion: a 258-byte match costs at least 2 bits.
_MAX_INFLATE_RATIO = 1032
_LIBDEFLATE_SONAMES = ("libdeflate.so.0", "libdeflate.0.dylib", "libdeflate.dll")
_PREFIX_CHUNK = 1 << 14


def _payload_size(body: memoryview) -> int | None:
    """The payload size the stream's header prefix declares, or None when
    the prefix does not inflate or the size exceeds what the stream can
    inflate to.

    The stream is fed in slices of `_PREFIX_CHUNK` bytes, so the input a
    decompressor keeps once it has inflated enough (its `unconsumed_tail`,
    a copy) is at most one slice, not the rest of the body.
    """
    limit = _MAX_INFLATE_RATIO * len(body)
    z = zlib.decompressobj()
    out = bytearray()
    want, pos = 4, 0
    try:
        while len(out) < want:
            if z.unconsumed_tail:
                chunk = z.unconsumed_tail
            elif pos < len(body) and not z.eof:
                chunk, pos = body[pos : pos + _PREFIX_CHUNK], pos + _PREFIX_CHUNK
            else:
                return None
            out += z.decompress(chunk, want - len(out))
            if want == 4 and len(out) == 4:
                want = 4 + 4 * struct.unpack("<I", out)[0] + 16
                if want > limit:
                    return None
    except zlib.error:
        return None
    size = want + 12 * struct.unpack_from("<Q", out, want - 8)[0]
    return size if size <= limit else None


@cache
def _libdeflate():
    """An inflater `(body, size) -> read-only uint8 array | None` backed by
    the host's libdeflate, or None when the library does not load.

    Loaded on the first decode, by fixed sonames: `ctypes.util.find_library`
    would start ldconfig or compiler subprocesses. The inflater returns
    None unless the stream inflates to exactly `size` bytes with a good
    adler32. It allocates a decompressor per call, since ctypes releases
    the GIL and a decompressor is not thread-safe.
    """
    import ctypes

    for name in _LIBDEFLATE_SONAMES:
        try:
            lib = ctypes.CDLL(name)
            run = lib.libdeflate_zlib_decompress_ex
        except (OSError, AttributeError):
            continue
        break
    else:
        return None
    size_p = ctypes.POINTER(ctypes.c_size_t)
    alloc, free = lib.libdeflate_alloc_decompressor, lib.libdeflate_free_decompressor
    alloc.argtypes, alloc.restype = [], ctypes.c_void_p
    free.argtypes, free.restype = [ctypes.c_void_p], None
    run.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
                    ctypes.c_void_p, ctypes.c_size_t, size_p, size_p]
    run.restype = ctypes.c_int

    def inflate(body: memoryview, size: int) -> np.ndarray | None:
        src = np.frombuffer(body, dtype=np.uint8)
        out = np.empty(size, dtype=np.uint8)
        d = alloc()
        if not d:
            return None
        used, made = ctypes.c_size_t(), ctypes.c_size_t()
        try:
            # 0 is LIBDEFLATE_SUCCESS; with both counts asked for, input
            # after the stream's end is allowed, as zlib allows it.
            result = run(d, src.ctypes.data, src.size, out.ctypes.data, size,
                         ctypes.byref(used), ctypes.byref(made))
        finally:
            free(d)
        if result != 0 or made.value != size:
            return None
        out.flags.writeable = False
        return out

    return inflate


def decode(data: bytes) -> ProcessedTrace:
    if len(data) < 8:
        raise TraceFormatError("shorter than the 8-byte header", offset=0)
    if data[:4] != MAGIC:
        raise TraceFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", offset=0)
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise TraceFormatError(f"unsupported version {version}", offset=4)
    body = memoryview(data)[8:]
    inflate = _libdeflate()
    size = _payload_size(body) if inflate is not None else None
    payload = inflate(body, size) if size is not None else None
    if payload is None:
        try:
            payload = zlib.decompress(body)
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
