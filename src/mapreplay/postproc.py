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
small per-object tables (the raw id of each rank, each key's hash, each
iterator's owning map, found once, while ranking). The passes trust the
records they rank: every RawTrace has checked them, and ranking refuses,
at the field's MRT1 byte offset, what a row cannot hold (see the ranked
stream below), so each operand is the int32 it becomes.
Each pass's logic is one kernel of whole-array numpy operations on those
rows.
Sanitize's kernel yields a keep mask, coalesce's the rows to merge away
and the step counts to set, free insertion's the free rows and the row
each follows, and encode's kernel rewrites the rows into the opcode
triples: it gives each map and iterator rank a slot and a lifetime (its
create and free rows) and each key rank its index, then looks every
operand up by its rank. No kernel builds a Python object per event; the
one Python loop left is slot assignment in encode, which visits only
create and free rows.

The public passes `sanitize`, `coalesce`, `insert_free_events` and
`encode` rank their RawTrace's records, run their kernel, and apply its
result to the records. They never modify their input: each returns a new
RawTrace, or the input's records unchanged when there is nothing to do.
They stay for the layer benchmark, which times each pass. The oracle for
both them and `process` is the plain-Python reference distiller in
`tests/reference_distill.py`, written from the format specifications and
the pass docstrings: the tests hold each pass to its stage and `process`
to its trace, byte for byte.
`process` never holds the records: it ranks them from `RawTrace.blocks`,
one block at a time, in two passes (the id tables, then the rows), so a
trace read from a file is ranked straight from it and the only row-sized
array is one int32 row buffer (12 bytes an event against a record's 40).
The buffer is allocated once, once the id tables are known, with room
after the events for one free row per distinct map and iterator id, the
most free insertion can add. It then runs the four kernels and edits the
rows in place in that buffer: sanitize's and coalesce's deletions move
the kept rows toward the front, and free insertion moves rows toward the
back, starting from the end, and writes the free rows into the gaps, each
a chunk of rows at a time; encode then rewrites the rows in place, also
a chunk at a time. No pass copies the rows; the plans over them (coalesce's
per-advance index arrays, the last row of each object, encode's per-rank
tables) are int32, per object, or built a chunk at a time.

A ProcessedTrace is the payload below and nothing else: its size is the
size of the file it is written to or read from, and `stats()` tallies its
op mix on demand.

Processed trace file format: magic "MPT1", u32 version=1, then a single
zlib/DEFLATE stream compressing the payload:

    u32 key count | i32 key hashes | u32 max_map_slots | u32 max_iter_slots |
    u64 op-triple count | op triples (3 x i32 each)

`decode` inflates the payload with the host's libdeflate
(`libdeflate_zlib_decompress_ex`, loaded by soname on the first decode)
when it loads, in one call into an uninitialized buffer 32 times the
stream's size, which holds the payload of every built-in workload (3 to
28 times its stream). A payload that does not fit is inflated again into
a buffer 4 times the last, never past DEFLATE's 1032:1 limit over the
stream, and the buffer is then shrunk in place to the bytes made. Every
size comes from the stream, none from the payload, so decode allocates
nothing of the size a forged count declares. libdeflate checks the
stream's adler32 and, like zlib, ignores input after the stream's end.
Where the library does not load, or the stream does not inflate within
that limit, decode inflates with zlib, 64 KiB at a time into one buffer,
so every DEFLATE error (a corrupt stream, a bad adler32) is raised from
zlib's result, worded as `zlib.decompress` words it, and reads the same
on every host. Both paths hand the parser the same read-only payload, so
a truncated payload or trailing bytes raise the same error on either.
The decoded arrays are read-only views of the payload.

Each triple is (word, operand1, operand2). The word carries the op kind in
bits 0-7 plus op-specific flags: outcome in bit 8 (hit/update/yielded);
for IterNew the view in bits 9-10; for Create the load factor thousandths
in bits 9-18 and the spread flag in bit 19, always 1, since every map
spreads its hashes (a raw Create with its spread bit clear is refused on
reading, and replay refuses an MPT1 Create with it clear). Operands:

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
from .tracer import _CHECK_BLOCK, unpack_create_aux
from .tracer import _CREATES, _ITER_OPS, _KEYED_OPS, _MAP_OPS, _OP, _field_offset, _op_table

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


# One sort rule: every sort and argsort here is stable (np.lexsort always
# is), and `process` calls no np.insert, np.isin or plain np.unique. A
# process maps numpy's code pages as it first runs them, and they count in
# its peak RSS: the default quicksort kernels, np.insert and default-kind
# argsorts each map their own (the quicksort of u64 ids alone ~256 kB),
# while stable sorts of every dtype here share one family of kernels.
# Plain np.unique, and np.isin/union1d/setdiff1d built on it, also import
# numpy.ma on first use: ~13 ms and over 1 MB resident in a fresh process.
# np.unique with return_index sorts stably and takes another path, so it
# is fine. A sort's values do not depend on its kind, and no argsort here
# has a tie that survives, so no output does either.


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, by the stable sort set operations here use."""
    values = np.sort(values, kind="stable")
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


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
#     operand 2  key rank for Get/Put/Remove/ContainsKey, source map rank
#                for CreateCopy, iterator rank for IterNew, requested
#                capacity for Create, step count for IterAdvance, else 0
#
# Every record of a RawTrace is checked where it enters (see tracer), and
# ranking refuses the operands that would not fit a row, each with a
# TraceFormatError at the field's MRT1 offset: a keyed op with no key id,
# any other op naming a key, and a Create capacity or IterAdvance step
# count above 2^31-1 (within a block, a key-id fault before an operand
# fault). So every operand is the int32 it becomes, and a row
# is all the passes read of its event; coalescing refuses a merged step
# count above 2^31-1 (TraceIntegrityError). A key recorded with two
# hashes keeps the first in `key_hash` and is marked `unstable`: sanitize
# drops every map that used it, and encode refuses it.

_RAW_OUTCOME_SHIFT = 20
_RAW_OUTCOME_BITS = 0xFF << _RAW_OUTCOME_SHIFT
#: The word's low byte, the op kind, within a row's 12 bytes.
_OP_BYTE = 0 if sys.byteorder == "little" else 3


class _Ranked(NamedTuple):
    """A raw event stream as int32 rows and the tables their ranks index."""

    rows: np.ndarray  # int32 (n, 3): word, operand, operand; the first n rows of `buffer`
    buffer: np.ndarray  # int32 (n + maps + iterators, 3): the rows, then room for the frees
    maps: np.ndarray  # u64 raw id of each map rank, sorted
    iters: np.ndarray  # u64 raw id of each iterator rank, sorted
    keys: np.ndarray  # u64 raw id of each key rank, sorted
    key_hash: np.ndarray  # int32 hash first recorded for each key rank
    unstable: np.ndarray  # bool per key rank: recorded with two hashes
    owner: np.ndarray  # int32 map rank of each iterator rank's last IterNew, -1 for none


def _ops(rows: np.ndarray) -> np.ndarray:
    """The op kind of each row: a uint8 view of the words' low bytes."""
    return rows.view(np.uint8)[:, _OP_BYTE]


def _id_tables(raw: RawTrace) -> list[np.ndarray]:
    """Sorted distinct map, iterator and key ids of the records.

    Each block's distinct ids wait until they outnumber their table, then
    join it in one stable sort, which merges the sorted runs it is given:
    a table is copied only once the ids that waited pay for it.
    """
    tables = [np.empty(0, dtype=np.uint64)] * 3
    waiting: list[list[np.ndarray]] = [[], [], []]
    # No rows exist yet, so these blocks can be larger: fewer table merges.
    for block in raw.blocks(2 * _CHECK_BLOCK):
        op, map_id, aux, key_id = block["op"], block["map_id"], block["aux"], block["key_id"]
        iter_rows = _ITER_OPS[op]
        found = (
            (map_id[~iter_rows], aux[op == _OP.CREATE_COPY]),
            (map_id[iter_rows], aux[op == _OP.ITER_NEW] >> 2),
            (key_id[_KEYED_OPS[op]],),
        )
        for k, ids in enumerate(found):
            waiting[k].append(_distinct(np.concatenate(ids)))
            if sum(map(len, waiting[k])) > tables[k].size:
                tables[k] = _distinct(np.concatenate((tables[k], *waiting[k])))
                waiting[k] = []
    return [_distinct(np.concatenate((t, *w))) for t, w in zip(tables, waiting)]


def _rank(raw: RawTrace) -> _Ranked:
    """Rank a raw trace's records, one block at a time, in two passes:
    the id tables, then the rows."""
    maps, iters, keys = _id_tables(raw)
    # One free row per map and per iterator fits after the events, so
    # every pass edits the rows in this one buffer.
    buffer = np.zeros((len(raw) + maps.size + iters.size, 3), dtype=np.int32)
    t = _Ranked(
        rows=buffer[: len(raw)],
        buffer=buffer,
        maps=maps,
        iters=iters,
        keys=keys,
        key_hash=np.zeros(keys.size, dtype=np.int32),
        unstable=np.zeros(keys.size, dtype=bool),
        owner=np.full(iters.size, -1, dtype=np.int32),
    )
    seen = np.zeros(keys.size, dtype=bool)
    start = 0
    # Ranked a block at a time, as RawTrace checks them (160 KiB of
    # records): a block and its temporaries stay small beside the rows, the
    # only row-sized array here, and a file-backed trace is read in few calls.
    for block in raw.blocks(_CHECK_BLOCK):
        row = t.rows[start : start + block.size]
        row[:, 0] = block["op"]
        _rank_objects(t, block, row)
        _rank_keys(t, seen, block, row, start)
        _rank_arguments(t, block, row, start)
        start += block.size
    return t


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


def _rank_keys(
    t: _Ranked, seen: np.ndarray, block: np.ndarray, row: np.ndarray, first: int
) -> None:
    """Key ranks of a block's keyed ops, and sanitize's hash analysis.

    The block starts at record `first`. Each key's recorded hash is fixed
    by the block that first names it; a key is unstable when a record
    naming it differs from that hash.
    """
    op, key_id = block["op"], block["key_id"]
    keyed = _KEYED_OPS[op]
    wrong = np.flatnonzero(keyed == (key_id == ABSENT_U64))
    if wrong.size:
        i = int(wrong[0])
        kind = RawOpKind(op[i]).name
        raise TraceFormatError(
            f"{kind} record has no key id" if keyed[i]
            else f"{kind} record names key {key_id[i]} but takes no key",
            offset=_field_offset(first + i, "key_id"),
        )
    at = np.flatnonzero(keyed)
    key = np.searchsorted(t.keys, key_id[at]).astype(np.int32)
    hashes = block["hash"][at]
    fresh = ~seen[key]
    if fresh.any():
        t.key_hash[key[fresh]] = hashes[fresh]
        seen[key[fresh]] = True
    t.unstable[key[hashes != t.key_hash[key]]] = True
    row[at, 2] = key


def _refuse_above_i32(values: np.ndarray, at: np.ndarray, first: int, what: str) -> None:
    """Refuse the first of a block's aux `values` above 2^31-1; `at` holds
    each value's record in the block, which starts at record `first`."""
    over = np.flatnonzero(values > _I32_MAX)
    if over.size:
        raise TraceFormatError(
            f"{what} {values[over[0]]} overflows i32",
            offset=_field_offset(first + int(at[over[0]]), "aux"),
        )


def _rank_arguments(t: _Ranked, block: np.ndarray, row: np.ndarray, first: int) -> None:
    """The word flags and argument operands of a block's records, which
    start at record `first`, and each owner their IterNews give: a later
    IterNew, in this block or a later one, overwrites an earlier one."""
    op, aux, outcome = block["op"], block["aux"], block["outcome"]
    words, second = row[:, 0], row[:, 2]
    words[_OUTCOME_OPS[op] & _YIELDED[outcome]] |= OUTCOME_BIT
    count = np.bincount(op, minlength=256)
    if count[_OP.ITER_ADVANCE]:
        advances = np.flatnonzero(op == _OP.ITER_ADVANCE)
        steps = aux[advances]
        _refuse_above_i32(steps, advances, first, "IterAdvance step count")
        words[advances] |= outcome[advances].astype(np.int32) << _RAW_OUTCOME_SHIFT
        second[advances] = steps
    if count[_OP.CREATE]:
        creates = np.flatnonzero(op == _OP.CREATE)
        capacity, lf = unpack_create_aux(aux[creates])
        _refuse_above_i32(capacity, creates, first, "Create capacity")
        words[creates] |= ((lf << LF_SHIFT) | SPREAD_BIT).astype(np.int32)
        second[creates] = capacity
    if count[_OP.ITER_NEW]:
        news = np.flatnonzero(op == _OP.ITER_NEW)
        words[news] |= ((aux[news] & VIEW_MASK) << VIEW_SHIFT).astype(np.int32)
        second[news] = np.searchsorted(t.iters, aux[news] >> 2)
        news = news[::-1]  # np.unique keeps each iterator's first index: its last IterNew
        its, last = np.unique(second[news], return_index=True)
        t.owner[its] = row[news[last], 1]
    if count[_OP.CREATE_COPY]:
        copies = np.flatnonzero(op == _OP.CREATE_COPY)
        second[copies] = np.searchsorted(t.maps, aux[copies])


#: Rows moved, looked up or scanned per chunk by the in-place edits and
#: the chunked kernels, so that their temporaries stay small beside the
#: rows.
_CHUNK = 1 << 13


def _chunks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each chunk of `n` rows, in order."""
    return [(start, min(start + _CHUNK, n)) for start in range(0, n, _CHUNK)]


def _index_dtype(n: int) -> type:
    """The narrowest dtype indexing `n` rows: int32 up to 2^31-1."""
    return np.int32 if n <= _I32_MAX else np.intp


def _where(mask: np.ndarray) -> np.ndarray:
    """`np.flatnonzero(mask)` in `_index_dtype`, found a chunk at a time."""
    out = np.empty(np.count_nonzero(mask), dtype=_index_dtype(mask.size))
    end = 0
    for start, stop in _chunks(mask.size):
        found = np.flatnonzero(mask[start:stop])
        out[end : end + found.size] = found + start
        end += found.size
    return out


def _compact(rows: np.ndarray, keep: np.ndarray) -> int:
    """Move the rows `keep` selects to the front of `rows`, in order, a
    chunk at a time, and return how many there are; those first rows then
    equal `np.delete(rows, np.flatnonzero(~keep), axis=0)`. A row only
    moves toward the front, onto rows already read."""
    end = 0
    for start, stop in _chunks(len(rows)):
        part = keep[start:stop]
        if end == start and part.all():
            end = stop
            continue
        kept = rows[start:stop][part]
        rows[end : end + len(kept)] = kept
        end += len(kept)
    return end


def _expand(buffer: np.ndarray, n: int, at: np.ndarray, new: np.ndarray) -> int:
    """Insert row `new[j]` before row `at[j]` of the first `n` rows of
    `buffer`, as `np.insert(buffer[:n], at, new, axis=0)` does, and return
    the new length. `at` is sorted and `buffer` has room for `new`.

    Rows move toward the back a chunk at a time, starting from the end,
    so a row is read before anything lands on it; the new rows then fill
    the gaps left between them.
    """
    for start, stop in reversed(_chunks(n)):
        low, high = np.searchsorted(at, (start, stop - 1), side="right")
        if high == 0:
            break  # no row from here back moves
        if low == high:
            buffer[start + low : stop + low] = buffer[start:stop]
        else:
            index = np.arange(start, stop)
            buffer[index + np.searchsorted(at, index, side="right")] = buffer[start:stop].copy()
    buffer[at + np.arange(len(at))] = new
    return n + len(at)


def _owners_of(t: _Ranked, iter_ranks: np.ndarray) -> np.ndarray:
    """Owning map rank of each iterator; every one must have an IterNew."""
    maps = t.owner[iter_ranks]
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
        dropped[map_of[keyed[t.unstable[rows[keyed, 2]]]]] = True

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

    kept_iters = t.owner >= 0
    kept_iters[kept_iters] = ~dropped[t.owner[kept_iters]]
    iter_rows = _ITER_OPS[op]
    keep = np.empty(len(rows), dtype=bool)
    keep[~iter_rows] = ~dropped[map_of[~iter_rows]]
    keep[iter_rows] = kept_iters[map_of[iter_rows]]
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
    steps: np.ndarray  # each run's step count, int32


def _merge_plan(t: _Ranked) -> _Merge | None:
    """Coalesce's kernel; None when the stream has no advances.

    Its per-advance arrays are row indexes and int32 columns; the epoch
    lookup runs a chunk at a time.
    """
    rows = t.rows
    op = _ops(rows)
    adv = _where(op == _OP.ITER_ADVANCE)
    if adv.size == 0:
        return None

    # Only mutations between the first and last advance can split a run.
    muts = _where(_RUN_BREAKERS[op[adv[0] : adv[-1]]]) + adv[0]
    mut_maps = rows[muts, 1]
    through_iter = op[muts] == _OP.ITER_REMOVE
    mut_maps[through_iter] = _owners_of(t, mut_maps[through_iter])

    # Group the advances by iterator, in stream order within each group.
    adv = adv[np.argsort(rows[adv, 1], kind="stable")]
    iters = rows[adv, 1]
    joins = np.zeros(adv.size, dtype=bool)
    joins[1:] = iters[1:] == iters[:-1]
    maps = _owners_of(t, iters)
    del iters
    epochs = _epochs(mut_maps, muts, maps, adv)
    del maps
    joins[1:] &= epochs[1:] == epochs[:-1]
    del epochs
    outcomes = rows[adv, 0] & _RAW_OUTCOME_BITS
    joins[1:] &= outcomes[1:] == outcomes[:-1]
    heads = np.flatnonzero(~joins)
    exhausted = outcomes[heads] == 0
    del outcomes

    steps = np.add.reduceat(rows[adv, 2].astype(np.int64), heads)
    steps[exhausted] = 1
    over = np.flatnonzero(steps > _I32_MAX)
    if over.size:
        first = over[np.argmin(adv[heads[over]])]  # the first run in stream order
        raise TraceIntegrityError(f"advance step count {steps[first]} overflows i32")
    steps = steps.astype(np.int32)
    merged = np.sort(adv[joins], kind="stable")
    head_rows = adv[heads]
    return _Merge(merged, head_rows - np.searchsorted(merged, head_rows), steps)


def _epochs(mut_maps: np.ndarray, muts: np.ndarray, maps: np.ndarray, rows: np.ndarray):
    """Mutation epoch of map rank `maps[i]` at row `rows[i]`, looked up a
    chunk at a time.

    The epoch is the number of mutations (`mut_maps`, `muts`) that sort
    before (map, row) by map, then row. Between two rows of one map it
    moves exactly when that map was mutated in between.
    """
    stride = max(int(muts.max(initial=0)), int(rows.max(initial=0))) + 1
    keys = np.sort(mut_maps.astype(np.int64) * stride + muts, kind="stable")
    epochs = np.empty(maps.size, dtype=_index_dtype(keys.size))
    for start, stop in _chunks(maps.size):
        at = maps[start:stop].astype(np.int64)
        at *= stride
        at += rows[start:stop]
        epochs[start:stop] = np.searchsorted(keys, at)
    return epochs


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
    keep = np.ones(len(t.rows), dtype=bool)
    keep[merge.merged] = False
    rows = t.buffer[: _compact(t.rows, keep)]
    del keep
    rows[merge.heads, 2] = merge.steps
    return t._replace(rows=rows)


class _Frees(NamedTuple):
    """Free insertion's plan: the FreeIter/FreeMap rows, in stream order."""

    op: np.ndarray  # FREE_ITER or FREE_MAP
    ids: np.ndarray  # the rank of the iterator or map freed
    after: np.ndarray  # the row each free follows, before insertion


def _free_plan(t: _Ranked) -> _Frees:
    """Free insertion's kernel: the last row using each map and iterator,
    found a chunk at a time."""
    rows = t.rows
    map_last = np.full(t.maps.size, -1, dtype=np.intp)
    iter_last = np.full(t.iters.size, -1, dtype=np.intp)
    for start, stop in _chunks(len(rows)):
        chunk = rows[start:stop]
        op, first, second = _ops(chunk), chunk[:, 1], chunk[:, 2]
        at = np.arange(start, stop)
        # Every row uses one map (iterator ops: the iterator's owner), a
        # copy uses its source too, and an IterNew its iterator.
        iter_rows = _ITER_OPS[op]
        maps = first.copy()
        maps[iter_rows] = _owners_of(t, first[iter_rows])
        np.maximum.at(map_last, maps, at)
        copies = op == _OP.CREATE_COPY
        np.maximum.at(map_last, second[copies], at[copies])
        np.maximum.at(iter_last, first[iter_rows], at[iter_rows])
        news = op == _OP.ITER_NEW
        np.maximum.at(iter_last, second[news], at[news])

    iters, maps = np.flatnonzero(iter_last >= 0), np.flatnonzero(map_last >= 0)
    ops = np.full(iters.size + maps.size, _OP.FREE_MAP, dtype=np.uint8)
    ops[: iters.size] = _OP.FREE_ITER
    ids = np.concatenate((iters, maps))
    after = np.concatenate((iter_last[iters], map_last[maps]))
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
    new = np.zeros((frees.after.size, 3), dtype=np.int32)
    new[:, 0] = frees.op
    new[:, 1] = frees.ids
    return t._replace(rows=t.buffer[: _expand(t.buffer, len(t.rows), frees.after + 1, new)])


class _Lifetimes(NamedTuple):
    """Per object rank: its slot and its create and free rows. A rank that
    is never created is live at no row."""

    slot: np.ndarray
    create: np.ndarray
    free: np.ndarray

    def slots_at(self, ranks: np.ndarray, at: np.ndarray, names) -> np.ndarray:
        """Slot of object `ranks[j]` used at row `at[j]`, which must lie
        within its lifetime, its create and free rows included."""
        ranks = ranks.astype(np.intp)  # numpy gathers faster by intp
        dead = np.flatnonzero((self.create[ranks] > at) | (at > self.free[ranks]))
        if dead.size:
            bad = dead[0]
            raise TraceIntegrityError(f"object {names[ranks[bad]]} is not live at event {at[bad]}")
        return self.slot[ranks]


def _assign_slots(obj_ids: np.ndarray, acquires: np.ndarray, rows: np.ndarray, names):
    """Lowest-free-first slots over one object kind's create/free rows.

    `obj_ids`, `acquires` and `rows` describe the create (acquire) and free
    rows in stream order; `names` holds the raw id of each object rank.
    This is encode's one Python loop, and it visits only those rows.
    Returns the per-rank lifetimes and the slot-table size.
    """
    lives = _Lifetimes(
        np.zeros(names.size, dtype=np.int32),
        np.full(names.size, np.iinfo(rows.dtype).max, dtype=rows.dtype),
        np.full(names.size, -1, dtype=rows.dtype),
    )
    created, at = obj_ids[acquires], rows[acquires]
    lives.create[created] = at
    twice = np.flatnonzero(lives.create[created] != at)  # overwritten by a later create
    if twice.size:
        raise TraceIntegrityError(f"object {names[created[twice[0]]]} is created more than once")

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
        raise TraceIntegrityError(
            f"object {names[next(iter(live))]} is never freed: "
            "input is missing free events; run insert_free_events first"
        )

    # Each object is now created once and freed once.
    lives.slot[created] = slots[acquires]
    lives.free[obj_ids[~acquires]] = rows[~acquires]
    return lives, high_water


def _key_indexes(t: _Ranked) -> tuple[np.ndarray, np.ndarray]:
    """Each key rank's dense key index, in first-use order, found a chunk at
    a time, and the hash table those indexes index. A key recorded with two
    hashes is refused: sanitize would have dropped it."""
    rows = t.rows
    unused = len(rows)
    first_use = np.full(t.keys.size, unused, dtype=np.intp)
    for start, stop in _chunks(len(rows)):
        chunk = rows[start:stop]
        at = np.flatnonzero(_KEYED_OPS[_ops(chunk)])
        ranks = chunk[at, 2]
        unstable = np.flatnonzero(t.unstable[ranks])
        if unstable.size:
            raise TraceIntegrityError(
                f"key {t.keys[ranks[unstable[0]]]} hash changed; trace was not sanitized"
            )
        np.minimum.at(first_use, ranks, at + start)
    by_first_use = np.argsort(first_use, kind="stable")[: np.count_nonzero(first_use < unused)]
    index_of = np.empty(t.keys.size, dtype=np.int32)
    index_of[by_first_use] = np.arange(by_first_use.size, dtype=np.int32)
    return index_of, t.key_hash[by_first_use]


def _encode(t: _Ranked) -> ProcessedTrace:
    """Encode's kernel: rewrites `t.rows` into the opcode triples, in place.

    It plans first: each key rank's index, then each map and iterator
    rank's slot and lifetime (`_assign_slots`, the only Python loop). Then
    it rewrites the rows in one pass, a chunk at a time, by lookups on
    those per-rank tables: each object operand becomes its slot once its
    object is seen live at that row, and each key rank its key index.
    """
    rows = t.rows
    op = _ops(rows)

    index_of, key_hashes = _key_indexes(t)
    # Every map op, creates and frees included, names its map in operand 1.
    life = np.flatnonzero(_CREATES[op] | (op == _OP.FREE_MAP))
    map_lives, max_map_slots = _assign_slots(rows[life, 1], _CREATES[op[life]], life, t.maps)
    copies = np.flatnonzero(op == _OP.CREATE_COPY)
    self_copies = copies[rows[copies, 2] == rows[copies, 1]]
    if self_copies.size:
        bad = t.maps[rows[self_copies[0], 1]]
        raise TraceIntegrityError(f"map {bad} is not live before its copy")
    # IterNew acquires the iterator in operand 2, FreeIter releases it.
    life = np.flatnonzero((op == _OP.ITER_NEW) | (op == _OP.FREE_ITER))
    news = op[life] == _OP.ITER_NEW
    iter_ids = np.where(news, rows[life, 2], rows[life, 1])
    iter_lives, max_iter_slots = _assign_slots(iter_ids, news, life, t.iters)

    for start, stop in _chunks(len(rows)):
        chunk = rows[start:stop]
        words, first, second = chunk.T
        kind = _ops(chunk)
        on_iter = _ITER_OPS[kind]
        for lives, names, operand, uses in (
            (map_lives, t.maps, first, ~on_iter),
            (map_lives, t.maps, second, kind == _OP.CREATE_COPY),  # the source
            (iter_lives, t.iters, second, kind == _OP.ITER_NEW),
            (iter_lives, t.iters, first, on_iter),
        ):
            at = np.flatnonzero(uses)
            if at.size:
                operand[at] = lives.slots_at(operand[at], at + start, names)
        at = np.flatnonzero(_KEYED_OPS[kind])
        second[at] = index_of[second[at].astype(np.intp)]
        words &= ~_RAW_OUTCOME_BITS

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


def process(raw: RawTrace) -> ProcessedTrace:
    """Full post-processing pipeline: sanitize, coalesce, free-annotate, encode.

    The records are ranked from `raw.blocks`, one block at a time, into
    int32 rows and small per-object tables; a trace from `read_raw_trace`
    is read from its file block by block and never held whole, and an
    in-memory one is let go here when the caller holds no other reference
    to it. Sanitizing, coalescing and free insertion plan through the same
    kernels as the public passes and delete and insert rows in place, in
    the one buffer ranking allocated, and encoding rewrites the rows into
    the opcode triples in place; the result equals
    `encode(insert_free_events(coalesce(sanitize(raw))))` and the trace of
    the reference distiller in `tests/reference_distill.py`, its oracle.
    """
    t = _rank(raw)
    del raw
    keep = _kept_rows(t)
    t = t._replace(rows=t.buffer[: _compact(t.rows, keep)])
    del keep
    merge = _merge_plan(t)
    if merge is not None:
        t = _coalesced(t, merge)
    del merge
    t = _freed(t, _free_plan(t))
    return _encode(t)


def stats(trace: ProcessedTrace) -> Characterization:
    """Tally the operation mix: creates, reads, writes, iterates, total events."""
    kinds = trace.ops[0::3] & OP_KIND_MASK
    count = np.bincount(kinds, minlength=_OP.FREE_ITER + 1)

    def n(*ops: int) -> int:
        return int(count[list(ops)].sum())

    return Characterization(
        events=trace.op_count,
        creates=n(_OP.CREATE, _OP.CREATE_COPY),
        reads=n(_OP.GET, _OP.CONTAINS_KEY),
        writes=n(_OP.PUT, _OP.REMOVE, _OP.CLEAR),
        iterates=n(_OP.ITER_NEW, _OP.ITER_ADVANCE, _OP.ITER_REMOVE),
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


@cache
def _libdeflate():
    """An inflater `body -> read-only uint8 array | None` backed by the
    host's libdeflate, or None when the library does not load.

    Loaded on the first decode, by fixed sonames: `ctypes.util.find_library`
    would start ldconfig or compiler subprocesses. The inflater inflates
    into an uninitialized buffer 32 times the stream's size, and while
    libdeflate reports the buffer too small, again into one 4 times the
    last, never past DEFLATE's `_MAX_INFLATE_RATIO` over the stream; it
    then shrinks the buffer in place to the bytes made. It returns None
    when the stream does not inflate within that bound, is corrupt (a bad
    adler32 included), or a buffer cannot be had. It allocates a
    decompressor per call, since ctypes releases the GIL and a
    decompressor is not thread-safe.
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

    def inflate(body: memoryview) -> np.ndarray | None:
        src = np.frombuffer(body, dtype=np.uint8)
        limit = _MAX_INFLATE_RATIO * src.size
        size = min(32 * src.size, limit)
        d = alloc()
        if not d:
            return None
        used, made = ctypes.c_size_t(), ctypes.c_size_t()
        try:
            while True:
                out = np.empty(size, dtype=np.uint8)
                # 0 is LIBDEFLATE_SUCCESS, 3 LIBDEFLATE_INSUFFICIENT_SPACE;
                # with both counts asked for, input after the stream's end
                # is allowed, as zlib allows it.
                result = run(d, src.ctypes.data, src.size, out.ctypes.data, size,
                             ctypes.byref(used), ctypes.byref(made))
                if result != 3 or size == limit:
                    break
                size, out = min(4 * size, limit), None
        except MemoryError:
            return None
        finally:
            free(d)
        if result != 0:
            return None
        out.resize(made.value, refcheck=False)
        out.flags.writeable = False
        return out

    return inflate


#: Bytes of stream the zlib path feeds, and of payload it takes, per call.
_ZLIB_CHUNK = 1 << 16


def _zlib_inflate(body: memoryview) -> memoryview:
    """Inflate with zlib into one growing buffer, a bounded piece a call,
    and return a read-only view of it: the peak is about the payload,
    where `zlib.decompress` peaks near three times it. Errors are worded
    as `zlib.decompress` words them, and input after the stream's end is
    ignored, as it ignores it."""
    z = zlib.decompressobj()
    out = bytearray()
    fed, tail = 0, b""
    try:
        while not z.eof:
            if not tail:
                tail, fed = body[fed : fed + _ZLIB_CHUNK], fed + _ZLIB_CHUNK
            piece = z.decompress(tail, _ZLIB_CHUNK)
            tail = z.unconsumed_tail
            if not (piece or tail or z.eof) and fed >= len(body):  # every byte taken
                raise zlib.error("Error -5 while decompressing data: "
                                 "incomplete or truncated stream")
            out += piece
    except zlib.error as exc:
        raise TraceFormatError(f"corrupt DEFLATE payload: {exc}", offset=8) from None
    return memoryview(out).toreadonly()


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
    payload = inflate(body) if inflate is not None else None
    if payload is None:
        payload = _zlib_inflate(body)

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
