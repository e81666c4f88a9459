"""A plain-Python reference distiller: the oracle `process` is tested against.

It is written from the MRT1 and MPT1 format specifications (the `tracer`
and `postproc` module docstrings) and the documented rules of the four
passes, and shares no code with `postproc` but the format constants,
`ProcessedTrace` and the error types. It reads a `RawTrace` through
`blocks()` one record at a time and keeps every record as a `Record` of
Python ints; per-object state is plain dicts, and slot assignment is its
own lowest-free-first heap. numpy only builds the arrays it returns.

`distill(raw)` yields each stage's stream in turn: the sanitized records,
the coalesced records, the free-annotated records, then the
`ProcessedTrace`, which `process(raw)` returns alone. Each stage is also
a function of a record list (`sanitize`, `coalesce`, `insert_frees`,
`encode`), so a test can run one stage on input the pipeline would never
give it.

The rules, stage by stage:

- Reading refuses, over every record and before any stage, what an MPT1
  triple cannot hold, each with a TraceFormatError at the field's MRT1
  offset: a keyed op (Get, Put, Remove, ContainsKey) with no key id, any
  other op naming a key, and a Create capacity or IterAdvance step count
  above 2^31-1. Within a record, the key id is checked first.
- Sanitize drops every record on a dropped map: a map with no Create or
  CreateCopy (foreign), a map with a keyed op on a key recorded anywhere
  with two hashes (poisoned), and a copy of a dropped map, transitively.
  An iterator belongs to the map of its last IterNew; each record on an
  iterator is dropped when that map is dropped or the iterator has no
  IterNew. An IterNew is a record on its map.
- Coalesce: an advance joins its iterator's previous advance when both
  recorded the same outcome byte and the owning map saw no mutation in
  between (a Put, Remove or Clear on it, or an IterRemove through any of
  its iterators). A run becomes its first advance, counting the run's
  steps; a run whose outcome is 0 (exhausted) counts 1. A count above
  2^31-1 raises TraceIntegrityError, the first run in stream order first.
- Free insertion: one FreeIter or FreeMap follows each object's last use.
  Every record uses its map (a record on an iterator, the iterator's
  owner), a CreateCopy its source, an IterNew its iterator, and a record
  on an iterator that iterator. The frees after one record come iterators
  first, then maps, each in id order, with that record's thread id.
- Encode plans, then rewrites. Keys get indexes in first-use order, and a
  key seen with two hashes is refused. Maps (Create and CreateCopy
  acquire, FreeMap releases) and then iterators (IterNew acquires,
  FreeIter releases) get the lowest free slot of their kind; an object
  created twice, released while not live or never released is refused,
  and so is a map copied from itself. Then every object a record names
  must be live there, from its create to its free record, and becomes
  its slot.

Where this module and `postproc`'s code disagree, the documented rule
decides. With several faults in one trace, this module refuses the first
in stream order, and `process` may name another of the same class: it
refuses a ranking block's key-id faults before its operand faults, and
checks liveness a chunk of rows at a time.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from mapreplay.errors import TraceFormatError, TraceIntegrityError
from mapreplay.postproc import (
    LF_MASK,
    LF_SHIFT,
    OUTCOME_BIT,
    SPREAD_BIT,
    VIEW_MASK,
    VIEW_SHIFT,
    ProcessedTrace,
)
from mapreplay.tracer import (
    ABSENT_HASH,
    ABSENT_OUTCOME,
    ABSENT_U64,
    RAW_DTYPE,
    RawOpKind,
    RawTrace,
)

OP = RawOpKind
I32_MAX = 2**31 - 1
#: The MRT1 header: magic, u32 version, u64 event count.
HEADER_BYTES = 16

KEYED = frozenset({OP.GET, OP.PUT, OP.REMOVE, OP.CONTAINS_KEY})
#: Ops whose map_id field names an iterator, not a map.
ON_ITERATOR = frozenset({OP.ITER_ADVANCE, OP.ITER_REMOVE, OP.FREE_ITER})
CREATES = frozenset({OP.CREATE, OP.CREATE_COPY})
#: Ops that mutate the map they name; an IterRemove mutates its iterator's map.
MUTATIONS = frozenset({OP.PUT, OP.REMOVE, OP.CLEAR})
#: Ops whose MPT1 word carries the outcome bit.
WITH_OUTCOME = KEYED | {OP.ITER_ADVANCE}


class Record(NamedTuple):
    """One MRT1 record, field for field."""

    thread_id: int
    op: int
    map_id: int  # the iterator id on a record on an iterator
    key_id: int
    hash: int
    aux: int
    outcome: int
    pad: bytes = b"\x00\x00"


class Stages(NamedTuple):
    """What each stage of `distill` yields."""

    sanitized: list[Record]
    coalesced: list[Record]
    freed: list[Record]
    trace: ProcessedTrace


def distill(raw: RawTrace) -> Iterator[list[Record] | ProcessedTrace]:
    """Yield the sanitized, coalesced and free-annotated records of `raw`,
    then its ProcessedTrace."""
    records = sanitize(read(raw))
    yield records
    records = coalesce(records)
    yield records
    records = insert_frees(records)
    yield records
    yield encode(records)


def process(raw: RawTrace) -> ProcessedTrace:
    return Stages(*distill(raw)).trace


def as_array(records: list[Record]) -> np.ndarray:
    """The records as one RAW_DTYPE array, laid out as in an MRT1 body."""
    return np.array(records, dtype=RAW_DTYPE)


def as_raw(records: list[Record]) -> RawTrace:
    return RawTrace(as_array(records))


# -- reading ------------------------------------------------------------------------


def _offset(index: int, field: str) -> int:
    """MRT1 byte offset of `field` of record `index`."""
    return HEADER_BYTES + index * RAW_DTYPE.itemsize + RAW_DTYPE.fields[field][1]


def read(raw: RawTrace) -> list[Record]:
    """Every record of `raw`, once none is refused."""
    records = []
    for block in raw.blocks(1024):
        for fields in block.tolist():
            record = Record(*fields)
            _refuse_unholdable(record, len(records))
            records.append(record)
    return records


def _refuse_unholdable(r: Record, index: int) -> None:
    keyed = r.op in KEYED
    if keyed == (r.key_id == ABSENT_U64):
        name = OP(r.op).name
        raise TraceFormatError(
            f"{name} record has no key id" if keyed
            else f"{name} record names key {r.key_id} but takes no key",
            offset=_offset(index, "key_id"),
        )
    if r.op == OP.CREATE and r.aux & 0xFFFFFFFF > I32_MAX:
        raise TraceFormatError(
            f"Create capacity {r.aux & 0xFFFFFFFF} overflows i32", offset=_offset(index, "aux")
        )
    if r.op == OP.ITER_ADVANCE and r.aux > I32_MAX:
        raise TraceFormatError(
            f"IterAdvance step count {r.aux} overflows i32", offset=_offset(index, "aux")
        )


def _hashes(records: list[Record]) -> tuple[dict[int, int], set[int]]:
    """The first hash recorded for each key, and the keys recorded with two."""
    first_hash: dict[int, int] = {}
    unstable = set()
    for r in records:
        if r.op in KEYED and first_hash.setdefault(r.key_id, r.hash) != r.hash:
            unstable.add(r.key_id)
    return first_hash, unstable


def _owners(records: list[Record]) -> dict[int, int]:
    """Each iterator's map: the map of its last IterNew."""
    return {r.aux >> 2: r.map_id for r in records if r.op == OP.ITER_NEW}


def _owner(owners: dict[int, int], iterator: int) -> int:
    try:
        return owners[iterator]
    except KeyError:
        raise TraceIntegrityError(f"iterator {iterator} has no IterNew event") from None


# -- sanitize -----------------------------------------------------------------------


def sanitize(records: list[Record]) -> list[Record]:
    """Drop the records on foreign and poisoned maps, on copies of dropped
    maps, and on iterators of dropped maps or with no IterNew."""
    _, unstable = _hashes(records)
    dropped = {r.map_id for r in records if r.op in KEYED and r.key_id in unstable}

    created = {r.map_id for r in records if r.op in CREATES}
    copies = [(r.map_id, r.aux) for r in records if r.op == OP.CREATE_COPY]
    referenced = {r.map_id for r in records if r.op not in ON_ITERATOR}
    referenced.update(source for _, source in copies)
    dropped |= referenced - created
    while True:
        orphaned = {copy for copy, source in copies if source in dropped} - dropped
        if not orphaned:
            break
        dropped |= orphaned

    owners = _owners(records)

    def kept(r: Record) -> bool:
        if r.op in ON_ITERATOR:
            return r.map_id in owners and owners[r.map_id] not in dropped
        return r.map_id not in dropped

    return [r for r in records if kept(r)]


# -- coalesce -----------------------------------------------------------------------


class _Run(NamedTuple):
    head: int  # the run's first advance, as an index into the output
    outcome: int
    epoch: int  # mutations of the owning map before the run
    steps: int


def coalesce(records: list[Record]) -> list[Record]:
    """Fold each run of an iterator's advances into its first advance."""
    owners = _owners(records)
    epoch: dict[int, int] = {}  # mutations of each map so far
    open_run: dict[int, _Run] = {}  # each iterator's latest run
    runs: list[_Run] = []
    out: list[Record] = []
    for r in records:
        if r.op == OP.ITER_ADVANCE:
            now = epoch.get(_owner(owners, r.map_id), 0)
            run = open_run.get(r.map_id)
            if run is not None and (run.outcome, run.epoch) == (r.outcome, now):
                open_run[r.map_id] = run._replace(steps=run.steps + r.aux)
                continue
            if run is not None:
                runs.append(run)
            open_run[r.map_id] = _Run(len(out), r.outcome, now, r.aux)
        elif r.op in MUTATIONS:
            epoch[r.map_id] = epoch.get(r.map_id, 0) + 1
        elif r.op == OP.ITER_REMOVE:
            mutated = _owner(owners, r.map_id)
            epoch[mutated] = epoch.get(mutated, 0) + 1
        out.append(r)
    runs.extend(open_run.values())
    runs.sort()
    for run in runs:
        steps = 1 if run.outcome == 0 else run.steps
        if steps > I32_MAX:
            raise TraceIntegrityError(f"advance step count {steps} overflows i32")
        out[run.head] = out[run.head]._replace(aux=steps)
    return out


# -- free insertion -------------------------------------------------------------------


def insert_frees(records: list[Record]) -> list[Record]:
    """Follow each object's last use with its FreeIter or FreeMap."""
    owners = _owners(records)
    last_use: dict[tuple[int, int], int] = {}  # (0 iterator | 1 map, id) -> record index
    for i, r in enumerate(records):
        if r.op in ON_ITERATOR:
            last_use[0, r.map_id] = i
            last_use[1, _owner(owners, r.map_id)] = i
            continue
        last_use[1, r.map_id] = i
        if r.op == OP.CREATE_COPY:
            last_use[1, r.aux] = i
        elif r.op == OP.ITER_NEW:
            last_use[0, r.aux >> 2] = i
    frees: dict[int, list[tuple[int, int]]] = {}
    for obj, i in last_use.items():
        frees.setdefault(i, []).append(obj)

    out = []
    for i, r in enumerate(records):
        out.append(r)
        for is_map, obj in sorted(frees.get(i, ())):
            op = OP.FREE_MAP if is_map else OP.FREE_ITER
            out.append(
                Record(r.thread_id, op, obj, ABSENT_U64, ABSENT_HASH, 0, ABSENT_OUTCOME)
            )
    return out


# -- encode -------------------------------------------------------------------------


class _Lives(NamedTuple):
    """One object kind's slots and lifetimes, by raw id."""

    slot: dict[int, int]
    create: dict[int, int]  # record index of each object's create
    free: dict[int, int]  # and of its free
    slots: int  # the slot-table size

    def slot_at(self, obj: int, index: int) -> int:
        if not self.create.get(obj, index + 1) <= index <= self.free.get(obj, -1):
            raise TraceIntegrityError(f"object {obj} is not live at event {index}")
        return self.slot[obj]


def _lifetimes(events: list[tuple[int, int, bool]]) -> _Lives:
    """Lowest-free-first slots over (record index, object, acquires) events
    in stream order."""
    creates: dict[int, int] = {}
    for _, obj, acquires in events:
        creates[obj] = creates.get(obj, 0) + acquires
    for _, obj, acquires in events:
        if acquires and creates[obj] > 1:
            raise TraceIntegrityError(f"object {obj} is created more than once")

    lives = _Lives({}, {}, {}, 0)
    free_slots: list[int] = []
    live: dict[int, int] = {}
    high_water = 0
    for index, obj, acquires in events:
        if acquires:
            if free_slots:
                slot = heapq.heappop(free_slots)
            else:
                slot, high_water = high_water, high_water + 1
            live[obj] = lives.slot[obj] = slot
            lives.create[obj] = index
        else:
            if obj not in live:
                raise TraceIntegrityError(f"object {obj} is not live")
            heapq.heappush(free_slots, live.pop(obj))
            lives.free[obj] = index
    if live:
        raise TraceIntegrityError(
            f"object {next(iter(live))} is never freed: "
            "input is missing free events; run insert_free_events first"
        )
    return lives._replace(slots=high_water)


def encode(records: list[Record]) -> ProcessedTrace:
    """Number the keys, give every map and iterator a slot, and pack each
    record into its MPT1 triple."""
    first_hash, unstable = _hashes(records)
    key_index: dict[int, int] = {}
    for r in records:
        if r.op in KEYED:
            if r.key_id in unstable:
                raise TraceIntegrityError(
                    f"key {r.key_id} hash changed; trace was not sanitized"
                )
            key_index.setdefault(r.key_id, len(key_index))

    maps = _lifetimes([(i, r.map_id, r.op in CREATES) for i, r in enumerate(records)
                       if r.op in CREATES or r.op == OP.FREE_MAP])
    for r in records:
        if r.op == OP.CREATE_COPY and r.aux == r.map_id:
            raise TraceIntegrityError(f"map {r.map_id} is not live before its copy")
    iters = _lifetimes([(i, r.aux >> 2, True) if r.op == OP.ITER_NEW else (i, r.map_id, False)
                        for i, r in enumerate(records)
                        if r.op in (OP.ITER_NEW, OP.FREE_ITER)])

    ops = []
    for i, r in enumerate(records):
        word = r.op
        if r.op in WITH_OUTCOME and r.outcome not in (0, ABSENT_OUTCOME):
            word |= OUTCOME_BIT
        if r.op in ON_ITERATOR:
            first = iters.slot_at(r.map_id, i)
        else:
            first = maps.slot_at(r.map_id, i)
        second = 0
        if r.op in KEYED:
            second = key_index[r.key_id]
        elif r.op == OP.CREATE:
            word |= ((r.aux >> 32) & LF_MASK) << LF_SHIFT | SPREAD_BIT
            second = r.aux & 0xFFFFFFFF
        elif r.op == OP.CREATE_COPY:
            second = maps.slot_at(r.aux, i)
        elif r.op == OP.ITER_NEW:
            word |= (r.aux & VIEW_MASK) << VIEW_SHIFT
            second = iters.slot_at(r.aux >> 2, i)
        elif r.op == OP.ITER_ADVANCE:
            second = r.aux
        ops += (word, first, second)
    return ProcessedTrace(
        key_hashes=np.array([first_hash[k] for k in key_index], dtype=np.int32),
        max_map_slots=maps.slots,
        max_iter_slots=iters.slots,
        ops=np.array(ops, dtype=np.int32),
    )
