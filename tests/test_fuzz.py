"""Fuzzing trace files: every mutant is read, distilled and replayed, or fails typed.

MPT1: small built-in traces are mutated three ways: their fields (opcode
words, operands, key hashes, slot bounds, the op list itself) are changed
and re-encoded with `to_bytes`, the key count or op count of the payload
header is forged, near the true count or beyond what the stream can
inflate to, or bytes of the encoded file are flipped. Each result must
decode alike through libdeflate and through zlib (the same trace, or the
same TraceFormatError message and byte offset), then set up and replay in
every mode against RefMap and in timing mode against PyDictMap, or raise a
MapReplayError that says where: a TraceIntegrityError or FidelityError
naming the op from setup and replay. Where libdeflate does not load, both
decodes take the zlib path.

MRT1: the raw records of the same traces are mutated (op byte, map and
hash fields, the key id of keyed records, the aux of Create, IterNew and
IterAdvance, and the source map of CreateCopy; ids include ones above 32
bits, as the tracer allocates them for thread slot 1, and absence) and the
file may be cut short. Each result is read from its bytes and, written to
a file, with `read_raw_trace`: both must read, or raise the same
TraceFormatError message and byte offset; then
`process` of either must give what the public passes give in turn: the
same MPT1 bytes, or the same MapReplayError and message.

Examples are derandomized, so every run tries the same inputs.
"""

import struct
import zlib
from functools import cache
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mapreplay import postproc
from mapreplay.errors import (
    FidelityError,
    MapReplayError,
    TraceFormatError,
    TraceIntegrityError,
)
from mapreplay.postproc import (
    LF_MASK,
    LF_SHIFT,
    OP_KIND_MASK,
    VIEW_MASK,
    VIEW_SHIFT,
    ProcessedTrace,
    coalesce,
    decode,
    encode,
    insert_free_events,
    process,
    sanitize,
    to_bytes,
)
from mapreplay.refmap import PyDictMap, RefMap
from mapreplay.replay import MODES, ReplaySession
from mapreplay.tracer import (
    ABSENT_U64,
    RAW_DTYPE,
    RawOpKind,
    raw_trace_from_bytes,
    raw_trace_to_bytes,
    read_raw_trace,
)
from mapreplay.workloads import WorkloadSpec, generate

#: Small traces that between them use every op kind.
BASES = (
    WorkloadSpec("scan", seed=3, scale=1, params={"maps": 4}),
    WorkloadSpec("random", seed=3, scale=1, params={"ops": 60, "universe": 12}),
    WorkloadSpec("churn", seed=3, scale=1, params={"maps": 2, "cycles": 2}),
    WorkloadSpec("populate-copy", seed=3, scale=1, params={"rounds": 3}),
)

# An example takes milliseconds; the deadline only flags one that runs away.
FUZZ = settings(
    max_examples=150,
    deadline=2000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@cache
def _base(i: int) -> ProcessedTrace:
    return process(generate(BASES[i]))


_LIBDEFLATE = postproc._libdeflate


def _no_libdeflate():
    return None


def _decoded(data: bytes, loader) -> ProcessedTrace | tuple[str, int]:
    with mock.patch.object(postproc, "_libdeflate", loader):
        try:
            return decode(data)
        except TraceFormatError as exc:
            assert exc.offset is not None
            return str(exc), exc.offset


def _replays_or_fails_typed(data: bytes) -> None:
    trace = _decoded(data, _LIBDEFLATE)
    assert _decoded(data, _no_libdeflate) == trace
    if not isinstance(trace, ProcessedTrace):
        return
    try:
        session = ReplaySession(trace)
    except TraceIntegrityError as exc:
        assert str(exc).startswith("op ")
        return
    for adapter, mode in [(RefMap, mode) for mode in MODES] + [(PyDictMap, "timing")]:
        try:
            session.replay(adapter, mode)
        except TraceIntegrityError as exc:
            assert str(exc).startswith("op ")
        except FidelityError as exc:
            assert exc.op_index is not None


_index = st.integers(0, 10**6)  # reduced modulo the length it indexes
_operand = st.one_of(st.integers(-2, 70), st.sampled_from([2**31 - 1, -(2**31)]))
_mutation = st.one_of(
    st.tuples(st.just("kind"), _index, st.one_of(st.integers(0, 15), st.just(OP_KIND_MASK))),
    st.tuples(st.just("bit"), _index, st.integers(0, 19)),
    # The view of the nth IterNew and the load factor of the nth Create.
    st.tuples(st.just("view"), _index, st.integers(0, VIEW_MASK)),
    st.tuples(st.just("lf"), _index, st.integers(0, LF_MASK)),
    st.tuples(st.just("operand"), _index, st.sampled_from([1, 2]), _operand),
    st.tuples(st.just("key"), _index, st.integers(-(2**31), 2**31 - 1)),
    st.tuples(st.just("slots"), st.sampled_from(["map", "iter"]), st.integers(0, 8)),
    st.tuples(st.just("drop"), _index),
    st.tuples(st.just("repeat"), _index),
    st.tuples(st.just("swap"), _index, _index),
)


#: Word fields set by a mutation: (op kind, shift, mask).
_FIELDS = {
    "view": (RawOpKind.ITER_NEW, VIEW_SHIFT, VIEW_MASK),
    "lf": (RawOpKind.CREATE, LF_SHIFT, LF_MASK),
}


def _mutate(trace: ProcessedTrace, mutations) -> ProcessedTrace:
    ops = trace.ops.reshape(-1, 3).copy()
    keys = trace.key_hashes.copy()
    slots = {"map": trace.max_map_slots, "iter": trace.max_iter_slots}
    for kind, *args in mutations:
        if kind == "slots":
            slots[args[0]] = args[1]
            continue
        if kind == "key":
            if len(keys):
                keys[args[0] % len(keys)] = args[1]
            continue
        if kind in _FIELDS:
            op, shift, mask = _FIELDS[kind]
            of_kind = np.flatnonzero((ops[:, 0] & OP_KIND_MASK) == op)
            if len(of_kind):
                i = of_kind[args[0] % len(of_kind)]
                ops[i, 0] = (ops[i, 0] & ~(mask << shift)) | (args[1] << shift)
            continue
        if not len(ops):
            continue
        i = args[0] % len(ops)
        if kind == "kind":
            ops[i, 0] = (ops[i, 0] & ~OP_KIND_MASK) | args[1]
        elif kind == "bit":
            ops[i, 0] ^= 1 << args[1]
        elif kind == "operand":
            ops[i, args[1]] = args[2]
        elif kind == "drop":
            ops = np.delete(ops, i, axis=0)
        elif kind == "repeat":
            ops = np.insert(ops, i, ops[i], axis=0)
        else:
            j = args[1] % len(ops)
            ops[[i, j]] = ops[[j, i]]
    return ProcessedTrace(keys, slots["map"], slots["iter"], ops.reshape(-1))


@FUZZ
@given(st.integers(0, len(BASES) - 1), st.lists(_mutation, min_size=1, max_size=3))
def test_mutated_fields_replay_or_fail_typed(base, mutations):
    _replays_or_fails_typed(to_bytes(_mutate(_base(base), mutations)))


#: A forged count: a step from the true one, or far beyond what any base
#: trace's stream can inflate to (1032 payload bytes per stream byte).
_forgery = st.one_of(
    st.integers(-2, 2).map(lambda d: ("by", d)),
    st.sampled_from([2**24, 2**31, 2**32 - 1, 2**40, 2**64 - 1]).map(lambda v: ("to", v)),
)


def _forge(trace: ProcessedTrace, field: str, forgery) -> bytes:
    """The MPT1 bytes of `trace` with its key count or op count forged."""
    payload = bytearray(zlib.decompress(to_bytes(trace)[8:]))
    fmt, at = ("<I", 0) if field == "keys" else ("<Q", 4 + 4 * len(trace.key_hashes) + 8)
    how, value = forgery
    if how == "by":
        value += struct.unpack_from(fmt, payload, at)[0]
    struct.pack_into(fmt, payload, at, value % (256 ** struct.calcsize(fmt)))
    return to_bytes(trace)[:8] + zlib.compress(payload)


@FUZZ
@given(st.integers(0, len(BASES) - 1), st.sampled_from(["keys", "ops"]), _forgery)
def test_forged_counts_replay_or_fail_typed(base, field, forgery):
    _replays_or_fails_typed(_forge(_base(base), field, forgery))


@FUZZ
@given(
    st.integers(0, len(BASES) - 1),
    st.lists(st.tuples(_index, st.integers(1, 255)), min_size=1, max_size=3),
    st.one_of(st.none(), _index),
)
def test_flipped_file_bytes_replay_or_fail_typed(base, flips, cut):
    data = bytearray(to_bytes(_base(base)))
    for pos, xor in flips:
        data[pos % len(data)] ^= xor
    if cut is not None:
        del data[cut % len(data):]
    _replays_or_fails_typed(bytes(data))


# -- MRT1 -----------------------------------------------------------------------------


@cache
def _raw_base(i: int) -> bytes:
    return raw_trace_to_bytes(generate(BASES[i]))


def _distilled(distill, raw) -> bytes | tuple[type, str]:
    try:
        return to_bytes(distill(raw))
    except MapReplayError as exc:
        return type(exc), str(exc)


def _pass_chain(raw):
    return encode(insert_free_events(coalesce(sanitize(raw))))


#: Ids near the small ones the base traces use, the same ids as the tracer
#: allocates them for thread slot 1, and absence.
_id = st.one_of(
    st.integers(0, 14), st.integers(0, 14).map(lambda k: (1 << 40) | k), st.just(ABSENT_U64)
)
_aux = st.one_of(
    st.integers(0, 70), st.sampled_from([2**31 - 1, 2**31, 2**32 - 1, (750 << 32) | 16, 2**64 - 1])
)
_raw_mutation = st.one_of(
    st.tuples(st.just("op"), _index, st.integers(0, 15)),
    st.tuples(st.just("map_id"), _index, _id),
    # The key id of the nth record of one keyed kind: a key id on any other
    # record is refused before distilling, and the op mutation reaches that.
    st.tuples(
        st.just("key_id"),
        _index,
        _id,
        st.sampled_from([RawOpKind.GET, RawOpKind.PUT, RawOpKind.REMOVE, RawOpKind.CONTAINS_KEY]),
    ),
    st.tuples(st.just("hash"), _index, st.integers(-2, 14)),
    # The aux of the nth record of one kind; a CreateCopy's is its source map.
    st.tuples(
        st.just("aux"),
        _index,
        _aux,
        st.sampled_from([RawOpKind.CREATE, RawOpKind.ITER_NEW, RawOpKind.ITER_ADVANCE]),
    ),
    st.tuples(st.just("aux"), _index, _id, st.just(RawOpKind.CREATE_COPY)),
)


def _mutate_raw(data: bytes, mutations) -> bytes:
    header = 16  # magic, version, event count
    records = np.frombuffer(data, dtype=RAW_DTYPE, offset=header).copy()
    for field, i, value, *kind in mutations:
        rows = np.flatnonzero(records["op"] == kind[0]) if kind else np.arange(len(records))
        if len(rows):
            records[field][rows[i % len(rows)]] = value
    return data[:header] + records.tobytes()


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    """One file that each MRT1 mutant is written to in turn."""
    return tmp_path_factory.mktemp("mrt1") / "mutant.mrt"


def _read(read, source) -> object:
    try:
        return read(source)
    except TraceFormatError as exc:
        assert exc.offset is not None
        return str(exc), exc.offset


@FUZZ
@given(
    st.integers(0, len(BASES) - 1),
    st.lists(_raw_mutation, min_size=1, max_size=3),
    st.one_of(st.none(), _index),
)
def test_mutated_raw_records_distill_like_the_public_passes(mutant_path, base, mutations, cut):
    data = _mutate_raw(_raw_base(base), mutations)
    if cut is not None:
        data = data[: cut % len(data)]
    mutant_path.write_bytes(data)
    raw = _read(raw_trace_from_bytes, data)
    from_file = _read(read_raw_trace, mutant_path)
    if isinstance(raw, tuple):
        assert from_file == raw
        return
    expected = _distilled(_pass_chain, raw)
    assert _distilled(process, raw) == expected
    assert _distilled(process, from_file) == expected
