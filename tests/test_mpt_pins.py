"""MRT1 bytes, MPT1 bytes and replay outputs pinned for every built-in
workload at small parameters.

Each row holds three sha256 digests. The first is of the MRT1 bytes, so
the raw map, key and thread ids the tracer hands out are pinned too; MPT1
renumbers them into slots and cannot see them. The second is of the MPT1
bytes, recorded with the per-event reference implementation of the tracer
and post-processor; both `process` and the plain-Python reference
distiller (`tests/reference_distill.py`) must reproduce it. The third is
of the replay outputs: counting-mode counters, validating-mode map
digests in creation order, and the same digests indexed by FreeMap op,
recorded with the two-loop reference replayer. Replay reports only the
first order; the test rebuilds the second from the trace's words. Any
rewrite of those layers must reproduce them.
"""

import hashlib
import itertools
import json

import pytest

from mapreplay.postproc import OP_KIND_MASK, process, to_bytes
from mapreplay.refmap import RefMap
from mapreplay.replay import ReplaySession
from mapreplay.tracer import RawOpKind, raw_trace_to_bytes
from mapreplay.workloads import WORKLOADS, WorkloadSpec, generate

import reference_distill as reference

PINS = [
    ("wordfreq", 1, {},
     "4ddde3aa36dcd2b1e720100c8370e530a1f8c27d8aa46d7bc91d1bb8c80ffe36",
     "37bea7511dce6508cee6cdb0d5961d85a6b5be2e3c0be743ec118d0ef4082298",
     "173b0f05d4e130fda87dc1a351f6937d850f04918626fa8014fdd0fa7f674ea2"),
    ("dedupe", 1, {"ops": 1500, "universe": 400},
     "8de89dd8686b85316fc40a0859fbf8059573ca8e4f4e0650e2505dfa092a9bdf",
     "247a425b79cd6915961c4fb33b16e746b6f814a9daf7c09dc9d709881189a08c",
     "af9149b5eefe8eab374378c4f8b91d7f333e58fcc93c29ebcecbf2a5eb8eeb24"),
    ("churn", 1, {"maps": 2, "cycles": 3},
     "0fecc36a26aa5f57d34d59e391dff2ef99ac5a71a2e8f83ca61deafa4ea1ee72",
     "4f220bd9e5bb0bd4da31fcaf4d44ac42782a2ef641cef9aaa0e48736fc687fc6",
     "17befd6cd4e3c3fd70bd3077f21d5fbcfefb6dd0e035a942b4c5e0b8d5ecf77a"),
    ("churn", 1, {"maps": 4, "cycles": 2, "threads": 2},
     "78c754a30948f1dba0e7d4b4200ce79a4737db84e80252696f3ee15e70ea9492",
     "c98d0d36461ac2586bb530904d8d04ec9dd86497e02eec2b052ea42f1a1b62f8",
     "1d10c82c6a323e3e5bf1b2fc8257d515094a40a5307b5d19f947fa11edc40bd7"),
    ("scan", 1, {"maps": 30},
     "93ebe806b441a92720a2ad7781624880df1bb203dd4a8b39347eb68a34d4b6ca",
     "be381632947e67cd70f3cde547b063083639729c7855bbd357ee16dc7b1ce8c5",
     "51c89050542341848a3036ca1475e7a516aefecb31da426ab8a3ac68551b32f2"),
    ("populate-copy", 1, {"rounds": 20},
     "bf14b2c2bd6b67dbecfd6421c85d048bd651b4eae84f0854c2a658b0b99e51f1",
     "ed5119a720c18aeabd1c8eafb4aeb615af33455760bf235d225b1dcc08a3c312",
     "89660e2e790cd4987b8beeab724c36576fcdff02172471c6dd8ab7761773bde1"),
    ("mixed", 1, {"rounds": 30},
     "de4ccbc64c212fcb43e1a90b392ee17ddf652d4157bfc1fc2074f05f00d980cd",
     "52b14da5eb3d7996ce24180955f0a3640c041e22a23cb967c0da5196c5e7a24f",
     "85de24bcb520c094f51dbd4b7a65911455f1665d490eb74374598bfe1661e921"),
    ("random", 1, {},
     "bcb0fa0eb8adcce1f5bf1766fba8131508423644e17b152fbda11651e0d99693",
     "103b51ba1452fd7f9c15abcd618b89202c8f609dd3afb0d7a322e8cb4d40a8b5",
     "d518e6030443df7ca55be9fc84cc96e724b35c7bfd0851bd4ebdf1c994ffd6d3"),
    ("random", 2, {},
     "380e69a69279fdcd178fa4d311eee1452fcf09042e2e900f6a4697970cf9102b",
     "fb464f005565fd141f593a163a0c10bb9de86357fc7d8345c0f21ec51dd943bb",
     "b93414c1b12d3c34e13c52803910e104f6687e84f7f82024430029f7db8771ec"),
    ("random", 3, {},
     "89314a63d4acd7371d3b27872c9a646189e3d66f36a0f80f8088ae7bad214890",
     "24c3773de0d75b1e6488baed2958895b9c8fc6f2ccc28ddefa09d33bc0052b64",
     "314b7570677dd8ca1814d5ba0ddf6cd5cc0b2223fbd46a17f413db2bcd8f2da1"),
]


def _pin_id(pin) -> str:
    name, seed, params = pin[:3]
    extra = "".join(f"-{k}{v}" for k, v in params.items())
    return f"{name}-seed{seed}{extra}"


def test_every_workload_is_pinned():
    assert {pin[0] for pin in PINS} == set(WORKLOADS)


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_mrt1_bytes_match_pin(pin):
    name, seed, params, digest, _, _ = pin
    data = raw_trace_to_bytes(generate(WorkloadSpec(name, seed=seed, params=params)))
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_mpt1_bytes_match_pin(pin):
    name, seed, params, _, digest, _ = pin
    data = to_bytes(process(generate(WorkloadSpec(name, seed=seed, params=params))))
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_reference_distiller_reproduces_mpt1_pin(pin):
    name, seed, params, _, digest, _ = pin
    raw = generate(WorkloadSpec(name, seed=seed, params=params))
    data = to_bytes(reference.process(raw))
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_replay_outputs_match_pin(pin):
    name, seed, params, _, _, digest = pin
    session = ReplaySession(process(generate(WorkloadSpec(name, seed=seed, params=params))))
    counters = session.replay(RefMap, "counting").counters.as_dict()
    digests = session.replay(RefMap, "validating").map_digests
    outputs = [counters, digests, _by_free_op(session.trace.ops, digests)]
    assert hashlib.sha256(json.dumps(outputs).encode()).hexdigest() == digest


def _by_free_op(ops, map_digests) -> list[tuple[int, int]]:
    """(FreeMap op index, digest) pairs, in op order, of the digests given
    in map-creation order: a FreeMap frees its slot's latest Create or
    CreateCopy."""
    created = itertools.count()
    ordinal: dict[int, int] = {}  # slot -> creation ordinal of its map
    pairs = []
    for i, (word, slot, _) in enumerate(ops.reshape(-1, 3).tolist()):
        kind = word & OP_KIND_MASK
        if kind in (RawOpKind.CREATE, RawOpKind.CREATE_COPY):
            ordinal[slot] = next(created)
        elif kind == RawOpKind.FREE_MAP:
            pairs.append((i, map_digests[ordinal[slot]]))
    return pairs
