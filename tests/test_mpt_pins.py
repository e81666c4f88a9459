"""MPT1 bytes pinned for every built-in workload at small parameters.

The digests were recorded with the per-event reference implementation of
the tracer and post-processor; any rewrite of either must reproduce them.
"""

import hashlib

import pytest

from mapreplay.postproc import process, to_bytes
from mapreplay.workloads import WORKLOADS, WorkloadSpec, generate

PINS = [
    ("wordfreq", 1, {},
     "37bea7511dce6508cee6cdb0d5961d85a6b5be2e3c0be743ec118d0ef4082298"),
    ("dedupe", 1, {"ops": 1500, "universe": 400},
     "247a425b79cd6915961c4fb33b16e746b6f814a9daf7c09dc9d709881189a08c"),
    ("churn", 1, {"maps": 2, "cycles": 3},
     "4f220bd9e5bb0bd4da31fcaf4d44ac42782a2ef641cef9aaa0e48736fc687fc6"),
    ("churn", 1, {"maps": 4, "cycles": 2, "threads": 2},
     "c98d0d36461ac2586bb530904d8d04ec9dd86497e02eec2b052ea42f1a1b62f8"),
    ("scan", 1, {"maps": 30},
     "be381632947e67cd70f3cde547b063083639729c7855bbd357ee16dc7b1ce8c5"),
    ("populate-copy", 1, {"rounds": 20},
     "ed5119a720c18aeabd1c8eafb4aeb615af33455760bf235d225b1dcc08a3c312"),
    ("mixed", 1, {"rounds": 30},
     "52b14da5eb3d7996ce24180955f0a3640c041e22a23cb967c0da5196c5e7a24f"),
    ("random", 1, {},
     "103b51ba1452fd7f9c15abcd618b89202c8f609dd3afb0d7a322e8cb4d40a8b5"),
    ("random", 2, {},
     "fb464f005565fd141f593a163a0c10bb9de86357fc7d8345c0f21ec51dd943bb"),
    ("random", 3, {},
     "24c3773de0d75b1e6488baed2958895b9c8fc6f2ccc28ddefa09d33bc0052b64"),
]


def _pin_id(pin) -> str:
    name, seed, params, _ = pin
    extra = "".join(f"-{k}{v}" for k, v in params.items())
    return f"{name}-seed{seed}{extra}"


def test_every_workload_is_pinned():
    assert {name for name, _, _, _ in PINS} == set(WORKLOADS)


@pytest.mark.parametrize("pin", PINS, ids=_pin_id)
def test_mpt1_bytes_match_pin(pin):
    name, seed, params, digest = pin
    data = to_bytes(process(generate(WorkloadSpec(name, seed=seed, params=params))))
    assert hashlib.sha256(data).hexdigest() == digest
