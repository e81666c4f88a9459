"""Parent side of a benchmark run: one fresh worker process per round.

Rounds run one after another, each in a new interpreter, so the medians
pool samples from several processes and a single process's memory layout
cannot set them. At most one worker runs at a time, and a worker's own
bench children run one at a time, so the load is a closed loop from one
active process. The parent imports nothing from mapreplay.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Checks, Goldens

WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_ROUNDS = 2
#: Every worker must finish this long after the run starts, so a hung
#: worker cannot keep the run past its time limit.
RUN_LIMIT_S = 170


@dataclass
class Measurement:
    rounds: list[dict]  # worker records, in order
    rss: dict | None

    @property
    def plan_key(self) -> str | None:
        return self.rounds[0]["plan"] if self.rounds else None

    @property
    def first(self) -> dict:
        return self.rounds[0]["outputs"] if self.rounds else {}

    def samples(self, name: str) -> list[float]:
        return [x for r in self.rounds for x in r["samples"].get(name, ())]


def call_worker(request: dict, deadline: float) -> dict:
    """Run worker.py on `request`; kill its whole process group if it is
    still running at `deadline` (a perf_counter time)."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(request)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-1500:]}")
    return json.loads(out.splitlines()[-1])


def compare_rounds(checks: Checks, first: dict, outputs: dict) -> None:
    for key in ("mrt_sha256", "mpt_sha256", "counters", "counts", "direct_digests"):
        checks.expect(f"{key} repeats across rounds", outputs.get(key) == first.get(key))


def check_goldens(checks: Checks, goldens: Goldens, plan_key: str, request: dict,
                  first: dict, deadline: float) -> None:
    """Compare with the stored goldens; a seed without one is covered by
    running the plan's lowest recorded seed in a worker."""
    golden = goldens.lookup(plan_key, request["seed"])
    actual = {"mpt_sha256": first.get("mpt_sha256"), "counters": first.get("counters")}
    if golden is None:
        ref = goldens.reference_seed(plan_key)
        if not checks.expect(f"goldens recorded for {plan_key}", ref is not None):
            return
        golden = goldens.lookup(plan_key, ref)
        actual = checks.probe("reference seed", call_worker,
                              {**request, "kind": "golden", "seed": ref}, deadline)
        if actual is None:
            return
    checks.expect("MPT1 sha256 equals the golden", actual["mpt_sha256"] == golden["mpt_sha256"])
    checks.expect("counting counters equal the golden", actual["counters"] == golden["counters"])


def measure(request: dict, seconds: float, traced: bool, checks: Checks,
            goldens: Goldens) -> Measurement:
    """Measure the peak RSS, then run rounds until `seconds` have passed.

    `request` names the workload, seed and work directory for the workers.
    With `traced`, even rounds record spans and odd rounds do not, so the
    difference of their wall times (without the harness probe, which only
    even rounds run) is the tracing overhead.
    """
    deadline = time.perf_counter() + RUN_LIMIT_S
    rss = checks.probe("peak RSS", call_worker, {**request, "kind": "rss"}, deadline)
    rounds: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        index = len(rounds)
        record = checks.probe(f"round {index}", call_worker, {
            **request, "kind": "round", "traced": traced and index % 2 == 0, "index": index,
        }, deadline)
        if record is None:
            break
        checks.absorb(record["attempted"], record["failures"])
        if rounds:
            compare_rounds(checks, rounds[0]["outputs"], record["outputs"])
        rounds.append(record)
        now = time.perf_counter()
        durations.append(now - t0)
        # Rounds alternate with and without the harness probe, so the next
        # one may last as long as the longer of the last two.
        if len(rounds) >= MIN_ROUNDS and (now - start) + max(durations[-2:]) > seconds:
            break
    m = Measurement(rounds, rss)
    if rounds:
        check_goldens(checks, goldens, m.plan_key, request, m.first, deadline)
    if rss is not None:
        checks.expect("a fresh process distills the same MPT1",
                      rss["mpt_sha256"] == m.first.get("mpt_sha256"))
    return m
