"""One workload through every mapreplay layer, timed from outside each layer.

A round runs one workload once through the whole instrument: the untraced
workload, recording to an MRT1 file, distilling to an MPT1 file, replay
set-up, replays per adapter and mode, validating replays, and a small
spawned `run_bench`. Each round runs in a fresh interpreter (see
worker.py), and each call into a layer's public function sits inside a
span named after that function.
"""

from __future__ import annotations

import hashlib
import platform
import resource
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mapreplay
from mapreplay.bench import BenchConfig, bootstrap_ci_diff, bootstrap_ci_mean, run_bench
from mapreplay.postproc import (
    OP_KIND_MASK,
    coalesce,
    decode,
    encode,
    insert_free_events,
    process,
    sanitize,
    to_bytes,
    write_processed,
)
from mapreplay.refmap import PyDictMap, RefMap
from mapreplay.replay import ReplaySession
from mapreplay.tracer import RawOpKind, read_raw_trace, write_raw_trace
from mapreplay.workloads import WorkloadSpec, generate, run_direct

from checks import Checks
from nullmap import NullMap
from spans import SpanRecorder


@dataclass(frozen=True)
class Plan:
    """A workload at a fixed size; `seeded` says whether its input uses the seed."""

    name: str
    scale: int
    seeded: bool
    params: tuple[tuple[str, int], ...] = ()

    @property
    def key(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}/scale={self.scale}" + (f"/{extra}" if extra else "")

    def spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(self.name, seed, self.scale, dict(self.params))


PLANS = {
    "wordfreq": Plan("wordfreq", 1, seeded=False),
    "scan": Plan("scan", 1, seeded=False),
    "churn": Plan("churn", 2, seeded=True),
}

#: Downsized plans for the self-check; wordfreq cannot shrink below one
#: pass over its corpus.
TINY_PLANS = {
    "wordfreq": Plan("wordfreq", 1, seeded=False),
    "scan": Plan("scan", 1, seeded=False, params=(("maps", 40),)),
    "churn": Plan("churn", 1, seeded=True, params=(("cycles", 4), ("maps", 3))),
}

#: The harness probe: two RefMap variants, two spawned runs each, one short
#: measured iteration per run. Nominal time is what the iterations must take.
BENCH_VARIANTS = (("refmap", 16), ("refmap", 64))
BENCH_RUNS = 2
BENCH_ITER_S = 0.05
BENCH_CHILDREN = BENCH_RUNS * len(BENCH_VARIANTS)
BENCH_NOMINAL_S = BENCH_CHILDREN * BENCH_ITER_S

#: Short probes repeat inside a round until they have run this long, so
#: each round yields several samples of each.
SETUP_BUDGET_S = 0.1
REPLAY_BUDGET_S = 1.2
VALIDATE_BUDGET_S = 0.4

#: (sample name, adapter, mode) of the replays each pass runs once.
REPLAYS = (
    ("refmap", RefMap, "timing"),
    ("pydict", PyDictMap, "timing"),
    ("null", NullMap, "timing"),
    ("counting", RefMap, "counting"),
)
KEYED_KINDS = (RawOpKind.GET, RawOpKind.PUT, RawOpKind.REMOVE, RawOpKind.CONTAINS_KEY)


def repeat_for(budget: float, min_reps: int, fn) -> None:
    """Call `fn` (which returns the seconds it measured) until `budget` is spent."""
    spent = 0.0
    reps = 0
    while reps < min_reps or spent < budget:
        spent += fn()
        reps += 1


def bench_config(use_processes: bool) -> BenchConfig:
    return BenchConfig(
        runs=BENCH_RUNS,
        warmup_iters=0,
        measured_iters=1,
        iter_duration=BENCH_ITER_S,
        use_processes=use_processes,
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report(checks: Checks, report) -> None:
    checks.expect(
        "bench report measured every variant",
        len(report.variants) == len(BENCH_VARIANTS)
        and all(not v.excluded and len(v.samples) == BENCH_RUNS for v in report.variants),
    )


class Round:
    """Runs the probes of one round and files their samples and outputs."""

    def __init__(self, plan: Plan, seed: int, workdir: Path, rec: SpanRecorder,
                 checks: Checks, rotate: int = 0):
        self.plan = plan
        self.spec = plan.spec(seed)
        self.rec = rec
        self.checks = checks
        self.rotate = rotate  # start offset in the replay order, so no adapter always runs first
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.outputs: dict = {"counts": {}}
        self.mrt = workdir / f"{plan.name}.mrt"
        self.mpt = workdir / f"{plan.name}.mpt"
        self.mpt_bytes = b""
        self.processed = None
        self.last = 0.0  # duration of the latest timed call

    def timed(self, span: str, metric: str | None, fn, *args):
        with self.rec.span(span):
            t0 = time.perf_counter()
            result = fn(*args)
            self.last = time.perf_counter() - t0
        if metric is not None:
            self.samples[metric].append(self.last)
        return result

    def run(self, with_bench: bool) -> None:
        c = self.checks
        c.probe("direct", self.direct)
        raw = c.probe("trace", self.trace)
        trace = raw and c.probe("process", self.process, len(raw.events))
        if trace is None:
            return
        self.processed = trace
        session = c.probe("setup", self.setup)
        if session is not None:
            c.probe("replay", self.replays, session)
            c.probe("validate", self.validate, session)
        if with_bench:
            c.probe("bench", self.bench, trace)

    def direct(self) -> None:
        digests = self.timed("workloads.run_direct", "workloads.direct_s", run_direct, self.spec)
        self.outputs["direct_digests"] = digests

    def trace(self):
        with self.rec.span("trace"):
            t0 = time.perf_counter()
            raw = self.timed("workloads.generate", "workloads.generate_s", generate, self.spec)
            self.timed("tracer.write_raw_trace", "tracer.raw_write_s", write_raw_trace, raw, self.mrt)
            self.samples["trace_s"].append(time.perf_counter() - t0)
        data = self.mrt.read_bytes()
        self.outputs["mrt_sha256"] = sha256(data)
        self.outputs["counts"].update({"tracer.events": len(raw.events), "tracer.raw_bytes": len(data)})
        return raw

    def process(self, recorded_events: int):
        t = self.timed
        with self.rec.span("process"):
            t0 = time.perf_counter()
            raw = t("tracer.read_raw_trace", "tracer.raw_read_s", read_raw_trace, self.mrt)
            clean = t("postproc.sanitize", "postproc.sanitize_s", sanitize, raw)
            merged = t("postproc.coalesce", "postproc.coalesce_s", coalesce, clean)
            freed = t("postproc.insert_free_events", "postproc.free_insert_s", insert_free_events, merged)
            trace = t("postproc.encode", "postproc.encode_s", encode, freed)
            t("postproc.write_processed", "postproc.write_s", write_processed, trace, self.mpt)
            self.samples["process_s"].append(time.perf_counter() - t0)
        self.checks.expect("raw file round-trips", len(raw.events) == recorded_events)
        self.mpt_bytes = self.mpt.read_bytes()
        self.outputs["mpt_sha256"] = sha256(self.mpt_bytes)

        def advances(events) -> int:
            return sum(e.op is RawOpKind.ITER_ADVANCE for e in events)

        raw_advances = advances(clean.events)
        kinds = np.bincount(trace.ops[0::3] & OP_KIND_MASK, minlength=16)
        self.outputs["counts"].update(
            {
                "postproc.events_dropped": len(raw.events) - len(clean.events),
                "postproc.raw_advances": raw_advances,
                "postproc.advances_merged": raw_advances - advances(merged.events),
                "postproc.frees_inserted": len(freed.events) - len(merged.events),
                "postproc.ops": trace.op_count,
                "postproc.keys": len(trace.key_hashes),
                "postproc.map_slots": trace.max_map_slots,
                "postproc.iter_slots": trace.max_iter_slots,
                "postproc.mpt_bytes": len(self.mpt_bytes),
                "postproc.bytes_per_op": len(self.mpt_bytes) / trace.op_count,
                "refmap.keyed_ops": int(sum(kinds[int(k)] for k in KEYED_KINDS)),
            }
        )
        return trace

    def setup(self) -> ReplaySession:
        session = None

        def once():
            nonlocal session
            with self.rec.span("setup"):
                t0 = time.perf_counter()
                trace = self.timed("postproc.decode", "postproc.decode_s", decode, self.mpt_bytes)
                session = self.timed("replay.ReplaySession", "replay.session_s", ReplaySession, trace)
                dt = time.perf_counter() - t0
            self.samples["setup_s"].append(dt)
            return dt

        repeat_for(SETUP_BUDGET_S, 3, once)
        return session

    def replays(self, session: ReplaySession) -> None:
        ops = session.trace.op_count
        passes = 0

        def one_pass():
            nonlocal passes
            k = (self.rotate + passes) % len(REPLAYS)
            passes += 1
            spent = 0.0
            for name, adapter, mode in REPLAYS[k:] + REPLAYS[:k]:
                res = self.timed(f"replay.replay.{name}", None, session.replay, adapter, mode)
                self.samples[f"replay.{name}_ns_per_op"].append(res.elapsed / ops * 1e9)
                self.checks.expect(f"{name} replays every op", res.ops_executed == ops)
                spent += self.last
                if name == "counting":
                    self.outputs["counters"] = res.counters.as_dict()
                    self.outputs["counts"]["replay.factory_calls"] = res.factory_calls
            return spent

        repeat_for(REPLAY_BUDGET_S, 2, one_pass)

    def validate(self, session: ReplaySession) -> None:
        ops = session.trace.op_count

        def once():
            res = self.timed(
                "replay.replay.validating", "validate_s", session.replay, RefMap, "validating"
            )
            self.samples["replay.validating_ns_per_op"].append(res.elapsed / ops * 1e9)
            self.checks.expect(
                "validating replay digests equal the untraced run",
                res.map_digests == self.outputs.get("direct_digests"),
            )
            return self.last

        repeat_for(VALIDATE_BUDGET_S, 1, once)

    def bench(self, trace) -> None:
        report = self.timed(
            "bench.run_bench", "bench.spawned_s", run_bench, trace, BENCH_VARIANTS,
            bench_config(True), self.plan.name,
        )
        self.samples["bench_overhead_s"].append(self.last - BENCH_NOMINAL_S)
        check_report(self.checks, report)

    def bench_layers(self) -> None:
        """Split the harness's overhead: the same run_bench in process, the
        validation it starts with, and the statistics it ends with."""
        trace = self.processed
        config = bench_config(False)
        report = self.timed(
            "bench.run_bench.in_process", "bench.in_process_s", run_bench, trace,
            BENCH_VARIANTS, config, self.plan.name,
        )
        check_report(self.checks, report)
        with self.rec.span("bench_validation"):
            t0 = time.perf_counter()
            session = self.timed("replay.ReplaySession", None, ReplaySession, trace)
            self.timed("replay.replay.validating", None, session.replay, RefMap, "validating")
            self.samples["bench.validate_s"].append(time.perf_counter() - t0)
        a, b = (v.samples for v in report.variants)
        with self.rec.span("bench_statistics"):
            t0 = time.perf_counter()
            for i, s in enumerate((a, b)):
                self.timed("bench.bootstrap_ci_mean", None, bootstrap_ci_mean,
                           s, config.level, config.resamples, config.seed + 101 + i)
            self.timed("bench.bootstrap_ci_diff", None, bootstrap_ci_diff,
                       a, b, config.level, config.resamples, config.seed + 502)
            self.samples["bench.stats_s"].append(time.perf_counter() - t0)
        # What spawning costs per child, and what the in-process run spends
        # beyond its nominal iterations, validation and statistics.
        in_process = self.samples["bench.in_process_s"][-1]
        spawned = self.samples["bench.spawned_s"][-1]
        self.samples["bench.spawn_s"].append((spawned - in_process) / BENCH_CHILDREN)
        self.samples["bench.overshoot_s"].append(
            in_process - BENCH_NOMINAL_S
            - self.samples["bench.validate_s"][-1] - self.samples["bench.stats_s"][-1]
        )


def round_record(plan: Plan, seed: int, workdir: Path, traced: bool, index: int) -> dict:
    """Run one round; with `traced`, record spans and split the harness probe.

    The harness probe costs as much as the rest of a round, so only even
    rounds run it; the others measure the other layers more often.
    """
    with_bench = index % 2 == 0
    checks = Checks()
    rec = SpanRecorder(traced, f"{plan.name}-seed{seed}-round{index}")
    r = Round(plan, seed, workdir, rec, checks, rotate=index)
    t0 = time.perf_counter()
    with rec.span("round"):
        r.run(with_bench)
    # Wall time without the harness probe, comparable between all rounds.
    wall = time.perf_counter() - t0 - sum(r.samples.get("bench.spawned_s", ()))
    if traced and with_bench and r.processed is not None:
        with rec.span("bench_layers"):
            checks.probe("bench layers", r.bench_layers)
    if traced:
        r.samples["spans.recording_s"].append(span_cost(len(rec.spans)))
    return {
        "plan": plan.key,
        "samples": r.samples,
        "outputs": r.outputs,
        "wall": wall,
        "traced": traced,
        "spans": rec.as_records(),
        "attempted": checks.attempted,
        "failures": checks.failures,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mapreplay": mapreplay.__version__,
        },
    }


def span_cost(n: int) -> float:
    """Seconds spent recording `n` spans, measured on a scratch recorder."""
    scratch = SpanRecorder(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with scratch.span("span"):
            pass
    return time.perf_counter() - t0


def rss_record(plan: Plan, seed: int, workdir: Path) -> dict:
    """Record and distill the workload, as `mapreplay trace` then `process` would."""
    mrt = workdir / f"rss-{plan.name}.mrt"
    mpt = workdir / f"rss-{plan.name}.mpt"
    generate(plan.spec(seed), mrt)
    write_processed(process(read_raw_trace(mrt)), mpt)
    return {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "mpt_sha256": sha256(mpt.read_bytes()),
    }


def golden_entry(spec: WorkloadSpec) -> dict:
    """The MPT1 sha256 and counting-mode counters of one workload run."""
    data = to_bytes(process(generate(spec)))
    counters = ReplaySession(decode(data)).replay(RefMap, "counting").counters
    return {"mpt_sha256": sha256(data), "counters": counters.as_dict()}
