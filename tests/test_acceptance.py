"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines as they complete.
"""

import time

import numpy as np
import pytest

from mapreplay.bench import (
    BenchConfig,
    binomial_test_one_sided,
    bootstrap_ci_diff,
    cohens_h,
    format_speedup,
    run_bench,
)
from mapreplay.postproc import (
    OP_KIND_MASK,
    decode,
    encode,
    insert_free_events,
    process,
    sanitize,
    to_bytes,
)
from mapreplay.refmap import MapConfig, RefMap, threshold
from mapreplay.replay import ReplaySession
from mapreplay.tracer import RawOpKind, RawTrace, TraceSession
from mapreplay.workloads import IntKey, WorkloadSpec, generate, run_direct

OP = RawOpKind

DEFAULT_WORKLOADS = [
    WorkloadSpec("wordfreq", seed=1),
    WorkloadSpec("dedupe", seed=1),
    WorkloadSpec("churn", seed=1),
    WorkloadSpec("scan", seed=1),
    WorkloadSpec("populate-copy", seed=1),
    WorkloadSpec("mixed", seed=1),
]


class _Gate:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget = budget_s
        self.checks = []

    def check(self, label, ok):
        self.checks.append((label, bool(ok)))
        return ok

    def finish(self, started):
        elapsed = time.monotonic() - started
        ok = all(flag for _, flag in self.checks) and elapsed < self.budget
        status = "PASS" if ok else "FAIL"
        print(f"\n[acceptance] {self.name}: {status} ({elapsed:.1f}s)")
        for label, flag in self.checks:
            if not flag:
                print(f"[acceptance]   failed: {label}")
        assert ok, f"{self.name}: " + "; ".join(l for l, f in self.checks if not f)


@pytest.fixture(scope="module")
def default_traces():
    """Every built-in workload at default scale: (spec, raw, processed)."""
    out = {}
    for spec in DEFAULT_WORKLOADS:
        raw = generate(spec)
        out[spec.name] = (spec, raw, process(raw))
    return out


def test_statistics_fidelity():
    gate = _Gate("statistics-fidelity", budget_s=1.0)
    t0 = time.monotonic()
    gate.check(
        "binomial(18, 21, 0.5) = 0.0007 +/- 5e-5",
        abs(binomial_test_one_sided(18, 21, 0.5) - 0.0007) <= 5e-5,
    )
    gate.check(
        "cohens_h(0.857, 0.5) = 0.796 +/- 1e-3",
        abs(cohens_h(0.857, 0.5) - 0.796) <= 1e-3,
    )
    gate.check("threshold(16, 750) = 12", threshold(16, 750) == 12)
    gate.finish(t0)


def test_resize_schedule():
    gate = _Gate("resize-schedule", budget_s=1.0)
    t0 = time.monotonic()

    session = TraceSession()
    m = session.new_map()
    for i in range(49):
        m.put(IntKey(i, hash32=i), i)
    trace = process(session.close())

    resize_sizes = []

    class ResizeProbe(RefMap):
        def _resize(self):
            resize_sizes.append(self.size())  # size already counts the new entry
            super()._resize()

    replay_session = ReplaySession(trace)
    replay_session.replay(ResizeProbe, mode="timing")
    gate.check("DIC-16 resizes at insertions 13, 25, 49", resize_sizes == [13, 25, 49])

    totals = {
        dic: replay_session.replay(RefMap, mode="counting", config=MapConfig(dic)).counters.resizes
        for dic in (16, 32, 64, 128)
    }
    gate.check(
        "counting totals across DIC {16,32,64,128} = {3,2,1,0}",
        totals == {16: 3, 32: 2, 64: 1, 128: 0},
    )
    gate.finish(t0)


def test_state_equivalence_property_suite(default_traces):
    gate = _Gate("state-equivalence", budget_s=120.0)
    t0 = time.monotonic()

    sequences = 0
    mismatch_free = True
    digest_ok = True
    length_ok = True
    for seed in range(1000):
        spec = WorkloadSpec("random", seed=seed, params={"ops": 60, "universe": 20})
        raw = generate(spec)
        length_ok &= len(raw.events) <= 200
        trace = process(raw)
        try:
            result = ReplaySession(trace).replay(RefMap, mode="validating")
        except Exception:
            mismatch_free = False
            break
        digest_ok &= result.map_digests == run_direct(spec)
        sequences += 1
    gate.check("1000 random sequences of <= 200 ops", sequences == 1000 and length_ok)
    gate.check("zero outcome-bit mismatches", mismatch_free)
    gate.check("per-map digests equal direct execution", digest_ok)

    for name, (spec, _, trace) in default_traces.items():
        result = ReplaySession(trace).replay(RefMap, mode="validating")
        gate.check(f"{name}: replay matches direct execution",
                   result.map_digests == run_direct(spec))
    gate.finish(t0)


def test_postprocessing_preservation(default_traces, raw_records):
    gate = _Gate("postprocessing-preservation", budget_s=120.0)
    t0 = time.monotonic()

    for name, (_, raw, coalesced_trace) in default_traces.items():
        uncoalesced = encode(insert_free_events(sanitize(raw)))
        a = ReplaySession(uncoalesced)
        b = ReplaySession(coalesced_trace)
        gate.check(
            f"{name}: identical counters with and without coalescing",
            a.replay(RefMap, "counting").counters == b.replay(RefMap, "counting").counters,
        )
        gate.check(
            f"{name}: identical digests with and without coalescing",
            a.replay(RefMap, "validating").map_digests
            == b.replay(RefMap, "validating").map_digests,
        )
        gate.check(
            f"{name}: encode/decode round trip",
            decode(to_bytes(coalesced_trace)) == coalesced_trace,
        )

        orphans = raw_records([
            (OP.GET, (9 << 40) | 1, (9 << 40) | 1, 5, 0, 0),
            (OP.PUT, (9 << 40) | 1, (9 << 40) | 2, 6, 0, 0),
            (OP.CLEAR, (9 << 40) | 2),
        ])
        step = max(1, len(raw) // 3)
        injected = np.insert(raw.records, np.arange(len(orphans)) * step, orphans)
        cleaned = sanitize(RawTrace(injected))
        orphan_events = RawTrace(orphans).events
        gate.check(
            f"{name}: sanitize removes all injected orphans and nothing else",
            cleaned.events == sanitize(raw).events
            and all(e not in orphan_events for e in cleaned.events),
        )

    round_trips = all(
        (lambda t: decode(to_bytes(t)) == t)(
            process(generate(WorkloadSpec("random", seed=seed, scale=2)))
        )
        for seed in range(50)
    )
    gate.check("encode/decode round trip on 50 random traces", round_trips)
    gate.finish(t0)


def test_directional_trends(default_traces):
    gate = _Gate("directional-trends", budget_s=60.0)
    t0 = time.monotonic()

    _, _, wordfreq = default_traces["wordfreq"]
    session = ReplaySession(wordfreq)
    c16 = session.replay(RefMap, "counting", MapConfig(16)).counters
    c64 = session.replay(RefMap, "counting", MapConfig(64)).counters
    gate.check("wordfreq resizes non-increasing 16 -> 64", c64.resizes <= c16.resizes)
    gate.check(
        "wordfreq collision probes non-increasing 16 -> 64",
        c64.collision_probes <= c16.collision_probes,
    )

    _, _, scan = default_traces["scan"]
    session = ReplaySession(scan)
    s16 = session.replay(RefMap, "counting", MapConfig(16)).counters
    s128 = session.replay(RefMap, "counting", MapConfig(128)).counters
    gate.check(
        "scan buckets scanned strictly increasing 16 -> 128",
        s128.buckets_scanned > s16.buckets_scanned,
    )
    gate.finish(t0)


def test_harness_soundness():
    gate = _Gate("harness-soundness", budget_s=600.0)
    t0 = time.monotonic()

    session = TraceSession()
    m = session.new_map()
    for i in range(120):
        m.put(IntKey(i), i)
    for i in range(240):
        m.get(IntKey(i % 150))
    trace = process(session.close())

    # One real harness measurement: 5 runs x 5 measured iterations.
    cfg = BenchConfig(runs=5, warmup_iters=2, measured_iters=5,
                      iter_duration=0.03, seed=20250810, use_processes=False)
    report = run_bench(trace, [("refmap", 16)], cfg, label="self")
    samples = report.variants[0].samples
    mean = report.variants[0].mean
    gate.check("5 runs x 5 iterations collected", len(samples) == 25)

    # Self-comparison: the variant against itself, 100 seeded repetitions.
    good = 0
    for rep in range(100):
        lo, hi = bootstrap_ci_diff(samples, samples, level=cfg.level,
                                   resamples=cfg.resamples, seed=rep)
        ci_ok = lo <= 0.0 <= hi
        render_ok = format_speedup(mean, mean) == "1.00x"
        good += ci_ok and render_ok
    gate.check("difference CI contains 0 and speedup renders 1.00x in >= 95/100",
               good >= 95)
    gate.check("report rendering: 2051 vs 2007 -> 1.02x",
               format_speedup(2051, 2007) == "1.02x")
    gate.finish(t0)


def _free_placement_ok(trace):
    """Last-use oracle over the opcode triples themselves."""
    n = trace.op_count
    ops = trace.ops
    uses_map: dict[int, int] = {}
    uses_iter: dict[int, int] = {}
    open_map: dict[int, int] = {}
    open_iter: dict[int, int] = {}
    free_events = []  # (index, kind, slot)
    iter_of_map: dict[int, int] = {}

    for i in range(n):
        word, a, b = int(ops[3 * i]), int(ops[3 * i + 1]), int(ops[3 * i + 2])
        kind = OP(word & OP_KIND_MASK)
        if kind in (OP.CREATE, OP.CREATE_COPY):
            if a in open_map:
                return False  # slot reused while occupied
            open_map[a] = i
            uses_map[a] = i
            if kind is OP.CREATE_COPY:
                uses_map[b] = i
        elif kind in (OP.GET, OP.PUT, OP.REMOVE, OP.CONTAINS_KEY, OP.CLEAR):
            uses_map[a] = i
        elif kind is OP.ITER_NEW:
            uses_map[a] = i
            if b in open_iter:
                return False
            open_iter[b] = i
            uses_iter[b] = i
            iter_of_map[b] = a
        elif kind in (OP.ITER_ADVANCE, OP.ITER_REMOVE):
            uses_iter[a] = i
            uses_map[iter_of_map[a]] = i
        elif kind is OP.FREE_MAP:
            if a not in open_map:
                return False  # free without a live occupant
            free_events.append((i, "map", a, uses_map[a]))
            del open_map[a]
        elif kind is OP.FREE_ITER:
            if a not in open_iter:
                return False
            free_events.append((i, "iter", a, uses_iter[a]))
            del open_iter[a]

    if open_map or open_iter:
        return False  # an object was never freed
    for free_idx, _, _, last_use in free_events:
        if free_idx <= last_use:
            return False
        for j in range(last_use + 1, free_idx):
            between = OP(int(ops[3 * j]) & OP_KIND_MASK)
            if between not in (OP.FREE_MAP, OP.FREE_ITER):
                return False  # free not immediately after the last use
    return True


def test_free_event_placement(default_traces):
    gate = _Gate("free-event-placement", budget_s=60.0)
    t0 = time.monotonic()
    for name, (_, _, trace) in default_traces.items():
        gate.check(f"{name}: one free per object, after its last use",
                   _free_placement_ok(trace))
    for seed in range(25):
        trace = process(generate(WorkloadSpec("random", seed=seed, scale=3)))
        gate.check(f"random seed {seed}", _free_placement_ok(trace))
    gate.finish(t0)
