"""Harness statistics: bootstrap intervals, exact tests, report plumbing."""

import dataclasses
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from mapreplay.bench import (
    BenchConfig,
    BenchReport,
    VariantResult,
    binomial_test_one_sided,
    bootstrap_ci_diff,
    bootstrap_ci_mean,
    classify,
    cohens_h,
    compare_reports,
    format_speedup,
    pearson_r,
    read_report,
    run_bench,
)
from mapreplay.errors import ConfigError, MapReplayError
from mapreplay.postproc import Characterization, process
from mapreplay.replay import IMPLEMENTATIONS
from mapreplay.tracer import TraceSession
from mapreplay.workloads import IntKey, WorkloadSpec, generate

FAST = BenchConfig(
    runs=2, warmup_iters=1, measured_iters=3, iter_duration=0.004, use_processes=False
)


@pytest.mark.parametrize("field, value", [
    ("iter_duration", math.nan), ("iter_duration", math.inf),
    ("iter_duration", 0.0), ("iter_duration", -1.0), ("warmup_iters", -1),
    # The bootstrap's arguments: numpy refuses the first and last only after
    # every run, and a level of 0 calls any difference significant.
    ("seed", -1), ("level", 0.0), ("level", 1.0), ("level", 1.5), ("level", math.nan),
    ("resamples", 0),
])
def test_bench_config_rejects_unbounded_or_negative_iterations(field, value):
    # A NaN deadline is never reached, so the iteration would never end.
    with pytest.raises(ConfigError, match=field):
        BenchConfig(**{field: value})


def test_bench_config_needs_two_samples():
    # One run of one measured iteration leaves bootstrap_ci_mean one sample.
    with pytest.raises(ConfigError, match=r"runs \* measured_iters must be >= 2"):
        BenchConfig(runs=1, measured_iters=1)
    BenchConfig(runs=1, measured_iters=2)
    BenchConfig(runs=2, measured_iters=1)


def tiny_trace():
    s = TraceSession()
    m = s.new_map()
    for i in range(60):
        m.put(IntKey(i), i)
    for i in range(60):
        m.get(IntKey(i))
    return process(s.close())


# -- bootstrap ------------------------------------------------------------------------


def test_bootstrap_diff_identical_constants():
    assert bootstrap_ci_diff([5.0] * 4, [5.0] * 4, seed=1) == (0.0, 0.0)


def test_bootstrap_diff_zero_variance():
    assert bootstrap_ci_diff([10, 10, 10], [8, 8, 8], seed=1) == (2.0, 2.0)


def test_bootstrap_diff_deterministic_and_nested():
    rng = np.random.default_rng(7)
    a = rng.normal(10, 1, 25).tolist()
    b = rng.normal(11, 1, 25).tolist()
    first = bootstrap_ci_diff(a, b, seed=13)
    second = bootstrap_ci_diff(a, b, seed=13)
    assert first == second
    lo99, hi99 = bootstrap_ci_diff(a, b, level=0.99, seed=13)
    lo95, hi95 = bootstrap_ci_diff(a, b, level=0.95, seed=13)
    assert lo99 <= lo95 <= hi95 <= hi99


def test_bootstrap_diff_calibration_straddles_zero():
    # Monte-Carlo oracle: equal-mean normal samples -> the 99% interval
    # should cover zero nearly always; require >= 95 of 100 seeded trials.
    covered = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        a = rng.normal(10, 1, 25)
        b = rng.normal(10, 1, 25)
        lo, hi = bootstrap_ci_diff(a, b, level=0.99, resamples=4000, seed=trial)
        covered += lo <= 0.0 <= hi
    assert covered >= 95


def test_bootstrap_needs_two_samples():
    with pytest.raises(ConfigError):
        bootstrap_ci_diff([1.0], [2.0, 3.0])
    with pytest.raises(ConfigError):
        bootstrap_ci_mean([1.0])


def test_bootstrap_mean_brackets_the_mean():
    rng = np.random.default_rng(3)
    xs = rng.normal(50, 5, 30)
    lo, hi = bootstrap_ci_mean(xs, seed=4)
    assert lo <= float(np.mean(xs)) <= hi


# -- pearson -------------------------------------------------------------------------


def test_pearson_perfect_linear():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson_r(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)


def test_pearson_perfect_negative():
    xs = [1.0, 2.0, 3.0]
    assert pearson_r(xs, [-x for x in xs]) == pytest.approx(-1.0)


def test_pearson_hand_computed():
    # Deviations: x: -1,0,1; y: -1,1,0 -> covariance 1, variances 2 and 2.
    assert pearson_r([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_pearson_errors():
    with pytest.raises(ConfigError):
        pearson_r([1, 2], [1, 2])
    with pytest.raises(ConfigError):
        pearson_r([1, 2, 3], [5, 5, 5])
    with pytest.raises(ConfigError):
        pearson_r([1, 2, 3], [1, 2])


# -- binomial test --------------------------------------------------------------------


def test_binomial_paper_value():
    assert binomial_test_one_sided(18, 21, 0.5) == pytest.approx(0.0007, abs=5e-5)


def test_binomial_whole_distribution():
    assert binomial_test_one_sided(0, 21, 0.5) == pytest.approx(1.0)


def test_binomial_single_term():
    assert binomial_test_one_sided(21, 21, 0.5) == pytest.approx(2.0**-21)


def test_binomial_matches_enumeration_oracle():
    # Brute force over all outcomes of n Bernoulli(p) draws.
    n, p = 10, 0.3
    for s in range(n + 1):
        exact = sum(
            math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(s, n + 1)
        )
        assert binomial_test_one_sided(s, n, p) == pytest.approx(exact)


def test_binomial_rejects_bad_counts():
    with pytest.raises(ConfigError):
        binomial_test_one_sided(5, 4)


# -- cohen's h -----------------------------------------------------------------------


def test_cohens_h_paper_value():
    assert cohens_h(0.857, 0.5) == pytest.approx(0.796, abs=1e-3)


def test_cohens_h_zero_for_equal():
    assert cohens_h(0.3, 0.3) == 0.0


def test_cohens_h_endpoints():
    assert cohens_h(1.0, 0.0) == pytest.approx(math.pi)


def test_cohens_h_rejects_out_of_range():
    with pytest.raises(ConfigError):
        cohens_h(1.2, 0.5)


# -- classification ------------------------------------------------------------------


def _chr(events):
    return Characterization(events=events)


def test_classify_paper_rows():
    assert classify(_chr(9_600_913), 16.44) == "intensive"
    assert classify(_chr(27_815), 0.02) == "minimal"
    assert classify(_chr(2_563_693), 0.21) == "moderate"


def test_classify_boundary_and_unknown_cpu():
    assert classify(_chr(100_000)) == "moderate"
    assert classify(_chr(99_999)) == "minimal"
    assert classify(_chr(50), 5.0) == "intensive"


# -- speedup rendering ----------------------------------------------------------------


def test_format_speedup_two_decimals():
    assert format_speedup(2051, 2007) == "1.02x"


def test_format_speedup_slowdown():
    assert format_speedup(59, 80) == "0.74x"


# -- run_bench -----------------------------------------------------------------------


def test_run_bench_self_comparison_smoke():
    # Structural checks only: tight statistical bounds on twice-measured
    # identical variants are too sensitive to host noise for a 24 ms run
    # (the acceptance suite covers the statistics on one sample set).
    trace = tiny_trace()
    report = run_bench(trace, [("refmap", 16), ("refmap", 16)], FAST, label="self")
    base, twin = report.variants
    assert base.speedup == 1.0
    assert not base.significant
    assert twin.diff_lo <= twin.diff_hi
    assert 0.3 < twin.speedup < 3.0
    assert twin.significant == (not twin.diff_lo <= 0.0 <= twin.diff_hi)
    assert len(twin.samples) == FAST.runs * FAST.measured_iters


def test_run_bench_needs_a_variant():
    with pytest.raises(ConfigError, match="need at least one variant"):
        run_bench(tiny_trace(), [], FAST)


def test_run_bench_speedup_convention_on_synthetic_samples():
    # Ratio arithmetic oracle: slower variant -> speedup < 1, CI sign negative.
    baseline = [10.0, 10.1, 9.9, 10.0]
    slower = [12.0, 12.2, 11.8, 12.0]
    lo, hi = bootstrap_ci_diff(baseline, slower, seed=5)
    assert hi < 0  # baseline minus slower is negative throughout
    assert float(np.mean(baseline)) / float(np.mean(slower)) < 1.0


def test_run_bench_significance_flag_matches_ci():
    trace = tiny_trace()
    report = run_bench(trace, [("refmap", 16), ("pydict", 16)], FAST, label="flagcheck")
    for v in report.variants[1:]:
        assert v.significant == (not v.diff_lo <= 0.0 <= v.diff_hi)


def test_run_bench_excludes_faulty_variant():
    from mapreplay.refmap import DEFAULT_CONFIG, PyDictMap

    class Broken(PyDictMap):
        def __init__(self, config=DEFAULT_CONFIG):
            super().__init__(config)

        @classmethod
        def copy_of(cls, source, config=DEFAULT_CONFIG):
            new = cls(config)
            new._d = dict(source._d)
            return new

        def get(self, key):
            return None  # always a miss

    trace = tiny_trace()
    report = run_bench(trace, [("refmap", 16), (Broken, 16)], FAST, label="broken")
    assert not report.variants[0].excluded
    assert report.variants[1].excluded
    assert "op" in report.variants[1].error


def test_run_bench_baseline_failure_raises():
    from mapreplay.refmap import DEFAULT_CONFIG, PyDictMap

    class Broken(PyDictMap):
        def get(self, key):
            return None

    trace = tiny_trace()
    with pytest.raises(MapReplayError):
        run_bench(trace, [(Broken, 16)], FAST, label="badbase")


def test_run_bench_statistics_deterministic():
    trace = tiny_trace()
    a = run_bench(trace, [("refmap", 16), ("refmap", 64)], FAST, label="det")
    stats_of = lambda rep: [
        (v.half_width, v.diff_lo, v.diff_hi, v.significant) for v in rep.variants
    ]
    # Re-derive the statistics from the same samples: must be bit-identical.
    b = BenchReport(a.label, a.config, [
        VariantResult(v.label, v.impl, v.dic, v.lf_milli, samples=list(v.samples))
        for v in a.variants
    ])
    from mapreplay.bench import bootstrap_ci_diff as diff, bootstrap_ci_mean as mean_ci

    for i, v in enumerate(b.variants):
        v.mean = float(np.mean(v.samples))
        lo, hi = mean_ci(v.samples, a.config.level, a.config.resamples, a.config.seed + 101 + i)
        v.half_width = (hi - lo) / 2.0
        if i == 0:
            v.speedup = 1.0
        else:
            v.speedup = b.variants[0].mean / v.mean
            v.diff_lo, v.diff_hi = diff(
                b.variants[0].samples, v.samples, a.config.level,
                a.config.resamples, a.config.seed + 501 + i,
            )
            v.significant = not (v.diff_lo <= 0.0 <= v.diff_hi)
    assert stats_of(a) == stats_of(b)


def test_run_bench_spawned_processes():
    trace = tiny_trace()
    cfg = BenchConfig(runs=2, warmup_iters=1, measured_iters=2,
                      iter_duration=0.004, use_processes=True)
    report = run_bench(trace, [("refmap", 16), ("refmap", 64)], cfg, label="spawned")
    for v in report.variants:
        assert len(v.samples) == cfg.runs * cfg.measured_iters
        assert all(s > 0 for s in v.samples)


def test_run_bench_sends_children_the_trace_not_its_bytes(monkeypatch):
    # A spawned child builds its session from the ProcessedTrace it is sent,
    # so the parent encodes nothing for it.
    from mapreplay import bench, postproc

    def no_encode(trace):
        raise AssertionError("run_bench encoded the trace for its children")

    monkeypatch.setattr(postproc, "to_bytes", no_encode)
    monkeypatch.setattr(bench, "to_bytes", no_encode, raising=False)
    cfg = BenchConfig(runs=1, warmup_iters=0, measured_iters=2,
                      iter_duration=0.003, use_processes=True)
    report = run_bench(tiny_trace(), [("refmap", 16)], cfg, label="handoff")
    assert len(report.variants[0].samples) == 2


def test_spawned_run_names_the_childs_error():
    # The child builds its own ReplaySession, which refuses a negative operand.
    import multiprocessing

    from mapreplay.bench import _resolve, _spawned_run

    trace = tiny_trace()
    ops = trace.ops.copy()
    ops[1] = -1
    variant = _resolve([("refmap", 16)], 750)[0]
    with pytest.raises(MapReplayError, match="^benchmark child failed: TraceIntegrityError: "
                       "op 0: negative word or operand -1$"):
        _spawned_run(multiprocessing.get_context("spawn"),
                     dataclasses.replace(trace, ops=ops), variant, FAST)


#: A caller with no `if __name__ == "__main__":` guard: each spawned child
#: runs it again and dies starting a process of its own.
_UNGUARDED = """
from mapreplay.bench import BenchConfig, run_bench
from mapreplay.postproc import process
from mapreplay.workloads import WorkloadSpec, generate

trace = process(generate(WorkloadSpec("populate-copy", seed=1)))
run_bench(trace, [("refmap", 16)],
          BenchConfig(runs=1, warmup_iters=0, measured_iters=2, iter_duration=0.05))
"""


def test_spawned_run_from_an_unguarded_script_fails_instead_of_hanging(tmp_path):
    # The trace pickles past a pipe's 64 KiB buffer, so a parent writing it
    # while it still holds the dead child's end of the pipe would block.
    trace = process(generate(WorkloadSpec("populate-copy", seed=1)))
    assert len(pickle.dumps(trace)) > 1 << 16
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=60)
    assert out.returncode == 1, out.stderr
    assert "MapReplayError: benchmark child exited without a result (code 1)" in out.stderr


def test_run_bench_custom_adapter_falls_back_in_process():
    trace = tiny_trace()
    cfg = BenchConfig(runs=1, warmup_iters=0, measured_iters=2,
                      iter_duration=0.003, use_processes=True)
    with pytest.warns(UserWarning, match="in-process"):
        report = run_bench(trace, [(IMPLEMENTATIONS["refmap"], 16)], cfg, label="fallback")
    assert len(report.variants[0].samples) == 2


def test_run_bench_builds_one_replay_session(monkeypatch):
    # Validation and in-process timing of every variant share one session:
    # a replay only reads it.
    from mapreplay import bench

    built = []

    class CountedSession(bench.ReplaySession):
        def __init__(self, trace):
            super().__init__(trace)
            built.append(self)

    monkeypatch.setattr(bench, "ReplaySession", CountedSession)
    variants = [("refmap", 16), ("pydict", 16), ("refmap", 64)]
    report = run_bench(tiny_trace(), variants, FAST, label="shared")
    assert len(built) == 1
    assert [len(v.samples) for v in report.variants] == [FAST.runs * FAST.measured_iters] * 3


def test_pipeline_validates_against_refmap_once(monkeypatch):
    # pipeline's own RefMap validation stands for the refmap variants'.
    from mapreplay import bench
    from mapreplay.refmap import DEFAULT_CONFIG, PyDictMap, RefMap
    from mapreplay.workloads import WorkloadSpec

    built, validating = [], []

    class CountedSession(bench.ReplaySession):
        def __init__(self, trace):
            super().__init__(trace)
            built.append(self)

        def replay(self, factory, mode="timing", config=DEFAULT_CONFIG):
            if mode == "validating":
                validating.append(factory)
            return super().replay(factory, mode, config)

    monkeypatch.setattr(bench, "ReplaySession", CountedSession)
    spec = WorkloadSpec("churn", seed=3, params={"maps": 2, "cycles": 2})
    variants = [("refmap", 16), ("pydict", 16), ("refmap", 64)]
    report = bench.pipeline(spec, variants, FAST)
    assert len(built) == 1
    assert validating == [RefMap, PyDictMap]
    assert not any(v.excluded for v in report.variants)


def test_pipeline_names_a_validation_failure(monkeypatch):
    # A processed trace with one recorded outcome flipped no longer replays
    # as recorded; pipeline says which stage refused it.
    from mapreplay import bench
    from mapreplay.errors import FidelityError
    from mapreplay.postproc import OUTCOME_BIT, OP_KIND_MASK
    from mapreplay.tracer import RawOpKind
    from mapreplay.workloads import WorkloadSpec

    def flipped(raw):
        trace = process(raw)
        ops = trace.ops.copy()
        first_put = 3 * int(np.flatnonzero(ops[0::3] & OP_KIND_MASK == RawOpKind.PUT)[0])
        ops[first_put] ^= OUTCOME_BIT
        return dataclasses.replace(trace, ops=ops)

    monkeypatch.setattr(bench, "process", flipped)
    spec = WorkloadSpec("churn", seed=3, params={"maps": 2, "cycles": 2})
    with pytest.raises(FidelityError, match="^pipeline validation failed: op "):
        bench.pipeline(spec, [("refmap", 16)], FAST)


# -- report files ----------------------------------------------------------------------


def _hand_built_report():
    # A baseline with no difference interval, a measured variant whose floats
    # have long reprs, and a variant excluded by validation.
    config = BenchConfig(runs=2, warmup_iters=1, measured_iters=2, iter_duration=0.004,
                         seed=7, level=0.95, resamples=1000)
    return BenchReport("pin", config, [
        VariantResult("refmap:dic16", "refmap", 16, 750, samples=[0.25, 0.5, 0.75, 1.0],
                      mean=0.625, half_width=0.125, speedup=1.0),
        VariantResult("refmap:dic64", "refmap", 64, 500, samples=[0.1 + 0.2, 1 / 3, 2 / 3, 0.1],
                      mean=0.35833333333333334, half_width=1 / 7, speedup=1.744186046511628,
                      diff_lo=-0.012345678901234568, diff_hi=0.5555555555555556,
                      significant=True),
        VariantResult("Broken:dic16", "Broken", 16, 750, excluded=True,
                      error="op 3: get outcome 0, recorded 1"),
    ])


def test_report_lines_are_pinned():
    assert _hand_built_report().to_lines() == [
        "format=mapreplay-bench-v1",
        "label=pin",
        "baseline=refmap:dic16",
        "config.runs=2",
        "config.warmup_iters=1",
        "config.measured_iters=2",
        "config.iter_duration=0.004",
        "config.seed=7",
        "config.level=0.95",
        "config.resamples=1000",
        "variant.0.label=refmap:dic16",
        "variant.0.impl=refmap",
        "variant.0.dic=16",
        "variant.0.lf=750",
        "variant.0.excluded=0",
        "variant.0.mean_ms=0.625",
        "variant.0.half_width_ms=0.125",
        "variant.0.speedup=1.0",
        "variant.0.diff_lo=nan",
        "variant.0.diff_hi=nan",
        "variant.0.significant=0",
        "variant.0.samples=0.25,0.5,0.75,1.0",
        "variant.1.label=refmap:dic64",
        "variant.1.impl=refmap",
        "variant.1.dic=64",
        "variant.1.lf=500",
        "variant.1.excluded=0",
        "variant.1.mean_ms=0.35833333333333334",
        "variant.1.half_width_ms=0.14285714285714285",
        "variant.1.speedup=1.744186046511628",
        "variant.1.diff_lo=-0.012345678901234568",
        "variant.1.diff_hi=0.5555555555555556",
        "variant.1.significant=1",
        "variant.1.samples=0.30000000000000004,0.3333333333333333,0.6666666666666666,0.1",
        "variant.2.label=Broken:dic16",
        "variant.2.impl=Broken",
        "variant.2.dic=16",
        "variant.2.lf=750",
        "variant.2.excluded=1",
        "variant.2.error=op 3: get outcome 0, recorded 1",
    ]


def _written_fields(report):
    # Every value a report file holds; floats by repr, so a nan equals a nan.
    c = report.config
    fields = [report.label, c.runs, c.warmup_iters, c.measured_iters, repr(c.iter_duration),
              c.seed, repr(c.level), c.resamples]
    for v in report.variants:
        fields.append((v.label, v.impl, v.dic, v.lf_milli, v.excluded))
        if v.excluded:
            fields.append(v.error)
        else:
            fields.append([repr(x) for x in (v.mean, v.half_width, v.speedup, v.diff_lo,
                                             v.diff_hi, *v.samples)] + [v.significant])
    return fields


def test_report_round_trip(tmp_path):
    trace = tiny_trace()
    measured = run_bench(trace, [("refmap", 16), ("refmap", 64)], FAST, label="rt")
    for report in (measured, _hand_built_report()):
        path = tmp_path / "report.txt"
        report.write(path)
        assert _written_fields(read_report(path)) == _written_fields(report)


def test_report_render_layout():
    trace = tiny_trace()
    report = run_bench(trace, [("refmap", 16), ("refmap", 64)], FAST, label="layout")
    text = report.render()
    assert text.splitlines()[1].split()[:2] == ["variant", "ms/replay"]
    assert "baseline" in text
    assert "±" in text
    assert "x)" in text


def test_report_render_names_an_excluded_variant():
    line = _hand_built_report().render().splitlines()[-1]
    assert line.split()[:3] == ["Broken:dic16", "excluded", "-"]
    assert line.endswith("op 3: get outcome 0, recorded 1")


def test_report_render_prints_whole_milliseconds_from_100():
    # Traces of 100 ms or more render as the paper's tables print them.
    report = _hand_built_report()
    base, other = report.variants[:2]
    report.variants[:2] = [
        dataclasses.replace(base, mean=1234.5678, half_width=100.4),
        dataclasses.replace(other, mean=617.3, half_width=99.5),
    ]
    rows = [line.split() for line in report.render().splitlines()[2:]]
    assert rows[0][1] == "1235±100"
    assert rows[1][1:3] == ["617±99.5", "(2.00x)"]


def test_read_report_rejects_other_files(tmp_path):
    path = tmp_path / "nope.txt"
    path.write_text("hello\n")
    with pytest.raises(MapReplayError):
        read_report(path)


# -- compare -------------------------------------------------------------------------


def _variant(label, speedup, significant):
    return VariantResult(
        label=label, impl="refmap", dic=16, lf_milli=750,
        samples=[1.0, 1.0], mean=1.0, half_width=0.0,
        speedup=speedup, diff_lo=-1.0, diff_hi=1.0, significant=significant,
    )


def _report(label, rows):
    variants = [_variant("base", 1.0, False)]
    variants += [_variant(name, s, sig) for name, s, sig in rows]
    return BenchReport(label, BenchConfig(), variants)


def test_compare_classification_symbols():
    a = _report("A", [
        ("v1", 1.10, True),   # significant speedup
        ("v2", 0.90, True),   # significant slowdown
        ("v3", 1.02, False),  # insignificant speedup
        ("v4", 0.97, False),  # insignificant slowdown
        ("v5", 1.05, True),   # discordant vs B
    ])
    b = _report("B", [
        ("v1", 1.20, True),
        ("v2", 0.85, True),
        ("v3", 1.01, True),
        ("v4", 0.99, False),
        ("v5", 0.95, False),
    ])
    result = compare_reports(a, b)
    by_label = {c.label: c for c in result.comparisons}
    assert (by_label["v1"].symbol_a, by_label["v1"].symbol_b, by_label["v1"].overlap) == ("⊕", "⊕", "⊕")
    assert by_label["v2"].overlap == "⊖"
    assert by_label["v3"].overlap == "+"  # concordant, mixed significance
    assert by_label["v4"].overlap == "-"
    assert by_label["v5"].overlap == "⊕|-"  # discordant
    assert result.concordant == 4
    assert result.trials == 5
    assert result.binomial_p == pytest.approx(binomial_test_one_sided(4, 5, 0.5))
    assert result.effect_h == pytest.approx(cohens_h(4 / 5, 0.5))
    assert result.pearson is not None
    text = result.render()
    assert "concordant=4/5" in text


def test_compare_without_speedup_variance_has_no_pearson():
    # A's speedups are all equal, so the correlation is undefined.
    a = _report("A", [("v1", 1.5, False), ("v2", 1.5, False), ("v3", 1.5, False)])
    b = _report("B", [("v1", 1.1, False), ("v2", 1.2, False), ("v3", 1.3, False)])
    result = compare_reports(a, b)
    assert result.pearson is None
    assert "pearson_r=n/a" in result.render().splitlines()
    assert result.concordant == 3


def test_compare_refuses_reports_with_different_baselines():
    # Each speedup is against its own report's baseline, so they would not compare.
    a = _report("A", [("v1", 1.5, True)])
    b = _report("B", [("v1", 1.5, True)])
    b.variants[0].label = "refmap:dic32"
    with pytest.raises(ConfigError,
                       match="^reports have different baselines: base against refmap:dic32$"):
        compare_reports(a, b)


def test_compare_requires_shared_variants():
    a = _report("A", [("v1", 1.0, False)])
    b = _report("B", [("zz", 1.0, False)])
    with pytest.raises(ConfigError):
        compare_reports(a, b)
