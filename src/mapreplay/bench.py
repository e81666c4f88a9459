"""Benchmark harness and decision statistics.

run_bench times repeated replays of one processed trace for a list of
(implementation, initial-capacity) variants: each run executes warmup and
measured iterations, an iteration repeats the replay loop until the target
duration elapses and reports the mean milliseconds per replay invocation.
Each run gets a freshly spawned interpreter process by default, keeping
runs independent; each is sent the processed trace itself, not its bytes.
The per-variant sample set is the measured iterations pooled across runs.
`pipeline` records, distills and validates a workload for run_bench.

Reported statistics follow the comparison methodology: percentile
bootstrap confidence intervals (mean and difference of means), speedups as
baseline_mean / variant_mean, a significance flag set exactly when the
99% difference interval excludes zero, plus Pearson correlation, the exact
one-sided binomial test, and Cohen's h for cross-report concordance
analysis.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, FidelityError, MapReplayError
from .postproc import Characterization, ProcessedTrace, process
from .refmap import DEFAULT_CONFIG, RefMap
from .replay import ConfigOverride, ReplaySession, get_implementation
from .workloads import WorkloadSpec, generate

REPORT_FORMAT = "mapreplay-bench-v1"


# -- statistics ------------------------------------------------------------------


def _bootstrap_means(samples: np.ndarray, resamples: int, rng) -> np.ndarray:
    idx = rng.integers(0, len(samples), size=(resamples, len(samples)))
    return samples[idx].mean(axis=1)


def bootstrap_ci_mean(
    samples: Sequence[float], level: float = 0.99, resamples: int = 50000, seed: int = 0
) -> tuple[float, float]:
    """Percentile bootstrap interval for the sample mean."""
    arr = np.asarray(samples, dtype=float)
    if len(arr) < 2:
        raise ConfigError("bootstrap needs at least 2 samples")
    rng = np.random.default_rng(seed)
    means = _bootstrap_means(arr, resamples, rng)
    lo, hi = np.quantile(means, [(1 - level) / 2, (1 + level) / 2])
    return float(lo), float(hi)


def bootstrap_ci_diff(
    samples_a: Sequence[float],
    samples_b: Sequence[float],
    level: float = 0.99,
    resamples: int = 50000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for mean(a) - mean(b).

    Deterministic for a fixed seed; the resample draws depend only on the
    seed and sample sizes, so intervals at increasing levels nest.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ConfigError("bootstrap needs at least 2 samples on each side")
    rng = np.random.default_rng(seed)
    diffs = _bootstrap_means(a, resamples, rng) - _bootstrap_means(b, resamples, rng)
    lo, hi = np.quantile(diffs, [(1 - level) / 2, (1 + level) / 2])
    return float(lo), float(hi)


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation; needs length >= 3 and variance on both sides."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) != len(y):
        raise ConfigError("pearson_r needs equal-length samples")
    if len(x) < 3:
        raise ConfigError("pearson_r needs at least 3 points")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
    if denom == 0.0:
        raise ConfigError("pearson_r undefined for zero-variance input")
    return float((dx * dy).sum() / denom)


def binomial_test_one_sided(successes: int, trials: int, p0: float = 0.5) -> float:
    """Exact upper-tail binomial probability P[X >= successes | p0]."""
    if not 0 <= successes <= trials:
        raise ConfigError("successes must be within [0, trials]")
    return float(
        sum(
            math.comb(trials, k) * p0**k * (1.0 - p0) ** (trials - k)
            for k in range(successes, trials + 1)
        )
    )


def cohens_h(p1: float, p2: float) -> float:
    """Effect size for a difference of proportions: 2 asin sqrt(p1) - 2 asin sqrt(p2)."""
    for p in (p1, p2):
        if not 0.0 <= p <= 1.0:
            raise ConfigError("proportions must be within [0, 1]")
    return 2.0 * math.asin(math.sqrt(p1)) - 2.0 * math.asin(math.sqrt(p2))


def classify(counts: Characterization, cpu_fraction: float | None = None) -> str:
    """Workload class: intensive (>=5% CPU in the map), moderate (>=100k
    events), else minimal."""
    if cpu_fraction is not None and cpu_fraction >= 5.0:
        return "intensive"
    if counts.events >= 100_000:
        return "moderate"
    return "minimal"


def format_speedup(baseline_mean: float, variant_mean: float) -> str:
    """Render a speedup the way the comparison tables do, e.g. '1.02x'."""
    return f"{baseline_mean / variant_mean:.2f}x"


def _fmt_ms(value: float) -> str:
    # Whole-ms traces render like the published tables; tiny ones keep detail.
    if value >= 100:
        return f"{value:.0f}"
    return f"{value:.1f}" if value >= 1 else f"{value:.4f}"


# -- harness ---------------------------------------------------------------------


@dataclass(slots=True)
class BenchConfig:
    runs: int = 5
    warmup_iters: int = 5
    measured_iters: int = 5
    iter_duration: float = 10.0
    seed: int = 20250810
    level: float = 0.99
    resamples: int = 50000
    use_processes: bool = True

    def __post_init__(self) -> None:
        if self.runs < 1 or self.measured_iters < 1:
            raise ConfigError("runs and measured_iters must be >= 1")
        # Checked here, not after every run has been timed.
        if self.runs * self.measured_iters < 2:
            raise ConfigError(
                f"runs * measured_iters must be >= 2 for a bootstrap interval, "
                f"not {self.runs} * {self.measured_iters}"
            )
        if self.warmup_iters < 0:
            raise ConfigError(f"warmup_iters must be >= 0, not {self.warmup_iters}")
        # An iteration replays until its deadline; a NaN deadline never comes.
        if not (math.isfinite(self.iter_duration) and self.iter_duration > 0):
            raise ConfigError(f"iter_duration must be finite and > 0, not {self.iter_duration!r}")


@dataclass(slots=True)
class VariantResult:
    label: str
    impl: str
    dic: int
    lf_milli: int
    samples: list[float] = field(default_factory=list)
    mean: float = math.nan
    half_width: float = math.nan
    speedup: float = math.nan
    diff_lo: float = math.nan  # bootstrap CI of baseline_mean - variant_mean
    diff_hi: float = math.nan
    significant: bool = False
    excluded: bool = False
    error: str = ""

    @property
    def direction(self) -> str:
        return "+" if self.speedup >= 1.0 else "-"


@dataclass(slots=True)
class BenchReport:
    label: str
    config: BenchConfig
    variants: list[VariantResult]

    @property
    def baseline(self) -> VariantResult:
        return self.variants[0]

    def render(self) -> str:
        lines = [
            f"trace: {self.label}    baseline: {self.baseline.label}",
            f"{'variant':<22} {'ms/replay':>18} {'speedup':>9} {'significant':>12}",
        ]
        for i, v in enumerate(self.variants):
            if v.excluded:
                lines.append(f"{v.label:<22} {'excluded':>18} {'-':>9} {v.error:>12}")
                continue
            cell = f"{_fmt_ms(v.mean)}±{_fmt_ms(v.half_width)}"
            if i == 0:
                lines.append(f"{v.label:<22} {cell:>18} {'':>9} {'baseline':>12}")
            else:
                lines.append(
                    f"{v.label:<22} {cell:>18} {f'({v.speedup:.2f}x)':>9} "
                    f"{'yes' if v.significant else 'no':>12}"
                )
        return "\n".join(lines)

    # line-oriented key=value records
    def to_lines(self) -> list[str]:
        lines = [
            f"format={REPORT_FORMAT}",
            f"label={self.label}",
            f"baseline={self.baseline.label}",
            f"config.runs={self.config.runs}",
            f"config.warmup_iters={self.config.warmup_iters}",
            f"config.measured_iters={self.config.measured_iters}",
            f"config.iter_duration={self.config.iter_duration!r}",
            f"config.seed={self.config.seed}",
            f"config.level={self.config.level!r}",
            f"config.resamples={self.config.resamples}",
        ]
        for i, v in enumerate(self.variants):
            p = f"variant.{i}"
            lines += [
                f"{p}.label={v.label}",
                f"{p}.impl={v.impl}",
                f"{p}.dic={v.dic}",
                f"{p}.lf={v.lf_milli}",
                f"{p}.excluded={int(v.excluded)}",
            ]
            if v.excluded:
                lines.append(f"{p}.error={v.error}")
                continue
            lines += [
                f"{p}.mean_ms={v.mean!r}",
                f"{p}.half_width_ms={v.half_width!r}",
                f"{p}.speedup={v.speedup!r}",
                f"{p}.diff_lo={v.diff_lo!r}",
                f"{p}.diff_hi={v.diff_hi!r}",
                f"{p}.significant={int(v.significant)}",
                f"{p}.samples={','.join(repr(s) for s in v.samples)}",
            ]
        return lines

    def write(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.to_lines()) + "\n")


def read_report(path: str | Path) -> BenchReport:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MapReplayError(
            f"not a {REPORT_FORMAT} report: {path}: byte {exc.start} is not UTF-8"
        ) from None
    kv: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, _, value = line.partition("=")
        kv[key] = value
    if kv.get("format") != REPORT_FORMAT:
        raise MapReplayError(f"not a {REPORT_FORMAT} report: {path}")

    def get(key: str, parse=str):
        try:
            return parse(kv[key])
        except KeyError:
            raise MapReplayError(f"report {path}: missing {key}") from None
        except ValueError:
            raise MapReplayError(f"report {path}: bad {key}={kv[key]!r}") from None

    config = BenchConfig(
        runs=get("config.runs", int),
        warmup_iters=get("config.warmup_iters", int),
        measured_iters=get("config.measured_iters", int),
        iter_duration=get("config.iter_duration", float),
        seed=get("config.seed", int),
        level=get("config.level", float),
        resamples=get("config.resamples", int),
    )
    variants = []
    i = 0
    while f"variant.{i}.label" in kv:
        p = f"variant.{i}"
        v = VariantResult(
            label=get(f"{p}.label"),
            impl=get(f"{p}.impl"),
            dic=get(f"{p}.dic", int),
            lf_milli=get(f"{p}.lf", int),
            excluded=bool(get(f"{p}.excluded", int)),
        )
        if v.excluded:
            v.error = kv.get(f"{p}.error", "")
        else:
            v.samples = get(f"{p}.samples", _parse_samples)
            v.mean = get(f"{p}.mean_ms", float)
            v.half_width = get(f"{p}.half_width_ms", float)
            v.speedup = get(f"{p}.speedup", float)
            v.diff_lo = get(f"{p}.diff_lo", float)
            v.diff_hi = get(f"{p}.diff_hi", float)
            v.significant = bool(get(f"{p}.significant", int))
        variants.append(v)
        i += 1
    return BenchReport(kv.get("label", "trace"), config, variants)


def _parse_samples(text: str) -> list[float]:
    return [float(s) for s in text.split(",") if s]


def _iteration(
    session: ReplaySession, factory: type, override: ConfigOverride | None, duration: float
) -> float:
    """One harness iteration: repeat replays until `duration` elapses.

    Replays shorter than 1 ms are batched between clock reads so the
    sample is not dominated by timer granularity. Returns mean ms per
    replay invocation.
    """
    total = 0.0
    invocations = 0
    batch = 1
    deadline = time.perf_counter() + duration
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            session.replay(factory, "timing", override)
        dt = time.perf_counter() - t0
        total += dt
        invocations += batch
        if time.perf_counter() >= deadline:
            break
        if dt < 1e-3:
            batch = min(batch * 2, 4096)
    return total / invocations * 1000.0


def _one_run(
    session: ReplaySession,
    factory: type,
    override: ConfigOverride | None,
    config: BenchConfig,
) -> list[float]:
    for _ in range(config.warmup_iters):
        _iteration(session, factory, override, config.iter_duration)
    return [
        _iteration(session, factory, override, config.iter_duration)
        for _ in range(config.measured_iters)
    ]


def _bench_worker(conn, trace: ProcessedTrace, impl: str, dic: int, lf_milli: int, config) -> None:
    try:
        session = ReplaySession(trace)
        factory = get_implementation(impl)
        samples = _one_run(session, factory, ConfigOverride(dic, lf_milli), config)
        conn.send(("ok", samples))
    except Exception as exc:  # surfaced in the parent
        conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _spawned_run(ctx, trace, impl: str, dic: int, lf_milli: int, config) -> list[float]:
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_bench_worker, args=(child, trace, impl, dic, lf_milli, config))
    proc.start()
    child.close()
    try:
        status, payload = parent.recv()
    except EOFError:
        proc.join()
        raise MapReplayError(
            f"benchmark child exited without a result (code {proc.exitcode})"
        ) from None
    proc.join()
    parent.close()
    if status != "ok":
        raise MapReplayError(f"benchmark child failed: {payload}")
    return payload


def _collect_all_samples(
    session: ReplaySession,
    measured: list[tuple[int, object, int]],  # (result index, impl, dic)
    lf_milli: int,
    config: BenchConfig,
) -> dict[int, list[float]]:
    """Measure every variant, one run at a time in round-robin order.

    Spawned child processes give each run a fresh interpreter and build
    their own session from `session.trace`, which they are sent. The
    in-process fallback replays `session` for every variant (a replay only
    reads it) and interleaves variants across runs so process warm-up drift
    spreads evenly instead of biasing later variants.
    """
    in_process = not config.use_processes
    if not in_process and any(not isinstance(impl, str) for _, impl, _ in measured):
        warnings.warn(
            "non-registry adapter cannot be sent to a child process; "
            "falling back to in-process runs"
        )
        in_process = True

    samples: dict[int, list[float]] = {idx: [] for idx, _, _ in measured}
    if in_process:
        runners = {}
        for idx, impl, dic in measured:
            factory = get_implementation(impl) if isinstance(impl, str) else impl
            runners[idx] = (factory, ConfigOverride(dic, lf_milli))
        # One unmeasured replay per variant absorbs cold-start costs that a
        # fresh child process would otherwise isolate.
        for factory, override in runners.values():
            session.replay(factory, "timing", override)
        for _ in range(config.runs):
            for idx, (factory, override) in runners.items():
                samples[idx].extend(_one_run(session, factory, override, config))
        return samples

    import multiprocessing  # only spawning needs it: ~0.75 MB RSS on import

    ctx = multiprocessing.get_context("spawn")
    for _ in range(config.runs):
        for idx, impl, dic in measured:
            samples[idx].extend(_spawned_run(ctx, session.trace, impl, dic, lf_milli, config))
    return samples


def run_bench(
    trace: ProcessedTrace,
    variants: Sequence[tuple],
    config: BenchConfig | None = None,
    label: str = "trace",
    lf_milli: int = DEFAULT_CONFIG.load_factor_milli,
) -> BenchReport:
    """Benchmark `variants` (pairs of implementation and initial capacity)
    against one trace; the first variant is the baseline.

    Each variant is validation-checked first; a variant whose replay
    outcomes diverge from the recorded ones is excluded and flagged.
    """
    if config is None:
        config = BenchConfig()
    if not variants:
        raise ConfigError("need at least one variant")

    session = ReplaySession(trace)
    results: list[VariantResult] = []
    measured: list[tuple[int, object, int]] = []
    validated: set[str] = set()
    for impl, dic in variants:
        impl_name = impl if isinstance(impl, str) else getattr(impl, "__name__", "custom")
        v = VariantResult(label=f"{impl_name}:dic{dic}", impl=impl_name, dic=dic, lf_milli=lf_milli)
        factory = get_implementation(impl) if isinstance(impl, str) else impl
        if impl_name not in validated:
            # Fidelity is checked under the recorded configurations: with a
            # capacity override, iterator-removes may legitimately pick
            # different victims (iteration order depends on capacity), which
            # is divergence of the workload, not of the adapter.
            try:
                session.replay(factory, "validating")
                validated.add(impl_name)
            except MapReplayError as exc:
                if not results:
                    raise MapReplayError(f"baseline variant failed validation: {exc}") from exc
                v.excluded = True
                v.error = str(exc)
                results.append(v)
                continue
        measured.append((len(results), impl, dic))
        results.append(v)

    for idx, samples in _collect_all_samples(session, measured, lf_milli, config).items():
        results[idx].samples = samples

    # Bootstrap seeds are derived per variant index so a report is a pure
    # function of (trace, variants, config).
    base = results[0]
    for i, v in enumerate(results):
        if v.excluded:
            continue
        v.mean = float(np.mean(v.samples))
        lo, hi = bootstrap_ci_mean(
            v.samples, config.level, config.resamples, config.seed + 101 + i
        )
        v.half_width = (hi - lo) / 2.0
        v.speedup = base.mean / v.mean
        if i == 0:
            v.speedup = 1.0
            v.significant = False
        else:
            v.diff_lo, v.diff_hi = bootstrap_ci_diff(
                base.samples, v.samples, config.level, config.resamples, config.seed + 501 + i
            )
            v.significant = not (v.diff_lo <= 0.0 <= v.diff_hi)
    return BenchReport(label, config, results)


def pipeline(
    spec: WorkloadSpec,
    variants,
    config: BenchConfig | None = None,
    lf_milli: int = DEFAULT_CONFIG.load_factor_milli,
) -> BenchReport:
    """generate -> post-process -> validate against RefMap -> bench."""
    trace = process(generate(spec))
    try:
        ReplaySession(trace).replay(RefMap, mode="validating")
    except FidelityError as exc:
        raise FidelityError(f"pipeline validation failed: {exc}") from exc
    return run_bench(trace, variants, config, label=spec.name, lf_milli=lf_milli)


# -- cross-report concordance analysis ---------------------------------------------


@dataclass(slots=True)
class Comparison:
    label: str
    symbol_a: str
    symbol_b: str
    overlap: str
    concordant: bool


@dataclass(slots=True)
class CompareResult:
    comparisons: list[Comparison]
    pearson: float | None
    concordant: int
    trials: int
    binomial_p: float
    effect_h: float

    def render(self) -> str:
        lines = [f"{'comparison':<24} {'A':>3} {'B':>3} {'overlap':>9}"]
        for c in self.comparisons:
            lines.append(f"{c.label:<24} {c.symbol_a:>3} {c.symbol_b:>3} {c.overlap:>9}")
        r = "n/a" if self.pearson is None else f"{self.pearson:.3f}"
        lines += [
            f"pearson_r={r}",
            f"concordant={self.concordant}/{self.trials}",
            f"binomial_p={self.binomial_p:.6f}",
            f"cohens_h={self.effect_h:.3f}",
        ]
        return "\n".join(lines)


def _symbol(v: VariantResult) -> str:
    if v.significant:
        return "⊕" if v.speedup > 1.0 else "⊖"
    return "+" if v.speedup >= 1.0 else "-"


def compare_reports(report_a: BenchReport, report_b: BenchReport) -> CompareResult:
    """Concordance analysis of two reports' non-baseline variants, matched
    by label: per-comparison change classification, Pearson correlation of
    the speedup ratios, the one-sided binomial test on concordant
    directions, and Cohen's h against the 0.5 proportion."""
    b_by_label = {v.label: v for v in report_b.variants[1:] if not v.excluded}
    comparisons = []
    ratios_a = []
    ratios_b = []
    concordant = 0
    for va in report_a.variants[1:]:
        vb = b_by_label.get(va.label)
        if va.excluded or vb is None:
            continue
        sa, sb = _symbol(va), _symbol(vb)
        same_dir = (va.speedup >= 1.0) == (vb.speedup >= 1.0)
        if same_dir:
            concordant += 1
            if va.significant and vb.significant:
                overlap = sa
            else:
                overlap = "+" if va.speedup >= 1.0 else "-"
        else:
            overlap = f"{sa}|{sb}"
        comparisons.append(Comparison(va.label, sa, sb, overlap, same_dir))
        ratios_a.append(va.speedup)
        ratios_b.append(vb.speedup)
    if not comparisons:
        raise ConfigError("reports share no comparable variants")
    try:
        r = pearson_r(ratios_a, ratios_b)
    except ConfigError:
        r = None
    n = len(comparisons)
    return CompareResult(
        comparisons=comparisons,
        pearson=r,
        concordant=concordant,
        trials=n,
        binomial_p=binomial_test_one_sided(concordant, n, 0.5),
        effect_h=cohens_h(concordant / n, 0.5),
    )
