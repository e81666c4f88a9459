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
from .refmap import DEFAULT_CONFIG, MapConfig, RefMap
from .replay import ReplaySession, get_implementation
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


def classify(counts: Characterization, cpu_percent: float | None = None) -> str:
    """Workload class: intensive (>=5% CPU in the map), moderate (>=100k
    events), else minimal. `cpu_percent` is the map's share of CPU time
    as a percentage, 0-100: 16.44 means 16.44%."""
    if cpu_percent is not None and cpu_percent >= 5.0:
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
        # The bootstrap's own arguments: numpy would refuse the first and
        # last only after every run has been timed, and a level of 0 gives
        # zero-width intervals that call any difference significant.
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, not {self.seed}")
        if not 0 < self.level < 1:
            raise ConfigError(f"level must be in (0, 1), not {self.level!r}")
        if self.resamples < 1:
            raise ConfigError(f"resamples must be >= 1, not {self.resamples}")


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


def _parse_bool(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(text)
    return text == "1"


# How a report writes and reads a value of each type: (format, parse).
_TEXT = {
    str: (str, str),
    int: (str, int),
    float: (repr, float),
    bool: (lambda b: str(int(b)), _parse_bool),
    list: (lambda xs: ",".join(map(repr, xs)), lambda s: [float(x) for x in s.split(",") if x]),
}

# The report's keys in file order, as (key, attribute, type): the config,
# then per variant its identity and either the error that excluded it or
# its statistics.
_REPORT_KEYS = {
    "config": (
        ("runs", "runs", int), ("warmup_iters", "warmup_iters", int),
        ("measured_iters", "measured_iters", int), ("iter_duration", "iter_duration", float),
        ("seed", "seed", int), ("level", "level", float), ("resamples", "resamples", int),
    ),
    "variant": (
        ("label", "label", str), ("impl", "impl", str), ("dic", "dic", int),
        ("lf", "lf_milli", int), ("excluded", "excluded", bool),
    ),
    "excluded": (("error", "error", str),),
    "measured": (
        ("mean_ms", "mean", float), ("half_width_ms", "half_width", float),
        ("speedup", "speedup", float), ("diff_lo", "diff_lo", float),
        ("diff_hi", "diff_hi", float), ("significant", "significant", bool),
        ("samples", "samples", list),
    ),
}


def _key_lines(obj, prefix: str, section: str) -> list[str]:
    return [f"{prefix}.{key}={_TEXT[kind][0](getattr(obj, attr))}"
            for key, attr, kind in _REPORT_KEYS[section]]


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
                speedup = f"({format_speedup(self.baseline.mean, v.mean)})"
                lines.append(f"{v.label:<22} {cell:>18} {speedup:>9} "
                             f"{'yes' if v.significant else 'no':>12}")
        return "\n".join(lines)

    # line-oriented key=value records
    def to_lines(self) -> list[str]:
        lines = [f"format={REPORT_FORMAT}", f"label={self.label}",
                 f"baseline={self.baseline.label}", *_key_lines(self.config, "config", "config")]
        for i, v in enumerate(self.variants):
            lines += _key_lines(v, f"variant.{i}", "variant")
            lines += _key_lines(v, f"variant.{i}", "excluded" if v.excluded else "measured")
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

    def read(prefix: str, section: str) -> dict:
        fields = {}
        for key, attr, kind in _REPORT_KEYS[section]:
            name = f"{prefix}.{key}"
            try:
                fields[attr] = _TEXT[kind][1](kv[name])
            except KeyError:
                raise MapReplayError(f"report {path}: missing {name}") from None
            except ValueError:
                raise MapReplayError(f"report {path}: bad {name}={kv[name]!r}") from None
        return fields

    try:
        config = BenchConfig(**read("config", "config"))
    except ConfigError as exc:
        raise ConfigError(f"report {path}: {exc}") from None
    variants = []
    while f"variant.{len(variants)}.label" in kv:
        p = f"variant.{len(variants)}"
        fields = read(p, "variant")
        fields.update(read(p, "excluded" if fields["excluded"] else "measured"))
        variants.append(VariantResult(**fields))
    return BenchReport(kv.get("label", "trace"), config, variants)


@dataclass(frozen=True, slots=True)
class _Variant:
    """One (implementation, initial capacity) pair, resolved for timing."""

    label: str
    impl: str  # the registry name, or the adapter class's __name__
    factory: type
    config: MapConfig  # the run's config (see ReplaySession.replay)
    registered: bool  # only a registry adapter can be sent to a child process


def _resolve(variants: Sequence[tuple], lf_milli: int) -> list[_Variant]:
    """Resolve each (implementation, initial capacity) pair once. A
    capacity or load factor that no map accepts raises MapConfig's
    ConfigError here, before anything is replayed."""
    if not variants:
        raise ConfigError("need at least one variant")
    resolved = []
    for impl, dic in variants:
        registered = isinstance(impl, str)
        name = impl if registered else getattr(impl, "__name__", "custom")
        config = MapConfig(dic, lf_milli)
        factory = get_implementation(impl) if registered else impl
        resolved.append(_Variant(f"{name}:dic{dic}", name, factory, config, registered))
    return resolved


def _iteration(
    session: ReplaySession, factory: type, config: MapConfig, duration: float
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
            session.replay(factory, "timing", config)
        dt = time.perf_counter() - t0
        total += dt
        invocations += batch
        if time.perf_counter() >= deadline:
            break
        if dt < 1e-3:
            batch = min(batch * 2, 4096)
    return total / invocations * 1000.0


def _one_run(session: ReplaySession, variant: _Variant, config: BenchConfig) -> list[float]:
    """One run's samples: its iterations after the warmup ones."""
    times = [_iteration(session, variant.factory, variant.config, config.iter_duration)
             for _ in range(config.warmup_iters + config.measured_iters)]
    return times[config.warmup_iters:]


def _bench_worker(conn, trace: ProcessedTrace, variant: _Variant, config) -> None:
    try:
        conn.send(("ok", _one_run(ReplaySession(trace), variant, config)))
    except Exception as exc:  # surfaced in the parent
        conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _spawned_run(ctx, trace, variant: _Variant, config) -> list[float]:
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_bench_worker, args=(child, trace, variant, config))
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
    session: ReplaySession, variants: list[_Variant], config: BenchConfig
) -> list[list[float]]:
    """Measure every variant, one run at a time in round-robin order.

    Spawned child processes give each run a fresh interpreter and build
    their own session from `session.trace`, which they are sent. The
    in-process fallback replays `session` for every variant (a replay only
    reads it) and interleaves variants across runs so process warm-up drift
    spreads evenly instead of biasing later variants.
    """
    in_process = not config.use_processes
    if not in_process and not all(v.registered for v in variants):
        warnings.warn(
            "non-registry adapter cannot be sent to a child process; "
            "falling back to in-process runs"
        )
        in_process = True

    if in_process:
        # One unmeasured replay per variant absorbs cold-start costs that a
        # fresh child process would otherwise isolate.
        for v in variants:
            session.replay(v.factory, "timing", v.config)
    else:
        import multiprocessing  # only spawning needs it: ~0.75 MB RSS on import

        ctx = multiprocessing.get_context("spawn")
    samples: list[list[float]] = [[] for _ in variants]
    for _ in range(config.runs):
        for v, out in zip(variants, samples):
            out.extend(_one_run(session, v, config) if in_process
                       else _spawned_run(ctx, session.trace, v, config))
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
    resolved = _resolve(variants, lf_milli)  # fails before anything is replayed
    return _bench(ReplaySession(trace), resolved, config, label)


def _bench(
    session: ReplaySession,
    variants: list[_Variant],
    config: BenchConfig | None,
    label: str,
    validated: frozenset[type] = frozenset(),
) -> BenchReport:
    """Bench `variants` on `session`; adapters in `validated` have already
    passed a validating replay of it and are not replayed again."""
    if config is None:
        config = BenchConfig()
    results: list[VariantResult] = []
    measured: list[tuple[VariantResult, _Variant]] = []
    passed = set(validated)
    for variant in variants:
        v = VariantResult(variant.label, variant.impl, variant.config.initial_capacity,
                          variant.config.load_factor_milli)
        results.append(v)
        if variant.factory not in passed:
            # Fidelity is checked under the recorded configurations: at
            # another run config, iterator-removes may legitimately pick
            # different victims (iteration order depends on capacity), which
            # is divergence of the workload, not of the adapter.
            try:
                session.replay(variant.factory, "validating")
                passed.add(variant.factory)
            except MapReplayError as exc:
                if v is results[0]:
                    raise MapReplayError(f"baseline variant failed validation: {exc}") from exc
                v.excluded = True
                v.error = str(exc)
                continue
        measured.append((v, variant))

    all_samples = _collect_all_samples(session, [variant for _, variant in measured], config)
    for (v, _), samples in zip(measured, all_samples):
        v.samples = samples

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
        v.speedup = base.mean / v.mean if i else 1.0
        if i:
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
    resolved = _resolve(variants, lf_milli)  # fails before anything is recorded
    session = ReplaySession(process(generate(spec)))
    try:
        session.replay(RefMap, mode="validating")
    except FidelityError as exc:
        raise FidelityError(f"pipeline validation failed: {exc}") from exc
    return _bench(session, resolved, config, spec.name, frozenset({RefMap}))


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
    return v.direction


def compare_reports(report_a: BenchReport, report_b: BenchReport) -> CompareResult:
    """Concordance analysis of two reports' non-baseline variants, matched
    by label: per-comparison change classification, Pearson correlation of
    the speedup ratios, the one-sided binomial test on concordant
    directions, and Cohen's h against the 0.5 proportion. Each speedup is
    against its own report's baseline, so the two baselines must match."""
    if report_a.baseline.label != report_b.baseline.label:
        raise ConfigError(
            f"reports have different baselines: {report_a.baseline.label} "
            f"against {report_b.baseline.label}"
        )
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
        same_dir = va.direction == vb.direction
        if same_dir:
            concordant += 1
            overlap = sa if va.significant and vb.significant else va.direction
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
