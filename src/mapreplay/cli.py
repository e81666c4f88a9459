"""Command-line front end: trace, process, stats, replay, bench, compare, pipeline."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    BenchConfig,
    classify,
    compare_reports,
    pipeline,
    read_report,
    run_bench,
)
from .errors import MapReplayError
from .postproc import decode, process, read_processed, stats, write_processed
from .refmap import DEFAULT_INITIAL_CAPACITY, DEFAULT_LOAD_FACTOR_MILLI
from .replay import MODES, ConfigOverride, ReplaySession, get_implementation
from .tracer import read_raw_trace
from .workloads import WORKLOADS, WorkloadSpec, generate


def _human_size(n: int) -> str:
    if n < 1024:
        return f"{n}B"
    value = float(n)
    for unit in ("K", "M", "G"):
        value /= 1024.0
        if value < 1024 or unit == "G":
            return f"{value:.1f}{unit}"
    return f"{n}B"


def _parse_params(pairs: list[str]) -> dict[str, int]:
    params = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        if not key or not value:
            raise MapReplayError(f"bad --param {pair!r}; expected name=value")
        try:
            params[key] = int(value)
        except ValueError:
            raise MapReplayError(f"bad --param {pair!r}; value must be an integer") from None
    return params


def _variants(args) -> list[tuple[str, int]]:
    try:
        return [(args.impl, int(x)) for x in args.dic.split(",") if x]
    except ValueError:
        raise MapReplayError(f"bad --dic list {args.dic!r}; expected e.g. 16,32,64") from None


def _cmd_trace(args) -> int:
    spec = WorkloadSpec(args.workload, args.seed, args.scale, _parse_params(args.param))
    raw = generate(spec, path=args.output)
    print(f"workload={spec.name} seed={spec.seed} scale={spec.scale} "
          f"events={len(raw)} file={args.output}")
    return 0


def _cmd_process(args) -> int:
    trace = process(read_raw_trace(args.raw))
    size = write_processed(trace, args.output)
    c = stats(trace)
    print(f"events={c.events} creates={c.creates} reads={c.reads} writes={c.writes} "
          f"iterates={c.iterates} bytes={size} file={args.output}")
    return 0


def _cmd_stats(args) -> int:
    data = Path(args.processed).read_bytes()
    c = stats(decode(data))
    print(f"{'#Event':>12} {'#Create':>10} {'#Read':>10} {'#Write':>10} "
          f"{'#Iterate':>10} {'Size':>8} {'Class':>10}")
    print(f"{c.events:>12} {c.creates:>10} {c.reads:>10} {c.writes:>10} "
          f"{c.iterates:>10} {_human_size(len(data)):>8} {classify(c):>10}")
    return 0


def _cmd_replay(args) -> int:
    trace = read_processed(args.processed)
    session = ReplaySession(trace)
    factory = get_implementation(args.impl)
    override = None
    if args.dic is not None or args.lf is not None:
        override = ConfigOverride(
            DEFAULT_INITIAL_CAPACITY if args.dic is None else args.dic,
            DEFAULT_LOAD_FACTOR_MILLI if args.lf is None else args.lf,
        )
    result = session.replay(factory, args.mode, override)
    lines = [
        f"impl={args.impl}",
        f"mode={args.mode}",
        f"ops_executed={result.ops_executed}",
        f"elapsed_ms={result.elapsed * 1000.0:.3f}",
        f"factory_calls={result.factory_calls}",
    ]
    if result.counters is not None:
        lines += [f"counters.{k}={v}" for k, v in result.counters.as_dict().items()]
    if result.digests is not None:
        lines.append(f"digests={len(result.digests)}")
    text = "\n".join(lines)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    return 0


def _bench_config(args, seed: int) -> BenchConfig:
    return BenchConfig(
        runs=args.runs,
        warmup_iters=args.warmup,
        measured_iters=args.iters,
        iter_duration=args.duration,
        seed=seed,
        use_processes=not args.in_process,
    )


def _print_report(report, output: str | None) -> int:
    print(report.render())
    if output:
        report.write(output)
    return 0


def _cmd_bench(args) -> int:
    report = run_bench(read_processed(args.processed), _variants(args),
                       _bench_config(args, args.seed), label=args.processed, lf_milli=args.lf)
    return _print_report(report, args.output)


def _cmd_compare(args) -> int:
    result = compare_reports(read_report(args.report_a), read_report(args.report_b))
    print(result.render())
    return 0


def _cmd_pipeline(args) -> int:
    spec = WorkloadSpec(args.workload, args.seed, args.scale, _parse_params(args.param))
    report = pipeline(spec, _variants(args), _bench_config(args, args.bench_seed),
                      lf_milli=args.lf)
    return _print_report(report, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapreplay",
        description="Record, distill, replay and benchmark hash-map operation traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="run a built-in workload and write a raw trace")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("process", help="sanitize, coalesce and encode a raw trace")
    p.add_argument("raw")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_process)

    p = sub.add_parser("stats", help="print the operation-mix characterization")
    p.add_argument("processed")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("replay", help="replay a processed trace once")
    p.add_argument("processed")
    p.add_argument("--impl", default="refmap")
    p.add_argument("--dic", type=int, default=None,
                   help="initial capacity for default-config creates (default: as recorded)")
    p.add_argument("--lf", type=int, default=None,
                   help="load factor in thousandths for default-config creates "
                        "(default: as recorded)")
    p.add_argument("--mode", choices=MODES, default="timing")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_replay)

    def add_bench_args(p, bench_seed_flag: str = "--seed"):
        p.add_argument("--impl", default="refmap")
        p.add_argument("--dic", default="16,32,64,128",
                       help="comma-separated initial capacities; first is the baseline")
        p.add_argument("--lf", type=int, default=750)
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--warmup", type=int, default=5)
        p.add_argument("--iters", type=int, default=5)
        p.add_argument("--duration", type=float, default=10.0)
        p.add_argument(bench_seed_flag, type=int, default=20250810,
                       help="bootstrap RNG seed")
        p.add_argument("--in-process", action="store_true",
                       help="run all runs in this process instead of spawning")
        p.add_argument("-o", "--output", default=None, help="machine-readable report file")

    p = sub.add_parser("bench", help="benchmark variants against a processed trace")
    p.add_argument("processed")
    add_bench_args(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("compare", help="concordance analysis of two bench reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("pipeline", help="trace, process, validate and bench in one go")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    add_bench_args(p, bench_seed_flag="--bench-seed")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MapReplayError, OSError) as exc:
        print(f"mapreplay {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
