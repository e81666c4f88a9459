"""The default-initial-capacity case study on built-in workloads.

A larger default initial capacity (DIC) postpones resizes and shortens
collision chains, but inflates the cost of iterating sparse tables. The
counting replay mode exposes both effects as exact integers; the harness
then measures the wall-clock consequence for whole traces.
"""

from mapreplay import (
    BenchConfig,
    MapConfig,
    RefMap,
    ReplaySession,
    process,
    run_bench,
)
from mapreplay.workloads import WorkloadSpec, generate

DICS = (16, 32, 64, 128)

print("=== counting mode: insert-heavy vs iterate-heavy ===")
for name, params in (("wordfreq", {}), ("scan", {"maps": 300})):
    trace = process(generate(WorkloadSpec(name, seed=1, params=params)))
    session = ReplaySession(trace)
    print(f"\n{name}: {trace.op_count} opcodes")
    print(f"{'DIC':>6} {'resizes':>9} {'probes':>10} {'buckets_scanned':>16}")
    for dic in DICS:
        c = session.replay(RefMap, "counting", MapConfig(dic)).counters
        print(f"{dic:>6} {c.resizes:>9} {c.collision_probes:>10} {c.buckets_scanned:>16}")

print(
    "\nwordfreq (puts and gets) wants a larger table: resizes and probes fall.\n"
    "scan (full traversals of small maps) wants a smaller one: every slot\n"
    "of every table is visited, so capacity is pure overhead."
)

print("\n=== the same trade-off on the wall clock ===")
trace = process(generate(WorkloadSpec("churn", seed=1, params={"maps": 3, "cycles": 4})))
config = BenchConfig(
    runs=3, warmup_iters=2, measured_iters=3, iter_duration=0.05, use_processes=False
)
report = run_bench(trace, [("refmap", dic) for dic in DICS], config, label="churn")
print(report.render())
print(
    "\n(An in-process run keeps this demo quick; the command line defaults to\n"
    "one spawned process per run, 5x5 iterations of 10 s, as in:\n"
    "  mapreplay pipeline churn --dic 16,32,64,128 -o churn-report.txt)"
)
