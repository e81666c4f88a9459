"""Run one piece of a benchmark run in a fresh interpreter; print it as JSON.

    python3 benchmarks/worker.py '{"kind": "round", "workload": "scan", "tiny": false,
                                   "seed": 1, "workdir": ".bench_out/w", "traced": false,
                                   "index": 0}'

Kinds: "round" runs one measured round (layers.round_record), "rss" only
records and distills the workload and reports the peak RSS, and "golden"
reports the MPT1 sha256 and counting-mode counters of the workload.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402


def main(request: dict) -> dict:
    plan = (layers.TINY_PLANS if request["tiny"] else layers.PLANS)[request["workload"]]
    seed = request["seed"]
    workdir = Path(request["workdir"])
    kind = request["kind"]
    if kind == "round":
        return layers.round_record(plan, seed, workdir, request["traced"], request["index"])
    if kind == "rss":
        return layers.rss_record(plan, seed, workdir)
    if kind == "golden":
        return layers.golden_entry(plan.spec(seed))
    raise ValueError(f"unknown worker kind {kind!r}")


def stop_resource_tracker() -> None:
    """Stop and reap the helper process that spawning bench children starts."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        print(json.dumps(main(json.loads(sys.argv[1]))))
    finally:
        stop_resource_tracker()
