"""Fast self-check of the benchmark at tiny scale.

    python3 -m pytest benchmarks/test_selfcheck.py -q

Checks that every metric BENCHMARK.json names is printed with its unit,
that the null adapter replays every op of every workload, that no
correctness check fails, and that the benchmark refuses to run without
the mapreplay sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from mapreplay.postproc import process  # noqa: E402
from mapreplay.refmap import MapAdapter  # noqa: E402
from mapreplay.replay import ReplaySession  # noqa: E402
from mapreplay.workloads import generate  # noqa: E402
from nullmap import NullMap  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(layers.TINY_PLANS))
def test_null_adapter_replays_every_op(name):
    assert issubclass(NullMap, MapAdapter)
    trace = process(generate(layers.TINY_PLANS[name].spec(1)))
    result = ReplaySession(trace).replay(NullMap)
    assert result.ops_executed == trace.op_count > 0


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    done = run_bench("--tiny", "--workload", "churn", "--seed", "2", "--seconds", "0",
                     "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], done.stdout
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench("--workload", "scan", "--seed", "1", "--seconds", "1", cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
