"""Memory budgets, measured with tracemalloc, of recording and reading raw
traces, of distilling them (at most 1.25x the raw file on the three
benchmark workloads, 1.0x on wordfreq and churn) and of replay setup, and
what a process keeps loaded once they return."""

import os
import subprocess
import sys
import tracemalloc
from importlib import resources

import pytest

from mapreplay import tracer, workloads
from mapreplay.postproc import process
from mapreplay.replay import ReplaySession
from mapreplay.tracer import TraceSession, read_raw_trace
from mapreplay.workloads import WorkloadSpec, generate


def _peak_traced(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _run_fresh(code: str) -> str:
    """Run `code` in a fresh interpreter that sees this process's import path."""
    pythonpath = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
    )
    return out.stdout.strip()


def test_generate_peak_is_at_most_64_bytes_per_event():
    # The corpus is workload input, read and tokenised line by line on each
    # pass, so only one line's tokens are live at a time; the budget covers
    # what recording keeps: the record buffers and the maps with their
    # canonical-key tables.
    raw, peak = _peak_traced(generate, WorkloadSpec("wordfreq", seed=1))
    assert peak <= 64 * len(raw)


def test_recording_keeps_no_key_table_of_a_dead_map(monkeypatch):
    # Each traced map owns its canonical-key table, so the table dies with
    # the map. scan builds and drops 400 small maps: when the session
    # closes, what is live is the record buffer and its growth slack. A
    # session-wide table of every map's keys held about 2x the records.
    live = []

    class MeasuredSession(TraceSession):
        def close(self):
            live.append(tracemalloc.get_traced_memory()[0])
            return super().close()

    monkeypatch.setattr(workloads, "TraceSession", MeasuredSession)
    tracemalloc.start()
    try:
        raw = workloads.generate(WorkloadSpec("scan", seed=1, params={"maps": 400}))
    finally:
        tracemalloc.stop()
    assert live[0] <= 1.25 * raw.records.nbytes


def test_read_raw_trace_holds_at_most_one_block(tmp_path):
    # Reading checks every record, a block at a time, and keeps none.
    path = tmp_path / "wordfreq.mrt"
    generate(WorkloadSpec("wordfreq", seed=1), path)
    block = tracer._CHECK_BLOCK * tracer.RAW_DTYPE.itemsize
    assert path.stat().st_size > 20 * block
    raw, peak = _peak_traced(read_raw_trace, path)
    assert peak <= 1.1 * block
    assert raw._records is None


@pytest.mark.parametrize(
    "name, scale, bound",
    [("wordfreq", 1, 1.0), ("scan", 1, 1.25), ("churn", 2, 1.0)],
    ids=["wordfreq", "scan", "churn"],
)
def test_process_peak_is_at_most_1_4_times_the_raw_trace(tmp_path, name, scale, bound):
    # process() ranks a file-backed trace's records straight from the file,
    # a block at a time, into int32 rows, 12 bytes an event, beside small
    # per-object tables; no record array is ever whole. The peak is a
    # later pass over the rows: coalescing on scan (1.19x the file), free
    # insertion on wordfreq and churn (0.84x and 0.86x).
    path = tmp_path / f"{name}.mrt"
    generate(WorkloadSpec(name, seed=1, scale=scale), path)
    process(read_raw_trace(path))  # first-use imports are no per-trace cost
    _, peak = _peak_traced(lambda: process(read_raw_trace(path)))
    assert peak <= bound * path.stat().st_size


def test_replay_session_holds_at_most_24_bytes_per_op():
    # The opcode stream is one packed int32 buffer, 12 B/op; the rest is the
    # mockup keys. Boxing every word into a list held ~72 B/op.
    trace = process(generate(WorkloadSpec("wordfreq", seed=1)))
    tracemalloc.start()
    try:
        session = ReplaySession(trace)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(session.keys) == len(trace.key_hashes)
    assert held <= 24 * trace.op_count


def test_generate_keeps_no_workload_input():
    # A first run in a fresh process, so no earlier test has loaded the corpus.
    code = (
        "import gc, tracemalloc\n"
        "from mapreplay.workloads import WorkloadSpec, generate\n"
        "tracemalloc.start()\n"
        "generate(WorkloadSpec('wordfreq', seed=1))\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    corpus = resources.files("mapreplay").joinpath("data/corpus.txt")
    assert int(_run_fresh(code)) <= 1.1 * len(corpus.read_bytes())


def test_import_does_not_load_multiprocessing():
    # Only spawning bench runs needs it; record, distill and replay do not.
    code = "import sys, mapreplay, mapreplay.cli\nprint('multiprocessing' in sys.modules)"
    assert _run_fresh(code) == "False"


def test_record_and_distill_do_not_load_array():
    # Only ReplaySession packs the opcode stream into an array("i"); loading
    # the module would add its shared library to every record/distill run.
    code = (
        "import sys\n"
        "from mapreplay.postproc import process\n"
        "from mapreplay.workloads import WorkloadSpec, generate\n"
        "process(generate(WorkloadSpec('churn', seed=1)))\n"
        "print('array' in sys.modules)"
    )
    assert _run_fresh(code) == "False"


def test_only_decode_loads_libdeflate(tmp_path):
    # Recording, distilling and writing never run the libdeflate loader,
    # and import ctypes no more than numpy does: numpy 2 imports it itself
    # (numpy._core._internal), so in this process it is there from the
    # start. The first decode runs the loader, which imports ctypes.
    path = str(tmp_path / "churn.mpt")
    code = (
        "import sys\n"
        "import numpy\n"
        "numpy_ctypes = 'ctypes' in sys.modules\n"
        "from mapreplay import postproc\n"
        "from mapreplay.workloads import WorkloadSpec, generate\n"
        "loads = postproc._libdeflate.cache_info\n"
        "trace = postproc.process(generate(WorkloadSpec('churn', seed=1)))\n"
        f"postproc.write_processed(trace, {path!r})\n"
        "print(('ctypes' in sys.modules) == numpy_ctypes, loads().currsize)\n"
        f"assert postproc.read_processed({path!r}) == trace\n"
        "print('ctypes' in sys.modules, loads().currsize)"
    )
    assert _run_fresh(code).splitlines() == ["True 0", "True 1"]
