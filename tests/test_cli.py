"""End-to-end command-line interface checks."""

import pytest

from mapreplay.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trace_process_stats_replay(tmp_path, capsys):
    raw = tmp_path / "t.mrt"
    mpt = tmp_path / "t.mpt"

    code, out, _ = run(capsys, "trace", "churn", "-o", str(raw),
                       "--seed", "5", "--param", "maps=2", "--param", "cycles=2")
    assert code == 0
    assert "events=" in out
    assert raw.exists()

    code, out, _ = run(capsys, "process", str(raw), "-o", str(mpt))
    assert code == 0
    assert mpt.exists()

    code, out, _ = run(capsys, "stats", str(mpt))
    assert code == 0
    assert "#Event" in out and "#Iterate" in out

    code, out, _ = run(capsys, "replay", str(mpt), "--mode", "counting", "--dic", "64")
    assert code == 0
    assert "counters.resizes=" in out
    assert "ops_executed=" in out

    report = tmp_path / "replay.txt"
    code, out, _ = run(capsys, "replay", str(mpt), "--mode", "validating",
                       "--report", str(report))
    assert code == 0
    assert "digests=" in report.read_text()


def test_bench_and_compare(tmp_path, capsys):
    raw = tmp_path / "t.mrt"
    mpt = tmp_path / "t.mpt"
    rep_a = tmp_path / "a.txt"
    rep_b = tmp_path / "b.txt"
    run(capsys, "trace", "random", "-o", str(raw), "--seed", "3", "--scale", "2")
    run(capsys, "process", str(raw), "-o", str(mpt))

    bench_args = ["bench", str(mpt), "--dic", "16,32,64,128", "--runs", "1",
                  "--warmup", "0", "--iters", "2", "--duration", "0.002",
                  "--in-process"]
    code, out, _ = run(capsys, *bench_args, "-o", str(rep_a))
    assert code == 0
    assert "baseline" in out
    code, _, _ = run(capsys, *bench_args, "--seed", "777", "-o", str(rep_b))
    assert code == 0

    code, out, _ = run(capsys, "compare", str(rep_a), str(rep_b))
    assert code == 0
    assert "pearson_r=" in out
    assert "binomial_p=" in out
    assert "cohens_h=" in out


def test_pipeline_command(tmp_path, capsys):
    report = tmp_path / "p.txt"
    code, out, _ = run(capsys, "pipeline", "scan", "--seed", "2",
                       "--param", "maps=20", "--dic", "16,128",
                       "--runs", "1", "--warmup", "0", "--iters", "2",
                       "--duration", "0.002", "--in-process", "-o", str(report))
    assert code == 0
    assert "refmap:dic128" in out
    assert report.exists()


def test_error_paths_are_stage_named(tmp_path, capsys):
    bad = tmp_path / "bad.mpt"
    bad.write_bytes(b"garbage")
    code, _, err = run(capsys, "stats", str(bad))
    assert code == 2
    assert "mapreplay stats:" in err

    code, _, err = run(capsys, "replay", str(bad))
    assert code == 2
    assert "mapreplay replay:" in err


def test_unknown_workload_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "bogus", "-o", "x.mrt"])
    assert exc.value.code == 2


def test_replay_unknown_impl(tmp_path, capsys):
    raw = tmp_path / "t.mrt"
    mpt = tmp_path / "t.mpt"
    run(capsys, "trace", "random", "-o", str(raw))
    run(capsys, "process", str(raw), "-o", str(mpt))
    code, _, err = run(capsys, "replay", str(mpt), "--impl", "other")
    assert code == 2
    assert "known:" in err


def test_process_rejects_bad_iternew_view(tmp_path, capsys):
    raw = tmp_path / "t.mrt"
    run(capsys, "trace", "scan", "-o", str(raw), "--param", "maps=1")
    data = bytearray(raw.read_bytes())
    first_iter_new = next(i for i in range(16, len(data), 40) if data[i + 8] == 8)
    data[first_iter_new + 29] |= 0x3  # IterNew view field := 3
    raw.write_bytes(bytes(data))
    code, _, err = run(capsys, "process", str(raw), "-o", str(tmp_path / "t.mpt"))
    assert code == 2
    assert f"mapreplay process: at offset {first_iter_new + 29}:" in err
