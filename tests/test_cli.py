"""End-to-end command-line interface checks."""

import pytest

from mapreplay.cli import _human_size, main
from mapreplay.postproc import write_processed
from mapreplay.tracer import RawOpKind


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
    fields = dict(line.split("=") for line in report.read_text().splitlines())
    assert fields["digests"] == fields["factory_calls"]  # one per map

    code, out, _ = run(capsys, "replay", str(mpt), "--mode", "validating", "--impl", "pydict")
    assert code == 0
    assert "digests=" not in out  # the dict adapter has no state digest


def test_process_and_stats_report_the_file_size(tmp_path, capsys):
    raw = tmp_path / "t.mrt"
    mpt = tmp_path / "t.mpt"
    run(capsys, "trace", "churn", "-o", str(raw), "--seed", "5", "--param", "maps=2")

    code, out, _ = run(capsys, "process", str(raw), "-o", str(mpt))
    assert code == 0
    fields = dict(f.split("=", 1) for f in out.split())
    assert int(fields["bytes"]) == mpt.stat().st_size

    code, out, _ = run(capsys, "stats", str(mpt))
    assert code == 0
    header, row = out.splitlines()
    assert row.split()[header.split().index("Size")] == _human_size(mpt.stat().st_size)


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


def test_trace_rejects_non_integer_param(tmp_path, capsys):
    code, _, err = run(capsys, "trace", "wordfreq", "-o", str(tmp_path / "x.mrt"),
                       "--param", "scale=abc")
    assert code == 2
    assert "mapreplay trace: bad --param 'scale=abc'; value must be an integer" in err


def test_trace_rejects_a_param_with_no_value(tmp_path, capsys):
    code, _, err = run(capsys, "trace", "wordfreq", "-o", str(tmp_path / "x.mrt"),
                       "--param", "scale")
    assert code == 2
    assert err == "mapreplay trace: bad --param 'scale'; expected name=value\n"


def test_trace_rejects_unknown_param_and_writes_nothing(tmp_path, capsys):
    out_file = tmp_path / "x.mrt"
    code, _, err = run(capsys, "trace", "churn", "-o", str(out_file), "--param", "mpas=2")
    assert code == 2
    assert "mapreplay trace:" in err and "'mpas'" in err and "maps=8" in err
    assert not out_file.exists()


@pytest.mark.parametrize("name", ["dedupe", "random"])
def test_trace_rejects_an_empty_key_universe_and_writes_nothing(tmp_path, capsys, name):
    out_file = tmp_path / "x.mrt"
    code, _, err = run(capsys, "trace", name, "-o", str(out_file), "--param", "universe=0")
    assert code == 2
    assert f"mapreplay trace: workload '{name}' needs universe >= 1, not 0" in err
    assert not out_file.exists()


def test_trace_rejects_scan_entries_past_its_key_packing_and_writes_nothing(tmp_path, capsys):
    out_file = tmp_path / "x.mrt"
    code, _, err = run(capsys, "trace", "scan", "-o", str(out_file), "--param", "entries=257")
    assert code == 2
    assert err == "mapreplay trace: workload 'scan' needs entries <= 256, not 257\n"
    assert not out_file.exists()


def test_replay_bad_key_index_is_a_trace_error(tmp_path, capsys, trace_of_words):
    create = int(RawOpKind.CREATE) | (750 << 9) | (1 << 19)
    bad = tmp_path / "bad-key.mpt"
    write_processed(trace_of_words([create, 0, 16, int(RawOpKind.GET), 0, 5], n_keys=1), bad)
    for mode in ("timing", "counting", "validating"):
        code, _, err = run(capsys, "replay", str(bad), "--mode", mode)
        assert code == 2
        assert "mapreplay replay:" in err
        assert "op 1: key index 5" in err


def test_replay_unknown_view_is_a_trace_error(tmp_path, capsys, trace_of_words):
    create = int(RawOpKind.CREATE) | (750 << 9) | (1 << 19)
    bad = tmp_path / "bad-view.mpt"
    write_processed(trace_of_words([create, 0, 16, int(RawOpKind.ITER_NEW) | (3 << 9), 0, 0],
                                   iter_slots=1), bad)
    for mode in ("timing", "counting", "validating"):
        code, _, err = run(capsys, "replay", str(bad), "--mode", mode)
        assert code == 2
        assert err == "mapreplay replay: op 1: unknown iterator view 3\n"


def test_replay_lf_alone_overrides_default_creates(tmp_path, capsys):
    raw = tmp_path / "t.mrt"
    mpt = tmp_path / "t.mpt"
    run(capsys, "trace", "churn", "-o", str(raw))
    run(capsys, "process", str(raw), "-o", str(mpt))

    def counters(*flags):
        code, out, _ = run(capsys, "replay", str(mpt), "--mode", "counting", *flags)
        assert code == 0
        return [line for line in out.splitlines() if line.startswith("counters.")]

    assert counters("--lf", "500") == counters("--dic", "16", "--lf", "500")
    assert counters("--lf", "500") != counters()
    code, _, err = run(capsys, "replay", str(mpt), "--mode", "counting", "--lf", "5000")
    assert code == 2
    assert "mapreplay replay: load factor" in err


@pytest.mark.parametrize("flag, value, field", [("--duration", "nan", "iter_duration"),
                                               ("--warmup", "-1", "warmup_iters")])
def test_bench_rejects_unbounded_or_negative_iterations(flag, value, field, tmp_path, capsys,
                                                        trace_of_words):
    mpt = tmp_path / "t.mpt"
    create = int(RawOpKind.CREATE) | (750 << 9) | (1 << 19)
    write_processed(trace_of_words([create, 0, 16]), mpt)
    bench = ["bench", str(mpt), "--dic", "16", "--runs", "1", "--iters", "2",
             "--warmup", "0", "--duration", "0.002", "--in-process"]
    assert run(capsys, *bench)[0] == 0
    code, _, err = run(capsys, *bench, flag, value)
    assert code == 2
    assert f"mapreplay bench: {field}" in err


@pytest.mark.parametrize("flag, value, fault", [
    ("--lf", "0", "load factor must be in (0, 1] thousandths, got 0"),
    ("--dic", "16,0", "initial capacity must be in [1, 2^31-1], got 0"),
    ("--seed", "-1", "seed must be >= 0, not -1"),
], ids=["lf", "dic", "seed"])
def test_bench_rejects_a_bad_override_before_replaying(flag, value, fault, tmp_path, capsys,
                                                       monkeypatch, trace_of_words):
    # Runs are spawned (no --in-process): the error is the parent's own,
    # raised before validation replays anything or a child starts.
    from mapreplay import bench

    def no_session(trace):
        raise AssertionError("bench replayed before checking its variants")

    mpt = tmp_path / "t.mpt"
    write_processed(trace_of_words([int(RawOpKind.CREATE) | (750 << 9) | (1 << 19), 0, 16]), mpt)
    monkeypatch.setattr(bench, "ReplaySession", no_session)
    code, _, err = run(capsys, "bench", str(mpt), "--runs", "1", "--iters", "2", flag, value)
    assert code == 2
    assert err == f"mapreplay bench: {fault}\n"


@pytest.mark.parametrize("flag, value, fault", [
    ("--lf", "2000", "load factor must be in (0, 1] thousandths, got 2000"),
    ("--dic", "16,0", "initial capacity must be in [1, 2^31-1], got 0"),
    ("--bench-seed", "-1", "seed must be >= 0, not -1"),
], ids=["lf", "dic", "seed"])
def test_pipeline_rejects_a_bad_override_before_recording(flag, value, fault, capsys,
                                                          monkeypatch):
    from mapreplay import bench

    def no_generate(spec):
        raise AssertionError("pipeline recorded the workload before checking its variants")

    monkeypatch.setattr(bench, "generate", no_generate)
    code, _, err = run(capsys, "pipeline", "wordfreq", flag, value)
    assert code == 2
    assert err == f"mapreplay pipeline: {fault}\n"


def test_pipeline_rejects_a_dic_list_that_is_not_integers(capsys, monkeypatch):
    from mapreplay import bench

    def no_generate(spec):
        raise AssertionError("pipeline recorded the workload before reading its --dic list")

    monkeypatch.setattr(bench, "generate", no_generate)
    code, _, err = run(capsys, "pipeline", "wordfreq", "--dic", "16,x")
    assert code == 2
    assert err == "mapreplay pipeline: bad --dic list '16,x'; expected e.g. 16,32,64\n"


def test_bench_rejects_a_single_sample_before_timing(tmp_path, capsys, trace_of_words):
    mpt = tmp_path / "t.mpt"
    write_processed(trace_of_words([int(RawOpKind.CREATE) | (750 << 9) | (1 << 19), 0, 16]), mpt)
    code, _, err = run(capsys, "bench", str(mpt), "--runs", "1", "--iters", "1")
    assert code == 2
    assert "mapreplay bench: runs * measured_iters must be >= 2" in err


_HEADER = b"format=mapreplay-bench-v1\nlabel=x\n"
_CONFIG = (b"config.runs=2\nconfig.warmup_iters=0\nconfig.measured_iters=2\n"
           b"config.iter_duration=0.01\nconfig.seed=1\nconfig.level=0.99\nconfig.resamples=100\n")
_VARIANT = (b"variant.0.label=a\nvariant.0.impl=refmap\nvariant.0.dic=16\nvariant.0.lf=750\n"
            b"variant.0.excluded=0\nvariant.0.mean_ms=1.0\nvariant.0.half_width_ms=0.1\n"
            b"variant.0.speedup=1.0\nvariant.0.diff_lo=0.0\nvariant.0.diff_hi=0.0\n"
            b"variant.0.significant=0\nvariant.0.samples=1.0,1.0\n")


@pytest.mark.parametrize("body, fault", [
    (b"format=mapreplay-bench-v1\nlabel=x\n", "missing config.runs"),
    (b"format=mapreplay-bench-v1\nlabel=x\nconfig.runs=abc\n", "bad config.runs='abc'"),
    (b"format=mapreplay-bench-v1\nlabel=\xff\n", "byte 32 is not UTF-8"),
    (_HEADER + _CONFIG + b"variant.0.label=a\nvariant.0.impl=refmap\nvariant.0.dic=16\n"
     b"variant.0.lf=750\nvariant.0.excluded=7\n", "bad variant.0.excluded='7'"),
    (_HEADER + _CONFIG.replace(b"runs=2", b"runs=0"),
     "r.txt: runs and measured_iters must be >= 1"),
    (_HEADER + b"baseline=a\n" + _CONFIG, "missing variant.0.label"),
    (b"format=mapreplay-bench-v1\nbaseline=a\n" + _CONFIG + _VARIANT, "missing label"),
    (_HEADER + _CONFIG + _VARIANT, "missing baseline"),
    (_HEADER + b"baseline=b\n" + _CONFIG + _VARIANT,
     "baseline='b' is not variant.0.label='a'"),
], ids=["missing-key", "bad-int", "not-utf8", "bad-bool", "refused-config", "no-variant",
        "no-label", "no-baseline", "baseline-not-variant-0"])
def test_compare_names_what_is_wrong_with_a_report(body, fault, tmp_path, capsys):
    report = tmp_path / "r.txt"
    report.write_bytes(body)
    code, _, err = run(capsys, "compare", str(report), str(report))
    assert code == 2
    assert err.startswith("mapreplay compare: ")
    assert fault in err


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
