"""Workload generators: determinism, operation mixes, directional trends."""

import os
import random
import subprocess
import sys
import threading
from functools import cache

import pytest

from mapreplay.bench import BenchConfig, pipeline
from mapreplay.errors import ConfigError, FidelityError
from mapreplay.postproc import process, sanitize, stats
from mapreplay.refmap import DEFAULT_CONFIG, MapConfig, OpCounters, RefMap
from mapreplay.replay import ReplaySession
from mapreplay.tracer import RawOpKind, TraceSession, raw_trace_to_bytes
from mapreplay.workloads import (
    WORKLOADS,
    DirectEnv,
    IntKey,
    WorkloadSpec,
    _run,
    corpus_tokens,
    generate,
    run_direct,
)

SMALL_PARAMS = {
    "wordfreq": {},
    "dedupe": {"ops": 1500, "universe": 400},
    "churn": {"maps": 2, "cycles": 3},
    "scan": {"maps": 30},
    "populate-copy": {"rounds": 20},
    "mixed": {"rounds": 30},
    "random": {},
}


def test_unknown_workload_lists_alternatives():
    with pytest.raises(ConfigError) as err:
        generate(WorkloadSpec("nope"))
    msg = str(err.value)
    assert "wordfreq" in msg and "scan" in msg


@pytest.mark.parametrize("name", sorted(set(WORKLOADS) - {"wordfreq"}))
def test_generation_is_byte_deterministic(name):
    spec = WorkloadSpec(name, seed=17, scale=1, params=SMALL_PARAMS[name])
    a = raw_trace_to_bytes(generate(spec))
    b = raw_trace_to_bytes(generate(spec))
    assert a == b


def test_wordfreq_deterministic_across_hash_seeds():
    # Trace bytes must not depend on Python's per-process string hashing.
    code = (
        "from mapreplay.workloads import WorkloadSpec, generate\n"
        "from mapreplay.tracer import raw_trace_to_bytes\n"
        "import hashlib, sys\n"
        "raw = generate(WorkloadSpec('wordfreq', seed=17))\n"
        "sys.stdout.write(hashlib.sha256(raw_trace_to_bytes(raw)).hexdigest())\n"
    )
    # The child sees this process's import path, so the package resolves
    # the same way whether it is installed or run from a checkout.
    pythonpath = os.pathsep.join(p for p in sys.path if p)
    digests = set()
    for hash_seed in ("0", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("run", [generate, run_direct], ids=["generate", "run_direct"])
def test_unknown_param_is_rejected_with_known_names(run):
    with pytest.raises(ConfigError) as err:
        run(WorkloadSpec("churn", seed=1, params={"mpas": 2}))
    msg = str(err.value)
    assert "'mpas'" in msg
    assert "maps=8" in msg and "cycles=30" in msg and "threads=1" in msg


def test_unknown_param_is_rejected_even_at_scale_zero():
    with pytest.raises(ConfigError, match="'ops'"):
        generate(WorkloadSpec("wordfreq", seed=1, scale=0, params={"ops": 5}))


@pytest.mark.parametrize("universe", [0, -3])
@pytest.mark.parametrize("name", ["dedupe", "random"])
def test_empty_key_universe_is_a_config_error_and_writes_nothing(tmp_path, name, universe):
    # Keys are drawn from range(universe), so an empty one is refused before
    # the first map is recorded.
    path = tmp_path / "x.mrt"
    spec = WorkloadSpec(name, seed=1, params={"universe": universe})
    with pytest.raises(ConfigError, match=f"workload '{name}' needs universe >= 1, not {universe}"):
        generate(spec, path)
    assert not path.exists()


def test_scan_refuses_more_entries_than_a_key_can_pack(tmp_path):
    # A key is (map index << 8) | entry index: entry 256 of one map would be
    # entry 0 of the next, so 256 is the most entries a map gets.
    env = DirectEnv()
    WORKLOADS["scan"](env, random.Random(1), 1, maps=3, entries=256, passes=1)
    assert [m.size() for m in env.maps] == [256, 256, 256]
    path = tmp_path / "x.mrt"
    with pytest.raises(ConfigError, match="workload 'scan' needs entries <= 256, not 257"):
        generate(WorkloadSpec("scan", seed=1, params={"entries": 257}), path)
    assert not path.exists()


def test_churn_refuses_more_threads_than_maps_before_any_map_or_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a worker thread was built")

    monkeypatch.setattr(threading, "Thread", no_thread)
    env = DirectEnv()
    with pytest.raises(ConfigError, match="needs threads <= maps, got 3 > 2"):
        WORKLOADS["churn"](env, random.Random(1), 1, maps=2, cycles=1, threads=3)
    assert env.maps == []
    with pytest.raises(ConfigError, match="threads <= maps, got 3 > 2"):
        generate(WorkloadSpec("churn", seed=1, params={"maps": 2, "threads": 3}))


def test_churn_accepts_one_thread_per_map():
    spec = WorkloadSpec("churn", seed=1, params={"maps": 2, "cycles": 1, "threads": 2})
    slots = {int(t) for block in generate(spec).blocks(4096) for t in block["thread_id"]}
    assert slots == {0, 1, 2}  # creates on the main slot, work on two workers


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_scale_zero_means_empty_trace(name):
    raw = generate(WorkloadSpec(name, seed=1, scale=0, params=SMALL_PARAMS[name]))
    assert raw.events == []


def test_wordfreq_read_write_tallies():
    # Oracle from the workload definition: one get and one put per token.
    tokens = list(corpus_tokens())
    total, distinct = len(tokens), len(set(tokens))
    raw = generate(WorkloadSpec("wordfreq", seed=1))
    gets = sum(e.op is RawOpKind.GET for e in raw.events)
    puts = sum(e.op is RawOpKind.PUT for e in raw.events)
    assert puts >= distinct
    assert gets >= total - distinct
    hits = sum(e.op is RawOpKind.GET and e.outcome == 1 for e in raw.events)
    assert hits == total - distinct


def test_scan_is_iteration_dominated():
    trace = process(generate(WorkloadSpec("scan", seed=2, params={"maps": 100})))
    c = stats(trace)
    assert c.iterates > c.reads + c.writes


def test_dedupe_is_contains_dominated():
    raw = generate(WorkloadSpec("dedupe", seed=2, params=SMALL_PARAMS["dedupe"]))
    contains = sum(e.op is RawOpKind.CONTAINS_KEY for e in raw.events)
    puts = sum(e.op is RawOpKind.PUT for e in raw.events)
    assert contains > puts


def test_populate_copy_has_copies():
    raw = generate(WorkloadSpec("populate-copy", seed=2, params={"rounds": 8}))
    assert sum(e.op is RawOpKind.CREATE_COPY for e in raw.events) == 8


def test_churn_two_thread_mode():
    spec = WorkloadSpec("churn", seed=5, scale=1,
                        params={"maps": 4, "cycles": 2, "threads": 2})
    raw = generate(spec)
    threads = {e.thread_id for e in raw.events}
    assert threads == {0, 1, 2}  # creates on the main slot, work on two workers
    assert sanitize(raw).events == raw.events
    # Deterministic despite real threads: ids are namespaced per slot.
    assert raw_trace_to_bytes(generate(spec)) == raw_trace_to_bytes(raw)
    trace = process(raw)
    result = ReplaySession(trace).replay(RefMap, mode="validating")
    assert result.map_digests == run_direct(spec)


def test_churn_resizes_fall_as_dic_grows():
    spec = WorkloadSpec("churn", seed=5, scale=1, params={"maps": 2, "cycles": 2})
    trace = process(generate(spec))
    session = ReplaySession(trace)
    resizes = [
        session.replay(RefMap, "counting", MapConfig(dic)).counters.resizes
        for dic in (16, 32, 64, 128)
    ]
    assert resizes == sorted(resizes, reverse=True)
    assert resizes[0] > resizes[-1]


def test_trend_insert_heavy_probes_and_resizes():
    spec = WorkloadSpec("wordfreq", seed=1)
    trace = process(generate(spec))
    session = ReplaySession(trace)
    c16 = session.replay(RefMap, "counting", MapConfig(16)).counters
    c64 = session.replay(RefMap, "counting", MapConfig(64)).counters
    assert c64.resizes <= c16.resizes
    assert c64.collision_probes <= c16.collision_probes


def test_trend_iterate_heavy_bucket_scans():
    spec = WorkloadSpec("scan", seed=1, params={"maps": 50})
    trace = process(generate(spec))
    session = ReplaySession(trace)
    s16 = session.replay(RefMap, "counting", MapConfig(16)).counters
    s128 = session.replay(RefMap, "counting", MapConfig(128)).counters
    assert s128.buckets_scanned > s16.buckets_scanned


def test_pipeline_composition():
    cfg = BenchConfig(runs=1, warmup_iters=0, measured_iters=2,
                      iter_duration=0.003, use_processes=False)
    report = pipeline(
        WorkloadSpec("churn", seed=3, params={"maps": 2, "cycles": 2}),
        [("refmap", 16), ("refmap", 64)],
        cfg,
    )
    assert len(report.variants) == 2
    assert report.variants[0].label == "refmap:dic16"
    assert report.variants[0].speedup == 1.0


def test_validation_names_first_mismatched_op():
    class AlwaysMiss(RefMap):
        def get(self, key):
            super().get(key)
            return None

    trace = process(generate(WorkloadSpec("random", seed=8)))
    with pytest.raises(FidelityError) as err:
        ReplaySession(trace).replay(AlwaysMiss, mode="validating")
    assert err.value.op_index is not None
    # The named index is the first recorded hit that the adapter missed.
    kinds = [trace.ops[i * 3] for i in range(trace.op_count)]
    first_get_hit = next(
        i for i, w in enumerate(kinds)
        if int(w) & 0xFF == int(RawOpKind.GET) and int(w) >> 8 & 1
    )
    assert err.value.op_index == first_get_hit


def test_direct_env_matches_traced_env_counts(small_traces):
    for name, (spec, raw, trace) in small_traces.items():
        creates = sum(
            e.op in (RawOpKind.CREATE, RawOpKind.CREATE_COPY) for e in raw.events
        )
        assert creates == len(run_direct(spec)), name


@cache
def _seed_3_trace(name: str):
    return process(generate(WorkloadSpec(name, seed=3)))


@pytest.mark.parametrize(
    "name, dic",
    [
        # The default DIC keeps the bare workload name as its id.
        pytest.param(
            name, dic, id=name if dic == DEFAULT_CONFIG.initial_capacity else f"{name}-dic{dic}"
        )
        for name in sorted(WORKLOADS)
        for dic in (2, 16, 64, 1024)
    ],
)
def test_counting_replay_counters_equal_the_direct_run(name, dic):
    # Exact fidelity: the replayed trace makes RefMap do the work the
    # untraced application made it do, counter for counter, at the default
    # initial capacity and under an override of it.
    config = MapConfig(dic)
    env = DirectEnv(config)
    _run(WorkloadSpec(name, seed=3), env)
    direct = OpCounters()
    for m in env.maps:
        direct.add(m.counters)
    replayed = ReplaySession(_seed_3_trace(name)).replay(RefMap, "counting", config).counters
    assert replayed == direct


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize(
    "config",
    [MapConfig(2), MapConfig(64), MapConfig(64, 500), DEFAULT_CONFIG],
    ids=["dic2", "dic64", "dic64-lf500", "default"],
)
def test_direct_run_builds_its_maps_as_replay_does(name, config, create_configs_seen):
    # One create-config rule on both sides: each map of the direct run,
    # copies included, has the config replay builds it with at that run.
    env = DirectEnv(config)
    _run(WorkloadSpec(name, seed=3), env)
    assert [m.config for m in env.maps] == create_configs_seen(_seed_3_trace(name), config)


@pytest.mark.parametrize("env", [TraceSession, DirectEnv])
def test_copy_map_takes_no_config(env):
    # MRT1 records a copy's source and nothing else, so a config passed to
    # a copy could never be replayed; Java's HashMap(Map) takes none.
    env = env()
    m = env.new_map()
    with pytest.raises(TypeError):
        env.copy_map(m, MapConfig(16, 250))


def test_a_copy_takes_the_default_config_not_its_sources():
    s = TraceSession()
    m = s.new_map(MapConfig(16, 250))
    for i in range(40):
        m.put(IntKey(i), i)
    c = s.copy_map(m)
    for i in range(40, 60):
        c.put(IntKey(i), i)
    inner = [m._inner, c._inner]
    assert c._inner.config == DEFAULT_CONFIG
    direct = OpCounters()
    for r in inner:
        direct.add(r.counters)
    session = ReplaySession(process(s.close()))
    assert session.replay(RefMap, "counting").counters == direct
    assert session.replay(RefMap, "validating").map_digests == [r.state_digest() for r in inner]
