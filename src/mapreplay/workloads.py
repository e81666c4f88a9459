"""Deterministic built-in workloads that drive traced maps.

Each workload is a synthetic but pattern-faithful stand-in for a real
application's map usage: `wordfreq` (token counting, put/get heavy, grows
through several resize points), `dedupe` (containsKey-dominated),
`churn` (put/remove oscillation around the 12/24/48 resize thresholds,
with an optional two-thread mode over disjoint maps), `scan`
(iteration-dominated over many small maps), `populate-copy` (construction
and copy-construction), `mixed` (equal parts of the contains / copy /
iterate / populate families), and `random` (seeded operation soup for
equivalence testing).

A workload runs against an environment: a TraceSession records events,
DirectEnv applies the same operations to plain RefMaps so final map states
can be compared against replay. Both offer new_map, copy_map and thread;
iterators are drained with `refmap.iterate`. Each workload declares its
params as keyword-only arguments with defaults; a spec naming any other
param, an empty key universe or more churn threads than maps is rejected
before a map is created. Identical seeds produce byte-identical raw traces;
workload keys carry their own deterministic 32-bit hashes and never depend
on Python's per-process string hashing. `bench.pipeline` benches a workload.
"""

from __future__ import annotations

import random
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator

from .errors import ConfigError
from .refmap import DEFAULT_CONFIG, MapConfig, RefMap, View, iterate, to_signed32
from .tracer import RawTrace, TraceSession


def fnv1a_32(data: bytes) -> int:
    """32-bit FNV-1a, returned as a signed 32-bit integer."""
    h = 0x811C9DC5
    for b in data:
        h = ((h ^ b) * 0x01000193) & 0xFFFFFFFF
    return to_signed32(h)


def mix32(value: int) -> int:
    """Cheap deterministic integer scrambler with well-spread low bits."""
    x = value & 0xFFFFFFFF
    x = (x ^ (x >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    x = (x ^ (x >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    return to_signed32(x ^ (x >> 16))


class WordKey:
    """String-token key with an FNV-1a 32-bit hash in its `hash32` attribute."""

    __slots__ = ("token", "hash32")

    def __init__(self, token: str):
        self.token = token
        self.hash32 = fnv1a_32(token.encode())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WordKey) and other.token == self.token

    def __hash__(self) -> int:
        return hash(self.token)

    def __repr__(self) -> str:
        return f"WordKey({self.token!r})"


class IntKey:
    """Integer key; hash quality is controllable via an explicit hash32."""

    __slots__ = ("ident", "hash32")

    def __init__(self, ident: int, hash32: int | None = None):
        self.ident = ident
        self.hash32 = mix32(ident) if hash32 is None else hash32

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntKey) and other.ident == self.ident

    def __hash__(self) -> int:
        return self.ident

    def __repr__(self) -> str:
        return f"IntKey({self.ident}, hash={self.hash32})"


def corpus_tokens() -> Iterator[str]:
    """Yield the embedded ~50k-token text corpus (Zipf-distributed vocabulary).

    Each call reads the file afresh and tokenises it line by line: no token
    list outlives a pass, and nothing stays cached between workload runs.
    """
    with resources.files("mapreplay").joinpath("data/corpus.txt").open() as fh:
        for line in fh:
            yield from line.split()


@dataclass(slots=True)
class WorkloadSpec:
    """Names a workload run; equal specs generate byte-identical traces."""

    name: str
    seed: int = 1
    scale: int = 1
    params: dict[str, int] = field(default_factory=dict)


class DirectEnv:
    """Runs a workload against plain RefMaps, keeping them in creation order."""

    def __init__(self):
        self.maps: list[RefMap] = []
        self._lock = threading.Lock()

    def _register(self, m: RefMap) -> RefMap:
        with self._lock:
            self.maps.append(m)
        return m

    def new_map(self, config: MapConfig = DEFAULT_CONFIG):
        return self._register(RefMap(config))

    def copy_map(self, source, config: MapConfig = DEFAULT_CONFIG):
        return self._register(RefMap.copy_of(source, config))

    def thread(self, slot: int):
        return nullcontext()


# -- workload bodies ------------------------------------------------------------


def _wl_wordfreq(env, rng: random.Random, scale: int) -> None:
    counts = env.new_map()
    for _ in range(scale):
        for token in corpus_tokens():
            k = WordKey(token)
            seen = counts.get(k)
            counts.put(k, seen + 1 if seen else 1)
    iterate(counts)


def _check_universe(workload: str, universe: int) -> None:
    # Keys are drawn by randrange(universe), which fails on an empty range.
    if universe < 1:
        raise ConfigError(f"workload {workload!r} needs universe >= 1, not {universe}")


def _wl_dedupe(env, rng: random.Random, scale: int, *, universe=4000, ops=30000) -> None:
    _check_universe("dedupe", universe)
    seen = env.new_map()
    for _ in range(ops * scale):
        k = IntKey(rng.randrange(universe))
        if not seen.contains_key(k):
            seen.put(k, 1)


def _churn_one(m, map_index: int, cycles: int, rng: random.Random) -> None:
    # Oscillate the size just over and under each resize threshold.
    pool = [IntKey((map_index << 20) | j) for j in range(64)]
    outsider = IntKey((map_index << 20) | 9999)
    for _ in range(cycles):
        held = 0
        for target in (13, 25, 49):
            while held < target:
                m.put(pool[held], held)
                held += 1
            for _ in range(4):
                held -= 1
                m.remove(pool[held])
                m.get(pool[rng.randrange(held)])
                m.get(outsider)
                m.put(pool[held], held)
                held += 1
        m.clear()


def _wl_churn(env, rng: random.Random, scale: int, *, maps=8, cycles=30, threads=1) -> None:
    if threads > maps:  # a thread past the maps would churn nothing
        raise ConfigError(f"workload 'churn' needs threads <= maps, got {threads} > {maps}")
    cycles *= scale
    # Maps are created on the driving thread so ids stay deterministic even
    # in the two-thread mode; workers only mutate their own disjoint maps.
    handles = [env.new_map() for _ in range(maps)]
    seeds = [rng.randrange(1 << 48) for _ in range(maps)]
    if threads <= 1:
        for i, m in enumerate(handles):
            _churn_one(m, i, cycles, random.Random(seeds[i]))
        return

    def worker(slot: int, indices: list[int]) -> None:
        with env.thread(slot):
            for i in indices:
                _churn_one(handles[i], i, cycles, random.Random(seeds[i]))

    split = [[i for i in range(maps) if i % threads == t] for t in range(threads)]
    workers = [
        threading.Thread(target=worker, args=(t + 1, split[t])) for t in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


def _wl_scan(env, rng: random.Random, scale: int, *, maps=1000, entries=8, passes=4) -> None:
    # A key is (map index << 8) | entry index: entry 256 of one map would
    # be entry 0 of the next.
    if entries > 256:
        raise ConfigError(f"workload 'scan' needs entries <= 256, not {entries}")
    views = (View.ENTRIES, View.KEYS, View.VALUES)
    for mi in range(maps * scale):
        m = env.new_map()
        for j in range(entries):
            m.put(IntKey((mi << 8) | j), j)
        for p in range(passes):
            iterate(m, views[p % 3])


def _wl_populate_copy(env, rng: random.Random, scale: int, *, rounds=150) -> None:
    sizes = (6, 15, 30, 60)
    for r in range(rounds * scale):
        n = sizes[r % len(sizes)]
        base = r << 12
        m = env.new_map()
        for j in range(n):
            m.put(IntKey(base | j), j)
        c = env.copy_map(m)
        for j in range(0, n, 3):
            c.get(IntKey(base | j))
        c.get(IntKey(base | 4095))  # recorded miss
        if r % 4 == 0:
            iterate(c, View.KEYS)


def _wl_mixed(env, rng: random.Random, scale: int, *, rounds=120) -> None:
    standing = env.new_map()
    for j in range(40):
        standing.put(IntKey(j), j)
    for r in range(rounds * scale):
        family = r % 4
        if family == 0:  # populate
            m = env.new_map()
            base = (r + 1) << 12
            for j in range((r % 24) + 2):
                m.put(IntKey(base | j), j)
        elif family == 1:  # contains: alternate hits and misses
            for j in range(24):
                standing.contains_key(IntKey(j if j % 2 == 0 else 4000 + r + j))
        elif family == 2:  # iterate
            iterate(standing)
        else:  # copy
            c = env.copy_map(standing)
            c.get(IntKey(r % 40))


def _wl_random(env, rng: random.Random, scale: int, *, ops=200, universe=48, collide=4) -> None:
    _check_universe("random", universe)
    n_ops = ops * scale

    def key(ident: int) -> IntKey:
        # Every collide-th key shares one hash: preserved collisions.
        if collide and ident % collide == 0:
            return IntKey(ident, hash32=0x5EED)
        return IntKey(ident)

    maps = [env.new_map()]
    emitted = 0
    while emitted < n_ops:
        emitted += 1
        m = maps[rng.randrange(len(maps))]
        roll = rng.randrange(100)
        if roll < 28:
            m.put(key(rng.randrange(universe)), emitted)
        elif roll < 50:
            m.get(key(rng.randrange(universe)))
        elif roll < 62:
            m.contains_key(key(rng.randrange(universe)))
        elif roll < 74:
            m.remove(key(rng.randrange(universe)))
        elif roll < 86:
            it = m.iterator(View(rng.randrange(3)))
            steps = rng.randrange(1, m.size() + 3)
            removed = False
            for _ in range(steps):
                item = it.advance()
                if item is None:
                    break
                if not removed and rng.randrange(8) == 0:
                    it.remove()
                    removed = True
        elif roll < 90:
            m.clear()
        elif roll < 96 and len(maps) < 4:
            maps.append(env.new_map())
        else:
            maps.append(env.copy_map(m))
            if len(maps) > 4:
                maps.pop(0)


_WorkloadFn = Callable[..., None]

WORKLOADS: dict[str, _WorkloadFn] = {
    "wordfreq": _wl_wordfreq,
    "dedupe": _wl_dedupe,
    "churn": _wl_churn,
    "scan": _wl_scan,
    "populate-copy": _wl_populate_copy,
    "mixed": _wl_mixed,
    "random": _wl_random,
}


def _lookup(name: str) -> _WorkloadFn:
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise ConfigError(f"unknown workload {name!r}; known workloads: {known}") from None


def _run(spec: WorkloadSpec, env) -> None:
    """Run the named workload against `env` (a TraceSession or DirectEnv).

    Param names the workload does not declare are rejected before any map
    is created; a scale of zero or less runs nothing.
    """
    fn = _lookup(spec.name)
    known = fn.__kwdefaults__ or {}
    unknown = sorted(set(spec.params) - set(known))
    if unknown:
        names = ", ".join(f"{k}={v}" for k, v in known.items()) or "none"
        raise ConfigError(
            f"workload {spec.name!r} has no param {', '.join(map(repr, unknown))}; "
            f"its params (defaults): {names}"
        )
    if spec.scale <= 0:
        return
    fn(env, random.Random(spec.seed), spec.scale, **spec.params)


def generate(spec: WorkloadSpec, path: str | Path | None = None) -> RawTrace:
    """Run the named workload under tracing; optionally write the raw file.

    With a path, the records stream to the file as they are made, and the
    trace returned reads it back. If the workload raises, the file (if one
    was started) is closed with its sentinel count, as a crashed session's.
    """
    with TraceSession(path) as session:
        _run(spec, session)
    return session.close()


def run_direct(spec: WorkloadSpec) -> list[int]:
    """Run the workload untraced; returns each map's final state digest,
    in creation order."""
    env = DirectEnv()
    _run(spec, env)
    return [m.state_digest() for m in env.maps]
