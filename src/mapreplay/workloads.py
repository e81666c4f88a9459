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

A workload runs against an environment: TracingEnv records events through
a TraceSession, DirectEnv applies the same operations to plain RefMaps so
final map states can be compared against replay. Identical seeds produce
byte-identical raw traces; workload keys carry their own deterministic
32-bit hashes and never depend on Python's per-process string hashing.
"""

from __future__ import annotations

import random
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Any, Callable

from .errors import ConfigError, FidelityError
from .refmap import DEFAULT_CONFIG, MapConfig, RefMap, View, to_signed32
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
    """String-token key with an FNV-1a 32-bit hash."""

    __slots__ = ("token", "_h32")

    def __init__(self, token: str):
        self.token = token
        self._h32 = fnv1a_32(token.encode())

    def hash32(self) -> int:
        return self._h32

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WordKey) and other.token == self.token

    def __hash__(self) -> int:
        return hash(self.token)

    def __repr__(self) -> str:
        return f"WordKey({self.token!r})"


class IntKey:
    """Integer key; hash quality is controllable via an explicit hash32."""

    __slots__ = ("ident", "_h32")

    def __init__(self, ident: int, hash32: int | None = None):
        self.ident = ident
        self._h32 = mix32(ident) if hash32 is None else hash32

    def hash32(self) -> int:
        return self._h32

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntKey) and other.ident == self.ident

    def __hash__(self) -> int:
        return self.ident

    def __repr__(self) -> str:
        return f"IntKey({self.ident}, hash={self._h32})"


@lru_cache(maxsize=1)
def corpus_tokens() -> tuple[str, ...]:
    """The embedded ~50k-token text corpus (Zipf-distributed vocabulary)."""
    text = resources.files("mapreplay").joinpath("data/corpus.txt").read_text()
    return tuple(text.split())


@dataclass(slots=True)
class WorkloadSpec:
    """Names a workload run; equal specs generate byte-identical traces."""

    name: str
    seed: int = 1
    scale: int = 1
    params: dict[str, int] = field(default_factory=dict)


class TracingEnv:
    """Runs a workload against traced maps inside a TraceSession."""

    def __init__(self, session: TraceSession):
        self.session = session

    def new_map(self, config: MapConfig = DEFAULT_CONFIG):
        return self.session.new_map(config)

    def copy_map(self, source, config: MapConfig = DEFAULT_CONFIG):
        return self.session.copy_map(source, config)

    def thread(self, slot: int):
        return self.session.thread(slot)


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


def _drain(iterator) -> int:
    n = 0
    while iterator.advance() is not None:
        n += 1
    return n


def _wl_wordfreq(env, rng: random.Random, scale: int, params: dict) -> None:
    if scale <= 0:
        return
    counts = env.new_map()
    for _ in range(scale):
        for token in corpus_tokens():
            k = WordKey(token)
            seen = counts.get(k)
            counts.put(k, seen + 1 if seen else 1)
    _drain(counts.iterator(View.ENTRIES))


def _wl_dedupe(env, rng: random.Random, scale: int, params: dict) -> None:
    if scale <= 0:
        return
    universe = params.get("universe", 4000)
    n_ops = params.get("ops", 30000) * scale
    seen = env.new_map()
    for _ in range(n_ops):
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


def _wl_churn(env, rng: random.Random, scale: int, params: dict) -> None:
    if scale <= 0:
        return
    n_maps = params.get("maps", 8)
    cycles = params.get("cycles", 30) * scale
    threads = params.get("threads", 1)
    # Maps are created on the driving thread so ids stay deterministic even
    # in the two-thread mode; workers only mutate their own disjoint maps.
    maps = [env.new_map() for _ in range(n_maps)]
    seeds = [rng.randrange(1 << 48) for _ in range(n_maps)]
    if threads <= 1:
        for i, m in enumerate(maps):
            _churn_one(m, i, cycles, random.Random(seeds[i]))
        return

    def worker(slot: int, indices: list[int]) -> None:
        with env.thread(slot):
            for i in indices:
                _churn_one(maps[i], i, cycles, random.Random(seeds[i]))

    split = [[i for i in range(n_maps) if i % threads == t] for t in range(threads)]
    workers = [
        threading.Thread(target=worker, args=(t + 1, split[t])) for t in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


def _wl_scan(env, rng: random.Random, scale: int, params: dict) -> None:
    n_maps = params.get("maps", 1000) * scale
    entries = params.get("entries", 8)
    passes = params.get("passes", 4)
    views = (View.ENTRIES, View.KEYS, View.VALUES)
    for mi in range(n_maps):
        m = env.new_map()
        for j in range(entries):
            m.put(IntKey((mi << 8) | j), j)
        for p in range(passes):
            _drain(m.iterator(views[p % 3]))


def _wl_populate_copy(env, rng: random.Random, scale: int, params: dict) -> None:
    rounds = params.get("rounds", 150) * scale
    sizes = (6, 15, 30, 60)
    for r in range(rounds):
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
            _drain(c.iterator(View.KEYS))


def _wl_mixed(env, rng: random.Random, scale: int, params: dict) -> None:
    if scale <= 0:
        return
    rounds = params.get("rounds", 120) * scale
    standing = env.new_map()
    for j in range(40):
        standing.put(IntKey(j), j)
    for r in range(rounds):
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
            _drain(standing.iterator(View.ENTRIES))
        else:  # copy
            c = env.copy_map(standing)
            c.get(IntKey(r % 40))


def _wl_random(env, rng: random.Random, scale: int, params: dict) -> None:
    if scale <= 0:
        return
    n_ops = params.get("ops", 200) * scale
    universe = params.get("universe", 48)
    collide_every = params.get("collide", 4)

    def key(ident: int) -> IntKey:
        # Every collide_every-th key shares one hash: preserved collisions.
        if collide_every and ident % collide_every == 0:
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


_WorkloadFn = Callable[[Any, random.Random, int, dict], None]

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


def generate(spec: WorkloadSpec, path: str | Path | None = None) -> RawTrace:
    """Run the named workload under tracing; optionally write the raw file."""
    fn = _lookup(spec.name)
    session = TraceSession(path)
    fn(TracingEnv(session), random.Random(spec.seed), spec.scale, spec.params)
    return session.close()


def run_direct(spec: WorkloadSpec) -> list[int]:
    """Run the workload untraced; returns each map's final state digest,
    in creation order."""
    fn = _lookup(spec.name)
    env = DirectEnv()
    fn(env, random.Random(spec.seed), spec.scale, spec.params)
    return [m.state_digest() for m in env.maps]


def pipeline(spec: WorkloadSpec, variants, config=None):
    """generate -> post-process -> validate against RefMap -> bench."""
    from .bench import BenchConfig, run_bench
    from .postproc import process
    from .replay import ReplaySession

    trace = process(generate(spec))
    session = ReplaySession(trace)
    try:
        session.replay(RefMap, mode="validating")
    except FidelityError as exc:
        raise FidelityError(f"pipeline validation failed: {exc}") from exc
    return run_bench(trace, variants, config or BenchConfig(), label=spec.name)
