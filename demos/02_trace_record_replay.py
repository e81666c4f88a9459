"""Record a workload, distill it offline, and replay it faithfully.

The pipeline has three stages. Tracing wraps maps behind the adapter
interface and records (operation, map id, canonical key id, hash,
outcome). Post-processing drops unplayable activity, merges iterator
bursts, inserts free events, and packs everything into int32 opcode
triples. Replay interprets those opcodes against any adapter, optionally
checking every recorded outcome bit.
"""

from mapreplay import (
    RawOpKind,
    RefMap,
    ReplaySession,
    TraceSession,
    View,
    coalesce,
    encode,
    insert_free_events,
    sanitize,
    stats,
)
from mapreplay.postproc import to_bytes
from mapreplay.workloads import IntKey

print("=== recording ===")
session = TraceSession()
phone_book = session.new_map()
for i in range(40):
    phone_book.put(IntKey(i), f"ext-{i}")
for i in range(60):
    phone_book.get(IntKey(i % 50))  # some hits, some misses
snapshot = session.copy_map(phone_book)
it = snapshot.iterator(View.ENTRIES)
while it.advance() is not None:
    pass
raw = session.close()
print(f"raw events recorded: {len(raw)}")

print("\n=== offline post-processing ===")
clean = sanitize(raw)
merged = coalesce(clean)
advances_before = int((clean.records["op"] == RawOpKind.ITER_ADVANCE).sum())
advances_after = int((merged.records["op"] == RawOpKind.ITER_ADVANCE).sum())
print(f"iterator advances: {advances_before} recorded -> {advances_after} "
      f"coalesced opcodes")
trace = encode(insert_free_events(merged))
c = stats(trace)
print(f"opcodes: {c.events}  (creates {c.creates}, reads {c.reads}, "
      f"writes {c.writes}, iterates {c.iterates})")
print(f"encoded size: {len(to_bytes(trace))} bytes, "
      f"{trace.max_map_slots} map slot(s), {trace.max_iter_slots} iterator slot(s)")
print(f"distinct keys carried over: {len(trace.key_hashes)} "
      "(hash codes only; keys and values never leave the application)")

print("\n=== replay with validation ===")
replayer = ReplaySession(trace)
result = replayer.replay(RefMap, mode="validating")
print(f"ops executed: {result.ops_executed}, maps constructed: {result.factory_calls}")
print(f"every recorded hit/miss reproduced; {len(result.map_digests)} final map "
      "states digested at their free points")

print("\n=== replay with counting ===")
counted = replayer.replay(RefMap, mode="counting")
print("deterministic work counters:", counted.counters.as_dict())

print("\n=== replay is deterministic ===")
again = replayer.replay(RefMap, mode="validating")
print(f"digests identical across replays: {again.map_digests == result.map_digests}")
