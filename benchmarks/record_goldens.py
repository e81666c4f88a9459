"""Rewrite benchmarks/goldens.json from the current sources.

    python3 benchmarks/record_goldens.py

Records, for every full-size and self-check plan, the MPT1 sha256 and the
counting-mode counters. A plan whose input ignores the seed gets one entry
under "*" (after checking that two seeds agree); a seeded plan gets one
entry per seed in RECORDED_SEEDS. Only rerun this when a change is meant
to alter the processed traces, and say so in the change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
from checks import ANY_SEED, GOLDENS_PATH  # noqa: E402

RECORDED_SEEDS = range(0, 64)


def main() -> None:
    table = {}
    for plan in (*layers.PLANS.values(), *layers.TINY_PLANS.values()):
        if plan.key in table:
            continue
        if plan.seeded:
            table[plan.key] = {str(s): layers.golden_entry(plan.spec(s)) for s in RECORDED_SEEDS}
        else:
            entry = layers.golden_entry(plan.spec(0))
            if layers.golden_entry(plan.spec(1)) != entry:
                raise SystemExit(f"{plan.key} is marked unseeded but its input varies")
            table[plan.key] = {ANY_SEED: entry}
        print(plan.key, len(table[plan.key]), "entries", file=sys.stderr)
    GOLDENS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
