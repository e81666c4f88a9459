"""Correctness checks: a tally of attempted and failed checks, and the goldens.

Every probe and every comparison counts as one attempted check. An
exception inside a probe counts as a failed check and the run goes on, so
one broken layer costs its own samples and not the whole run.
"""

from __future__ import annotations

import json
import traceback
from pathlib import Path

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

#: The seed entry of a workload whose input ignores the seed.
ANY_SEED = "*"


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def absorb(self, attempted: int, failures: list[str]) -> None:
        """Add the tally of checks made in another process."""
        self.attempted += attempted
        self.failures.extend(failures)

    def probe(self, what: str, fn, *args):
        """Run `fn`; an exception fails the check and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failures.append(f"{what}: {traceback.format_exc(limit=-3).strip()}")
            return None


class Goldens:
    """MPT1 sha256 and counting-mode counters per plan and recorded seed.

    `goldens.json` maps a plan key to {seed: {"mpt_sha256", "counters"}};
    a plan whose input ignores the seed has the single seed "*".
    """

    def __init__(self, table: dict):
        self.table = table

    @classmethod
    def load(cls, path: Path = GOLDENS_PATH) -> "Goldens":
        return cls(json.loads(path.read_text()))

    def lookup(self, plan_key: str, seed: int) -> dict | None:
        seeds = self.table.get(plan_key, {})
        return seeds.get(ANY_SEED) or seeds.get(str(seed))

    def reference_seed(self, plan_key: str) -> int | None:
        """The lowest recorded seed of a seeded plan."""
        seeds = [int(s) for s in self.table.get(plan_key, {}) if s != ANY_SEED]
        return min(seeds) if seeds else None
