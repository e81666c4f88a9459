"""The decision statistics behind benchmark comparisons.

Two benchmark reports rarely agree exactly; the question is whether their
speedup verdicts point the same way more often than chance. The toolkit:
percentile bootstrap intervals for means and mean differences, Pearson
correlation of speedup ratios, the exact one-sided binomial test on
concordant directions, and Cohen's h for the size of that proportion.
"""

import numpy as np

from mapreplay import (
    binomial_test_one_sided,
    bootstrap_ci_diff,
    bootstrap_ci_mean,
    cohens_h,
    format_speedup,
    pearson_r,
)

print("=== bootstrap confidence intervals ===")
rng = np.random.default_rng(7)
fast = rng.normal(loc=2007, scale=30, size=25)
slow = rng.normal(loc=2051, scale=30, size=25)
lo, hi = bootstrap_ci_mean(fast, level=0.99, seed=1)
print(f"variant mean {np.mean(fast):.0f} ms/replay, 99% CI [{lo:.1f}, {hi:.1f}], "
      f"reported as {np.mean(fast):.0f}±{(hi - lo) / 2:.1f}")
dlo, dhi = bootstrap_ci_diff(slow, fast, level=0.99, seed=2)
print(f"difference of means CI [{dlo:.1f}, {dhi:.1f}] -> "
      f"{'significant' if not dlo <= 0 <= dhi else 'not significant'}, "
      f"speedup {format_speedup(float(np.mean(slow)), float(np.mean(fast)))}")

same = rng.normal(loc=2000, scale=30, size=25)
dlo, dhi = bootstrap_ci_diff(same, same, level=0.99, seed=3)
print(f"a variant against itself: CI [{dlo:.1f}, {dhi:.1f}] contains zero, "
      f"speedup renders {format_speedup(float(np.mean(same)), float(np.mean(same)))}")

print("\n=== do two benchmark families agree? ===")
# Speedup ratios observed for the same 21 comparisons by two methodologies.
rng = np.random.default_rng(11)
truth = rng.normal(1.0, 0.06, 21)
family_a = truth + rng.normal(0, 0.02, 21)
family_b = truth + rng.normal(0, 0.02, 21)
r = pearson_r(family_a, family_b)
concordant = int(np.sum((family_a >= 1.0) == (family_b >= 1.0)))
print(f"Pearson r of the ratios: {r:.3f}")
print(f"concordant directions: {concordant}/21")

p = binomial_test_one_sided(concordant, 21, 0.5)
h = cohens_h(concordant / 21, 0.5)
print(f"one-sided binomial test (null p=0.5): p-value {p:.4f}")
print(f"Cohen's h against 0.5: {h:.3f}")
print("\nReference points: 18 concordant of 21 gives p = "
      f"{binomial_test_one_sided(18, 21, 0.5):.4f} and h = {cohens_h(18 / 21, 0.5):.3f};"
      "\nsmall p plus large h says the two families' verdicts move together.")

print("\n(Cross-report analysis over real runs: "
      "`mapreplay compare reportA.txt reportB.txt`.)")
