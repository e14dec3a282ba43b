"""Walkthrough: when is one convolution operator dominated by another?

If the symbol of operator B vanishes only where the symbol of operator A
vanishes too, and the ratio A/B is the transform of a finite measure, then

    || A f ||_p  <=  K || B f ||_p      for every p and every f,

with K the measure norm of the ratio.  This demo builds such a pair,
estimates K, and stress-tests the inequality over the function corpus.

Run:  python3 demos/03_comparison_principle.py
"""

from subord import (
    GridSpec,
    one_minus_gw_symbol,
    ratio_multiplier,
    verify_comparison,
)
from subord.errors import NestedZerosViolatedError

grid = GridSpec(40.0, 16384)

# 1 - e^{-y^2} vs 1 - e^{-|y|}: both vanish only at y=0, and their ratio is
# bounded with a removable zero -- the canonical dominated pair.
m1 = one_minus_gw_symbol(2.0)
m2 = one_minus_gw_symbol(1.0)

print(f"ratio symbol: {ratio_multiplier(m1, m2, grid).label}")
report = verify_comparison(m1, m2, grid)
print(f"estimated constant K = {report.constant:.6f} "
      f"(converged={report.estimate.converged})")

print(f"\nverification over the corpus: {len(report.cases)} cases, "
      f"worst ||Af||/(K||Bf||) = {report.worst_ratio:.4f}, passed={report.passed}")
for case in report.cases[:6]:
    print(f"  {case.label:28s} {case.exponents:<6} lhs={case.lhs:.4e} "
          f"rhs={case.rhs:.4e} ratio={case.ratio:.3f}")
print("  ...")

# Reflexivity sanity: comparing an operator with itself gives K = 1.
reflexive = verify_comparison(m2, m2, grid)
print(f"\nself-comparison constant: {reflexive.constant:.12f} (exactly 1 up to fp)")

# And the hypothesis actually bites: swapping the pair so the denominator
# vanishes where the numerator does not is refused outright.
from subord import exp_abs_ft

try:
    verify_comparison(exp_abs_ft(), m2, grid)
except NestedZerosViolatedError as err:
    print(f"\nswapped comparison rejected: {err}")
