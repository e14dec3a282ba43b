"""Walkthrough: dominating one constant-coefficient differential operator by
two others through a symbol decomposition.

Given polynomial symbols Q, P1, P2 (acting as operators in -i d/dx), the
decomposition Q = h1 P1 + h2 P2 with bounded multipliers h1, h2 yields

    ||Q(D) f||_q  <=  C ( ||P1(D) f||_p1 + ||P2(D) f||_p2 ).

The flagship instance Q=y, P1=y^2, P2=1 is the classical bound of the first
derivative by the second derivative and the function itself.

Run:  python3 demos/05_differential_operators.py
"""

import math

import numpy as np

from subord import (
    GridSpec,
    apply_diffop,
    construct_decomposition,
    decomposition_hypotheses,
    diffop_subordination,
    gaussian,
    materialize,
)
from subord.errors import HypothesesViolatedError

grid = GridSpec(40.0, 2 ** 18)

# Spectral application: symbol y acts as -i d/dx.
small = GridSpec(40.0, 16384)
f = materialize(gaussian(1.0), small)
x = small.nodes()
df = apply_diffop([0, 1], f)
exact = -1j * (-2.0 * x * np.exp(-x * x))
print(f"first derivative via the symbol: max err {np.abs(df.values - exact).max():.2e}")

# Hypotheses: at every common real zero of P1 and P2, Q must vanish at least to
# the lower of their two orders; near it P1 and P2 generate that power of (y - r).
violations = decomposition_hypotheses([0, 1], [0, 0, 1], [1])
print(f"\n(y, y^2, 1) admissible: {not violations}")
try:
    construct_decomposition([1], [0, 1], [0, 1], small)
except HypothesesViolatedError as err:
    print(f"(1, y, y) rejected: {err}")

# The decomposition: h1 = 1/y away from the origin, interpolated across a
# neighborhood of 0, the pole of Q/P1; h2 covers the neighborhood.
d = construct_decomposition([0, 1], [0, 0, 1], [1], grid)
print(f"\nneighborhoods: {d.neighborhoods}")
print(f"identity residual: {d.identity_residual:.2e}")
print(f"sup|h2| = {d.cofactor2_sup:.6f}   h1 -> {d.cofactor1.const_at_infinity} at infinity")

# The inequality, with constants from the measure norms of h1 and h2.
for q in (1.0, 2.0, math.inf):
    sub = diffop_subordination(d, q=q)
    print(f"q={q:<4g} C = {sub.constant:.4f}  worst ratio {sub.worst_ratio:.4f}  "
          f"passed={sub.passed}")

# Mixed exponents are admissible within the Young range.
sub = diffop_subordination(d, q=2.0, p2=1.0)
print(f"q=2, p2=1: factor for h2 drops to {sub.factor2:.4f} "
      f"(h2's own norm against the L1 -> L2 pairing)")
