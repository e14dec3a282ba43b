"""Walkthrough: generalized Gauss-Weierstrass means and error subordination.

The family of means M_{a,eps} convolves f with the kernel whose transform is
e^{-(eps|y|)^a}; a=1 is Abel-Poisson, a=2 is Gauss-Weierstrass.  The
comparison machinery proves error bounds of the form

    || f - M_{b,eps} f ||_p  <=  K(a,b) || f - M_{a,eps} f ||_p,   b > a,

with one constant for every eps and p.

Run:  python3 demos/04_summability_means.py
"""

import numpy as np

from subord import (
    gaussian,
    gw_error,
    gw_mean,
    gw_verify,
    make_grid,
    materialize,
    pinned_constant,
)

grid = make_grid(40.0, 16384)
f = materialize(gaussian(1.0), grid)

# Means smooth: larger eps smooths more, and the mean of a Gaussian is again
# a Gaussian with inflated variance.
for eps in (1.0, 0.5, 0.1):
    m = gw_mean(f, 2.0, eps)
    print(f"  eps={eps:<4} peak of M f: {np.abs(m.values).max():.6f}  "
          f"(exact 1/sqrt(1+4 eps^2) = {1.0/np.sqrt(1+4*eps*eps):.6f})")

# Approximation errors decrease along eps -> 0 for every order.
print("\n||f - M f||_2 along eps:")
for alpha in (1.0, 2.0):
    errs = [gw_error(f, alpha, eps, 2.0) for eps in (1.0, 0.5, 0.1, 0.05)]
    print(f"  a={alpha:g}: " + "  >  ".join(f"{e:.5f}" for e in errs))

# The subordination run: estimates the constant once, then checks every
# (function, eps, p) combination of the default corpus.
report = gw_verify(1.0, 2.0, grid)
print(f"\ngw_verify(1,2): constant {report.constant:.6f}, "
      f"{len(report.cases)} cases, worst ratio {report.worst_ratio:.4f}, "
      f"passed={report.passed}")

# Constants for the standard exponent pairs, pinned at high resolution and
# shipped with the package.
print("\npinned reference constants:")
for a, b in ((0.5, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 4.0)):
    print(f"  K({a:g},{b:g}) = {pinned_constant(a, b):.10f}")
