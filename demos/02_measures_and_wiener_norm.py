"""Walkthrough: estimating the norm of the finite measure behind a multiplier
from its values on the dual grid.

Run:  python3 demos/02_measures_and_wiener_norm.py
"""

from subord import (
    GridSpec,
    constant,
    exp_abs_ft,
    gw_symbol,
    wiener_norm,
)

grid = GridSpec(40.0, 16384)

# Given only the multiplier values psi(y), estimate the norm of the measure
# behind it.  The estimator separates the limit at infinity (an atom at the
# origin of the space side), inverts the rest to a density, and adds a tail
# bound beyond the window.
for label, sym, exact in [
    ("e^{-|y|}  (Cauchy kernel transform)", gw_symbol(1.0), 1.0),
    ("constant 1  (pure unit atom)", constant(1.0), 1.0),
    ("2/(1+y^2)  (transform of e^{-|x|})", exp_abs_ft(), 2.0),
]:
    est = wiener_norm(sym, grid)
    print(f"\npsi = {label}")
    print(f"  limit at infinity {est.const_at_infinity.real:+.2e}   "
          f"density L1 {est.density_l1:.6f}   tail {est.tail_bound:.2e}")
    print(f"  total {est.total:.6f}   (exact {exact})   converged={est.converged}")
