"""Walkthrough: the grid, the transform pair, and Lebesgue norms.

Run:  python3 demos/01_transforms_and_norms.py
"""

import math

import numpy as np

from subord import (
    SPACE,
    GridSpec,
    SampledFunction,
    convolve,
    forward_ft,
    inverse_ft,
    lp_norm,
)

# A grid is a symmetric window [-L, L) sampled at N points.  Its dual grid
# covers [-pi/dx, pi/dx) with spacing pi/L, so enlarging the window refines
# the dual grid and refining the window extends the dual one.
grid = GridSpec(20.0, 4096)
print(f"grid: L={grid.half_length} N={grid.size} dx={grid.dx:.5f}")
print(f"dual: |y| < {grid.dual_half_length:.1f}  dy={grid.dy:.5f}")

x = grid.nodes()
f = SampledFunction(grid, np.exp(-x * x), SPACE)

# The transform realizes the integral with the e^{-ixy} sign convention, so
# the Gaussian e^{-x^2} maps to sqrt(pi) e^{-y^2/4}.
F = forward_ft(f)
y = grid.dual_nodes()
exact = np.sqrt(np.pi) * np.exp(-y * y / 4.0)
band = np.abs(y) <= 10.0
rel = np.abs(F.values[band] - exact[band]) / exact[band]
print(f"\nforward transform vs closed form on |y|<=10: max rel err {rel.max():.2e}")

back = inverse_ft(F)
print(f"round trip max abs err: {np.abs(back.values - f.values).max():.2e}")

# Norms carry the grid weight, so they approximate the continuum integrals;
# p=inf is the node maximum.
print(f"\n||f||_1 = {lp_norm(f, 1):.10f}   (exact sqrt(pi) = {math.sqrt(math.pi):.10f})")
print(f"||f||_2 = {lp_norm(f, 2):.10f}   (exact (pi/2)^(1/4) = {(math.pi/2)**0.25:.10f})")
print(f"||f||_inf = {lp_norm(f, math.inf):.10f}")

# Plancherel: the transform multiplies the squared 2-norm by 2 pi.
print(f"\nPlancherel ratio ||F||_2^2 / ||f||_2^2 = "
      f"{lp_norm(F, 2)**2 / lp_norm(f, 2)**2:.10f}  (2 pi = {2*math.pi:.10f})")

# Convolution is computed through the transform domain and reproduces the
# Gaussian semigroup: e^{-x^2} * e^{-x^2} = sqrt(pi/2) e^{-x^2/2}.
conv = convolve(f, f)
target = np.sqrt(math.pi / 2.0) * np.exp(-x * x / 2.0)
print(f"\nself-convolution vs closed form: max abs err "
      f"{np.abs(conv.values - target).max():.2e}")
