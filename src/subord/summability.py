"""Smoothing means with symbol ``exp(-|eps y|^alpha)`` and their comparison.

For ``f`` with transform ``F``, the mean of order ``alpha`` at scale ``eps``
is the convolution operator

    U[alpha, eps] f  =  inverse transform of  exp(-|eps y|^alpha) F(y).

For ``beta > alpha`` the approximation errors of the two families are
subordinate: ``1 - exp(-|y|^beta)`` factors through ``1 - exp(-|y|^alpha)``
with a bounded-measure ratio, so

    || f - U[beta, eps] f ||_p  <=  C(alpha, beta) || f - U[alpha, eps] f ||_p

for every ``p`` and every ``eps``, with a constant independent of both (the
ratio symbol is invariant under dilation).  That is the comparison principle of
:mod:`subord.comparison` applied to the error symbols ``1 - exp(-|eps y|^alpha)``,
and :func:`gw_verify` runs it through the same row routine as
:func:`subord.comparison.verify_comparison`.  The module keeps only
:func:`gw_mean` and :func:`gw_verify` because the benchmark's tracer wraps both.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import KernelUnresolvableError
from .comparison import (Multiplier, Report, _verify_symbols, gw_ratio, gw_symbol,
                         one_minus_gw_symbol)
from .fourier_core import GridSpec, SampledFunction, _finite, apply_symbol, forward_ft
from .measures import wiener_norm

__all__ = [
    "gw_mean",
    "gw_verify",
]

#: a kernel narrower than this many nodes is pure aliasing, not a kernel
_MIN_NODES_PER_WIDTH = 4


def _dilated(m: Multiplier, eps: float, grid: GridSpec) -> np.ndarray:
    """``m(eps y)`` on the dual nodes, once the scale is validated; kept real, as the means and
    their error symbols are, so it holds half the bytes of the complex samples."""
    eps = _finite(eps, "scale")
    if eps < _MIN_NODES_PER_WIDTH * grid.dx:
        raise KernelUnresolvableError(
            f"scale {eps} is below {_MIN_NODES_PER_WIDTH} nodes of spacing {grid.dx:.3g}; "
            "the kernel cannot be resolved on this grid")
    with np.errstate(over="ignore"):  # eps y = +-inf only where the symbol has its limit
        return m(eps * grid.dual_nodes()).real.copy()


def gw_mean(f: SampledFunction, alpha: float, eps: float) -> SampledFunction:
    """Apply the mean ``U[alpha, eps]`` to a space-side function."""
    return apply_symbol(_dilated(gw_symbol(alpha), eps, f.grid), forward_ft(f))


def gw_verify(alpha: float, beta: float, grid: GridSpec,
              eps_values: Sequence[float] = (1.0, 0.5, 0.1),
              p_values: Sequence[float] = (1.0, 2.0, math.inf),
              oversample: int = 8) -> Report:
    """Verify the error subordination inequality on a corpus.

    For every function of :func:`subord.testkit.means_suite`, scale, and
    exponent the two approximation errors are measured through their error
    symbols, ``||f - U[beta, eps] f||_p`` as the norm of the operator with
    symbol ``1 - exp(-|eps y|^beta)``; a case passes when the error of the
    ``beta`` mean is at most ``constant * (1 + TOLERANCE)`` times the error of
    the ``alpha`` mean, with the constant the measure-norm estimate of
    :func:`subord.comparison.gw_ratio`.  Cases with right-hand side below
    ``1e-12 * (1 + lhs)`` are skipped; if nothing remains,
    :class:`AllCasesSkippedError` is raised.  Each error symbol is sampled once
    per scale, so a scale the grid cannot resolve is refused before any test
    function is sampled.
    """
    lower, upper = one_minus_gw_symbol(alpha), one_minus_gw_symbol(beta)
    estimate = wiener_norm(gw_ratio(alpha, beta), grid, oversample=oversample)
    pairs = [(float(eps), _dilated(upper, eps, grid), _dilated(lower, eps, grid))
             for eps in eps_values]
    return _verify_symbols(pairs, grid, p_values, estimate, "verification")
