"""Smoothing means with symbol ``exp(-|eps y|^alpha)`` and their comparison.

For ``f`` with transform ``F``, the mean of order ``alpha`` at scale ``eps``
is the convolution operator

    U[alpha, eps] f  =  inverse transform of  exp(-|eps y|^alpha) F(y).

For ``beta > alpha`` the approximation errors of the two families are
subordinate: ``1 - exp(-|y|^beta)`` factors through ``1 - exp(-|y|^alpha)``
with a bounded-measure ratio, so

    || f - U[beta, eps] f ||_p  <=  C(alpha, beta) || f - U[alpha, eps] f ||_p

for every ``p`` and every ``eps``, with a constant independent of both (the
ratio symbol is invariant under dilation).  This module applies the means,
estimates the constant and verifies the inequality on a corpus.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import KernelUnresolvableError
from .comparison import Report, _fmt_p, _verify, gw_ratio
from .fourier_core import GridSpec, SampledFunction, _finite, apply_symbol, forward_ft, lp_norm
from .measures import WienerEstimate, wiener_norm
from .testkit import means_suite

__all__ = [
    "gw_mean",
    "gw_error",
    "gw_constant",
    "gw_verify",
]

#: a kernel narrower than this many nodes is pure aliasing, not a kernel
_MIN_NODES_PER_WIDTH = 4


def _check_eps(eps: float, grid: GridSpec) -> float:
    eps = _finite(eps, "scale")
    if eps < _MIN_NODES_PER_WIDTH * grid.dx:
        raise KernelUnresolvableError(
            f"scale {eps} is below {_MIN_NODES_PER_WIDTH} nodes of spacing {grid.dx:.3g}; "
            "the kernel cannot be resolved on this grid")
    return eps


def _mean_symbol(alpha: float, eps: float, grid: GridSpec) -> np.ndarray:
    """``exp(-|eps y|^alpha)`` on the dual nodes, once order and scale are validated."""
    alpha = _finite(alpha, "exponent")
    eps = _check_eps(eps, grid)
    with np.errstate(over="ignore"):  # |eps y|**alpha = inf where the symbol is exp(-inf) = 0
        return np.exp(-np.abs(eps * grid.dual_nodes()) ** alpha)


def gw_mean(f: SampledFunction, alpha: float, eps: float) -> SampledFunction:
    """Apply the mean ``U[alpha, eps]`` to a space-side function."""
    return apply_symbol(_mean_symbol(alpha, eps, f.grid), forward_ft(f))


def gw_error(f: SampledFunction, alpha: float, eps: float, p: float) -> float:
    """Approximation error ``|| f - U[alpha, eps] f ||_p``."""
    diff = f - gw_mean(f, alpha, eps)
    return lp_norm(diff, p)


def gw_constant(alpha: float, beta: float, grid: GridSpec,
                oversample: int = 8) -> WienerEstimate:
    """Measure-norm estimate for the error-ratio symbol of the pair.

    This is the constant in the subordination inequality; it does not
    depend on the scale ``eps`` because the ratio symbol is dilation
    invariant.
    """
    return wiener_norm(gw_ratio(alpha, beta), grid, oversample=oversample)


def gw_verify(alpha: float, beta: float, grid: GridSpec,
              eps_values: Sequence[float] = (1.0, 0.5, 0.1),
              p_values: Sequence[float] = (1.0, 2.0, math.inf),
              oversample: int = 8) -> Report:
    """Verify the error subordination inequality on a corpus.

    For every function of :func:`subord.testkit.means_suite`, scale, and
    exponent the two approximation errors are measured; a case passes when
    the error of the ``beta`` mean
    is at most ``constant * (1 + TOLERANCE)`` times the error of the
    ``alpha`` mean, with the constant from :func:`gw_constant`.  Cases with
    right-hand side below ``1e-12 * (1 + lhs)`` are skipped; if nothing
    remains, :class:`AllCasesSkippedError` is raised.  Each mean symbol is
    sampled once per scale, so a scale the grid cannot resolve is refused
    before any test function is sampled.
    """
    estimate = gw_constant(alpha, beta, grid, oversample=oversample)
    means = [(eps, _mean_symbol(beta, eps, grid), _mean_symbol(alpha, eps, grid))
             for eps in eps_values]

    def rows(f):
        F = forward_ft(f)
        for eps, mean_beta, mean_alpha in means:
            # each error once per scale; every exponent reads the same samples
            error_beta = f - apply_symbol(mean_beta, F)
            error_alpha = f - apply_symbol(mean_alpha, F)
            for p in p_values:
                yield (float(eps), f"p={_fmt_p(float(p))}",
                       lp_norm(error_beta, p), lp_norm(error_alpha, p))

    return _verify(means_suite(), grid, rows, estimate.total, "verification",
                   estimate=estimate)
