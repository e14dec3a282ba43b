"""Reference values computed apart from the ``subord`` package.

Nothing here imports ``subord``.  The corpus transforms are written out in
closed form (or, for the bump, by Gauss-Legendre quadrature in space), L^2
norms are taken on the frequency side by Plancherel, and suprema are read off
dense grids with plain numpy.  The benchmark compares every report against
these values and properties:

* ``plancherel_l2(m, label, L, N)`` is ``||m(y) F(y)||_2 / sqrt(2 pi)``, the
  L^2 norm of the convolution operator with symbol ``m`` applied to the
  corpus function ``label``, summed over the dual nodes of the report's
  grid, where the program's own value is a transform of samples;
* a measure norm is never below the supremum of its symbol, so every
  reported comparison constant must be ``>= sup |psi|``;
* for ``Q = h1 P1 + h2 P2`` the constant of a p1 = p2 = q domination is never
  below ``S = sup |Q| / (|P1| + |P2|)``, and for q = 2 Plancherel bounds every
  case ratio by ``S``;
* ``exp(-|y|^alpha)`` with ``0 < alpha <= 2`` is the characteristic function
  of a symmetric stable law: its density is nonnegative with mass 1, so the
  measure norm is exactly 1 (Zolotarev, *One-dimensional Stable
  Distributions*) and an estimate below 1 is wrong.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: exact measure norm of every symmetric stable symbol exp(-|y|^alpha)
STABLE_LAW_NORM = 1.0
#: rounding slack for comparisons against exact values
ROUNDING = 1e-12
#: agreement required between a reported L^2 norm and its Plancherel value;
#: the worst seen is 2e-9, the aliased y^-4 tail of the B-spline on the desk
#: grid, so 1e-7 leaves a margin of fifty
L2_RTOL = 1e-7

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _panel_rule(lo: float, hi: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite 24-point Gauss-Legendre rule."""
    panels = max(1, int(math.ceil((hi - lo) / width)))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    points = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return points, weights


# ---------------------------------------------------------------------------
# corpus: transforms F(y) = int f(x) exp(-i x y) dx and L^1 norms
# ---------------------------------------------------------------------------

def _bump_profile(radius: float, x: np.ndarray) -> np.ndarray:
    t = np.asarray(x, dtype=float) / radius
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = math.e * np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


@lru_cache(maxsize=None)
def _bump_rule(radius: float) -> tuple[np.ndarray, np.ndarray]:
    # the x >= 0 half of the bump on 32 panels; the profile is flat to all
    # orders at its edge, and halving the panels moves F by under 1e-14
    x, w = _panel_rule(0.0, radius, radius / 32.0)
    return x, w * _bump_profile(radius, x)


def bump_transform(radius: float, y) -> np.ndarray:
    """``2 int_0^R b(x) cos(x y) dx`` for the peak-normalized bump (it is even)."""
    x, wb = _bump_rule(radius)
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, 2048):
        chunk = flat[start:start + 2048]
        out[start:start + chunk.size] = 2.0 * (np.cos(np.outer(chunk, x)) @ wb)
    return out.reshape(y.shape)


def _box_power(y, m: int) -> np.ndarray:
    half = 0.5 * np.asarray(y, dtype=float)
    safe = np.where(half == 0.0, 1.0, half)
    return np.where(half == 0.0, 1.0, np.sin(safe) / safe) ** m


def _sampled_exp_abs(y, dx: float) -> np.ndarray:
    # dx * sum_j exp(-|j dx|) exp(-i j dx y), the geometric series of the
    # samples; it tends to 2 / (1 + y^2) as dx -> 0 and, unlike that, carries
    # the aliasing of the kink, which is 5e-4 of the norm on the desk grid
    half = 0.5 * dx
    return dx * math.sinh(dx) / (2.0 * (math.sinh(half) ** 2 + np.sin(half * y) ** 2))


_SQRT_PI = math.sqrt(math.pi)

#: label -> (transform, L^1 norm)
CORPUS = {
    "gaussian_a1": (lambda y: _SQRT_PI * np.exp(-(y ** 2) / 4.0), _SQRT_PI),
    "gaussian_a4": (lambda y: 4.0 * _SQRT_PI * np.exp(-4.0 * y ** 2), 4.0 * _SQRT_PI),
    "exp_abs_a1": (lambda y: 2.0 / (1.0 + y ** 2), 2.0),
    "bump_R2": (lambda y: bump_transform(2.0, y), 2.0 * float(np.sum(_bump_rule(2.0)[1]))),
    "bspline_m4": (lambda y: _box_power(y, 4), 1.0),
    "modulated_gaussian_a1_w3": (lambda y: _SQRT_PI * np.exp(-((y - 3.0) ** 2) / 4.0),
                                 _SQRT_PI),
}
#: beyond this |y| the bump transform is below 1e-15 of its peak and is taken as 0
_BUMP_SUPPORT = 400.0


def transform(label: str, y) -> np.ndarray:
    """Closed-form (bump: quadrature) transform of a corpus function."""
    return np.asarray(CORPUS[label][0](np.asarray(y, dtype=float)))


def l1_norm(label: str) -> float:
    """``||f||_1`` of a corpus function."""
    return CORPUS[label][1]


@lru_cache(maxsize=None)
def _dual_power(label: str, half_length: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    # dual nodes (k - N/2) pi / L of a grid and the spectral power |F|^2 there
    y = (np.arange(size) - size // 2) * (math.pi / half_length)
    if label == "exp_abs_a1":
        return y, _sampled_exp_abs(y, 2.0 * half_length / size) ** 2
    if label == "bump_R2":
        power = np.zeros(size)
        inside = np.abs(y) <= _BUMP_SUPPORT
        power[inside] = bump_transform(2.0, y[inside]) ** 2
        return y, power
    return y, np.abs(transform(label, y)) ** 2


def plancherel_l2(symbol, label: str, half_length: float, size: int) -> float:
    """``||symbol(y) F(y)||_2 / sqrt(2 pi)`` by the rectangle rule on a grid's dual nodes.

    ``F`` is the closed-form transform, not a transform of samples (for the
    kinked ``exp_abs`` it is the closed-form sum of its samples), so the value
    differs from the program's only by the aliasing of the smooth profiles,
    below 1e-8 of the norm on the corpus.
    """
    y, power = _dual_power(label, float(half_length), int(size))
    dy = math.pi / half_length
    return math.sqrt(dy * float(np.sum(power * np.abs(symbol(y)) ** 2)) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# symbols and their suprema
# ---------------------------------------------------------------------------

def one_minus_stable(alpha: float, y) -> np.ndarray:
    """``1 - exp(-|y|^alpha)``."""
    return -np.expm1(-np.abs(np.asarray(y, dtype=float)) ** alpha)


def mean_error_ratio(alpha: float, beta: float, y) -> np.ndarray:
    """``(1 - exp(-|y|^beta)) / (1 - exp(-|y|^alpha))``, 0 at the origin."""
    y = np.asarray(y, dtype=float)
    num = one_minus_stable(beta, y)
    den = one_minus_stable(alpha, y)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


#: dense grid for suprema of even symbols: fine near the origin, out to 200
_DENSE_Y = np.concatenate([np.linspace(0.0, 20.0, 400001), np.linspace(20.0, 200.0, 180001)])


def sup_mean_error_ratio(alpha: float, beta: float) -> float:
    """Dense-grid ``sup |psi|`` of the mean-error ratio symbol.

    The symbol is even and tends to 1 at infinity, so the grid covers
    ``[0, 200]`` and 1 is included as the limit.
    """
    return max(1.0, float(np.abs(mean_error_ratio(alpha, beta, _DENSE_Y)).max()))


def polynomial(coeffs, y) -> np.ndarray:
    """Ascending coefficients evaluated by Horner's rule at real points."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape, dtype=complex)
    for c in reversed(list(coeffs)):
        out = out * y + c
    return out


def domination_sup(Q, P1, P2) -> float:
    """``S = sup_y |Q(y)| / (|P1(y)| + |P2(y)|)`` on a dense grid plus the limit.

    Any decomposition ``Q = h1 P1 + h2 P2`` has ``max(sup|h1|, sup|h2|) >= S``.
    """
    y = np.concatenate([-_DENSE_Y[::-1], _DENSE_Y])
    num = np.abs(polynomial(Q, y))
    den = np.abs(polynomial(P1, y)) + np.abs(polynomial(P2, y))
    # a common zero of all three is removable; its neighbours carry the value
    vals = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    degrees = [len(Q) - 1, len(P1) - 1, len(P2) - 1]
    top = max(degrees)
    lead = lambda c, d: abs(c[-1]) if d == top else 0.0
    denom = lead(P1, degrees[1]) + lead(P2, degrees[2])
    limit = lead(Q, degrees[0]) / denom if denom else math.inf
    return max(float(vals.max()), limit)


def real_roots(coeffs) -> list[float]:
    """Distinct real roots of an ascending-coefficient polynomial, sorted."""
    roots = np.roots(list(reversed(coeffs))) if len(coeffs) > 1 else []
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)))
    distinct = []
    for r in real:
        if not distinct or r - distinct[-1] > 1e-6:
            distinct.append(r)
    return distinct


# ---------------------------------------------------------------------------
# symmetric stable laws
# ---------------------------------------------------------------------------

def stable_density(alpha: float, x) -> np.ndarray:
    """Density ``(1/pi) int_0^inf exp(-y^alpha) cos(x y) dy`` of the stable law.

    Computed by panel quadrature, cut where ``exp(-y^alpha)`` is below 1e-17.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cut = (-math.log(1e-17)) ** (1.0 / alpha)
    out = np.empty(x.shape)
    for i, xi in enumerate(x):
        width = min(0.25, math.pi / (4.0 * max(abs(xi), 1e-12)))
        y, w = _panel_rule(0.0, cut, width)
        out[i] = float(np.sum(w * np.exp(-y ** alpha) * np.cos(xi * y))) / math.pi
    return out


def stable_total_ok(total: float) -> bool:
    """A measure-norm estimate of a stable symbol may not fall below 1."""
    return total >= STABLE_LAW_NORM - ROUNDING
