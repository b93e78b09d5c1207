"""Closed-form entanglement averages over Haar-random passive circuits.

For n equally squeezed modes (strength s) partitioned at ratio r = k/n, the
averages take the series form

    E S = sum_{i>=1} c_i(s) (n G_i(r) - H_i(r)),

up to corrections that vanish as n grows, where sum_i c_i x^i = f(0) - f(x)
and f(l) is the one-mode entropy of Renyi order alpha (``renyi_mode_entropy``;
order 1 is von Neumann) at the symplectic eigenvalue
nu(l) = sqrt(1 + sinh^2(2s) (1 - l)). ``page_average`` evaluates it at any
order, and ``page_limit`` gives its leading weak and strong squeezing laws.

The moment polynomials are moments of the limiting spectral law of two free
projections of trace rq = min(r, 1-r) (K. Wachter, Ann. Probab. 8 (1980) 1;
B. Collins, Probab. Theory Relat. Fields 133 (2005) 315):

    G_i(r) = rq - int l^i rho(l) dl,   H_i(r) = c^i / 4,
    rho(l) = sqrt(l (c - l)) / (2 pi l (1 - l)) on (0, c),   c = 4 rq (1 - rq).

So the whole series collapses into one integral,

    E S = n [rq f(0) - int (f(0) - f(l)) rho(l) dl] - [f(0) - f(c)] / 4,

and the per-mode (n -> infinity) curve is the bracket alone.

Evaluation notes
----------------
With l = c (1 - cos theta) / 2 the integral runs over theta in (0, pi) with
the smooth integrand (f(0) - f(l)) c (1 + cos theta) / (4 pi (1 - l)). Both
1 + cos theta = 2 cos^2(theta/2) and 1 - l = (1-2rq)^2 + c cos^2(theta/2)
are formed without cancellation: at r = 1/2 and strong squeezing, nu depends
on 1 - l near zero, where the naive difference loses the digits that matter.
Gauss-Legendre rules in theta with m = 32, 64, ... nodes are compared
pairwise; the finer estimate is returned once two successive ones differ by
at most ``tol``, and that difference is reported as ``trunc_err``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entropy import _check_alpha, _integer, _mode_entropy

__all__ = [
    "ASYMPTOTIC",
    "DEFAULT_TOL",
    "LIMIT_REGIMES",
    "MAX_NODES",
    "PageCurveValue",
    "page_average",
    "page_limit",
    "renyi_unequal_small",
]

#: Sentinel for the n -> infinity query; averages then return per-mode values.
ASYMPTOTIC = None

#: Default absolute tolerance (nats).
DEFAULT_TOL = 1e-3

#: Node count of the first quadrature estimate; each further one doubles it.
FIRST_NODES = 32

#: Largest node count. At the default tolerance every cell with s <= 3 settles
#: by 128 nodes; a tolerance still unmet here is within a few hundred ulp of the
#: value (von Neumann at r = 1/2, s = 3 converges slowest).
MAX_NODES = 1024


@dataclass(frozen=True)
class PageCurveValue:
    """Result of one analytic average.

    ``value`` is the total entropy in nats for finite n, or the per-mode
    entropy for an asymptotic query. ``nodes`` is the quadrature node count
    of the returned estimate (0 when the value is exactly zero) and
    ``trunc_err`` its difference from the estimate with half as many nodes.
    ``realized_r`` is k/n with k = round(r n) for finite n (ties to even),
    else the requested r.
    """

    value: float
    nodes: int
    trunc_err: float
    realized_r: float


def _check_ratio(r: float) -> float:
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"partition ratio must lie in [0, 1], got {r!r}")
    return r


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    return tol


def _realized_ratio(n, r: float) -> tuple[float, float]:
    """Requested ratio -> (realized k/n, reduced min(k, n-k)/n).

    For finite n the reduced ratio is formed from the integer pair so that
    queries at r and 1 - r evaluate the integral at the identical float.
    """
    if n is ASYMPTOTIC:
        return r, min(r, 1.0 - r)
    n = _integer("mode count", n, 1)
    k = round(r * n)
    return k / n, min(k, n - k) / n


@lru_cache(maxsize=None)
def _theta_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on (0, pi): (cos^2(theta/2), weights)."""
    x, w = np.polynomial.legendre.leggauss(m)
    cos2 = np.cos(0.25 * np.pi * (x + 1.0)) ** 2
    weights = 0.5 * np.pi * w
    cos2.flags.writeable = False
    weights.flags.writeable = False
    return cos2, weights


def page_average(alpha, n, s: float, r: float, tol: float = DEFAULT_TOL) -> PageCurveValue:
    """Average entropy of integer Renyi order alpha >= 1 (1 = von Neumann).

    ``n=ASYMPTOTIC`` returns the per-mode curve; the value is exactly zero at
    s = 0 and at r in {0, 1}.
    """
    alpha = _check_alpha(alpha)
    r = _check_ratio(r)
    tol = _check_tol(tol)
    if not np.isfinite(s):
        raise ValueError(f"squeezing strength must be finite, got {s!r}")
    realized, rq = _realized_ratio(n, r)
    if s == 0 or rq == 0:
        return PageCurveValue(0.0, 0, 0.0, realized)
    sinh2 = np.sinh(2.0 * s) ** 2
    c = 4.0 * rq * (1.0 - rq)
    gap = (1.0 - 2.0 * rq) ** 2  # 1 - c, the smallest 1 - l

    def f(one_minus_l):
        return _mode_entropy(alpha, np.sqrt(1.0 + sinh2 * one_minus_l))

    f0 = f(1.0)
    scale = 1.0 if n is ASYMPTOTIC else float(n)
    edge = 0.0 if n is ASYMPTOTIC else 0.25 * (f0 - f(gap))

    def estimate(m):
        cos2, weights = _theta_rule(m)
        one_minus_l = gap + c * cos2
        density = c * cos2 / (2.0 * np.pi * one_minus_l)
        integral = weights @ ((f0 - f(one_minus_l)) * density)
        return scale * (rq * f0 - integral) - edge

    m = FIRST_NODES
    coarse = estimate(m)
    while m < MAX_NODES:
        m *= 2
        fine = estimate(m)
        err = abs(fine - coarse)
        if err <= tol:
            return PageCurveValue(float(fine), m, float(err), realized)
        coarse = fine
    raise ValueError(
        f"tolerance {tol:.3g} not met with {MAX_NODES} quadrature nodes (last "
        f"change {err:.3g} on a value of {abs(fine):.6g}); the tolerance is near "
        "the float64 resolution of this value, request a larger one"
    )


LIMIT_REGIMES = ("small", "large")


def page_limit(alpha, regime: str, r: float) -> tuple[float, str]:
    """Leading law of the order-alpha average in a squeezing regime.

    Returns ``(value, scale)``: the average approaches value times ``scale``.
    Weak squeezing (``"small"``) gives r(1-r) per s^2 ln(1/s^2) n at order 1
    (von Neumann) and alpha/(alpha-1) r(1-r) per s^2 n at alpha >= 2; strong
    squeezing (``"large"``) gives 2 min(r, 1-r) per s n at every order.
    """
    alpha = _check_alpha(alpha)
    r = _check_ratio(r)
    if regime == "large":
        return 2.0 * min(r, 1.0 - r), "s n"
    if regime != "small":
        raise ValueError(f"regime must be one of {LIMIT_REGIMES}, got {regime!r}")
    if alpha == 1:
        return r * (1.0 - r), "s^2 log(1/s^2) n"
    return alpha / (alpha - 1.0) * r * (1.0 - r), "s^2 n"


def renyi_unequal_small(alpha, r: float, s_vec) -> float:
    """Leading-order Renyi-alpha average for small unequal squeezing.

    Returns alpha/(alpha-1) r(1-r) sum_i s_i^2; the neglected remainder is
    of order r n max_i(s_i)^4. Order 1 has no such law: alpha must be >= 2.
    """
    alpha = _check_alpha(alpha, 2)
    r = _check_ratio(r)
    s = np.asarray(s_vec, dtype=float)
    if s.size == 0:
        raise ValueError("squeezing vector is empty")
    if not np.all(np.isfinite(s)):
        raise ValueError("squeezing strengths must be finite")
    return alpha / (alpha - 1.0) * r * (1.0 - r) * float(np.sum(s**2))
