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

The cost of a cell is numpy call overhead, not arithmetic: a settled cell
takes about 46 us, of which the floating-point work on its 98 points is a
few us (one core of a shared Xeon host, numpy 2.4). So the entropy f is
evaluated in as few calls as possible: one call takes f(0), f(c) and the
nodes of the 32- and 64-point rules together, and each further doubling
costs one more call. At the default tolerance almost every cell settles at
64 nodes, in that one call. Each rule's weights are dotted with a
contiguous slice of the integrand, so every estimate is the same float as
when each end and each rule had a call of its own. For the same reason the
parameters are read through fast paths for exact ints and floats,
c cos^2(theta/2) is formed once per rule, and np.errstate, which costs
about as much as three array operations, is entered only where a value
needs it: around sinh^2(2s) when |s| is within 1 of the 177.79 at which it
overflows, and around the entropy when some nu + 1 rounds to 2 (nu = 1 or
the float above it, whose log of zero gives an exact zero). That happens at
the end l = c when r n = n/2 (gap 0), and at every node when sinh^2(2s)
underflows (s = 1e-200).
"""

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entropy import _MAX_SQUEEZING, _check_alpha, _integer, _mode_entropy

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
#: The first rule serves as the error estimate of the second, and both are
#: evaluated in the call that also gives f(0) and f(c).
FIRST_NODES = 32

#: Largest node count. At the default tolerance every cell with s <= 3 settles
#: by 128 nodes. A tolerance still unmet here is either within
#: ``RESOLUTION_ULPS`` ulp of the value, or the rule has not resolved the
#: integrand: at r near 1/2 and strong squeezing it varies in a layer of
#: width about 2/sinh(2s) at theta = pi, which Gauss-Legendre nodes do not
#: reach (von Neumann at n = 2000, r = 1/2, s = 10 misses the default
#: tolerance by 0.0018 on a value of 1.9e4).
MAX_NODES = 1024

#: A tolerance below this many float64 spacings of the value is refused as
#: being at the value's resolution rather than as unsettled quadrature.
RESOLUTION_ULPS = 256

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PageCurveValue:
    """Result of one analytic average.

    ``value`` is the total entropy in nats for finite n, or the per-mode
    entropy for an asymptotic query. ``nodes`` is the quadrature node count
    of the returned estimate and ``trunc_err`` its difference from the
    estimate with half as many nodes. ``nodes`` is 0 only when no quadrature
    runs (s = 0 or an empty side, r n rounding to 0 or n); a squeezing so
    weak that sinh^2(2s) underflows, such as s = 1e-200, still runs one and
    returns 0.0 with 64 nodes.
    ``realized_r`` is k/n with k = round(r n) for finite n (ties to even),
    else the requested r.
    """

    value: float
    nodes: int
    trunc_err: float
    realized_r: float


def _real(name: str, value) -> float:
    """A real-valued parameter as a float, read through float()."""
    if type(value) is float:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None


def _check_ratio(r: float) -> float:
    r = _real("partition ratio", r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"partition ratio must lie in [0, 1], got {r!r}")
    return r


def _check_squeezing(s: float) -> float:
    s = _real("squeezing strength", s)
    if not math.isfinite(s):
        raise ValueError(f"squeezing strength must be finite, got {s!r}")
    return s


def _check_tol(tol: float) -> float:
    tol = _real("tolerance", tol)
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


@lru_cache(maxsize=None)
def _first_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos^2(theta/2), first weights, second weights) of the first two rules.

    The cos^2 of the FIRST_NODES-point rule and then of the doubled one,
    behind two zero slots for the ends l = 0 and l = c.
    """
    coarse, w_coarse = _theta_rule(FIRST_NODES)
    fine, w_fine = _theta_rule(2 * FIRST_NODES)
    cos2 = np.concatenate((np.zeros(2), coarse, fine))
    cos2.flags.writeable = False
    return cos2, w_coarse, w_fine


def page_average(alpha, n, s: float, r: float, tol: float = DEFAULT_TOL) -> PageCurveValue:
    """Average entropy of integer Renyi order alpha >= 1 (1 = von Neumann).

    ``n=ASYMPTOTIC`` returns the per-mode curve; the value is exactly zero at
    s = 0 and at r in {0, 1}. ``s``, ``r`` and ``tol`` are read through
    float(), and one that float() cannot read raises ValueError naming it.
    Raises ValueError too for an s that is not finite or whose sinh^2(2s)
    overflows float64 (|s| above 177.79).
    """
    alpha = _check_alpha(alpha)
    r = _check_ratio(r)
    tol = _check_tol(tol)
    s = _check_squeezing(s)
    realized, rq = _realized_ratio(n, r)
    if s == 0 or rq == 0:
        return PageCurveValue(0.0, 0, 0.0, realized)
    # Only near the float64 range (sinh^2(2s) within e^4 of overflowing) can
    # the square overflow; the overflow is reported below, not warned.
    with np.errstate(over="ignore") if abs(s) > _MAX_SQUEEZING - 1.0 else nullcontext():
        sinh2 = np.sinh(2.0 * s) ** 2
    if not math.isfinite(sinh2):
        raise ValueError(f"squeezing strength {s!r} is beyond the float64 range of the "
                         f"average: sinh^2(2s) overflows above |s| = {_MAX_SQUEEZING:.2f}")
    c = 4.0 * rq * (1.0 - rq)
    gap = (1.0 - 2.0 * rq) ** 2  # 1 - c, the smallest 1 - l

    # One pass: the ends l = 0 and l = c, then the nodes of the first two
    # rules. The end l = c needs no fill: its cos^2 slot is 0, so gap + 0.
    cos2, w_coarse, w_fine = _first_rules()
    c_cos2 = c * cos2
    one_minus_l = gap + c_cos2
    one_minus_l[0] = 1.0
    f = _mode_entropy(alpha, np.sqrt(1.0 + sinh2 * one_minus_l))
    f0, f_c = f[:2].tolist()
    scale = 1.0 if n is ASYMPTOTIC else float(n)
    edge = 0.0 if n is ASYMPTOTIC else 0.25 * (f0 - f_c)
    base = rq * f0
    # The integrand (f0 - f) c cos^2 / (2 pi (1 - l)) at the nodes.
    terms = (f0 - f[2:]) * (c_cos2[2:] / (_TWO_PI * one_minus_l[2:]))
    coarse = scale * (base - w_coarse.dot(terms[:FIRST_NODES])) - edge
    fine = scale * (base - w_fine.dot(terms[FIRST_NODES:])) - edge
    m = 2 * FIRST_NODES
    err = abs(fine - coarse)
    while err > tol and m < MAX_NODES:
        m *= 2
        cos2, weights = _theta_rule(m)
        c_cos2 = c * cos2
        one_minus_l = gap + c_cos2
        f = _mode_entropy(alpha, np.sqrt(1.0 + sinh2 * one_minus_l))
        terms = (f0 - f) * (c_cos2 / (_TWO_PI * one_minus_l))
        coarse, fine = fine, scale * (base - weights.dot(terms)) - edge
        err = abs(fine - coarse)
    if err <= tol:
        return PageCurveValue(float(fine), m, float(err), realized)
    if tol < RESOLUTION_ULPS * np.spacing(abs(fine)):
        reason = "it is near the float64 resolution of this value, request a larger one"
    else:
        reason = f"the quadrature did not settle within {MAX_NODES} nodes"
    raise ValueError(f"tolerance {tol:.3g} not met (last change {err:.3g} on a value of "
                     f"{abs(fine):.6g}): {reason}")


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
