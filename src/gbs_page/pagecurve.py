"""Closed-form entanglement averages over Haar-random passive circuits.

For n equally squeezed modes (strength s) cut at ratio r = k/n, the average
entropy of Renyi order alpha (order 1 is von Neumann) is

    E S = n int f(l) rho(l) dl - [f(0) - f(c)] / 4

up to corrections that vanish as n grows, and the per-mode (n -> infinity)
curve is the integral alone. f(l) is the one-mode entropy
(``renyi_mode_entropy``) at nu(l) = sqrt(1 + sinh^2(2s) (1 - l)), and rho
is the limiting spectral law of two free projections of trace
rq = min(r, 1-r) (K. Wachter, Ann. Probab. 8 (1980) 1; B. Collins, Probab.
Theory Relat. Fields 133 (2005) 315),

    rho(l) = sqrt(l (c - l)) / (2 pi l (1 - l)) on (0, c),   c = 4 rq (1 - rq),

of mass exactly rq, with no atom at l = 0. This is the paper's series
sum_i c_i(s) (n G_i(r) - H_i(r)), with sum_i c_i x^i = f(0) - f(x), summed:
G_i = rq - int l^i rho and H_i = c^i / 4. ``page_average`` evaluates it at
any order, and ``page_limit`` gives its leading weak and strong squeezing
laws. ``page_variance`` gives the n-independent leading term of the
entropy's variance over the same shifts.

Derivation
----------
Each entropy is a weighted sum of logarithms,
f(l) = sum_j w_j ln(1 + x_j (1 - l)), with the shifts x_j = (sinh(2s) a_j)^2
and weights of the order's rule (``entropy._order_rule``, which the Monte
Carlo uses too): exact for alpha >= 2, and for order 1 a trapezoid rule in t
good to 1e-17. So the average needs only Phi(x) = int ln(1 + x (1 - l)) rho,
which two classical integrals (Gradshteyn & Ryzhik 4.224, 4.225) give in
closed form: with g = 1 - 2 rq, p = (1 + g^2)/2, S = sqrt((1 + x)(1 + g^2 x)),
A = (1 + p x + S)/2 and B = A - rq^2 x,

    Phi(x) = (rq + g) ln A - g ln B = rq ln A + g ln(1 + rq^2 x / B),

two non-negative terms. As 1 - c = g^2, f(0) - f(c) is
sum_j w_j ln((1 + x_j) / (1 + g^2 x_j)).

No form cancels. While some shift is below 1, ln A = log1p((p x + S - 1)/2)
with S - 1 = x (1 + g^2 + g^2 x)/(S + 1), and the edge logarithm is
log1p(c x / (1 + g^2 x)). Once every shift is 1 or more, the sum is taken
in log space, from y = sqrt(x), v = 1/y and u = v^2 + h_1 h_g with
h_1 = hypot(1, v), h_g = hypot(g, v) (``_root_term``, which
``page_variance`` reads too); as h_g (h_1 + h_g) = u + g^2,

    ln A = 2 ln y + ln((u + p)/2),
    rq^2 x / B = 2 rq^2 / (u + g),
    ln((1 + x) / (1 + g^2 x)) = 2 log1p(c / (u + g^2)),

so the sums need only the roots sinh(2s) a_j: they answer up to |s| = 355.24
(345.58 at order 1), the Monte Carlo, which forms shifts, to 177.79 (168.14).

Evaluation
----------
Two evaluators form the three sums (of w ln A, of w ln(1 + rq^2 x / B) and
the edge term) over the shifts of the order's rule (``entropy._order_rule``),
each picking its branch once per rule, at the smallest root. A rule that
keeps float pairs goes to ``_float_terms``, a loop in ``math`` with no call
per shift; ``entropy`` decides which rules keep them (at most
``entropy._FLOAT_SHIFTS`` shifts: orders 2 to 49). Every other rule, order
1's 81 to 128 t-nodes among them and orders from 50, goes to
``_array_terms``, in numpy: about 20 calls, whose fixed cost equals about 24
shifts of the loop (README). Its log-space branch forms
v = (1/a_j)(1/sinh(2s)) and takes sum_j w_j 2 ln y_j as
2 (ln sinh(2s) sum_j w_j + sum_j w_j ln a_j) from the rule's two exact sums
(``entropy._Rule``), so it forms no y or ln y over the nodes. The two
evaluators sum in different orders and agree within a few hundredths of
``trunc_err``; the checks, refusals and ``trunc_err`` around them are one
code path.

The value is n times the per-mode curve less a quarter of the edge sum, and
both depend only on the order, |sinh(2s)| and the reduced ratio
rq = min(k, n - k)/n. ``_cell_terms`` evaluates them, always with the edge
sum, and keeps the ``_MEMO_SIZE`` (2^14) most recently used in a
``functools.lru_cache`` keyed on (alpha, |sinh(2s)|, rq). For finite n, rq
is formed from the integer pair, so r and 1 - r, s and -s, and every n of
one reduced ratio (100 and 400 at r = 0.3) read one entry; an asymptotic
r > 1/2 keys on the float 1 - r. ``page_average`` reads parameters, refuses
and forms ``trunc_err`` on each call, outside the memo. The per-mode curve
leaves the edge sum out of its value and of its ``trunc_err``. No refusal
is stored: the parameter and range checks come before the lookup, and a
``tol`` refusal is decided after it, from sums that hold at any tolerance.
"""

import functools
import math
from math import hypot, log, log1p, sqrt
from typing import NamedTuple

import numpy as np

from .entropy import (_FLOAT_MAX, _check_alpha, _check_ratio, _check_squeezing, _mode_count,
                      _order_rule, _real, _squeezing_limit)

__all__ = [
    "ASYMPTOTIC",
    "DEFAULT_TOL",
    "LIMIT_REGIMES",
    "PageCurveValue",
    "page_average",
    "page_limit",
    "page_variance",
    "renyi_unequal_small",
]

#: Sentinel for the n -> infinity query; averages then return per-mode values.
ASYMPTOTIC = None

#: Default absolute tolerance (nats).
DEFAULT_TOL = 1e-3

#: ``trunc_err`` is this times n times the per-mode curve plus the edge term.
ROUNDING = 128 * float(np.finfo(float).eps)

# Largest |s| whose roots sinh(2s) a_j are finite: order 1, the other orders.
_VN_LIMIT = _squeezing_limit(1, True)
_LIMIT = _squeezing_limit(1, False)

# Entries of the per-mode sums memo (``_cell_terms``): about 290 B each,
# so it holds under 5 MB (README; BENCH_analytic.json, "memo").
_MEMO_SIZE = 1 << 14

# Elements of one block of ln(1 - rho_j rho_k) in ``page_variance``, whose
# temporaries are each this long: a rule of up to 256 shifts is one block.
_VARIANCE_BLOCK = 1 << 16

# sqrt(2^-1077): a variance bound 2 m^2 / (1 - rho_max^2) below 2^-1076
# has m below this times sqrt(1 - rho_max^2).
_UNDERFLOW_ROOT = 2.0 ** -538.5


class PageCurveValue(NamedTuple):
    """Result of one analytic average, a named tuple of four fields.

    ``value`` is the total entropy in nats for finite n, or the per-mode
    entropy for an asymptotic query; from ``page_variance``, the variance's
    leading term in nats^2. ``nodes`` is the order-1 rule's t-node
    count: 0 for alpha >= 2, whose rule is exact, and at s = 0 or an empty
    side (r n rounding to 0 or n). ``trunc_err`` bounds the float64 error of
    ``value`` (``ROUNDING``). ``realized_r`` is k/n with k = round(r n) for
    finite n (ties to even), else the requested r.
    """

    value: float
    nodes: int
    trunc_err: float
    realized_r: float


# Builds a PageCurveValue from a tuple of its four fields without the
# keyword handling of its generated __new__.
_new_value = functools.partial(tuple.__new__, PageCurveValue)


def _check_tol(tol: float) -> float:
    tol = _real("tolerance", tol)
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    return tol


def _root_term(v, g):
    """v^2 + h_1 h_g, h_1 = hypot(1, v) and h_g = hypot(g, v), at the reciprocal roots v = 1/y."""
    return v * v + np.hypot(1.0, v) * np.hypot(g, v)


def _array_terms(rule, sinh, rq, g, c):
    """sum_j w_j ln A_j, sum_j w_j ln(1 + rq^2 x_j / B_j) and the edge sum
    sum_j w_j ln((1 + x_j) / (1 + g^2 x_j)), in numpy over the rule's arrays.

    Once every root y_j = sinh a_j is 1 or more, v_j = (1/a_j)(1/sinh) and
    sum_j w_j 2 ln y_j = 2 (ln sinh sum_j w_j + sum_j w_j ln a_j) from the
    rule's two sums (``entropy._Rule``).
    """
    weights = rule.weights
    p = 1.0 - 0.5 * c  # (1 + g^2) / 2
    if sinh * rule.factors[0] < 1.0:
        # In place: a rule of 500,000 shifts (order 10^6) holds four arrays
        # of its length here, besides its own.
        x = sinh * rule.factors
        x *= x
        one_g2x = g * g * x
        one_g2x += 1.0
        s_plus = 1.0 + x
        s_plus *= one_g2x
        np.sqrt(s_plus, out=s_plus)
        s_plus += 1.0  # S + 1
        term = one_g2x + g * g
        term /= s_plus
        term += p
        term *= 0.5 * x
        log_a = weights.dot(np.log1p(term, out=term))
        np.multiply(g, x, out=term)
        term += s_plus
        np.divide(2.0 * rq * rq * x, term, out=term)
        log_ratio = weights.dot(np.log1p(term, out=term))
        np.multiply(c, x, out=term)
        term /= one_g2x
        return log_a, log_ratio, weights.dot(np.log1p(term, out=term))
    u = _root_term((1.0 / rule.factors) * (1.0 / sinh), g)
    term = u + p
    term *= 0.5
    log_a = (2.0 * (rule.weight_sum * math.log(sinh) + rule.log_sum)
             + weights.dot(np.log(term, out=term)))
    np.add(u, g, out=term)
    np.divide(2.0 * rq * rq, term, out=term)
    log_ratio = weights.dot(np.log1p(term, out=term))
    np.add(u, g * g, out=term)
    np.divide(c, term, out=term)
    return log_a, log_ratio, 2.0 * weights.dot(np.log1p(term, out=term))


def _float_terms(pairs, sinh, rq, g, c):
    """``_array_terms`` shift by shift over the rule's (a_j, w_j) float pairs, in ``math``.

    One branch for the whole rule, picked at its smallest root; both take
    the roots y_j = sinh a_j (module docstring, "Derivation").
    """
    p = 1.0 - 0.5 * c  # (1 + g^2) / 2
    g2 = g * g
    q = 2.0 * rq * rq
    log_a = log_ratio = edge = 0.0
    if sinh * pairs[0][0] < 1.0:
        for a, w in pairs:
            y = sinh * a
            x = y * y
            one_g2x = 1.0 + g2 * x
            s_plus = sqrt((1.0 + x) * one_g2x) + 1.0  # S + 1
            log_a += w * log1p(0.5 * x * (p + (one_g2x + g2) / s_plus))
            log_ratio += w * log1p(q * x / (s_plus + g * x))
            edge += w * log1p(c * x / one_g2x)
    else:
        for a, w in pairs:
            y = sinh * a
            v = 1.0 / y
            h_1 = hypot(1.0, v)
            h_g = hypot(g, v)
            u = v * v + h_1 * h_g
            log_a += w * (2.0 * log(y) + log(0.5 * (u + p)))
            log_ratio += w * log1p(q / (u + g))
            edge += w * (2.0 * log1p(c / (h_g * (h_1 + h_g))))  # h_g (h_1 + h_g) = u + g^2
    return log_a, log_ratio, edge


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _cell_terms(alpha: int, sinh: float, rq: float) -> tuple[float, float, int]:
    """(per-mode curve, edge sum, order-1 node count) at |sinh(2s)| and reduced ratio rq.

    Memoised: a query at r or 1 - r, at any n of the same reduced ratio and
    at s or -s reads one entry (module docstring, "Evaluation").
    """
    rule = _order_rule(alpha, sinh * sinh)
    g = 1.0 - 2.0 * rq
    c = 4.0 * rq * (1.0 - rq)  # 1 - g^2
    if rule.pairs is not None:
        log_a, log_ratio, edge = _float_terms(rule.pairs, sinh, rq, g, c)
    else:
        log_a, log_ratio, edge = _array_terms(rule, sinh, rq, g, c)
    return float(rq * log_a + g * log_ratio), float(edge), len(rule.weights) if alpha == 1 else 0


def page_average(alpha, n, s: float, r: float, tol: float = DEFAULT_TOL) -> PageCurveValue:
    """Average entropy of integer Renyi order alpha >= 1 (1 = von Neumann).

    ``n=ASYMPTOTIC`` returns the per-mode curve; the value is exactly zero at
    s = 0 and at r in {0, 1}. ``s``, ``r`` and ``tol`` are read through
    float(), and one that float() cannot read raises ValueError naming it.
    Raises ValueError too for an s that is not finite or whose roots
    sinh(2s) a_j overflow (|s| above 355.24, 345.58 at order 1, checked also
    at an empty side), for an n whose n times per-mode value is beyond
    float64, and for a ``tol`` below the value's float64 error bound
    ``trunc_err``. The sums behind the value
    are memoised on (alpha, |sinh(2s)|, min(k, n - k)/n), at most
    ``_MEMO_SIZE`` of them; every check and refusal is made on each call,
    and no refusal is stored (module docstring, "Evaluation").
    """
    # A reader is called only for a value it would convert or refuse: an int
    # alpha or n and a float s, r or tol inside its range skip it.
    if type(alpha) is not int or alpha < 1:
        alpha = _check_alpha(alpha)
    if type(r) is not float or not 0.0 <= r <= 1.0:
        r = _check_ratio(r)
    if type(tol) is not float or not tol > 0.0:
        tol = _check_tol(tol)
    limit = _VN_LIMIT if alpha == 1 else _LIMIT
    if type(s) is not float or not abs(s) <= limit:
        s = _check_squeezing(s, limit)
    if n is ASYMPTOTIC:  # the per-mode curve, without the edge term
        realized, rq, scale, quarter = r, min(r, 1.0 - r), 1.0, 0.0
    else:
        if type(n) is not int or not 1 <= n <= _FLOAT_MAX:
            n = _mode_count(n)
        k = round(r * n)  # ``entropy._side``: ties to even
        # from the integer pair, so that r and 1 - r read the identical float
        realized, rq, scale, quarter = k / n, min(k, n - k) / n, float(n), 0.25
    if s == 0 or rq == 0:
        return _new_value((0.0, 0, 0.0, realized))
    per_mode, edge, nodes = _cell_terms(alpha, abs(math.sinh(2.0 * s)), rq)
    value = scale * per_mode - quarter * edge
    if math.isinf(value):
        raise ValueError(f"the average at n = {scale:.6g} is beyond float64: "
                         f"n times its per-mode value {per_mode:.6g} overflows")
    err = ROUNDING * (scale * per_mode + quarter * edge)
    if tol < err:
        raise ValueError(f"tolerance {tol:.3g} is below the float64 resolution of this value "
                         f"({value:.6g}, error bound {err:.3g}): request a larger one")
    return _new_value((value, nodes, err, realized))


def page_variance(alpha, s: float, r: float) -> PageCurveValue:
    """Variance of the order-alpha entropy (1 = von Neumann): its n-independent leading term.

    The entropy is a linear statistic of the beta = 1 Jacobi spectrum, so its
    variance tends to a finite limit as n grows at fixed r (Johansson, Duke
    Math. J. 91 (1998) 151; Dumitriu & Paquette, RMTA 1 (2012) 1250013):

        Var S_alpha -> -2 sum_{j,k} w_j w_k ln(1 - rho_j rho_k),

    over the shift rule of ``page_average``, with rho = c x / (4A) at each
    shift x (module docstring). The value is that limit; it leaves out the
    finite-n corrections. Away from r = 1/2 it stays bounded as s grows,
    tending to (1/2) ln((1 - rq)^2 / (1 - 2 rq)); at r = 1/2 it grows like
    s without bound, while the variance at a finite n saturates.

    Each rho and 1 - rho is taken from the roots y = sinh(2s) a_j,
    v = 1/y and u = v^2 + h_1 h_g (``_root_term``), with no cancellation:

        rho = c / (2 (u + p)),
        1 - rho = (u + g^2) / (u + p),

    and ln(1 - rho_j rho_k) is log1p(-rho_j rho_k) while rho_j rho_k <= 1/2,
    ln((1 - rho_j) + rho_j (1 - rho_k)) above that. Parameters are read as
    by ``page_average``, with the same range: ValueError for an s that is
    not finite or above |s| = 355.24 (345.58 at order 1). The value is
    zero at s = 0 and at r in {0, 1}; ``trunc_err`` bounds its float64
    error (``ROUNDING``), ``nodes`` is the order-1 node count and
    ``realized_r`` is r. It forms the rule's length squared of logarithms,
    alpha^2 / 4 and at order 1 81^2 from s = 0.44 up, a block of at most
    ``_VARIANCE_BLOCK`` (2^16) at a time, and holds one block and the
    rule's length of column sums; it forms none where a bound on the value
    is below the float64 range: there it is 0.
    """
    alpha = _check_alpha(alpha)
    r = _check_ratio(r)
    s = _check_squeezing(s, _VN_LIMIT if alpha == 1 else _LIMIT)
    rq = min(r, 1.0 - r)
    if s == 0 or rq == 0:
        return PageCurveValue(0.0, 0, 0.0, r)
    sinh = abs(math.sinh(2.0 * s))
    rule = _order_rule(alpha, sinh * sinh)
    weights = rule.weights
    nodes = len(weights) if alpha == 1 else 0
    g = 1.0 - 2.0 * rq
    c = 4.0 * rq * (1.0 - rq)  # 1 - g^2
    p = 1.0 - 0.5 * c  # (1 + g^2) / 2
    # A root below 7.5e-155 (or 0) overflows v^2 and has rho = 0, and the
    # branch that np.where leaves out may take the log of 0: neither reaches
    # the value.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = _root_term(1.0 / (sinh * rule.factors), g)
        rho = c / (2.0 * (u + p))  # ascending, as the roots are
        comp = (u + g * g) / (u + p)  # 1 - rho
        # Each |ln(1 - rho_j rho_k)| is at most rho_j rho_k / (1 - rho_max^2),
        # so the value is at most 2 (sum_j w_j rho_j)^2 / (1 - rho_max^2):
        # below 2^-1076 it rounds to zero, and no pair is formed.
        # (NaN where v^2 overflows at every root: every rho is 0, and so is the value.)
        if not float(weights @ rho) >= _UNDERFLOW_ROOT * math.sqrt(comp[-1] * (1.0 + rho[-1])):
            return PageCurveValue(0.0, nodes, 0.0, r)
        # w^T L, L_jk = ln(1 - rho_j rho_k), summed a block of rows of L at a
        # time: a rule of up to 256 shifts is one block, whose value has the
        # bits of L formed whole; a longer one's is within 1e-14 of it.
        column_sums = np.zeros(len(rho))
        rows = max(1, _VARIANCE_BLOCK // len(rho))
        for start in range(0, len(rho), rows):
            block = slice(start, start + rows)
            prod = np.multiply.outer(rho[block], rho)
            column_sums += weights[block] @ np.where(
                prod <= 0.5, np.log1p(-prod), np.log(comp[block, None] + rho[block, None] * comp))
    value = 0.0 - 2.0 * float(column_sums @ weights)  # +0.0 where every log is 0
    return PageCurveValue(value, nodes, ROUNDING * value, r)


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
    s = np.atleast_1d(np.asarray(s_vec, dtype=float))
    if s.ndim != 1:
        raise ValueError("squeezing vector must be one-dimensional")
    if s.size == 0:
        raise ValueError("squeezing vector is empty")
    if not np.all(np.isfinite(s)):
        raise ValueError("squeezing strengths must be finite")
    return page_limit(alpha, "small", r)[0] * float(np.sum(s**2))
