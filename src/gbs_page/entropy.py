"""Entropy functionals of a symplectic spectrum. All values are in nats.

For a state with symplectic eigenvalues nu_j the Renyi-alpha entropy for
integer alpha >= 2 is

    S_alpha = sum_j ln[((nu_j+1)^alpha - (nu_j-1)^alpha) / 2^alpha] / (alpha-1),

and its alpha -> 1 limit, order 1, is the von Neumann entropy sum_j g(nu_j) with

    g(nu) = ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2).

A Renyi order is any integer >= 1 (``_check_alpha``), so every function
here, and every average and limit law built on them, takes order 1 as the
von Neumann entropy. ``_integer`` and ``_real`` read every integer and real
parameter, ``_mode_count`` every n and ``_check_squeezing`` every s.
The entropy of a spectrum is a sum of vectorized per-mode entropies
(``renyi_mode_entropy``); ``spectrum_entropies`` evaluates several orders
of one spectrum after one check of it. All three read a spectrum through
that check (``_as_spectrum``): finite values nu >= 1.
Every order is computed from its own formula alone, so its values do not
depend on which other orders are asked for.

At equal squeezing s every nu_j^2 = 1 + c T_j with c = sinh^2(2s), and
each entropy is a weighted sum of the log-determinants
L(x) = ln det(I + x B^T B) = sum_j ln(1 + x T_j) of the bidiagonal B whose
squared singular values are the T_j (``bidiagonal_entropies``), so no T_j
is needed. Integer alpha >= 2: the roots of ((nu+1)^alpha - (nu-1)^alpha)
are nu = -i cot(pi j/alpha), which gives

    S_alpha = [sum_{1<=j<alpha/2} L(c sin^2(pi j/alpha)) + [alpha even] L(c)/2] / (alpha-1).

Order 1: g(nu) = (1/2) int_0^1 ln((nu^2 - u^2)/(1 - u^2)) du, so with
u = tanh(t)

    S_1 = (1/4) int_R L(c cosh^2 t) sech^2 t dt,

an integrand analytic in the strip |Im t| < pi/2 for every c and T_j; the
trapezoidal rule converges geometrically there (``_von_neumann_count``).
A shift rule (``_Rule``) is its factors a_j and weights w_j, with the
exactly rounded sums of w_j and of w_j ln a_j. ``_order_rule`` gives the
one at c, built once per (order, node count) and cached (``_rule``). The
analytic average reads the same rules; a rule of at most
``_FLOAT_SHIFTS`` shifts also keeps its (a_j, w_j) as Python float pairs,
and ``pagecurve`` sums exactly those in a float loop. One ``_log_dets``
pass takes every order's shifts, and each order sums its own.
"""

import math
import numbers
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = ["bidiagonal_entropies", "renyi_entropy", "renyi_mode_entropy",
           "spectrum_entropies"]

# Trapezoidal rule for S_1 in t: the step gives a discretisation error of
# order exp(-pi^2 / step) = 7e-18, and the nodes reach this far past the t
# at which c cosh^2 t = 1, where the integrand of a T = 1 mode turns from
# flat (c) to decaying (e^{-2t}). The tail left out is then about
# e^{-40} / T_j of a mode's share. Against 40-digit values the rule is
# within 2e-15 from s = 1e-5 to s = 8.
_VN_STEP = 0.25
_VN_REACH = 20.0

_FLOAT_MAX = float(np.finfo(float).max)  # where every input range of the package ends

# Longest shift rule that keeps float pairs (``_Rule``), which
# ``pagecurve.page_average`` sums in Python floats; longer ones go through
# numpy. Set where the two evaluators cross, both about 10 us a cell
# (README; BENCH_analytic.json, "node_constants", "crossover").
_FLOAT_SHIFTS = 24


@lru_cache(maxsize=None)
def _squeezing_limit(power: int, von_neumann: bool) -> float:
    """Largest |s| with each (sinh(2s) a_j)^power finite, a_j <= cosh(_VN_REACH) or 1."""
    a_max = math.cosh(_VN_REACH) if von_neumann else 1.0
    return math.asinh(_FLOAT_MAX ** (1 / power) / a_max) / 2


_MAX_SQUEEZING = _squeezing_limit(2, False)  # c = sinh^2(2s) is finite up to |s| = 177.79


def _as_spectrum(nu) -> np.ndarray:
    """A spectrum as a 1-D float array of finite values nu >= 1, else ValueError."""
    arr = np.atleast_1d(np.asarray(nu, dtype=float))
    if arr.ndim != 1:
        raise ValueError("spectrum must be one-dimensional")
    if arr.size and not 1.0 <= arr.min() <= arr.max() < np.inf:
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            raise ValueError(f"symplectic eigenvalues must be finite, got {float(bad[0])!r}")
        raise ValueError(f"symplectic eigenvalues must be >= 1, got min {float(arr.min())!r}")
    return arr


def _integer(name: str, value, minimum: int | None = None) -> int:
    """An integer-valued parameter as an int, at least ``minimum`` if given.

    Accepts 6, 6.0 and "6"; rejects 6.7, booleans and what int() rejects, so
    that no value is silently truncated.
    """
    if type(value) is int:  # the common case, and no bool: type(True) is bool
        number = value
    elif isinstance(value, (bool, np.bool_)) or isinstance(value, numbers.Real) and value % 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    else:
        try:
            number = int(value)
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


def _real(name: str, value) -> float:
    """A real-valued parameter as a float, read through float()."""
    if type(value) is float:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None


def _check_squeezing(s, limit: float) -> float:
    """A squeezing strength read through ``_real``: finite, |s| <= its route's ``limit``."""
    s = _real("squeezing strength", s)
    if not math.isfinite(s):
        raise ValueError(f"squeezing strength must be finite, got {s!r}")
    if abs(s) > limit:
        raise ValueError(f"squeezing strength {s!r} is beyond the float64 range of this "
                         f"computation: its terms overflow above |s| = {limit:.2f}")
    return s


def _check_ratio(r: float) -> float:
    r = _real("partition ratio", r)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"partition ratio must lie in [0, 1], got {r!r}")
    return r


def _mode_count(n, name: str = "mode count") -> int:
    """A mode count: an integer from 1 to the largest float64, so that r n is a float."""
    n = _integer(name, n, 1)
    if n > _FLOAT_MAX:
        raise ValueError(f"mode count n of {n.bit_length()} bits is beyond float64")
    return n


def _side(r: float, n: int) -> int:
    """k = round(r n), ties to even, of a checked ratio and mode count (``_mode_count``)."""
    return round(r * n)


def _check_alpha(alpha, minimum: int = 1) -> int:
    """A Renyi order: an integer >= ``minimum``; order 1 is von Neumann."""
    return _integer("Renyi order", alpha, minimum)


def _mode_term(arr: np.ndarray, alpha: int) -> np.ndarray:
    """Per-mode entropies of order alpha (1 = von Neumann g) of a checked spectrum.

    Orders alpha >= 2 take ln((nu+1)/2) and ln((nu-1)/(nu+1)), the latter by
    log1p, which stays accurate when the ratio is within one ulp of 1, as
    1 - ratio^alpha does by expm1. Order 1 is g = ln(1 + a) + a ln(1 + 1/a)
    with a = (nu-1)/2: two non-negative terms, each from ``log1p`` of an
    argument with a relative error of at most one rounding, so g is good to
    a few ulp for every nu; the textbook ((nu+1)/2) ln((nu+1)/2) - a ln(a)
    cancels at large nu and loses every digit from nu ~ 1e16. A log of zero
    at nu = 1 (and, for orders >= 2, the float above it) leads quietly to an
    exact zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if alpha > 1:
            nu_plus = arr + 1.0
            return (alpha * np.log(0.5 * nu_plus)
                    + np.log(-np.expm1(alpha * np.log1p(-2.0 / nu_plus)))) / (alpha - 1)
        a = 0.5 * (arr - 1.0)
        g = np.log1p(a) + a * np.log1p(1.0 / a)
    g[a == 0.0] = 0.0  # g(1) = 0, where the line above gives 0 * inf
    return g


def renyi_mode_entropy(nu, alpha: int):
    """Single-mode entropy of integer order alpha >= 1, vectorized over a 1-D spectrum.

    Order 1 is the von Neumann g(nu), with g(1) = 0 exactly, as a sum of two
    non-negative log1p terms that stays accurate from nu = 1 to the largest
    float. Orders alpha >= 2 are evaluated in log space as

        [alpha ln((nu+1)/2) + ln(1 - ((nu-1)/(nu+1))^alpha)] / (alpha - 1),

    which never forms (nu+1)^alpha explicitly and therefore cannot overflow
    for large alpha or strongly squeezed modes. Zero exactly at nu = 1.
    A single value gives a float. Raises ValueError for a value below 1 or
    not finite.
    """
    alpha = _check_alpha(alpha)
    out = _mode_term(_as_spectrum(nu), alpha)
    return float(out[0]) if out.size == 1 else out


def spectrum_entropies(nu, alphas) -> np.ndarray:
    """Entropies of one spectrum, one per order of ``alphas`` in the order given (1 = von Neumann).

    The spectrum is checked once; each order is the ``np.sum`` of its own
    per-mode entropies, the same as for a single order.
    """
    orders = [_check_alpha(a) for a in alphas]
    arr = _as_spectrum(nu)
    return np.array([np.sum(_mode_term(arr, alpha)) for alpha in orders])


def renyi_entropy(nu, alpha: int) -> float:
    """Order-alpha entropy (1 = von Neumann) of a spectrum: sum of the per-mode entropies."""
    return float(spectrum_entropies(nu, (alpha,))[0])


def _von_neumann_count(c: float) -> int:
    """Node count of the order-1 rule at c = sinh^2(2s): t = 0 alone at c = 0.

    Its nodes t_j = j * _VN_STEP reach _VN_REACH past arccosh(1/sqrt(c))
    (0 once c >= 1), so weak squeezing, whose integrand stays flat out to
    t ~ ln(2/sqrt(c)), gets more: 81 from s = 0.44 up, 128 at s = 1e-5.
    """
    if c == 0.0:
        return 1
    start = math.acosh(1.0 / math.sqrt(c)) if c < 1.0 else 0.0
    return math.ceil((start + _VN_REACH) / _VN_STEP) + 1


class _Rule(NamedTuple):
    """An order's shift rule at one node count (``_rule``). Read-only.

    ``factors`` a_j (ascending) and ``weights`` w_j are arrays, and
    ``weight_sum`` and ``log_sum`` are sum_j w_j and sum_j w_j ln a_j,
    each exactly rounded (``math.fsum``). ``pairs`` holds (a_j, w_j) again
    as Python floats for a rule of at most ``_FLOAT_SHIFTS`` shifts, the
    only ones summed shift by shift in floats, and is None for a longer one.
    """

    factors: np.ndarray
    weights: np.ndarray
    pairs: tuple[tuple[float, float], ...] | None
    weight_sum: float
    log_sum: float


@lru_cache(maxsize=128)
def _rule(alpha: int, count: int) -> _Rule:
    """Order alpha's shift rule of ``count`` nodes (``_Rule``).

    Orders alpha >= 2: a_j = sin(pi j/alpha), 1 <= j <= alpha/2 = ``count``,
    and shifts c a_j^2. Order 1: a_j = cosh t_j at the nodes
    t_j = j * _VN_STEP, j < ``count``, and shifts (sinh(2s) a_j)^2.
    ``_shift_rule`` reads its factors and weights, and
    ``pagecurve.page_average`` its pairs or its arrays and sums.
    """
    if alpha == 1:
        t = _VN_STEP * np.arange(count)
        sech = 1.0 / np.cosh(t)
        weights = 0.5 * _VN_STEP * sech * sech
        weights[0] *= 0.5
        factors = np.cosh(t)
    else:
        # j/alpha in lowest terms, so that a fraction's factor is one float
        # whatever order it comes from, in the sampler and in
        # ``page_average`` alike. From order 36 up the unreduced j/alpha
        # rounds to other floats: an ulp off at 623 of the orders 2-1000.
        j = np.arange(1, count + 1)
        g = np.gcd(j, alpha)
        factors = np.sin(np.pi * (j // g) / (alpha // g))
        weights = np.where(2 * j == alpha, 0.5, 1.0) / (alpha - 1)
    factors.flags.writeable = weights.flags.writeable = False
    pairs = tuple(zip(factors.tolist(), weights.tolist())) if count <= _FLOAT_SHIFTS else None
    return _Rule(factors, weights, pairs, math.fsum(weights), math.fsum(weights * np.log(factors)))


def _order_rule(alpha: int, c: float) -> _Rule:
    """Order alpha's rule at c = sinh^2(2s), of ``_von_neumann_count(c)`` nodes at order 1."""
    return _rule(alpha, _von_neumann_count(c) if alpha == 1 else alpha // 2)


def _shift_rule(s: float, orders) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each order's shifts x_j >= 0 and weights w_j, in the order given: S_alpha = sum w L(x).

    Raises ValueError for a non-finite s and for one whose largest shift
    would overflow: |s| above 168.14 with order 1, 177.79 without.
    """
    s = _check_squeezing(s, _squeezing_limit(2, 1 in orders))
    sinh = float(np.sinh(2.0 * s))
    c = sinh * sinh
    rules = [(alpha, _order_rule(alpha, c)) for alpha in orders]
    # shifts c cosh^2 t at order 1, c sin^2(pi j/alpha) above
    return [((sinh * rule.factors) ** 2 if alpha == 1 else c * rule.factors**2, rule.weights)
            for alpha, rule in rules]


def _log_dets(diag: np.ndarray, sup: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """L(x) = ln det(I + x B^T B) of each row's bidiagonal B at each shift, shape (rows, shifts).

    ``diag`` (rows, m) and ``sup`` (rows, m - 1) are the squared diagonal
    and superdiagonal of B. The LDL^T pivots of I + x B^T B are
    1 + x diag_i + rho_i with rho_1 = 0 and
    rho_{i+1} = x sup_i ((1 + rho_i) / (1 + x diag_i + rho_i)), every term
    non-negative for entries in [0, 1] and x >= 0, so nothing cancels, and
    the ratio is at most one, so rho stays below x (x sup_i (1 + rho_i) can
    overflow). L sums log1p(x diag_i + rho_i) in the order of i, one row at
    a time elementwise, so a row's values do not depend on the other rows.
    """
    rows, m = diag.shape
    diag_t = np.ascontiguousarray(diag.T)[:, :, None]
    sup_t = np.ascontiguousarray(sup.T)[:, :, None]
    out = np.zeros((rows, shifts.size))
    rho = np.zeros_like(out)
    term = np.empty_like(out)
    scratch = np.empty_like(out)
    for i in range(m):
        np.multiply(diag_t[i], shifts, out=term)
        term += rho
        if i + 1 < m:
            np.add(rho, 1.0, out=scratch)
            np.add(term, 1.0, out=rho)
            scratch /= rho
            np.multiply(sup_t[i], shifts, out=rho)
            rho *= scratch
        out += np.log1p(term, out=term)
    return out


def bidiagonal_entropies(diag, sup, s: float, alphas) -> np.ndarray:
    """Entropies at equal squeezing s of each row's bidiagonal, without eigenvalues.

    ``diag`` (rows, m) and ``sup`` (rows, m - 1) are the squared entries of
    bidiagonals B whose squared singular values are the transmissions T_j
    of a sample (``haar._bidiagonal_squares``); the k - m other modes are
    in vacuum and add nothing. Returns a (rows, orders) table whose column
    j holds the entropies of order ``alphas[j]`` (1 = von Neumann), each a
    fixed weighted sum of ``_log_dets`` at that order's own shifts. For
    entries in [0, 1] every LDL^T pivot is >= 1, and all of a row's pivots
    are finite exactly when its values are. Raises ValueError for a
    non-finite s and for one whose shifts overflow (``_shift_rule``).
    """
    orders = [_check_alpha(a) for a in alphas]
    diag = np.asarray(diag, dtype=float)
    sup = np.asarray(sup, dtype=float)
    rule = _shift_rule(s, orders)
    dets = _log_dets(diag, sup, np.concatenate([shifts for shifts, _ in rule]))
    out = np.zeros((dets.shape[0], len(orders)))
    j = 0
    for column, (_, weights) in zip(out.T, rule):
        # One shift at a time: np.sum over an axis may reorder by shape.
        for weight in weights:
            column += weight * dets[:, j]
            j += 1
    return out
