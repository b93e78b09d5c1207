"""Entropy functionals of a symplectic spectrum. All values are in nats.

For a state with symplectic eigenvalues nu_j the Renyi-alpha entropy for
integer alpha >= 2 is

    S_alpha = sum_j ln[((nu_j+1)^alpha - (nu_j-1)^alpha) / 2^alpha] / (alpha-1),

and its alpha -> 1 limit, order 1, is the von Neumann entropy sum_j g(nu_j) with

    g(nu) = ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2).

A Renyi order is any integer >= 1 (``_check_alpha``), so every function
here, and every average and limit law built on them, takes order 1 as the
von Neumann entropy. ``_integer`` is the rule for every integer-valued
parameter of the package. The entropy of a spectrum is a sum of vectorized
per-mode entropies (``renyi_mode_entropy``), which the analytic quadrature
integrates too; ``spectrum_entropies`` evaluates several orders of one
spectrum at once.

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
trapezoidal rule converges geometrically there (``_von_neumann_nodes``).
"""

import numbers

import numpy as np

__all__ = ["bidiagonal_entropies", "renyi_entropy", "renyi_mode_entropy",
           "spectrum_entropies"]

# Below this distance from nu = 1 the two log terms of g cancel; switch to
# the leading expansion g(1+e) = (e/2)(1 - ln(e/2)).
_NEAR_ONE = 1e-6

# Trapezoidal rule for S_1 in t: the step gives a discretisation error of
# order exp(-pi^2 / step) = 7e-18, and the nodes reach this far past the t
# at which c cosh^2 t = 1, where the integrand of a T = 1 mode turns from
# flat (c) to decaying (e^{-2t}). The tail left out is then about
# e^{-40} / T_j of a mode's share. Against 40-digit values the rule is
# within 2e-15 from s = 1e-5 to s = 8.
_VN_STEP = 0.25
_VN_REACH = 20.0


def _as_spectrum(nu) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(nu, dtype=float))
    if arr.ndim != 1:
        raise ValueError("spectrum must be one-dimensional")
    if arr.size and arr.min() < 1.0:
        raise ValueError(f"symplectic eigenvalues must be >= 1, got min {arr.min()!r}")
    return arr


def _integer(name: str, value, minimum: int | None = None) -> int:
    """An integer-valued parameter as an int, at least ``minimum`` if given.

    Accepts 6, 6.0 and "6"; rejects 6.7, booleans and what int() rejects, so
    that no value is silently truncated.
    """
    if isinstance(value, (bool, np.bool_)) or isinstance(value, numbers.Real) and value % 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


def _check_alpha(alpha, minimum: int = 1) -> int:
    """A Renyi order: an integer >= ``minimum``; order 1 is von Neumann."""
    return _integer("Renyi order", alpha, minimum)


def _log_plus(nu: np.ndarray) -> np.ndarray:
    return np.log(0.5 * (nu + 1.0))


def _log_ratio(nu: np.ndarray) -> np.ndarray:
    # ln(ratio^alpha) via log1p stays accurate when ratio is within one ulp of
    # 1, and 1 - ratio^alpha via expm1 when ratio^alpha is; -inf at nu = 1 is
    # intended and yields an exact zero.
    with np.errstate(divide="ignore"):
        return np.log1p(-2.0 / (nu + 1.0))


def _order_terms(alpha: int, nu: np.ndarray, log_plus: np.ndarray, log_ratio) -> np.ndarray:
    """Per-mode entropy of a checked order on a checked spectrum (1 = von Neumann g).

    ``log_plus`` is ln((nu+1)/2); ``log_ratio``, ln((nu-1)/(nu+1)), is used
    only for alpha >= 2.
    """
    if alpha > 1:
        return (alpha * log_plus + np.log(-np.expm1(alpha * log_ratio))) / (alpha - 1)
    eps = nu - 1.0
    out = np.zeros_like(nu)
    tiny = (eps > 0) & (eps < _NEAR_ONE)
    big = eps >= _NEAR_ONE
    if np.any(tiny):
        e = eps[tiny]
        out[tiny] = 0.5 * e * (1.0 - np.log(0.5 * e))
    if np.any(big):
        ap = 0.5 * (nu[big] + 1.0)
        am = 0.5 * (nu[big] - 1.0)
        out[big] = ap * log_plus[big] - am * np.log(am)
    return out


def _mode_entropy(alpha: int, nu):
    """``renyi_mode_entropy`` of an order that is already checked."""
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size and nu.min() < 1.0:
        raise ValueError(f"symplectic eigenvalues must be >= 1, got min {nu.min()!r}")
    out = _order_terms(alpha, nu, _log_plus(nu), _log_ratio(nu) if alpha > 1 else None)
    return float(out[0]) if out.size == 1 else out


def renyi_mode_entropy(nu, alpha: int):
    """Single-mode entropy of integer order alpha >= 1, vectorized.

    Order 1 is the von Neumann g(nu), with g(1) = 0 exactly; near nu = 1 the
    expansion (e/2)(1 - ln(e/2)) avoids the cancellation between its two log
    terms. Orders alpha >= 2 are evaluated in log space as

        [alpha ln((nu+1)/2) + ln(1 - ((nu-1)/(nu+1))^alpha)] / (alpha - 1),

    which never forms (nu+1)^alpha explicitly and therefore cannot overflow
    for large alpha or strongly squeezed modes. Zero exactly at nu = 1.
    """
    return _mode_entropy(_check_alpha(alpha), nu)


def spectrum_entropies(nu, alphas) -> dict[int, float]:
    """Entropies of one spectrum for each order in ``alphas`` (1 = von Neumann).

    The spectrum is checked once, and ln((nu+1)/2) and ln((nu-1)/(nu+1)) are
    computed once for all orders; each sum is the same per-mode sequence
    and ``np.sum`` as for a single order.
    """
    orders = [_check_alpha(a) for a in alphas]
    arr = _as_spectrum(nu)
    if arr.size == 0:
        return dict.fromkeys(orders, 0.0)
    log_plus = _log_plus(arr)
    log_ratio = _log_ratio(arr) if any(a > 1 for a in orders) else None
    return {a: float(np.sum(_order_terms(a, arr, log_plus, log_ratio))) for a in orders}


def renyi_entropy(nu, alpha: int) -> float:
    """Order-alpha entropy (1 = von Neumann) of a spectrum: sum of the per-mode entropies."""
    alpha = _check_alpha(alpha)
    return spectrum_entropies(nu, (alpha,))[alpha]


def _von_neumann_nodes(c: float) -> np.ndarray:
    """Trapezoid nodes t_j = j * _VN_STEP >= 0 of the order-1 rule for c > 0.

    They reach _VN_REACH past arccosh(1/sqrt(c)) (0 once c >= 1), so weak
    squeezing, whose integrand stays flat out to t ~ ln(2/sqrt(c)), gets
    more nodes: 81 from s = 0.44 (c = 1) up, 93 at s = 0.05, 128 at s = 1e-5.
    """
    start = np.arccosh(1.0 / np.sqrt(c)) if c < 1.0 else 0.0
    return _VN_STEP * np.arange(int(np.ceil((start + _VN_REACH) / _VN_STEP)) + 1)


def _shift_rule(s: float, orders) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Shifts x_j >= 0 and, per order, (indices, weights) with S_alpha = sum w L(x[indices]).

    Shared shifts (c for every even order and the order-1 node t = 0, and
    c sin^2(pi j/alpha) for equal fractions j/alpha) are evaluated once.
    Raises ValueError for a non-finite s.
    """
    sinh = float(np.sinh(2.0 * s))
    if not np.isfinite(sinh):
        raise ValueError("squeezing strength must be finite")
    c = sinh * sinh
    parts = {}
    for alpha in orders:
        if alpha == 1:
            t = _von_neumann_nodes(c) if c > 0.0 else np.zeros(1)
            sech = 1.0 / np.cosh(t)
            weights = 0.5 * _VN_STEP * sech * sech
            weights[0] *= 0.5
            parts[alpha] = ((sinh * np.cosh(t)) ** 2, weights)  # c cosh^2 t, no overflow
        else:
            j = np.arange(1, alpha // 2 + 1)
            g = np.gcd(j, alpha)
            weights = np.where(2 * j == alpha, 0.5, 1.0) / (alpha - 1)
            parts[alpha] = (c * np.sin(np.pi * (j // g) / (alpha // g)) ** 2, weights)
    shifts, inverse = np.unique(np.concatenate([x for x, _ in parts.values()]),
                                return_inverse=True)
    rule, start = {}, 0
    for alpha, (x, weights) in parts.items():
        rule[alpha] = (inverse[start:start + x.size], weights)
        start += x.size
    return shifts, rule


def _log_dets(diag: np.ndarray, sup: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """L(x) = ln det(I + x B^T B) of each row's bidiagonal B at each shift, shape (rows, shifts).

    ``diag`` (rows, m) and ``sup`` (rows, m - 1) are the squared diagonal
    and superdiagonal of B. The LDL^T pivots of I + x B^T B are
    1 + x diag_i + rho_i with rho_1 = 0 and
    rho_{i+1} = x sup_i (1 + rho_i) / (1 + x diag_i + rho_i), every term
    non-negative for entries in [0, 1] and x >= 0, so nothing cancels; L
    sums log1p(x diag_i + rho_i) in the order of i, one row at a time
    elementwise, so a row's values do not depend on the other rows.
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
            np.multiply(sup_t[i], shifts, out=rho)
            rho *= scratch
            np.add(term, 1.0, out=scratch)
            rho /= scratch
        out += np.log1p(term, out=term)
    return out


def bidiagonal_entropies(diag, sup, s: float, alphas) -> dict[int, np.ndarray]:
    """Entropies at equal squeezing s of each row's bidiagonal, without eigenvalues.

    ``diag`` (rows, m) and ``sup`` (rows, m - 1) are the squared entries of
    bidiagonals B whose squared singular values are the transmissions T_j
    of a sample (``haar._bidiagonal_squares``); the k - m other modes are
    in vacuum and add nothing. Returns one array of per-row entropies per
    order (1 = von Neumann), each a fixed weighted sum of ``_log_dets``.
    For entries in [0, 1] every LDL^T pivot is >= 1, and all of a row's
    pivots are finite exactly when its values are (the largest order-1
    shift overflows from s of about 170). Raises ValueError for a
    non-finite s.
    """
    orders = [_check_alpha(a) for a in alphas]
    diag = np.asarray(diag, dtype=float)
    sup = np.asarray(sup, dtype=float)
    shifts, rule = _shift_rule(s, orders)
    dets = _log_dets(diag, sup, shifts)
    out = {}
    for alpha, (idx, weights) in rule.items():
        # One column at a time: np.sum over an axis may reorder by shape.
        out[alpha] = np.zeros(dets.shape[0])
        for j, weight in zip(idx, weights):
            out[alpha] += weight * dets[:, j]
    return out
