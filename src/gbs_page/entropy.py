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
"""

import numbers

import numpy as np

__all__ = ["renyi_entropy", "renyi_mode_entropy", "spectrum_entropies"]

# Below this distance from nu = 1 the two log terms of g cancel; switch to
# the leading expansion g(1+e) = (e/2)(1 - ln(e/2)).
_NEAR_ONE = 1e-6


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
    return out if out.size > 1 else float(out[0])


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
