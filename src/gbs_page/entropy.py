"""Entropy functionals of a symplectic spectrum. All values are in nats.

For a state with symplectic eigenvalues nu_j the von Neumann entropy is
sum_j g(nu_j) with

    g(nu) = ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2),

and the Renyi-alpha entropy for integer alpha >= 2 is

    S_alpha = sum_j ln[((nu_j+1)^alpha - (nu_j-1)^alpha) / 2^alpha] / (alpha-1).

Both are sums of vectorized per-mode entropies (``vn_mode_entropy``,
``renyi_mode_entropy``), which the analytic quadrature integrates too.
``spectrum_entropies`` evaluates several orders of one spectrum at once.
"""

import numpy as np

__all__ = [
    "renyi_entropy",
    "renyi_mode_entropy",
    "spectrum_entropies",
    "vn_mode_entropy",
    "von_neumann_entropy",
]

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


def _check_alpha(alpha) -> int:
    if int(alpha) != alpha or isinstance(alpha, bool):
        raise ValueError(f"Renyi order must be an integer, got {alpha!r}")
    alpha = int(alpha)
    if alpha < 2:
        raise ValueError(f"Renyi order must be >= 2, got {alpha}")
    return alpha


def _vn_terms(nu: np.ndarray, log_plus: np.ndarray) -> np.ndarray:
    """g per mode of a checked spectrum, given ``log_plus`` = ln((nu+1)/2)."""
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


def _renyi_terms(alpha: int, log_plus: np.ndarray, log_ratio: np.ndarray) -> np.ndarray:
    """Renyi-alpha entropy per mode from ln((nu+1)/2) and ln((nu-1)/(nu+1))."""
    return (alpha * log_plus + np.log(-np.expm1(alpha * log_ratio))) / (alpha - 1)


def _log_plus(nu: np.ndarray) -> np.ndarray:
    return np.log(0.5 * (nu + 1.0))


def _log_ratio(nu: np.ndarray) -> np.ndarray:
    # ln(ratio^alpha) via log1p stays accurate when ratio is within one ulp of
    # 1, and 1 - ratio^alpha via expm1 when ratio^alpha is; -inf at nu = 1 is
    # intended and yields an exact zero.
    with np.errstate(divide="ignore"):
        return np.log1p(-2.0 / (nu + 1.0))


def vn_mode_entropy(nu):
    """Single-mode von Neumann entropy g(nu), vectorized.

    g(1) = 0 exactly; near nu = 1 the expansion (e/2)(1 - ln(e/2)) avoids
    the cancellation between the two log terms.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size and nu.min() < 1.0:
        raise ValueError(f"symplectic eigenvalues must be >= 1, got min {nu.min()!r}")
    out = _vn_terms(nu, _log_plus(nu))
    return out if out.size > 1 else float(out[0])


def renyi_mode_entropy(nu, alpha: int):
    """Single-mode Renyi-alpha entropy for integer alpha >= 2, vectorized.

    Evaluated in log space as

        [alpha ln((nu+1)/2) + ln(1 - ((nu-1)/(nu+1))^alpha)] / (alpha - 1),

    which never forms (nu+1)^alpha explicitly and therefore cannot overflow
    for large alpha or strongly squeezed modes. Zero exactly at nu = 1.
    """
    alpha = _check_alpha(alpha)
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size and nu.min() < 1.0:
        raise ValueError(f"symplectic eigenvalues must be >= 1, got min {nu.min()!r}")
    out = _renyi_terms(alpha, _log_plus(nu), _log_ratio(nu))
    return out if out.size > 1 else float(out[0])


def spectrum_entropies(nu, alphas) -> dict[int, float]:
    """Entropies of one spectrum for each order in ``alphas`` (1 = von Neumann).

    The spectrum is checked once, and ln((nu+1)/2) and ln((nu-1)/(nu+1)) are
    computed once for all orders; each sum is the same per-mode sequence
    and ``np.sum`` as for a single order.
    """
    orders = [1 if a == 1 else _check_alpha(a) for a in alphas]
    arr = _as_spectrum(nu)
    if arr.size == 0:
        return dict.fromkeys(orders, 0.0)
    log_plus = _log_plus(arr)
    log_ratio = _log_ratio(arr) if any(a > 1 for a in orders) else None
    return {
        a: float(np.sum(_vn_terms(arr, log_plus) if a == 1
                        else _renyi_terms(a, log_plus, log_ratio)))
        for a in orders
    }


def von_neumann_entropy(nu) -> float:
    """Von Neumann entropy of a spectrum: sum of g over the modes."""
    return spectrum_entropies(nu, (1,))[1]


def renyi_entropy(nu, alpha: int) -> float:
    """Renyi-alpha entropy of a spectrum: sum of the per-mode entropies."""
    alpha = _check_alpha(alpha)
    return spectrum_entropies(nu, (alpha,))[alpha]
