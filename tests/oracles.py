"""Independent code paths the tests check the package against.

``renyi_entropy_factored`` evaluates the Renyi-alpha entropy through the
root factorization

    (nu+1)^alpha - (nu-1)^alpha
        = 2 alpha nu^zeta prod_{m=1}^{floor((alpha-1)/2)} (nu^2 + cot^2(pi m / alpha)),

with zeta = 1 for even alpha and 0 for odd, a cross-check of the direct
form in ``gbs_page.entropy``. ``build_W`` forms the full n x n matrix
W = Pi X Pi X^dag Pi (X = U U^T, Pi the projector onto the first k modes)
whose power traces ``gbs_page.states.trW_moments`` computes from its
k x k corner. ``build_M`` and ``reduced_covariance_equal`` build the
2k x 2k reduced covariance cosh(2s) I + sinh(2s) M of equal squeezing,
whose ``symplectic_eigenvalues`` the Monte Carlo's equal-squeezing route
(``equal_squeezing_spectrum`` of the eigenvalues of W) must reproduce.
"""

import numpy as np

from gbs_page.entropy import _as_spectrum, _check_alpha
from gbs_page.states import _check_k


def renyi_entropy_factored(nu, alpha: int) -> float:
    """Renyi-alpha entropy through the cotangent root factorization."""
    alpha = _check_alpha(alpha)
    arr = _as_spectrum(nu)
    if arr.size == 0:
        return 0.0
    zeta = 1 - (alpha % 2)
    a = (alpha - 1) // 2
    per_mode = np.full(arr.shape, np.log(alpha))
    if zeta:
        per_mode += np.log(arr)
    if a:
        m = np.arange(1, a + 1)
        cot2 = 1.0 / np.tan(np.pi * m / alpha) ** 2
        per_mode += np.sum(np.log(arr[:, None] ** 2 + cot2[None, :]), axis=1)
    return float(np.sum(per_mode / (alpha - 1) - np.log(2.0)))


def build_W(U: np.ndarray, k: int) -> np.ndarray:
    """Hermitian PSD matrix W = Pi X Pi X^dag Pi, X = U U^T, as n x n array.

    Rank is at most k; eigenvalues lie in [0, 1]; Tr W^i = Tr M^{2i} / 2.
    """
    _check_k(U, k)
    n = U.shape[0]
    x = (U @ U.T)[:k, :k]
    w = np.zeros((n, n), dtype=complex)
    w[:k, :k] = x @ x.conj().T
    return w


def build_M(U: np.ndarray, k: int) -> np.ndarray:
    """Anticommuting block matrix of the k-mode reduced covariance.

    M = [[Re A, Im A], [Im A, -Re A]] with A the top-left k x k block of
    conj(U) U^dag = conj(U U^T). It is symmetric, anticommutes with the
    symplectic form, has eigenvalues in [-1, 1], and its odd power traces
    vanish.
    """
    _check_k(U, k)
    a = np.conj(U @ U.T)[:k, :k]
    return np.block([[a.real, a.imag], [a.imag, -a.real]])


def reduced_covariance_equal(U: np.ndarray, s: float, k: int) -> np.ndarray:
    """Covariance matrix of the first k output modes at equal squeezing s.

    Returns cosh(2s) I_{2k} + sinh(2s) M(U, k); the full 2n x 2n state never
    needs to be formed on this path.
    """
    _check_k(U, k)
    if not np.isfinite(s):
        raise ValueError("squeezing strength must be finite")
    return np.cosh(2 * s) * np.eye(2 * k) + np.sinh(2 * s) * build_M(U, k)
