"""Independent code paths the tests check the package against.

``renyi_entropy_factored`` evaluates the Renyi-alpha entropy through the
root factorization

    (nu+1)^alpha - (nu-1)^alpha
        = 2 alpha nu^zeta prod_{m=1}^{floor((alpha-1)/2)} (nu^2 + cot^2(pi m / alpha)),

with zeta = 1 for even alpha and 0 for odd, a cross-check of the direct
form in ``gbs_page.entropy``. ``build_W`` forms the full n x n matrix
W = Pi X Pi X^dag Pi (X = U U^T, Pi the projector onto the first k modes)
whose power traces ``trW_moments`` computes from its k x k corner.
``build_M`` and ``reduced_covariance_equal`` build the 2k x 2k reduced
covariance cosh(2s) I + sinh(2s) M of equal squeezing, whose
``symplectic_eigenvalues`` the Monte Carlo's equal-squeezing route
(``equal_squeezing_spectrum`` of the eigenvalues of W) must reproduce.
``symplectic_eigenvalues_eigh`` takes the symplectic spectrum through a
symmetric eigendecomposition, the matrix square root S and the Hermitian
eigenvalues of i S Omega S, a cross-check of the Cholesky and real-SVD
route of ``gbs_page.symplectic``.
"""

import numpy as np

from gbs_page.entropy import _as_spectrum, _check_alpha
from gbs_page.states import _power_sums, _w_block_eigenvalues, symplectic_form
from gbs_page.symplectic import SYMMETRY_TOL, _physical_spectrum


def _check_k(U: np.ndarray, k: int) -> None:
    n = U.shape[0]
    if U.ndim != 2 or U.shape[1] != n:
        raise ValueError(f"expected a square unitary, got shape {U.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"subsystem size k={k} out of range [1, {n}]")


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


def trW_moments(U: np.ndarray, k: int, max_power: int) -> np.ndarray:
    """Power traces Tr W^i for i = 1..max_power.

    Computed as power sums of the eigenvalues of the k x k Hermitian corner
    of W, so the cost is a single eigensolve regardless of max_power.
    """
    _check_k(U, k)
    if max_power < 1:
        raise ValueError(f"max_power must be >= 1, got {max_power}")
    return _power_sums(_w_block_eigenvalues(U[:k].T), max_power)


def symplectic_eigenvalues_eigh(sigma: np.ndarray) -> np.ndarray:
    """Positive symplectic spectrum, descending, through Hermitian eigensolves.

    Diagonalize sigma (symmetric positive definite), form its square root S,
    and take the eigenvalues of the Hermitian matrix i S Omega S, which is
    similar to i Omega sigma. Raises ValueError on the same inputs as
    ``gbs_page.symplectic.symplectic_eigenvalues`` is meant to.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError(f"covariance matrix must be 2m x 2m, got {sigma.shape}")
    m = sigma.shape[0] // 2
    if m == 0:
        return np.empty(0)
    scale = max(1.0, np.abs(sigma).max())
    asym = np.abs(sigma - sigma.T).max()
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(f"covariance matrix not symmetric: max asymmetry {asym:.3e}")
    w, v = np.linalg.eigh(sigma)
    if w.min() <= 0:
        raise ValueError(f"covariance matrix not positive definite: min eig {w.min():.3e}")
    sqrt_sigma = (v * np.sqrt(w)) @ v.T
    ev = np.linalg.eigvalsh(1j * sqrt_sigma @ symplectic_form(m) @ sqrt_sigma)
    return _physical_spectrum(ev[m:][::-1].copy())  # positive half, descending
