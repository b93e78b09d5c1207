"""Symplectic eigenvalues of bosonic covariance matrices."""

import numpy as np

__all__ = ["equal_squeezing_spectrum", "symplectic_eigenvalues"]

# Values within CLAMP_WINDOW below one are rounded up to exactly one so the
# entropy functionals stay finite; anything below FAIL_TOL signals a matrix
# that is not a physical state and raises instead.
CLAMP_WINDOW = 1e-8
FAIL_TOL = 1e-6
SYMMETRY_TOL = 1e-8


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Positive symplectic spectrum of a covariance matrix, sorted descending.

    The spectrum of i Omega sigma consists of pairs +-nu_j with nu_j >= 1;
    this returns the m positive values for a 2m x 2m input.

    Route: factor sigma = L L^T (Cholesky), so that i Omega sigma is similar
    to i L^T Omega L. The real antisymmetric matrix A = L^T Omega L has
    singular values nu_j, each twice, so the spectrum is every other
    singular value of A; Omega L is formed by swapping the two halves of L's
    rows and negating one. One Cholesky and one real SVD, no eigenvectors.

    Raises:
        ValueError: if sigma is not finite, not symmetric to tolerance, not
            positive definite, or has a symplectic eigenvalue below 1 - 1e-6.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError(f"covariance matrix must be 2m x 2m, got {sigma.shape}")
    m = sigma.shape[0] // 2
    if m == 0:
        return np.empty(0)
    if not np.all(np.isfinite(sigma)):
        raise ValueError("covariance matrix must be finite")
    scale = max(1.0, np.abs(sigma).max())
    asym = np.abs(sigma - sigma.T).max()
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(f"covariance matrix not symmetric: max asymmetry {asym:.3e}")

    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix not positive definite (no Cholesky factor)") from exc
    a = chol.T @ np.vstack([chol[m:], -chol[:m]])
    return _physical_spectrum(np.linalg.svd(a, compute_uv=False)[0::2])


def equal_squeezing_spectrum(lam: np.ndarray, s: float) -> np.ndarray:
    """Symplectic spectrum at equal squeezing s from the eigenvalues lam of W.

    nu_j = sqrt(cosh^2(2s) - sinh^2(2s) lam_j), evaluated as
    sqrt(1 + sinh^2(2s) (1 - lam_j)) so that strong squeezing does not
    cancel two cosh^2(2s)-sized terms. Sorted descending and checked like
    ``symplectic_eigenvalues``; a non-finite s or lam_j raises ValueError.
    """
    if not np.isfinite(s):
        raise ValueError("squeezing strength must be finite")
    lam = np.sort(np.asarray(lam, dtype=float))
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues of W must be finite")
    nu2 = 1.0 + np.sinh(2 * s) ** 2 * (1.0 - lam)  # lam ascending, nu descending
    return _physical_spectrum(np.sqrt(np.maximum(nu2, 0.0)))


def _physical_spectrum(nu: np.ndarray) -> np.ndarray:
    """Reject a non-finite or unphysical spectrum; round the clamp window to one."""
    if not np.all(np.isfinite(nu)):
        raise ValueError("symplectic eigenvalues must be finite")
    low = nu.min()
    if low < 1.0 - FAIL_TOL:
        raise ValueError(
            f"symplectic eigenvalue {low!r} below 1 - {FAIL_TOL}: unphysical state"
        )
    near_one = (nu < 1.0) & (nu >= 1.0 - CLAMP_WINDOW)
    nu[near_one] = 1.0
    return nu
