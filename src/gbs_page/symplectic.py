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
    singular values nu_j, each twice, so A^T A = -A^2 has eigenvalues
    nu_j^2, each twice, and the spectrum is the square root of every other
    one; Omega L is formed by swapping the two halves of L's rows and
    negating one. One Cholesky, one product and one symmetric eigensolve
    without eigenvectors (about half the time of A's values-only SVD). The
    two steps around the eigensolve are ``_gram`` and ``_gram_spectrum``,
    so that callers can stack the eigensolves of several matrices.

    Raises:
        ValueError: if sigma is not finite, not symmetric to tolerance, not
            positive definite, or has a symplectic eigenvalue below 1 - 1e-6.
    """
    return _gram_spectrum(np.linalg.eigvalsh(_gram(sigma)))


def _gram(sigma: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The checked covariance's A^T A, A = L^T Omega L; written to ``out`` if given.

    Raises the ``ValueError`` of ``symplectic_eigenvalues`` for an input
    that is not a finite, symmetric, positive-definite 2m x 2m matrix.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError(f"covariance matrix must be 2m x 2m, got {sigma.shape}")
    m = sigma.shape[0] // 2
    if not np.all(np.isfinite(sigma)):
        raise ValueError("covariance matrix must be finite")
    scale = max(1.0, np.abs(sigma).max(initial=0.0))
    asym = np.abs(sigma - sigma.T).max(initial=0.0)
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(f"covariance matrix not symmetric: max asymmetry {asym:.3e}")

    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix not positive definite (no Cholesky factor)") from exc
    a = chol.T @ np.vstack([chol[m:], -chol[:m]])
    return np.matmul(a.T, a, out=out)


def _gram_spectrum(values: np.ndarray) -> np.ndarray:
    """Symplectic spectrum, descending, from the ascending eigenvalues of A^T A."""
    return _physical_spectrum(np.sqrt(np.maximum(values[::-1][0::2], 0.0)))


def equal_squeezing_spectrum(t: np.ndarray, k: int, s: float) -> np.ndarray:
    """Symplectic spectrum of k modes at equal squeezing s from transmissions t.

    ``t`` holds the m <= k transmission eigenvalues T_j (the eigenvalues
    of W are 1 - T_j and k - m ones). nu_j = sqrt(1 + sinh^2(2s) T_j) for
    those m, which needs no cancellation at strong squeezing, and exactly
    1.0 for the other k - m modes. Sorted descending and checked like
    ``symplectic_eigenvalues``; a non-finite s or T_j raises ValueError.
    """
    if not np.isfinite(s):
        raise ValueError("squeezing strength must be finite")
    t = np.sort(np.asarray(t, dtype=float))[::-1]
    if t.ndim != 1 or t.size > k:
        raise ValueError(f"need at most k={k} transmission eigenvalues, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("transmission eigenvalues must be finite")
    nu = np.ones(k)
    nu[: t.size] = np.sqrt(np.maximum(1.0 + np.sinh(2 * s) ** 2 * t, 0.0))
    return _physical_spectrum(nu)


def _physical_spectrum(nu: np.ndarray) -> np.ndarray:
    """Reject a non-finite or unphysical spectrum; round the clamp window to one."""
    if not np.all(np.isfinite(nu)):
        raise ValueError("symplectic eigenvalues must be finite")
    low = nu.min(initial=np.inf)
    if low < 1.0 - FAIL_TOL:
        raise ValueError(
            f"symplectic eigenvalue {low!r} below 1 - {FAIL_TOL}: unphysical state"
        )
    near_one = (nu < 1.0) & (nu >= 1.0 - CLAMP_WINDOW)
    nu[near_one] = 1.0
    return nu
