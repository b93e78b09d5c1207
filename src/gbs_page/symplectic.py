"""Symplectic eigenvalues of bosonic covariance matrices."""

import numpy as np

__all__ = ["symplectic_eigenvalues"]

# Values in [1 - FAIL_TOL, 1) are roundoff of a physical nu >= 1 and are
# rounded up to exactly one; anything lower signals a matrix that is not a
# physical state and raises instead.
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
    one. ``_gram`` forms A^T A from the m x m blocks of L, never A itself,
    and one symmetric eigensolve without eigenvectors (about half the time
    of A's values-only SVD) takes its values. For N = 2m the cost is about
    N^3/3 flops for the Cholesky factor, 9 N^3/8 for A^T A (3 N^3 if A
    were formed and squared whole) and the eigensolve. The
    two steps around the eigensolve are ``_gram`` and ``_gram_spectrum``,
    so that callers can stack the eigensolves of several matrices.

    Raises:
        ValueError: if sigma is not finite, not symmetric to tolerance, not
            positive definite, or has a symplectic eigenvalue below 1 - 1e-6.
    """
    return _gram_spectrum(np.linalg.eigvalsh(_gram(sigma)))


def _gram(sigma: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The checked covariance's A^T A, A = L^T Omega L; written to ``out`` if given.

    With L = [[L11, 0], [L21, L22]] in m x m blocks, A = [[X, Y], [-Y^T, 0]]
    for X = L11^T L21 - (L11^T L21)^T and Y = L11^T L22, so
    A^T A = [[X^T X + Y Y^T, X^T Y], [Y^T X, Y^T Y]]. Each block is one
    product written straight into its place in ``out``; the three
    symmetric ones are half products, and Y^T X is the transpose of X^T Y,
    so the result is exactly symmetric.

    Raises the ``ValueError`` of ``symplectic_eigenvalues`` for an input
    that is not a finite, symmetric, positive-definite 2m x 2m matrix.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError(f"covariance matrix must be 2m x 2m, got {sigma.shape}")
    m = sigma.shape[0] // 2
    if not np.all(np.isfinite(sigma)):
        raise ValueError("covariance matrix must be finite")
    scale = max(1.0, sigma.max(initial=0.0), -sigma.min(initial=0.0))
    diff = sigma - sigma.T
    asym = max(diff.max(initial=0.0), -diff.min(initial=0.0))
    del diff  # one 2m x 2m temporary at a time keeps a sample's peak memory down
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(f"covariance matrix not symmetric: max asymmetry {asym:.3e}")

    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix not positive definite (no Cholesky factor)") from exc
    l11t = chol[:m, :m].T
    x = l11t @ chol[m:, :m]
    x = x - x.T
    y = l11t @ chol[m:, m:]
    if out is None:
        out = np.empty_like(sigma)
    np.matmul(x.T, x, out=out[:m, :m])
    out[:m, :m] += y @ y.T
    np.matmul(x.T, y, out=out[:m, m:])
    out[m:, :m] = out[:m, m:].T
    np.matmul(y.T, y, out=out[m:, m:])
    return out


def _gram_spectrum(values: np.ndarray) -> np.ndarray:
    """Symplectic spectrum, descending, from the ascending eigenvalues of A^T A."""
    return _physical_spectrum(np.sqrt(np.maximum(values[::-1][0::2], 0.0)))


def _physical_spectrum(nu: np.ndarray) -> np.ndarray:
    """Reject a non-finite or unphysical spectrum; round what is left below one up to one."""
    if not np.all(np.isfinite(nu)):
        raise ValueError("symplectic eigenvalues must be finite")
    low = nu.min(initial=np.inf)
    if low < 1.0 - FAIL_TOL:
        raise ValueError(
            f"symplectic eigenvalue {float(low)!r} below 1 - {FAIL_TOL}: unphysical state"
        )
    nu[nu < 1.0] = 1.0
    return nu
