"""Symplectic eigenvalues of bosonic covariance matrices."""

import numpy as np

from .states import symplectic_form

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

    Route: diagonalize sigma (symmetric positive definite), form its square
    root S, and take the eigenvalues of the Hermitian matrix i S Omega S,
    which is similar to i Omega sigma. This keeps the whole computation in
    well-conditioned Hermitian eigensolves.

    Raises:
        ValueError: if sigma is not symmetric to tolerance, not positive
            definite, or has a symplectic eigenvalue below 1 - 1e-6.
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
    herm = 1j * sqrt_sigma @ symplectic_form(m) @ sqrt_sigma
    ev = np.linalg.eigvalsh(herm)

    return _physical_spectrum(ev[m:][::-1].copy())  # positive half, descending


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
