"""Covariance matrices of squeezed vacua routed through a passive circuit.

Conventions, fixed package-wide:

* quadrature ordering is xxpp (row i is x_i, row m+i is p_i);
* the symplectic form is Omega = [[0, I], [-I, 0]];
* hbar-free normalization, so the vacuum covariance matrix is the identity
  and a single squeezed mode is diag(e^{2s}, e^{-2s}).

For equal squeezing s the reduced covariance matrix of the first k modes
is cosh(2s) I + sinh(2s) M, with M = [[Re A, Im A], [Im A, -Re A]] and A
the k x k corner of conj(U U^T). All dependence of the entropies on the
circuit enters through the spectrum lambda of the positive-semidefinite
matrix W = Pi X Pi X^dag Pi with X = U U^T and Pi the projector onto the
first k modes. Its nonzero part is the spectrum of x x^dag, where
x = U_k U_k^T and U_k holds the first k rows of U, and the symplectic
eigenvalues are nu_j = sqrt(cosh^2(2s) - sinh^2(2s) lambda_j). So equal
squeezing needs only the n x k frame U_k^T and one k x k Hermitian
eigensolve; no covariance matrix is formed.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SqueezingConfig",
    "full_covariance_general",
    "reduce_modes",
    "reduced_covariance_general",
    "symplectic_form",
    "trW_moments",
]


def symplectic_form(m: int) -> np.ndarray:
    """Return the 2m x 2m symplectic form [[0, I], [-I, 0]] in xxpp ordering."""
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = np.eye(m)
    omega[m:, :m] = -np.eye(m)
    return omega


@dataclass(frozen=True)
class SqueezingConfig:
    """Per-mode squeezing strengths of the input product state."""

    s: tuple[float, ...]

    def __post_init__(self):
        if len(self.s) == 0:
            raise ValueError("squeezing config needs at least one mode")
        if not all(np.isfinite(self.s)):
            raise ValueError("squeezing strengths must be finite")

    @classmethod
    def equal(cls, n: int, s: float) -> "SqueezingConfig":
        """All n modes squeezed with the same strength s."""
        if n < 1:
            raise ValueError(f"mode count must be >= 1, got {n}")
        return cls(s=(float(s),) * n)

    @property
    def n(self) -> int:
        return len(self.s)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.s, dtype=float)


def _check_k(U: np.ndarray, k: int) -> None:
    n = U.shape[0]
    if U.ndim != 2 or U.shape[1] != n:
        raise ValueError(f"expected a square unitary, got shape {U.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"subsystem size k={k} out of range [1, {n}]")


def _w_block_eigenvalues(frame: np.ndarray) -> np.ndarray:
    """Nonzero spectrum of W, ascending, from the n x k frame F = U_k^T.

    One Hermitian eigensolve of x x^dag with x = F^T F = U_k U_k^T.
    """
    x = frame.T @ frame
    return np.linalg.eigvalsh(x @ x.conj().T)


def _power_sums(lam: np.ndarray, max_power: int) -> np.ndarray:
    """sum_j lam_j^i for i = 1..max_power."""
    return np.sum(lam[None, :] ** np.arange(1, max_power + 1)[:, None], axis=1)


def trW_moments(U: np.ndarray, k: int, max_power: int) -> np.ndarray:
    """Power traces Tr W^i for i = 1..max_power.

    Computed as power sums of the eigenvalues of the k x k Hermitian corner
    of W, so the cost is a single eigensolve regardless of max_power.
    """
    _check_k(U, k)
    if max_power < 1:
        raise ValueError(f"max_power must be >= 1, got {max_power}")
    return _power_sums(_w_block_eigenvalues(U[:k].T), max_power)


def full_covariance_general(U: np.ndarray, cfg: SqueezingConfig) -> np.ndarray:
    """Full 2n x 2n output covariance for arbitrary per-mode squeezing.

    sigma = O D O^T with D = diag(e^{2 s_i}) (+) diag(e^{-2 s_i}) and
    O = [[Re U, -Im U], [Im U, Re U]] the orthogonal symplectic image of U.
    The global state is pure: det sigma = 1 and every symplectic eigenvalue
    equals one.

    At equal squeezing the first-k reduction of this matrix is
    cosh(2s) I + sinh(2s) M evaluated at conj(U); both orientation
    conventions define the same Haar ensemble.
    """
    n = U.shape[0]
    if cfg.n != n:
        raise ValueError(f"squeezing config has {cfg.n} modes, unitary has {n}")
    s = cfg.as_array()
    ortho = np.block([[U.real, -U.imag], [U.imag, U.real]])
    d = np.concatenate([np.exp(2 * s), np.exp(-2 * s)])
    return (ortho * d) @ ortho.T


def reduced_covariance_general(U: np.ndarray, cfg: SqueezingConfig, k: int) -> np.ndarray:
    """First-k-modes reduction of ``full_covariance_general``, formed directly.

    Builds only the needed 2k rows of the orthogonal image, so the cost is
    O(k n^2) instead of O(n^3); equal to
    ``reduce_modes(full_covariance_general(U, cfg), range(k))`` exactly.
    """
    n = U.shape[0]
    _check_k(U, k)
    if cfg.n != n:
        raise ValueError(f"squeezing config has {cfg.n} modes, unitary has {n}")
    s = cfg.as_array()
    rows = np.vstack([
        np.hstack([U.real[:k], -U.imag[:k]]),
        np.hstack([U.imag[:k], U.real[:k]]),
    ])
    d = np.concatenate([np.exp(2 * s), np.exp(-2 * s)])
    return (rows * d) @ rows.T


def reduce_modes(sigma: np.ndarray, mode_set) -> np.ndarray:
    """Restrict a covariance matrix to the given modes, keeping xxpp order."""
    m = sigma.shape[0] // 2
    if sigma.shape != (2 * m, 2 * m):
        raise ValueError(f"covariance matrix must be 2m x 2m, got {sigma.shape}")
    modes = np.asarray(list(mode_set), dtype=int)
    if modes.size != np.unique(modes).size:
        raise ValueError("mode indices must be distinct")
    if modes.size and (modes.min() < 0 or modes.max() >= m):
        raise ValueError(f"mode index out of range [0, {m})")
    idx = np.concatenate([modes, modes + m]) if modes.size else np.empty(0, dtype=int)
    return sigma[np.ix_(idx, idx)]
