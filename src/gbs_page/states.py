"""Covariance matrices of squeezed vacua routed through a passive circuit.

Conventions, fixed package-wide:

* quadrature ordering is xxpp (row i is x_i, row m+i is p_i);
* the symplectic form is Omega = [[0, I], [-I, 0]];
* hbar-free normalization, so the vacuum covariance matrix is the identity
  and a single squeezed mode is diag(e^{2s}, e^{-2s}).

For equal squeezing s the reduced covariance matrix of the first k modes
takes the closed form

    sigma = cosh(2s) I + sinh(2s) M,

where M is built from the k x k corner of conj(U U^T). All dependence of
the entropies on the circuit enters through the power traces of the
positive-semidefinite matrix W = Pi X Pi X^dag Pi with X = U U^T and Pi
the projector onto the first k modes; these obey Tr M^{2i} = 2 Tr W^i.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SqueezingConfig",
    "build_M",
    "full_covariance_general",
    "reduce_modes",
    "reduced_covariance_equal",
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


def _w_block_eigenvalues(U: np.ndarray, k: int) -> np.ndarray:
    """Nonzero spectrum of W via one Hermitian eigensolve of its k x k corner."""
    if k == 0:
        return np.empty(0)
    x = (U @ U.T)[:k, :k]
    return np.linalg.eigvalsh(x @ x.conj().T)


def trW_moments(U: np.ndarray, k: int, max_power: int) -> np.ndarray:
    """Power traces Tr W^i for i = 1..max_power.

    Computed as power sums of the eigenvalues of the k x k Hermitian corner
    of W, so the cost is a single eigensolve regardless of max_power.
    """
    _check_k(U, k)
    if max_power < 1:
        raise ValueError(f"max_power must be >= 1, got {max_power}")
    lam = _w_block_eigenvalues(U, k)
    powers = np.arange(1, max_power + 1)
    return np.sum(lam[None, :] ** powers[:, None], axis=1)


def reduced_covariance_equal(U: np.ndarray, s: float, k: int) -> np.ndarray:
    """Covariance matrix of the first k output modes at equal squeezing s.

    Returns cosh(2s) I_{2k} + sinh(2s) M(U, k); the full 2n x 2n state never
    needs to be formed on this path.
    """
    _check_k(U, k)
    if not np.isfinite(s):
        raise ValueError("squeezing strength must be finite")
    return np.cosh(2 * s) * np.eye(2 * k) + np.sinh(2 * s) * build_M(U, k)


def full_covariance_general(U: np.ndarray, cfg: SqueezingConfig) -> np.ndarray:
    """Full 2n x 2n output covariance for arbitrary per-mode squeezing.

    sigma = O D O^T with D = diag(e^{2 s_i}) (+) diag(e^{-2 s_i}) and
    O = [[Re U, -Im U], [Im U, Re U]] the orthogonal symplectic image of U.
    The global state is pure: det sigma = 1 and every symplectic eigenvalue
    equals one.

    At equal squeezing the first-k reduction of this matrix reproduces
    ``reduced_covariance_equal`` evaluated at conj(U); both orientation
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
