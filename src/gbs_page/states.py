"""Covariance matrices of squeezed vacua routed through a passive circuit.

Conventions, fixed package-wide:

* quadrature ordering is xxpp (row i is x_i, row m+i is p_i);
* the symplectic form is Omega = [[0, I], [-I, 0]];
* hbar-free normalization, so the vacuum covariance matrix is the identity
  and a single squeezed mode is diag(e^{2s}, e^{-2s}).

Only the first k rows U_k of the Haar unitary U enter the state of the
first k modes, so a sample needs just the n x k frame F = U_k^T. With
per-mode squeezing s_i the reduced covariance is R D R^T, with
D = diag(e^{2 s_i}) (+) diag(e^{-2 s_i}) and R the 2k rows of the
orthogonal image of U that belong to those modes. At equal squeezing s it
is cosh(2s) I + sinh(2s) M, with M = [[Re A, Im A], [Im A, -Re A]] and A
the k x k corner of conj(U U^T); all dependence of the entropies on the
circuit then enters through the spectrum lambda of the positive-semidefinite
matrix W = Pi X Pi X^dag Pi with X = U U^T and Pi the projector onto the
first k modes. Its nonzero part is the spectrum of x x^dag, where
x = U_k U_k^T = F^T F, and the symplectic eigenvalues are
nu_j = sqrt(cosh^2(2s) - sinh^2(2s) lambda_j). So equal squeezing needs one
k x k Hermitian eigensolve and no covariance matrix; with either kind of
squeezing Tr W^i are the power sums of lambda.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SqueezingConfig",
    "full_covariance_general",
    "reduce_modes",
    "reduced_covariance_general",
    "symplectic_form",
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


def _w_block_eigenvalues(frame: np.ndarray) -> np.ndarray:
    """Nonzero spectrum of W, ascending, from the n x k frame F = U_k^T.

    One Hermitian eigensolve of x x^dag with x = F^T F = U_k U_k^T.
    """
    x = frame.T @ frame
    return np.linalg.eigvalsh(x @ x.conj().T)


def _power_sums(lam: np.ndarray, max_power: int) -> np.ndarray:
    """sum_j lam_j^i for i = 1..max_power."""
    return np.sum(lam[None, :] ** np.arange(1, max_power + 1)[:, None], axis=1)


def full_covariance_general(U: np.ndarray, cfg: SqueezingConfig) -> np.ndarray:
    """Full 2n x 2n output covariance for arbitrary per-mode squeezing.

    sigma = O D O^T with D = diag(e^{2 s_i}) (+) diag(e^{-2 s_i}) and
    O = [[Re U, -Im U], [Im U, Re U]] the orthogonal symplectic image of U,
    formed as H H^T with H = O D^{1/2} so that it is exactly symmetric.
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
    half = np.block([[U.real, -U.imag], [U.imag, U.real]]) * np.exp(np.concatenate([s, -s]))
    return half @ half.T


def reduced_covariance_general(frame: np.ndarray, s) -> np.ndarray:
    """First-k-modes reduction of ``full_covariance_general``, formed directly.

    ``frame`` is the n x k frame F = U_k^T (as drawn by ``haar.haar_frame``)
    and ``s`` the n per-mode squeezing strengths. Builds only the 2k rows of
    the orthogonal image that the first k modes use, so the cost is O(k n^2);
    equal to ``reduce_modes(full_covariance_general(U, SqueezingConfig(s)),
    range(k))`` for ``frame = U[:k].T``.
    """
    s = np.asarray(s, dtype=float)
    if frame.ndim != 2 or s.shape != (frame.shape[0],) or frame.shape[1] > s.size:
        raise ValueError(f"need an n x k frame with k <= n and n strengths, got "
                         f"frame {frame.shape} and {s.shape} strengths")
    if not np.all(np.isfinite(s)):
        raise ValueError("squeezing strengths must be finite")
    u = frame.T
    half = np.block([[u.real, -u.imag], [u.imag, u.real]]) * np.exp(np.concatenate([s, -s]))
    return half @ half.T


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
