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
orthogonal image of U that belong to those modes. The global state is
pure, so the other n - k modes have the same entropies, and the Monte
Carlo builds the covariance of the smaller side from an n x min(k, n - k)
frame. With either kind of squeezing Tr W^i are the power sums of the
spectrum lambda of the positive-semidefinite matrix W = Pi X Pi X^dag Pi,
with X = U U^T and Pi the projector onto the first k modes; its nonzero
part is the spectrum of x x^dag, where x = U_k U_k^T = F^T F. The two
sides of the cut share the values of lambda below one, and the larger
side has |2k - n| more ones. At equal squeezing that spectrum is
all the entropies need: ``haar.jacobi_transmissions`` draws it as
lambda = 1 - T and ``symplectic.equal_squeezing_spectrum`` maps it to nu,
while the Monte Carlo takes the same entropies from log-determinants of
the bidiagonal whose squared singular values are T
(``entropy.bidiagonal_entropies``).
"""

import numpy as np

__all__ = ["reduced_covariance_general"]


def _w_block_eigenvalues(frame: np.ndarray) -> np.ndarray:
    """Nonzero spectrum of W, ascending, from the n x k frame F = U_k^T.

    One Hermitian eigensolve of x x^dag with x = F^T F = U_k U_k^T.
    """
    x = frame.T @ frame
    return np.linalg.eigvalsh(x @ x.conj().T)


def _power_sums(lam: np.ndarray, max_power: int) -> np.ndarray:
    """sum_j lam_j^i for i = 1..max_power."""
    return np.sum(lam[None, :] ** np.arange(1, max_power + 1)[:, None], axis=1)


def reduced_covariance_general(frame: np.ndarray, s) -> np.ndarray:
    """Covariance of the first k output modes under per-mode squeezing s.

    ``frame`` is the n x k frame F = U_k^T (as drawn by ``haar.haar_frame``)
    and ``s`` the n per-mode squeezing strengths. The full 2n x 2n state is
    O D O^T, with O = [[Re U, -Im U], [Im U, Re U]] the orthogonal image of
    U; this builds only the 2k rows of O that the first k modes use, so the
    cost is O(k n^2), and forms sigma as H H^T with H = R D^{1/2} so that it
    is exactly symmetric.
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
