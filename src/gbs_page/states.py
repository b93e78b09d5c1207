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
frame. At equal squeezing no covariance is built: the entropies need only
the transmission eigenvalues T that ``haar`` draws (the eigenvalues of
W = Pi X Pi X^dag Pi, with X = U U^T and Pi the projector onto the first
k modes, are 1 - T and |2k - n| ones on the larger side), and the Monte
Carlo takes them from log-determinants of the bidiagonal whose squared
singular values are T (``entropy.bidiagonal_entropies``).
"""

import numpy as np

__all__ = ["reduced_covariance_general"]


def reduced_covariance_general(frame: np.ndarray, s) -> np.ndarray:
    """Covariance of the first k output modes under per-mode squeezing s.

    ``frame`` is the n x k frame F = U_k^T (as drawn by ``haar.haar_frame``)
    and ``s`` the n per-mode squeezing strengths. The full 2n x 2n state is
    O D O^T, with O = [[Re U, -Im U], [Im U, Re U]] the orthogonal image of
    U; this builds only the 2k rows of O that the first k modes use, so the
    cost is O(k n^2), and forms sigma as H H^T with H = R D^{1/2} so that it
    is exactly symmetric. H is filled as its ``2n x 2k`` transpose h, in the
    frame's own layout: each block of h is one multiply of the frame's real
    or imaginary part by a column of scale factors e^{+-s}, written row by
    row, and sigma = h^T h.
    """
    frame = np.asarray(frame)
    s = np.asarray(s, dtype=float)
    if frame.ndim != 2 or s.shape != (frame.shape[0],) or frame.shape[1] > s.size:
        raise ValueError(f"need an n x k frame with k <= n and n strengths, got "
                         f"frame {frame.shape} and {s.shape} strengths")
    if not np.all(np.isfinite(s)):
        raise ValueError("squeezing strengths must be finite")
    n, k = frame.shape
    grow, shrink = np.exp(s)[:, None], np.exp(-s)[:, None]
    h = np.empty((2 * n, 2 * k))
    np.multiply(frame.real, grow, out=h[:n, :k])
    np.multiply(frame.imag, -shrink, out=h[n:, :k])
    np.multiply(frame.imag, grow, out=h[:n, k:])
    np.multiply(frame.real, shrink, out=h[n:, k:])
    return h.T @ h
