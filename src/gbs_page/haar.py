"""Seedable sampling of Haar-random column frames and of the Jacobi bidiagonal.

Every sample is a pure function of its shape, ``master_seed`` and
``sample_index``: each index gets its own counter-based stream, so a run
partitioned over any number of workers reproduces the single-threaded
result bit for bit. A frame is the Cholesky QR of a complex Ginibre draw,
whose every step numpy runs without the interpreter lock; equal squeezing
draws the squared entries of the Jacobi bidiagonal model instead, whose
singular values set the spectrum, and no eigenvalues.
"""

from collections.abc import Sequence

import numpy as np

from .entropy import _integer, _mode_count

__all__ = ["haar_frame", "sample_generator"]

# Widest diagonal block that the frame's triangular solve inverts whole;
# wider ones are split in halves, coupled by one matrix product.
_LEAF = 48


def sample_generator(master_seed: int, sample_index: int) -> np.random.Generator:
    """Return the RNG stream for one sample of a seeded experiment.

    The stream is derived by spawning a child of ``SeedSequence(master_seed)``
    keyed on ``sample_index`` and feeding it to the counter-based Philox
    generator. Streams for distinct indices are statistically independent
    and do not depend on evaluation order. Both must be integers >= 0.
    """
    seq = np.random.SeedSequence(_integer("master_seed", master_seed, 0),
                                 spawn_key=(_integer("sample_index", sample_index, 0),))
    return np.random.Generator(np.random.Philox(seq))


def _check_shape(n: int, k: int) -> tuple[int, int]:
    n = _mode_count(n)
    k = _integer("subsystem size k", k)
    if not 0 <= k <= n:
        raise ValueError(f"subsystem size k={k} out of range [0, {n}]")
    return n, k


def haar_frame(n: int, k: int, master_seed: int, sample_index: int = 0) -> np.ndarray:
    """Draw the first k columns of an ``n x n`` Haar unitary: an ``n x k`` frame.

    Ginibre + Cholesky QR: with Z the ``n x k`` matrix of i.i.d. standard
    complex Gaussians of ``_ginibre`` and L the Cholesky factor of Z^dag Z,
    the frame is Q = Z L^{-dag}. Then Z = Q R with R = L^dag upper
    triangular with a positive diagonal, the one QR of Z with that
    property, so Q is the phase-fixed Q of a Householder QR in exact
    arithmetic and has the law of k columns of a Haar unitary (Mezzadri,
    Notices AMS 54 (2007) 592); ``k = n`` is one, and ``k = 0`` is empty.

    Route and cost per pass: Z^dag Z (8 n k^2 real flops), its ``k x k``
    Cholesky factor, and Q from the triangular system Q L^dag = Z, solved
    in place over Z by ``_solve_adjoint`` (about 4 n k^2 real flops, half
    of the product with inv(L)^dag that a general LU inverse would need).
    Every step is a matrix product or a small factorisation, which numpy
    runs without the interpreter lock once it has more than 500 outputs.

    One pass leaves Q orthonormal to about cond(Z)^2 eps. For k <= n/2,
    cond(Z) stays near (1 + sqrt(k/n)) / (1 - sqrt(k/n)) <= 5.8, and one
    pass agrees with the Householder frame to a few eps. Wider frames,
    up to the ill-conditioned square one, take a second pass on Q
    (CholeskyQR2; Fukaya, Nakatsukasa, Yanagisawa & Yamamoto, ScalA 2014),
    which restores orthonormality to a few eps.
    """
    q = _ginibre(n, k, master_seed, sample_index)
    for _ in range(1 if 2 * k <= n else 2):
        _solve_adjoint(q, np.linalg.cholesky(q.conj().T @ q))
    return q


def _solve_adjoint(z: np.ndarray, chol: np.ndarray) -> None:
    """Overwrite z with z L^{-dag}, for L = ``chol`` lower triangular and invertible.

    The recursive blocked right solve of X L^dag = z (Elmroth, Gustavson,
    Jonsson & Kagstrom, SIAM Rev. 46 (2004) 3): with L split in halves,
    X_1 L_11^dag = z_1, then X_2 L_22^dag = z_2 - X_1 L_21^dag. A block of
    at most ``_LEAF`` columns is multiplied by the adjoint of its
    ``np.linalg.inv``; every split costs one matrix product.
    """
    k = chol.shape[0]
    if k <= _LEAF:
        z[...] = z @ np.linalg.inv(chol).conj().T
        return
    h = k // 2
    _solve_adjoint(z[:, :h], chol[:h, :h])
    z[:, h:] -= z[:, :h] @ chol[h:, :h].conj().T
    _solve_adjoint(z[:, h:], chol[h:, h:])


def _ginibre(n: int, k: int, master_seed: int, sample_index: int) -> np.ndarray:
    """The index's ``n x k`` standard complex Gaussians: n k real parts, then n k imaginary.

    Both draws go straight into one complex array, whose real view is
    scaled in place by 1/sqrt(2): bit for bit the values of
    (a + 1j b) / sqrt(2), since numpy divides a complex number by a real
    one as a multiply by the reciprocal.
    """
    n, k = _check_shape(n, k)
    rng = sample_generator(master_seed, sample_index)
    z = np.empty((n, k), dtype=complex)
    z.real = rng.standard_normal((n, k))
    z.imag = rng.standard_normal((n, k))
    parts = z.view(float)
    parts *= 1.0 / np.sqrt(2)
    return z


def _bidiagonal_squares(
    n: int, k: int, master_seed: int, sample_index: int | Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Squared entries of each index's bidiagonal B11, shapes ``(len, m)`` and ``(len, m - 1)``.

    The beta = 1 Jacobi bidiagonal model (Edelman & Sutton, Found. Comput.
    Math. 8 (2008) 259) with a = |n - 2k| and b = 1, on the index's own
    stream: c_i^2 ~ Beta((a+i)/2, (b+i)/2) for i = 1..m, then
    c'_i^2 ~ Beta(i/2, (a+b+1+i)/2) for i = 1..m-1. The upper bidiagonal
    B11 has diagonal (c_m, c_{m-1} s'_{m-1}, ..., c_1 s'_1) and
    superdiagonal (-s_m c'_{m-1}, ..., -s_2 c'_1), where s = sqrt(1 - c^2);
    the rows returned are those entries squared, in that order, each a
    product of draws and complements in [0, 1] (no square root is taken).
    A scalar index gives rows of one sample too. Every index gets its
    stream, so ``sample_generator`` checks it and the seed, also at m = 0.
    """
    indices = np.atleast_1d(sample_index)
    n, k = _check_shape(n, k)
    m = min(k, n - k)
    diag = np.empty((indices.size, m))
    sup = np.empty((indices.size, max(m - 1, 0)))
    a, b = abs(n - 2 * k), 1
    # Python ints: each parameter is formed exactly and rounded to float64 once.
    i = np.arange(1, m + 1, dtype=object)
    c_shape = ((a + i) / 2).astype(float), ((b + i) / 2).astype(float)
    cp_shape = (i[:-1] / 2).astype(float), ((a + b + 1 + i[:-1]) / 2).astype(float)
    for row, index in enumerate(indices.tolist()):
        rng = sample_generator(master_seed, index)
        c2 = rng.beta(*c_shape)
        cp2 = rng.beta(*cp_shape)
        diag[row] = c2[::-1] * np.append(1.0, 1.0 - cp2[::-1])
        sup[row] = (1.0 - c2[:0:-1]) * cp2[::-1]
    return diag, sup

