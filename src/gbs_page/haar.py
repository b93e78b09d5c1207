"""Seedable sampling of Haar-random column frames and of the spectrum they set.

Every sample is a pure function of its shape, ``master_seed`` and
``sample_index``: each index gets its own counter-based stream, so a run
partitioned over any number of workers reproduces the single-threaded
result bit for bit. A frame is the Cholesky QR of a complex Ginibre draw,
whose every step numpy runs without the interpreter lock; the equal-squeezing
spectrum is drawn directly from the Jacobi bidiagonal model.
"""

from collections.abc import Sequence

import numpy as np

__all__ = ["haar_frame", "jacobi_transmissions", "sample_generator"]


def sample_generator(master_seed: int, sample_index: int) -> np.random.Generator:
    """Return the RNG stream for one sample of a seeded experiment.

    The stream is derived by spawning a child of ``SeedSequence(master_seed)``
    keyed on ``sample_index`` and feeding it to the counter-based Philox
    generator. Streams for distinct indices are statistically independent
    and do not depend on evaluation order.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(sample_index),))
    return np.random.Generator(np.random.Philox(seq))


def _check_shape(n: int, k: int, sample_index: int) -> None:
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"subsystem size k={k} out of range [1, {n}]")
    if sample_index < 0:
        raise ValueError(f"sample_index must be >= 0, got {sample_index}")


def haar_frame(n: int, k: int, master_seed: int, sample_index: int = 0) -> np.ndarray:
    """Draw the first k columns of an ``n x n`` Haar unitary: an ``n x k`` frame.

    Ginibre + Cholesky QR: with Z the ``n x k`` matrix of i.i.d. standard
    complex Gaussians of ``_ginibre`` and L the Cholesky factor of Z^dag Z,
    the frame is Q = Z L^{-dag}. Then Z = Q R with R = L^dag upper
    triangular with a positive diagonal, the one QR of Z with that
    property, so Q is the phase-fixed Q of a Householder QR in exact
    arithmetic and has the law of k columns of a Haar unitary (Mezzadri,
    Notices AMS 54 (2007) 592); ``k = n`` is one. Every step is a matrix
    product or a ``k x k`` factorisation, which numpy runs without the
    interpreter lock once it has more than 500 outputs.

    One pass leaves Q orthonormal to about cond(Z)^2 eps. For k <= n/2,
    cond(Z) stays near (1 + sqrt(k/n)) / (1 - sqrt(k/n)) <= 5.8, and one
    pass agrees with the Householder frame to a few eps. Wider frames,
    up to the ill-conditioned square one, take a second pass on Q
    (CholeskyQR2; Fukaya, Nakatsukasa, Yanagisawa & Yamamoto, ScalA 2014),
    which restores orthonormality to a few eps.
    """
    q = _ginibre(n, k, master_seed, sample_index)
    for _ in range(1 if 2 * k <= n else 2):
        chol = np.linalg.cholesky(q.conj().T @ q)
        q = q @ np.linalg.inv(chol).conj().T
    return q


def _ginibre(n: int, k: int, master_seed: int, sample_index: int) -> np.ndarray:
    """The index's ``n x k`` standard complex Gaussians: n k real parts, then n k imaginary."""
    _check_shape(n, k, sample_index)
    rng = sample_generator(master_seed, sample_index)
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)


def jacobi_transmissions(
    n: int, k: int, master_seed: int, sample_index: int | Sequence[int] = 0
) -> np.ndarray:
    """Draw the m = min(k, n - k) transmission eigenvalues T of a Haar U, ascending.

    With U_k the first k rows of an ``n x n`` Haar unitary, x = U_k U_k^T is
    the k x k corner of the COE matrix U U^T, and the eigenvalues of
    x x^dag are 1 - T for the m values T plus 2k - n exact ones when
    k > n/2. The T are the transmission eigenvalues of a beta = 1
    scattering matrix: a real Jacobi ensemble with weight
    T^{(|n - 2k| - 1)/2} (Beenakker, RMP 69 (1997) 731), and the squared
    singular values of the bidiagonal B11 that ``_bidiagonal_squares``
    draws; this takes them from an ``eigvalsh`` of the tridiagonal
    B11^T B11. The Monte Carlo needs no eigenvalues at equal squeezing (it
    takes log-determinants of the same B11), so this is its agreement
    oracle and the source of Tr W^i.

    ``sample_index`` is one index, giving shape ``(m,)``, or a sequence of
    indices, giving ``(len, m)``: each row is drawn from its own index's
    stream, so it equals the one-index draw bit for bit, and one stacked
    ``eigvalsh`` solves every row. The rows are empty when m = 0.
    """
    t = _squared_singular_values(*_bidiagonal_squares(n, k, master_seed, sample_index))
    return t if np.ndim(sample_index) else t[0]


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
    A scalar index gives rows of one sample too.
    """
    indices = np.atleast_1d(sample_index)
    _check_shape(n, k, indices.min(initial=0))
    m = min(k, n - k)
    diag = np.empty((indices.size, m))
    sup = np.empty((indices.size, max(m - 1, 0)))
    if m:
        a, b = abs(n - 2 * k), 1
        i = np.arange(1, m + 1)
        for row, index in enumerate(indices):
            rng = sample_generator(master_seed, index)
            c2 = rng.beta((a + i) / 2, (b + i) / 2)
            cp2 = rng.beta(i[:-1] / 2, (a + b + 1 + i[:-1]) / 2)
            diag[row] = c2[::-1] * np.append(1.0, 1.0 - cp2[::-1])
            sup[row] = (1.0 - c2[:0:-1]) * cp2[::-1]
    return diag, sup


def _squared_singular_values(diag: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Eigenvalues of each row's B11^T B11, ascending, from its squared entries.

    The tridiagonal has diagonal diag_i + sup_{i-1} and off-diagonal
    sqrt(diag_i sup_i) (its sign does not change the eigenvalues); one
    stacked ``eigvalsh`` solves every row.
    """
    rows, m = diag.shape
    gram = np.zeros((rows, m, m))
    d = np.arange(m)
    gram[:, d, d] = diag
    gram[:, d[1:], d[1:]] += sup
    gram[:, d[1:], d[:-1]] = np.sqrt(diag[:, :-1] * sup)  # lower triangle, the one eigvalsh reads
    return np.linalg.eigvalsh(gram)
