"""Seedable sampling of Haar-random unitary matrices and their column frames.

Every sample is a pure function of its shape, ``master_seed`` and
``sample_index``: each index gets its own counter-based stream, so a run
partitioned over any number of workers reproduces the single-threaded
result bit for bit.
"""

import numpy as np

__all__ = ["haar_frame", "haar_unitary", "sample_generator"]


def sample_generator(master_seed: int, sample_index: int) -> np.random.Generator:
    """Return the RNG stream for one sample of a seeded experiment.

    The stream is derived by spawning a child of ``SeedSequence(master_seed)``
    keyed on ``sample_index`` and feeding it to the counter-based Philox
    generator. Streams for distinct indices are statistically independent
    and do not depend on evaluation order.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(sample_index),))
    return np.random.Generator(np.random.Philox(seq))


def haar_frame(n: int, k: int, master_seed: int, sample_index: int = 0) -> np.ndarray:
    """Draw the first k columns of an ``n x n`` Haar unitary: an ``n x k`` frame.

    Ginibre + thin QR: Q of an ``n x k`` matrix of i.i.d. standard complex
    Gaussians, each column multiplied by the phase of the matching diagonal
    entry of R. The phase fix makes the law exactly that of k columns of a
    Haar unitary (Mezzadri, Notices AMS 54 (2007) 592); ``k = n`` is one.
    """
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"frame width k={k} out of range [1, {n}]")
    if sample_index < 0:
        raise ValueError(f"sample_index must be >= 0, got {sample_index}")
    rng = sample_generator(master_seed, sample_index)
    z = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
    return _phase_fixed_q(z)


def _phase_fixed_q(z: np.ndarray) -> np.ndarray:
    """Q of the thin QR of z, each column rotated by the phase of R's diagonal."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(n: int, master_seed: int, sample_index: int = 0) -> np.ndarray:
    """Draw an ``n x n`` unitary from the Haar measure on U(n): the full frame."""
    return haar_frame(n, n, master_seed, sample_index)
