import numpy as np
import pytest

from gbs_page import haar_frame, haar_unitary, sample_generator
from gbs_page.haar import _phase_fixed_q


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 128, 512])
def test_unitarity(n):
    U = haar_unitary(n, master_seed=123, sample_index=0)
    assert np.abs(U.conj().T @ U - np.eye(n)).max() <= 1e-10


def test_dimension_one_is_a_phase():
    U = haar_unitary(1, master_seed=9, sample_index=4)
    assert abs(abs(U[0, 0]) - 1.0) <= 1e-12


def test_rejects_zero_modes():
    with pytest.raises(ValueError):
        haar_unitary(0, master_seed=1)
    with pytest.raises(ValueError):
        haar_unitary(3, master_seed=1, sample_index=-1)


def test_reproducible_bit_identical():
    a = haar_unitary(8, master_seed=77, sample_index=3)
    b = haar_unitary(8, master_seed=77, sample_index=3)
    assert np.array_equal(a, b)


def test_distinct_indices_and_seeds_differ():
    base = haar_unitary(6, master_seed=77, sample_index=0)
    assert not np.allclose(base, haar_unitary(6, master_seed=77, sample_index=1))
    assert not np.allclose(base, haar_unitary(6, master_seed=78, sample_index=0))


def test_first_moment_matches_haar():
    # E|U_ij|^2 = 1/n; Var|U_ij|^2 = 2/(n(n+1)) - 1/n^2.
    n, n_samples = 4, 20000
    acc = np.zeros((n, n))
    for idx in range(n_samples):
        acc += np.abs(haar_unitary(n, master_seed=2024, sample_index=idx)) ** 2
    mean = acc / n_samples
    var = 2.0 / (n * (n + 1)) - 1.0 / n**2
    se = np.sqrt(var / n_samples)
    for i, j in [(0, 0), (1, 2), (3, 3)]:
        assert abs(mean[i, j] - 1.0 / n) <= 3 * se


@pytest.mark.parametrize("n", [1, 5, 40, 400])
def test_full_frame_is_the_unitary_draw(n):
    # The square frame keeps the stream of the n x n draw: n x n real normals,
    # then n x n imaginary ones, one QR and the phase fix.
    rng = sample_generator(31, 2)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    frame = haar_frame(n, n, master_seed=31, sample_index=2)
    assert np.array_equal(frame, q * (d / np.abs(d)))
    assert np.array_equal(frame, haar_unitary(n, master_seed=31, sample_index=2))


@pytest.mark.parametrize("k", [1, 4, 11, 12])
def test_thin_qr_is_leading_columns_of_full_qr(k):
    rng = sample_generator(5, 0)
    z = (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))) / np.sqrt(2)
    assert np.abs(_phase_fixed_q(z[:, :k]) - _phase_fixed_q(z)[:, :k]).max() <= 1e-12


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (7, 3), (40, 20), (64, 63), (300, 5)])
def test_frame_orthonormal(n, k):
    F = haar_frame(n, k, master_seed=8, sample_index=1)
    assert F.shape == (n, k)
    assert np.abs(F.conj().T @ F - np.eye(k)).max() <= 1e-10


def test_frame_rejects_bad_width():
    with pytest.raises(ValueError):
        haar_frame(4, 0, master_seed=1)
    with pytest.raises(ValueError):
        haar_frame(4, 5, master_seed=1)
    with pytest.raises(ValueError):
        haar_frame(0, 0, master_seed=1)


def test_frame_first_moment_matches_haar():
    # Each entry of a Haar frame has the law of an entry of a Haar unitary.
    n, k, n_samples = 4, 2, 8000
    acc = np.zeros((n, k))
    for idx in range(n_samples):
        acc += np.abs(haar_frame(n, k, master_seed=2025, sample_index=idx)) ** 2
    mean = acc / n_samples
    var = 2.0 / (n * (n + 1)) - 1.0 / n**2
    se = np.sqrt(var / n_samples)
    assert np.abs(mean - 1.0 / n).max() <= 3.5 * se
