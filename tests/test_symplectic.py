import numpy as np
import pytest
from oracles import (
    SqueezingConfig,
    equal_squeezing_spectrum,
    full_covariance_general,
    gram_full_product,
    haar_unitary,
    jacobi_transmissions,
    reduced_covariance_equal,
    symplectic_eigenvalues_eigh,
    symplectic_eigenvalues_svd,
    w_block_eigenvalues,
)

from gbs_page import (
    haar_frame,
    reduced_covariance_general,
    renyi_entropy,
    symplectic_eigenvalues,
)
from gbs_page.symplectic import _gram


def test_vacuum():
    nu = symplectic_eigenvalues(np.eye(6))
    assert np.array_equal(nu, np.ones(3))


def test_pure_single_mode_squeezed():
    s = 0.8
    nu = symplectic_eigenvalues(np.diag([np.exp(2 * s), np.exp(-2 * s)]))
    assert nu.shape == (1,)
    assert abs(nu[0] - 1.0) <= 1e-10


def test_thermal_value():
    c = np.cosh(2 * 0.5)
    nu = symplectic_eigenvalues(c * np.eye(2))
    assert abs(nu[0] - np.cosh(1.0)) <= 1e-12


def test_sorted_descending():
    U = haar_unitary(6, master_seed=3, sample_index=0)
    nu = symplectic_eigenvalues(reduced_covariance_equal(U, 0.9, 4))
    assert np.all(np.diff(nu) <= 0)


def test_invariance_under_symplectic_orthogonal():
    U = haar_unitary(5, master_seed=6, sample_index=1)
    sigma = reduced_covariance_equal(haar_unitary(5, 1, 0), 0.7, 5)
    ortho = np.block([[U.real, -U.imag], [U.imag, U.real]])
    nu1 = symplectic_eigenvalues(sigma)
    nu2 = symplectic_eigenvalues(ortho @ sigma @ ortho.T)
    assert np.abs(nu1 - nu2).max() <= 1e-8


def test_determinant_is_product_of_squares():
    U = haar_unitary(7, master_seed=9, sample_index=0)
    sigma = reduced_covariance_equal(U, 0.6, 3)
    nu = symplectic_eigenvalues(sigma)
    _, logdet = np.linalg.slogdet(sigma)
    assert abs(logdet - 2 * np.sum(np.log(nu))) <= 1e-6 * max(1.0, abs(logdet))


def test_clamp_window_and_failure():
    nu = symplectic_eigenvalues((1 - 5e-9) * np.eye(2))
    assert nu[0] == 1.0
    with pytest.raises(ValueError, match=r"^symplectic eigenvalue 0\.99999\d* below 1 - 1e-06"):
        symplectic_eigenvalues((1 - 1e-5) * np.eye(2))


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.arange(16.0).reshape(4, 4))  # not symmetric
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.eye(3))  # odd dimension
    with pytest.raises(ValueError):
        symplectic_eigenvalues(-np.eye(4))  # not positive definite


def test_global_purity_spot_check():
    U = haar_unitary(10, master_seed=44, sample_index=0)
    cfg = SqueezingConfig(s=tuple(np.linspace(-0.5, 1.0, 10)))
    nu = symplectic_eigenvalues(full_covariance_general(U, cfg))
    assert np.abs(nu - 1.0).max() <= 1e-8


@pytest.mark.parametrize("s", [0.0, 0.05, 0.5, 3.0])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_equal_route_matches_covariance_oracle(n, s):
    # Both routes resolve nu^2 only to about eps cosh^2(2s): at s = 3 either
    # puts nu near one ~1e-11 off. So past cosh^2(2s) = 10 the bounds grow
    # with it; below they are 1e-12 (nu) and 1e-10 (relative S).
    scale = max(1.0, 0.1 * np.cosh(2 * s) ** 2)
    U = haar_unitary(n, master_seed=61, sample_index=n)
    for k in sorted({1, n // 2, n - 1, n} - {0}):
        oracle = symplectic_eigenvalues(reduced_covariance_equal(U, s, k))
        nu = equal_squeezing_spectrum(1.0 - w_block_eigenvalues(U[:k].T), k, s)
        assert nu.shape == (k,) and np.all(np.diff(nu) <= 0)
        assert np.abs(nu - oracle).max() <= 1e-12 * scale
        for alpha in (1, 2, 15):
            want = renyi_entropy(oracle, alpha)
            assert abs(renyi_entropy(nu, alpha) - want) <= 1e-10 * max(1.0, abs(want)) * scale


def test_equal_spectrum_checks():
    assert np.array_equal(equal_squeezing_spectrum([0.8, 0.1], 2, 0.0), [1.0, 1.0])
    nu = equal_squeezing_spectrum([0.0, 1.0], 2, 0.5)
    assert np.allclose(nu, [np.cosh(1.0), 1.0], rtol=0, atol=1e-14)
    # T just below zero lands in the clamp window and is rounded to one
    t = 1e-9 / np.sinh(1.0) ** 2
    assert equal_squeezing_spectrum([-t], 1, 0.5)[0] == 1.0
    for t, k, s in [([0.5, np.nan], 2, 0.5), ([np.inf], 1, 0.5), ([-0.5], 1, 0.5),
                    ([-1e-4], 1, 0.5), ([0.5], 1, np.inf), ([0.5], 1, np.nan),
                    ([0.5, 0.2], 1, 0.5)]:
        with pytest.raises(ValueError):
            equal_squeezing_spectrum(t, k, s)


@pytest.mark.parametrize("n,k", [(10, 7), (9, 8), (40, 40)])
def test_equal_spectrum_pads_exact_ones(n, k):
    # Past k = n/2 only m = n - k modes are entangled; the other k - m get
    # nu = 1 exactly, however strong the squeezing.
    t = jacobi_transmissions(n, k, master_seed=4, sample_index=1)
    nu = equal_squeezing_spectrum(t, k, 3.0)
    assert t.size == n - k and nu.shape == (k,)
    assert np.all(nu[: n - k] > 1.0) and np.all(nu[n - k:] == 1.0)
    assert renyi_entropy(nu[n - k:], 1) == 0.0


def _outcome(route, sigma):
    try:
        return route(sigma)
    except ValueError:
        return None


@pytest.mark.parametrize("s_max", [0.0, 0.1, 1.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_cholesky_route_matches_eigh_oracle(n, s_max):
    # Per-mode squeezing from +s_max to -s_max: sigma has condition number
    # up to e^{4 s_max}, and both routes resolve nu to about eps times it.
    # S_1 has an infinite slope at nu = 1, so that noise reaches it
    # unshrunk (S_1 ~ 2e-10 for the pure k = n = 40 state at s_max = 3, in
    # either route): its bound grows like nu's, those of S_2 and S_3 do not.
    scale = max(1.0, np.exp(4 * s_max) / 10)
    s = s_max * np.linspace(1.0, -1.0, n)
    U = haar_unitary(n, master_seed=73, sample_index=n)
    for k in sorted({1, n // 2, n - 1, n} - {0}):
        sigma = reduced_covariance_general(U[:k].T, s)
        oracle = symplectic_eigenvalues_eigh(sigma)
        nu = symplectic_eigenvalues(sigma)
        assert nu.shape == (k,) and np.all(np.diff(nu) <= 0)
        assert np.abs(nu - oracle).max() <= 1e-12 * scale
        for alpha in (1, 2, 3):
            want = renyi_entropy(oracle, alpha)
            bound = 1e-10 * max(1.0, abs(want)) * (scale if alpha == 1 else 1.0)
            assert abs(renyi_entropy(nu, alpha) - want) <= bound


@pytest.mark.parametrize("s_max", [0.0, 0.1, 1.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_eigvalsh_route_matches_svd_oracle(n, s_max):
    # The eigenvalues of A^T A against the singular values of the same
    # A = L^T Omega L, on the grid and at the bounds of the eigh comparison.
    scale = max(1.0, np.exp(4 * s_max) / 10)
    s = s_max * np.linspace(1.0, -1.0, n)
    U = haar_unitary(n, master_seed=73, sample_index=n)
    for k in sorted({1, n // 2, n - 1, n} - {0}):
        sigma = reduced_covariance_general(U[:k].T, s)
        oracle = symplectic_eigenvalues_svd(sigma)
        nu = symplectic_eigenvalues(sigma)
        assert nu.shape == (k,) and np.all(np.diff(nu) <= 0)
        assert np.abs(nu - oracle).max() <= 1e-12 * scale
        for alpha in (1, 2, 3):
            want = renyi_entropy(oracle, alpha)
            bound = 1e-10 * max(1.0, abs(want)) * (scale if alpha == 1 else 1.0)
            assert abs(renyi_entropy(nu, alpha) - want) <= bound


@pytest.mark.parametrize("s_max", [7.0, 9.0])
def test_cholesky_route_fails_where_eigh_oracle_fails(s_max):
    # Near the end of float64 (condition number e^{4 s_max} up to 2e15) both
    # routes must either succeed or raise on the same covariance matrix.
    n = 40
    U = haar_unitary(n, master_seed=73, sample_index=n)
    sigma = reduced_covariance_general(U.T, s_max * np.linspace(1.0, -1.0, n))
    oracle = _outcome(symplectic_eigenvalues_eigh, sigma)
    nu = _outcome(symplectic_eigenvalues, sigma)
    assert (oracle is None) == (nu is None)
    for bad in (np.arange(16.0).reshape(4, 4), np.eye(3), -np.eye(4)):
        assert _outcome(symplectic_eigenvalues_eigh, bad) is None
        assert _outcome(symplectic_eigenvalues, bad) is None


def test_rejects_non_finite_covariance():
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 1.0])):
        with pytest.raises(ValueError, match="must be finite"):
            symplectic_eigenvalues(bad)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (7, 3), (9, 4), (40, 13), (101, 49), (400, 200)])
def test_block_gram_matches_the_full_product(n, m):
    # A^T A from the m x m blocks of L against the full products L^T (Omega L)
    # and A^T A, at m = 1, odd m and the benchmark's m = 200, s in [-1, 1].
    s = np.linspace(1.0, -1.0, n)
    for index in range(3):
        sigma = reduced_covariance_general(haar_frame(n, m, master_seed=29, sample_index=index), s)
        out = np.full((2 * m, 2 * m), np.nan)
        gram = _gram(sigma, out=out)
        assert gram is out and np.array_equal(gram, gram.T)
        want = np.linalg.eigvalsh(gram_full_product(sigma))
        assert np.abs(np.linalg.eigvalsh(gram) - want).max() <= 1e-13 * want.max()
        assert np.array_equal(_gram(sigma), gram)
