import numpy as np
import pytest
from oracles import (
    SqueezingConfig,
    build_M,
    build_W,
    full_covariance_general,
    haar_unitary,
    reduce_modes,
    reduced_covariance_equal,
    symplectic_form,
    trW_moments,
)

from gbs_page import reduced_covariance_general, symplectic_eigenvalues


def test_build_M_trivial_unitary():
    M = build_M(np.eye(1, dtype=complex), 1)
    assert np.allclose(M, [[1.0, 0.0], [0.0, -1.0]], atol=1e-14)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (6, 3), (12, 5), (40, 17)])
def test_M_matrix_invariants(n, k):
    U = haar_unitary(n, master_seed=5, sample_index=n)
    M = build_M(U, k)
    omega = symplectic_form(k)
    assert np.abs(M - M.T).max() <= 1e-12
    assert np.abs(omega @ M + M @ omega).max() <= 1e-10
    eig = np.linalg.eigvalsh(M)
    assert eig.min() >= -1 - 1e-8 and eig.max() <= 1 + 1e-8
    for j in (1, 2, 3):
        assert abs(np.trace(np.linalg.matrix_power(M, 2 * j - 1))) <= 1e-8


def test_trM_equals_twice_trW():
    U = haar_unitary(6, master_seed=31, sample_index=2)
    k = 3
    M = build_M(U, k)
    W = build_W(U, k)
    moments = trW_moments(U, k, 6)
    for i in range(1, 7):
        tm = np.trace(np.linalg.matrix_power(M, 2 * i))
        tw = np.trace(np.linalg.matrix_power(W, i)).real
        assert abs(tm - 2 * tw) <= 1e-8
        assert abs(moments[i - 1] - tw) <= 1e-8


def test_W_matrix_properties():
    U = haar_unitary(7, master_seed=13, sample_index=0)
    W = build_W(U, 3)
    assert np.abs(W - W.conj().T).max() <= 1e-12
    eig = np.linalg.eigvalsh(W)
    assert eig.min() >= -1e-10 and eig.max() <= 1 + 1e-8
    assert np.linalg.matrix_rank(W, tol=1e-10) <= 3


def test_trW_identity_unitary():
    moments = trW_moments(np.eye(5, dtype=complex), 2, 4)
    assert np.allclose(moments, 2.0, atol=1e-12)  # W = Pi, Tr W^i = k
    full = trW_moments(haar_unitary(5, 1, 0), 5, 3)
    assert np.allclose(full, 5.0, atol=1e-8)  # k = n: W has unit spectrum


def test_reduced_equal_single_mode():
    for s in (0.0, 0.3, -0.7):
        sigma = reduced_covariance_equal(np.eye(1, dtype=complex), s, 1)
        assert np.allclose(sigma, np.diag([np.exp(2 * s), np.exp(-2 * s)]), atol=1e-12)


def test_reduced_equal_vacuum_any_unitary():
    U = haar_unitary(4, master_seed=2, sample_index=0)
    assert np.allclose(reduced_covariance_equal(U, 0.0, 2), np.eye(4), atol=1e-12)


def test_two_mode_squeezed_reduction_is_thermal():
    # Balanced beamsplitter on two equally squeezed modes: the one-mode
    # reduction is thermal with nu = cosh(2s).
    U = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    corner = np.conj(U @ U.T)[0, 0]
    assert abs(corner.real) <= 1e-12 and abs(corner.imag) <= 1e-12
    s = 0.5
    sigma = reduced_covariance_equal(U, s, 1)
    assert np.allclose(sigma, np.cosh(2 * s) * np.eye(2), atol=1e-12)
    nu = symplectic_eigenvalues(sigma)
    assert np.allclose(nu, [np.cosh(1.0)], atol=1e-12)


def test_full_covariance_identity_circuit():
    s = np.array([0.2, -0.4, 0.9])
    cfg = SqueezingConfig(s=tuple(s))
    sigma = full_covariance_general(np.eye(3, dtype=complex), cfg)
    expect = np.diag(np.concatenate([np.exp(2 * s), np.exp(-2 * s)]))
    assert np.allclose(sigma, expect, atol=1e-12)


def test_full_covariance_purity():
    rng_seed = 8
    U = haar_unitary(6, master_seed=rng_seed, sample_index=1)
    cfg = SqueezingConfig(s=(0.1, 0.5, -0.3, 0.8, 0.0, 0.25))
    sigma = full_covariance_general(U, cfg)
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0 and abs(logdet) <= 1e-6
    nu = symplectic_eigenvalues(sigma)
    assert np.abs(nu - 1.0).max() <= 1e-8


def test_general_reduction_matches_equal_form_of_conjugate():
    # The orthogonal-image construction reproduces the closed equal-squeezing
    # form with the unitary conjugated; the Haar ensemble is conjugation
    # invariant, so both conventions sample the same distribution.
    U = haar_unitary(8, master_seed=21, sample_index=0)
    s, k = 0.37, 3
    direct = reduced_covariance_equal(U, s, k)
    via_general = reduce_modes(
        full_covariance_general(np.conj(U), SqueezingConfig.equal(8, s)), range(k)
    )
    assert np.abs(direct - via_general).max() <= 1e-8


def test_general_equal_reduction_satisfies_M_invariants():
    U = haar_unitary(7, master_seed=3, sample_index=5)
    s, k = 0.6, 4
    red = reduce_modes(full_covariance_general(U, SqueezingConfig.equal(7, s)), range(k))
    M = (red - np.cosh(2 * s) * np.eye(2 * k)) / np.sinh(2 * s)
    omega = symplectic_form(k)
    assert np.abs(M - M.T).max() <= 1e-10
    assert np.abs(omega @ M + M @ omega).max() <= 1e-10
    eig = np.linalg.eigvalsh(M)
    assert eig.min() >= -1 - 1e-8 and eig.max() <= 1 + 1e-8


def test_reduced_covariance_general_fast_path():
    U = haar_unitary(9, master_seed=17, sample_index=2)
    cfg = SqueezingConfig(s=tuple(np.linspace(-0.4, 0.6, 9)))
    k = 4
    fast = reduced_covariance_general(U[:k].T, cfg.s)
    slow = reduce_modes(full_covariance_general(U, cfg), range(k))
    assert np.abs(fast - slow).max() <= 1e-12


def test_reduce_modes_identity_and_blocks():
    U = haar_unitary(5, master_seed=4, sample_index=0)
    sigma = full_covariance_general(U, SqueezingConfig.equal(5, 0.4))
    assert np.array_equal(reduce_modes(sigma, range(5)), sigma)

    block = np.diag([2.0, 3.0, 0.5, 1 / 3])  # two single-mode states, xxpp
    sub = reduce_modes(block, [1])
    assert np.allclose(sub, np.diag([3.0, 1 / 3]))


def test_complementary_reductions_share_spectrum():
    U = haar_unitary(8, master_seed=12, sample_index=7)
    cfg = SqueezingConfig(s=tuple(np.linspace(0.1, 0.8, 8)))
    sigma = full_covariance_general(U, cfg)
    nu_a = symplectic_eigenvalues(reduce_modes(sigma, range(3)))
    nu_b = symplectic_eigenvalues(reduce_modes(sigma, range(3, 8)))
    # the larger side pads with unit eigenvalues
    assert np.abs(nu_a - nu_b[:3]).max() <= 1e-8
    assert np.abs(nu_b[3:] - 1.0).max() <= 1e-8


def test_validation_errors():
    U = haar_unitary(4, master_seed=1, sample_index=0)
    with pytest.raises(ValueError):
        build_M(U, 0)
    with pytest.raises(ValueError):
        build_M(U, 5)
    with pytest.raises(ValueError):
        reduced_covariance_equal(U, np.inf, 2)
    with pytest.raises(ValueError):
        reduce_modes(np.eye(8), [1, 1])
    with pytest.raises(ValueError):
        reduce_modes(np.eye(8), [4])
    with pytest.raises(ValueError):
        trW_moments(U, 2, 0)
    with pytest.raises(ValueError):
        SqueezingConfig(s=())
    with pytest.raises(ValueError):
        SqueezingConfig(s=(0.1, np.nan))
    with pytest.raises(ValueError):
        full_covariance_general(U, SqueezingConfig.equal(3, 0.1))
