import numpy as np
import pytest
from oracles import (
    cholesky_qr_frame_inv,
    frame_transmissions,
    haar_unitary,
    householder_frame,
    jacobi_transmissions,
)
from scipy.special import digamma

from gbs_page import haar, haar_frame, sample_generator
from gbs_page.haar import _LEAF, _bidiagonal_squares, _ginibre, _solve_adjoint


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
    # The square draw is the index's stream: n x n real normals, then n x n
    # imaginary ones. The unitary oracle is its QR with the phase fix.
    rng = sample_generator(31, 2)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    assert np.array_equal(_ginibre(n, n, master_seed=31, sample_index=2), z)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    assert np.array_equal(householder_frame(z), q * (d / np.abs(d)))
    assert np.array_equal(householder_frame(z), haar_unitary(n, master_seed=31, sample_index=2))


@pytest.mark.parametrize("n,k", [(1, 1), (7, 3), (64, 63), (400, 200)])
def test_thin_draw_is_the_index_stream(n, k):
    # Written into one complex array and scaled in place, bit for bit.
    rng = sample_generator(31, 5)
    z = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
    assert np.array_equal(_ginibre(n, k, master_seed=31, sample_index=5), z)


@pytest.mark.parametrize("k", [1, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 200])
def test_blocked_solve_matches_the_inverse(k):
    # One leaf, the widest leaf, the first split, a split with an odd half,
    # and a three-level split, against the product with inv(L)^dag. L is the
    # Cholesky factor of a (2k + 3) x k Ginibre Gram matrix, cond(L) < 6.
    z = _ginibre(2 * k + 3, k, master_seed=4, sample_index=k)
    chol = np.linalg.cholesky(z.conj().T @ z)
    rhs = _ginibre(k + 10, k, master_seed=5, sample_index=k)
    want = rhs @ np.linalg.inv(chol).conj().T
    got = rhs.copy()
    _solve_adjoint(got, chol)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (7, 3), (97, 49), (300, 5), (400, 200),
                                 (5, 3), (12, 12), (64, 63), (100, 97), (400, 300), (400, 400)])
def test_frame_matches_the_inverse_route(n, k):
    # The blocked triangular solve against Q = Z inv(L)^dag, the route it
    # replaced, on the same draws (one pass to k = n/2, two above).
    tol = 1e-14 if 2 * k <= n else 1e-12
    for index in range(5):
        oracle = cholesky_qr_frame_inv(_ginibre(n, k, master_seed=19, sample_index=index))
        assert np.abs(haar_frame(n, k, master_seed=19, sample_index=index) - oracle).max() <= tol


@pytest.mark.parametrize("k", [1, 4, 11, 12])
def test_thin_qr_is_leading_columns_of_full_qr(k):
    rng = sample_generator(5, 0)
    z = (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))) / np.sqrt(2)
    assert np.abs(householder_frame(z[:, :k]) - householder_frame(z)[:, :k]).max() <= 1e-12


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (7, 3), (12, 6), (40, 20), (300, 5), (400, 200),
                                 (5, 3), (12, 12), (40, 39), (64, 63), (400, 300), (400, 400)])
def test_frame_is_the_householder_frame_of_its_draw(n, k):
    # Cholesky QR (one pass to k = n/2, two above) against the phase-fixed
    # Householder QR of the same Gaussians, for five draws each.
    tol = 1e-14 if 2 * k <= n else 1e-12
    for index in range(5):
        oracle = householder_frame(_ginibre(n, k, master_seed=19, sample_index=index))
        assert np.abs(haar_frame(n, k, master_seed=19, sample_index=index) - oracle).max() <= tol


def test_frame_orthonormal_over_many_small_draws():
    # 10^4 draws over every shape with n <= 8, the square ones (cond(Z) has
    # a heavy tail there) included.
    shapes = [(n, k) for n in range(1, 9) for k in range(1, n + 1)]
    worst = 0.0
    for index in range(10_000):
        n, k = shapes[index % len(shapes)]
        frame = haar_frame(n, k, master_seed=23, sample_index=index)
        worst = max(worst, np.abs(frame.conj().T @ frame - np.eye(k)).max())
    assert worst <= 1e-13


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (7, 3), (40, 20), (64, 63), (300, 5)])
def test_frame_orthonormal(n, k):
    F = haar_frame(n, k, master_seed=8, sample_index=1)
    assert F.shape == (n, k)
    assert np.abs(F.conj().T @ F - np.eye(k)).max() <= 1e-10


def test_frame_rejects_bad_width():
    assert haar_frame(4, 0, master_seed=1).shape == (4, 0)  # an empty side
    with pytest.raises(ValueError, match=r"out of range \[0, 4\]"):
        haar_frame(4, 5, master_seed=1)
    with pytest.raises(ValueError, match=r"out of range \[0, 4\]"):
        haar_frame(4, -1, master_seed=1)
    with pytest.raises(ValueError, match="^mode count must be >= 1"):
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


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (7, 3), (8, 4), (9, 6), (10, 10), (301, 140)])
def test_transmissions_shape_and_range(n, k):
    t = jacobi_transmissions(n, k, master_seed=8, sample_index=1)
    assert t.shape == (min(k, n - k),)
    assert np.all(np.diff(t) >= 0)
    assert np.all(t >= -1e-14) and np.all(t <= 1 + 1e-14)
    assert np.array_equal(t, jacobi_transmissions(n, k, master_seed=8, sample_index=1))
    if t.size:
        assert not np.array_equal(t, jacobi_transmissions(n, k, master_seed=8, sample_index=2))


@pytest.mark.parametrize("n,k", [(10, 10), (2, 1), (61, 60), (9, 6), (400, 200), (1002, 501)])
def test_transmissions_of_many_indices_are_the_one_index_draws(n, k):
    # m = 0, m = 1 (k > n/2 at (61, 60)), k > n/2, and m = 501: each row of
    # the stacked eigensolve is its own LAPACK call.
    m = min(k, n - k)
    indices = [3, 0, 7, 4]
    stack = jacobi_transmissions(n, k, master_seed=12, sample_index=indices)
    assert stack.shape == (len(indices), m)
    for row, index in zip(stack, indices):
        assert np.array_equal(row, jacobi_transmissions(n, k, master_seed=12, sample_index=index))
    with pytest.raises(ValueError):
        jacobi_transmissions(n, k, master_seed=12, sample_index=[0, -1])


def test_transmissions_reject_bad_shape():
    assert jacobi_transmissions(4, 0, master_seed=1).shape == (0,)  # an empty side
    for n, k, index in [(4, -1, 0), (4, 5, 0), (0, 0, 0), (4, 2, -1)]:
        with pytest.raises(ValueError):
            jacobi_transmissions(n, k, master_seed=1, sample_index=index)


def test_integer_spellings_give_the_same_streams():
    i64 = np.int64
    assert np.array_equal(sample_generator(i64(7), i64(3)).standard_normal(4),
                          sample_generator(7, 3).standard_normal(4))
    assert np.array_equal(jacobi_transmissions(i64(10), i64(4), i64(2), i64(5)),
                          jacobi_transmissions(10, 4, 2, 5))
    assert np.array_equal(jacobi_transmissions(10, 4, 2, [i64(5), 6.0]),
                          jacobi_transmissions(10, 4, 2, [5, 6]))
    assert np.array_equal(haar_frame(i64(6), i64(3), i64(2), i64(5)), haar_frame(6, 3, 2, 5))


@pytest.mark.parametrize("function,args,message", [
    (sample_generator, (1.7, 0), "^master_seed must be an integer"),
    (sample_generator, (-1, 0), "^master_seed must be >= 0"),
    (sample_generator, (1, -1), "^sample_index must be >= 0"),
    (sample_generator, (1, 2.5), "^sample_index must be an integer"),
    (jacobi_transmissions, (10, 5, -1), "^master_seed must be >= 0"),
    (jacobi_transmissions, (10, 10, -1), "^master_seed must be >= 0"),  # m = 0: no draw
    (jacobi_transmissions, (10.5, 5, 0), "^mode count must be an integer"),
    (jacobi_transmissions, (10, 2.5, 0), "^subsystem size k must be an integer"),
    (jacobi_transmissions, (10, 5, 0, [0, 1.5]), "^sample_index must be an integer"),
    (haar_frame, (True, 1, 0), "^mode count must be an integer"),
    (haar_frame, (6, 3, 1.7), "^master_seed must be an integer"),
], ids=["seed-frac", "seed-neg", "index-neg", "index-frac", "T-seed-neg", "T-empty-seed-neg",
        "T-n-frac", "T-k-frac", "T-indices-frac", "frame-n-bool", "frame-seed-frac"])
def test_samplers_name_a_bad_integer(function, args, message):
    with pytest.raises(ValueError, match=message):
        function(*args)


def test_beta_parameters_are_exact_and_rounded_once(monkeypatch):
    # Each Beta parameter of the Jacobi draw is its exact value rounded to
    # float64 once, as an int64 sum gave wherever it did not wrap: at
    # n = 2**53 + 3, k = 1 the first is (2**53 + 2) / 2 = 2**52 + 1, which
    # float(a) + 1 would round to 2**52. (2**63 + 5, 3) is where int64 wrapped.
    calls = []

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def beta(self, p, q):
            calls.append((p, q))
            return self.rng.beta(p, q)

    monkeypatch.setattr(haar, "sample_generator",
                        lambda seed, index: Recording(sample_generator(seed, index)))
    for n, k in ((2**53 + 3, 1), (2**53 + 7, 2), (2**63 + 5, 3), (41, 17)):
        calls.clear()
        _bidiagonal_squares(n, k, 6, [0, 1])
        a, m = abs(n - 2 * k), min(k, n - k)
        c = [[(a + i) / 2 for i in range(1, m + 1)], [(1 + i) / 2 for i in range(1, m + 1)]]
        cp = [[i / 2 for i in range(1, m)], [(a + 2 + i) / 2 for i in range(1, m)]]
        assert len(calls) == 4
        for (p, q), exact in zip(calls, (c, cp, c, cp)):
            assert p.dtype == q.dtype == float
            assert p.tolist() == exact[0] and q.tolist() == exact[1]
        if n == 2**53 + 3:
            assert calls[0][0].tolist() == [2.0**52 + 1]


def _z(values, exact):
    return (values.mean() - exact) / (values.std(ddof=1) / np.sqrt(values.size))


@pytest.mark.parametrize("n,k", [(40, 13), (12, 6), (9, 6), (7, 3), (10, 10)])
def test_transmissions_match_exact_jacobi_moments(n, k):
    # Real Jacobi law with weight T^{(a'-1)}, a' = (|n-2k|+1)/2, on m points:
    # E sum T = m p/(p+m+1) with p = max(k, n-k), and from the Selberg
    # integral E sum log T = sum_{j<m} [psi(a'+j/2) - psi(a'+1+(m+j-1)/2)].
    m, p, a1 = min(k, n - k), max(k, n - k), (abs(n - 2 * k) + 1) / 2
    draws = [jacobi_transmissions(n, k, master_seed=404, sample_index=i) for i in range(10000)]
    if m == 0:
        assert all(t.size == 0 for t in draws)
        return
    j = np.arange(m)
    log_exact = np.sum(digamma(a1 + j / 2) - digamma(a1 + 1 + (m + j - 1) / 2))
    assert abs(_z(np.array([t.sum() for t in draws]), m * p / (p + m + 1))) <= 4
    assert abs(_z(np.array([np.log(t).sum() for t in draws]), log_exact)) <= 4


@pytest.mark.parametrize("n,k", [(7, 3), (8, 4), (9, 6)])
def test_transmissions_match_frame_oracle(n, k):
    # Two-sample Kolmogorov-Smirnov distance between the pooled T of 3000
    # draws per side. A draw's share of its m values below x is a [0, 1]
    # variable with mean F(x), so its variance is at most F(1 - F), the
    # variance of one indicator: the 0.1 % critical value for 3000 i.i.d.
    # points per side, 1.95 sqrt(2/3000), bounds the pooled distance too.
    draws = 3000
    direct = np.concatenate([jacobi_transmissions(n, k, 515, i) for i in range(draws)])
    frame = np.concatenate([frame_transmissions(n, k, 616, i) for i in range(draws)])
    grid = np.sort(np.concatenate([direct, frame]))
    ecdf = [np.searchsorted(np.sort(x), grid, side="right") / x.size for x in (direct, frame)]
    assert np.abs(ecdf[0] - ecdf[1]).max() <= 1.95 * np.sqrt(2 / draws)

