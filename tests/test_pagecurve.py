import math

import mpmath
import numpy as np
import pytest
from oracles import haar_unitary, reduced_covariance_equal, trW_moments
from series_oracle import (
    expected_trW,
    series_average,
    vn_series_coefficients,
    vn_series_constant,
)

from gbs_page import (
    ASYMPTOTIC,
    ExperimentPlan,
    page_average,
    page_limit,
    renyi_entropy,
    renyi_unequal_small,
    run_experiment,
    symplectic_eigenvalues,
)


def test_expected_trW_trivial():
    assert expected_trW(3, 50, 0.0) == 0.0
    n, r = 25, 0.4
    assert expected_trW(1, n, r) == pytest.approx(n * r**2 + r * (1 - r), rel=1e-12)
    vec = expected_trW(np.arange(1, 5), n, r)
    assert vec.shape == (4,)


def test_expected_trW_monte_carlo_oracle():
    n, r, n_samples = 30, 0.5, 20000
    k = round(n * r)
    acc = np.zeros((n_samples, 4))
    for idx in range(n_samples):
        U = haar_unitary(n, master_seed=314, sample_index=idx)
        acc[idx] = trW_moments(U, k, 4)
    for i in range(1, 5):
        mc = acc[:, i - 1].mean()
        se = acc[:, i - 1].std(ddof=1) / np.sqrt(n_samples)
        # finite-n remainder allowance 0.05 on top of the statistical band
        assert abs(mc - expected_trW(i, n, r)) <= 3 * se + 0.05


def test_vn_coefficients_match_hypergeometric_form():
    # c_i = 1/(2i) - (1/3) sech^2(2s) tanh^{2i}(2s) 2F1(3/2, 1+i, 5/2, sech^2(2s))
    mpmath.mp.dps = 30
    for s in (0.3, 0.5, 1.0):
        x = 1.0 / np.cosh(2 * s) ** 2
        t = np.tanh(2 * s) ** 2
        cs = vn_series_coefficients(200, s)
        for i in (1, 2, 3, 7, 20, 50, 120, 200):
            hyp = float(mpmath.hyp2f1(1.5, 1 + i, 2.5, x))
            direct = 1.0 / (2 * i) - (x / 3.0) * t**i * hyp
            assert cs[i - 1] == pytest.approx(direct, rel=1e-9, abs=1e-16)


def test_vn_coefficients_positive_and_summable():
    for s in (0.3, 0.5, 1.0):
        cs = vn_series_coefficients(50000, s)
        assert cs.min() > 0
        x = 1.0 / np.cosh(2 * s) ** 2
        beta = (1 - x) / (4 * x)
        # partial sums approach the closed-form constant like beta / I
        gap = vn_series_constant(s) - cs.sum()
        assert gap == pytest.approx(beta / 50000, rel=0.05)


def test_vn_constant_closed_form():
    for s in (0.1, 0.5, 2.0):
        direct = 0.5 * np.log(np.sinh(2 * s) ** 2 / 4) + np.cosh(2 * s) * np.arctanh(
            1 / np.cosh(2 * s)
        )
        assert vn_series_constant(s) == pytest.approx(direct, rel=1e-12)
        assert vn_series_constant(-s) == vn_series_constant(s)


def test_zero_squeezing_and_empty_partition():
    for fn in (
        lambda: page_average(2, 100, 0.0, 0.5),
        lambda: page_average(5, 100, 0.0, 0.3),
        lambda: page_average(1, 100, 0.0, 0.5),
    ):
        res = fn()
        assert res.value == 0.0 and res.trunc_err == 0.0
    for r in (0.0, 1.0):
        assert page_average(1, 100, 0.5, r).value == 0.0
        assert page_average(3, 100, 0.5, r).value == 0.0


def test_alpha2_dispatch_and_symmetry():
    a = page_average(2, 100, 0.5, 0.3)
    b = page_average(2.0, 100, 0.5, 0.3)
    assert a.value == b.value
    for alpha in (1, 2, 3):
        lo = page_average(alpha, 100, 0.5, 0.3)
        hi = page_average(alpha, 100, 0.5, 0.7)
        assert lo.value == hi.value  # evaluated at min(k, n-k)/n


def test_realized_ratio_rounding():
    res = page_average(2, 10, 0.4, 0.333)
    assert res.realized_r == pytest.approx(0.3)
    same = page_average(2, 10, 0.4, 0.3)
    assert res.value == same.value


def test_monte_carlo_oracle_all_alphas():
    n, s, r, n_samples = 40, 0.5, 0.5, 800
    k = round(n * r)
    alphas = (2, 3, 5, 15)
    sums = {a: [] for a in alphas}
    vns = []
    for idx in range(n_samples):
        U = haar_unitary(n, master_seed=2718, sample_index=idx)
        nu = symplectic_eigenvalues(reduced_covariance_equal(U, s, k))
        vns.append(renyi_entropy(nu, 1))
        for a in alphas:
            sums[a].append(renyi_entropy(nu, a))
    vns = np.array(vns)
    pred = page_average(1, n, s, r, tol=1e-3)
    assert abs(vns.mean() - pred.value) <= 3 * vns.std(ddof=1) / np.sqrt(n_samples)
    for a in alphas:
        vals = np.array(sums[a])
        pred = page_average(a, n, s, r, tol=1e-10)
        assert abs(vals.mean() - pred.value) <= 3 * vals.std(ddof=1) / np.sqrt(n_samples)


def test_analytic_ordering_in_alpha():
    for s, r in [(0.3, 0.2), (0.3, 0.5), (0.8, 0.2), (0.8, 0.5)]:
        values = [page_average(1, 200, s, r).value] + [
            page_average(a, 200, s, r).value for a in (2, 3, 5, 15)
        ]
        assert all(x >= y for x, y in zip(values, values[1:]))


def test_asymptotic_per_mode_consistency():
    # the finite-n deficit against the asymptotic curve is the H correction,
    # which scales like 1/n
    s, r = 0.5, 0.3
    asym = page_average(2, ASYMPTOTIC, s, r, tol=1e-10).value
    d400 = asym - page_average(2, 400, s, r, tol=1e-8).value / 400
    d800 = asym - page_average(2, 800, s, r, tol=1e-8).value / 800
    assert d400 > 0 and d800 > 0
    assert d400 / d800 == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize("alpha", [1, 2, 3, 15])
def test_quadrature_matches_series_oracle(alpha):
    # Wherever the series meets its bound, the quadrature agrees with it
    # within the two error estimates.
    def check(s, r, n, tol):
        oracle = series_average(alpha, n, s, r, tol)
        if oracle is None:
            return 0
        res = page_average(alpha, n, s, r, tol)
        assert res.trunc_err <= tol
        slack = oracle[1] + res.trunc_err + 1e-12 * abs(res.value)
        assert abs(res.value - oracle[0]) <= slack, (s, r, n)
        return 1

    compared = sum(check(s, r, n, 1e-6)
                   for s in (0.05, 0.5, 1.0, 2.0, 3.0)
                   for r in (0.05, 0.3, 0.5, 0.7, 0.95)
                   for n in (100, 400, ASYMPTOTIC))
    assert compared >= 60
    if alpha > 1:
        assert sum(check(s, r, n, 1e-10)
                   for s in (0.05, 0.5, 1.0, 1.5)
                   for r in (0.1, 0.5)
                   for n in (100, 400, ASYMPTOTIC)) == 24


@pytest.mark.parametrize("s", [1.5, 3.0])
def test_strong_squeezing_matches_monte_carlo(s):
    # The regime the series could not reach: r = 1/2 at s >= 1.5. The formula
    # drops finite-n corrections that grow with s: at s = 3 the Monte-Carlo
    # mean lies 0.38, 0.30, 0.18 and 0.08 nats above it at n = 50, 100, 200
    # and 400 (about 0.1 % at n = 100), hence the 0.2 % allowance.
    n, r, n_samples = 100, 0.5, 200
    plan = ExperimentPlan.from_ratio(n=n, r=r, squeezing=s, alphas=(1, 2, 3),
                                     n_samples=n_samples, master_seed=5150 + round(s))
    _, summary = run_experiment(plan)
    for alpha in (1, 2, 3):
        pred = page_average(alpha, n, s, r, tol=1e-6).value
        stats = summary.per_alpha[alpha]
        assert abs(stats.mean - pred) <= 3 * stats.stderr + 2e-3 * pred, alpha


def test_strong_squeezing_approaches_large_s_law():
    # value / (s n) -> 2 min(r, 1-r) from below, with O(1/s) deviations.
    n, r = 100, 0.5
    for alpha in (1, 2, 3):
        devs = {s: page_limit(alpha, "large", r)[0] - page_average(alpha, n, s, r).value / (s * n)
                for s in (3.0, 5.0)}
        assert all(0 < dev <= 1.0 / s for s, dev in devs.items())
        assert devs[5.0] < devs[3.0]


def test_vn_below_old_gate_follows_small_s_law():
    # value / (n s^2 ln(1/s^2)) decreases toward r(1-r) as s -> 0.
    n, r = 200, 0.5
    ratios = [page_average(1, n, s, r, tol=1e-9).value / (n * s * s * math.log(1 / s**2))
              for s in (0.01, 0.005, 0.001)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > page_limit(1, "small", r)[0]


def test_tol_below_float64_resolution_raises():
    loose = page_average(1, 400, 3.0, 0.5, tol=1e-3)
    tight = page_average(1, 400, 3.0, 0.5, tol=1e-8)
    assert tight.nodes > loose.nodes and tight.trunc_err <= 1e-8
    assert abs(tight.value - loose.value) <= loose.trunc_err
    with pytest.raises(ValueError, match="float64 resolution"):
        page_average(1, 400, 3.0, 0.5, tol=1e-13)


def test_limit_values():
    assert page_limit(1, "small", 0.5)[0] == 0.25
    assert page_limit(1, "small", 0.0)[0] == 0.0
    assert page_limit(1, "large", 0.5)[0] == 1.0
    assert page_limit(1, "large", 0.25)[0] == 0.5
    assert page_limit(2, "small", 0.5)[0] == 0.5
    assert page_limit(3, "small", 0.5)[0] == pytest.approx(0.375)
    assert page_limit(7, "large", 0.3)[0] == pytest.approx(0.6)
    # small-s limit decreases toward r(1-r) as alpha grows
    vals = [page_limit(a, "small", 0.5)[0] for a in (2, 3, 5, 15, 100)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(0.25, rel=0.02)


def test_renyi_small_s_series_consistency_spot():
    res = page_average(2, 400, 0.05, 0.5, tol=1e-10)
    scaled = res.value / (400 * 0.05**2)
    assert scaled == pytest.approx(page_limit(2, "small", 0.5)[0], rel=0.05)


def test_unequal_small_formula():
    svec = np.full(20, 0.03)
    total = renyi_unequal_small(4, 0.5, svec)
    equal_form = 20 * 0.03**2 * page_limit(4, "small", 0.5)[0]
    assert total == pytest.approx(equal_form, rel=1e-12)
    assert renyi_unequal_small(2, 0.5, np.zeros(5)) == 0.0


def test_unequal_small_monte_carlo_quick():
    rng = np.random.default_rng(60)
    n, k, n_samples = 40, 20, 600
    svec = tuple(rng.uniform(0.0, 0.05, n))
    from gbs_page import ExperimentPlan, run_experiment

    plan = ExperimentPlan(
        n=n, k=k, squeezing=svec, alphas=(2,), n_samples=n_samples, master_seed=606
    )
    _, summary = run_experiment(plan)
    pred = renyi_unequal_small(2, 0.5, svec)
    assert abs(summary.per_alpha[2].mean - pred) <= 0.10 * pred


def test_page_limit_reproduces_the_four_laws():
    for r in np.linspace(0.0, 1.0, 21):
        r = float(r)
        assert page_limit(1, "small", r) == (r * (1.0 - r), "s^2 log(1/s^2) n")
        assert page_limit(1, "large", r) == (2.0 * min(r, 1.0 - r), "s n")
        for alpha in (2, 3, 15):
            small = alpha / (alpha - 1.0) * r * (1.0 - r)
            assert page_limit(alpha, "small", r) == (small, "s^2 n")
            assert page_limit(alpha, "large", r) == (2.0 * min(r, 1.0 - r), "s n")
    for bad in ((0, "large", 0.5), (2, "medium", 0.5), (2, "small", 1.5), (True, "small", 0.5)):
        with pytest.raises(ValueError):
            page_limit(*bad)


def test_validation():
    # Order 1 is the von Neumann average, to the bit (the values of the
    # former von_neumann_average), under any integral spelling of 1.
    for one in (1, 1.0, np.int64(1)):
        assert page_average(one, 100, 0.5, 0.5).value == 19.587968386724377
        assert page_average(one, ASYMPTOTIC, 1.5, 0.3).value == 0.7186807897261933
    for n in (True, float("inf"), float("nan"), 10.5, 0):
        with pytest.raises(ValueError, match="mode count"):
            page_average(2, n, 0.5, 0.5)
    for alpha in (np.True_, True, 0, 2.5):
        with pytest.raises(ValueError, match="Renyi order"):
            page_average(alpha, 10, 0.5, 0.5)
    with pytest.raises(ValueError, match="Renyi order must be >= 2"):
        renyi_unequal_small(1, 0.5, [0.1])
    with pytest.raises(ValueError):
        page_average(2, 100, 0.5, 1.2)
    with pytest.raises(ValueError):
        page_average(2, 100, 0.5, 0.5, tol=0.0)
    with pytest.raises(ValueError):
        page_average(2, 0, 0.5, 0.5)
    with pytest.raises(ValueError):
        renyi_unequal_small(3, 0.5, [0.1, np.inf])


def test_unequal_small_needs_a_squeezing_vector():
    with pytest.raises(ValueError, match="squeezing vector is empty"):
        renyi_unequal_small(2, 0.5, [])
