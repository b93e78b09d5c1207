import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from oracles import (
    MAX_NODES,
    haar_unitary,
    page_average_mpmath,
    page_average_shift_logs,
    page_average_two_pass,
    page_variance_dct,
    page_variance_full,
    realized_ratio,
    reduced_covariance_equal,
    trW_moments,
)
from series_oracle import (
    expected_trW,
    series_average,
    vn_series_coefficients,
    vn_series_constant,
)

from gbs_page import (
    ASYMPTOTIC,
    ExperimentPlan,
    PageCurveValue,
    entropy,
    page_average,
    page_limit,
    page_variance,
    pagecurve,
    renyi_entropy,
    renyi_unequal_small,
    run_experiment,
    symplectic_eigenvalues,
)
from gbs_page.entropy import _FLOAT_MAX, _squeezing_limit, _von_neumann_count


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


def _vn_coefficients_loop(count, s):
    """The von Neumann coefficient recurrence one step at a time."""
    t = np.tanh(2.0 * s) ** 2
    itil = t * np.cosh(2.0 * s) * np.log(1.0 / np.tanh(s))
    cs = np.empty(count)
    for j in range(count):
        idx = j + 1
        itil_next = t * (1.0 + (2 * idx - 1) * itil) / (2 * idx)
        cs[j] = 1.0 / (2 * idx) + itil - itil_next / t
        itil = itil_next
    return cs


@pytest.mark.parametrize("s", [0.01, 0.05, 0.3, 1.0, 3.0, 10.0])
def test_vn_coefficients_chunked_recurrence_matches_loop(s):
    # Counts below, at and across the chunk boundaries of every s here.
    for count in (1, 2, 7, 300, 5000):
        loop = _vn_coefficients_loop(count, s)
        chunked = vn_series_coefficients(count, s)
        assert np.abs(chunked - loop).max() <= 4 * np.finfo(float).eps


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


def test_strong_squeezing_steps_add_the_large_s_law():
    # Per mode at r = 1/2 each mode's entropy is ln(nu) plus an s-free
    # constant up to O(e^{-4s}), so each step in s adds 2 min(r, 1-r) ds.
    r = 0.5
    for alpha in (1, 2, 3):
        values = {s: page_average(alpha, ASYMPTOTIC, s, r).value for s in (20.0, 50.0, 100.0)}
        slope = page_limit(alpha, "large", r)[0]
        assert abs(values[50.0] - values[20.0] - 30.0 * slope) <= 1e-9
        assert abs(values[100.0] - values[50.0] - 50.0 * slope) <= 1e-9


def test_squeezing_beyond_float64_range_is_named():
    # The sums take only the shift roots sinh(2s) a_j, finite up to |s| = 355.24
    # at orders >= 2 and 345.58 at order 1 (last root sinh(2s) cosh 20); there
    # the strong law still holds. Beyond, the refusal names the limit, also at
    # an empty side.
    for alpha, near, limit, beyond in ((2, 355.2, "355.24", (355.3, -356.0, 400.0)),
                                       (1, 345.5, "345.58", (345.6, -350.0, 355.0))):
        value = page_average(alpha, ASYMPTOTIC, near, 0.5).value
        assert abs(value - page_average(alpha, ASYMPTOTIC, 100.0, 0.5).value
                   - (near - 100.0)) <= 1e-9
        for s in beyond:
            for r in (0.5, 0.0):
                with pytest.raises(ValueError, match=rf"above \|s\| = {limit}$"):
                    page_average(alpha, 400, s, r)


@pytest.mark.parametrize("alpha", [1, 2, 15, 50])
def test_answers_up_to_the_float64_range_of_its_roots(alpha):
    # At the limit and the float below it the roots are finite (a warning
    # would fail the test) and the value lies on the strong-squeezing law
    # 2 rq s n; at the next float they overflow, and s is refused. Orders 2
    # and 15 sum in Python floats, 50 and 1 in numpy.
    limit = _squeezing_limit(1, alpha == 1)
    for s in (limit, float(np.nextafter(limit, 0.0)), -limit):
        res = page_average(alpha, 400, s, 0.3)
        assert res.value / (2 * 0.3 * abs(s) * 400) == pytest.approx(1.0, abs=3e-3)
    beyond = float(np.nextafter(limit, np.inf))
    try:
        largest_root = math.sinh(2.0 * beyond) * (math.cosh(20.0) if alpha == 1 else 1.0)
    except OverflowError:
        largest_root = math.inf
    assert largest_root == math.inf
    with pytest.raises(ValueError, match=rf"above \|s\| = {limit:.2f}$"):
        page_average(alpha, 400, beyond, 0.3)


def test_matches_mpmath_beyond_the_monte_carlo_range():
    # s = 300: c = sinh^2(2s) overflows, its square root does not.
    for alpha in (1, 2):
        res = page_average(alpha, 400, 300.0, 0.3)
        exact = page_average_mpmath(alpha, 400, 300.0, 0.3, dps=20)
        assert abs(res.value - exact) <= min(res.trunc_err, 1e-13 * abs(exact))


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
    assert tight.trunc_err <= 1e-8
    assert abs(tight.value - loose.value) <= loose.trunc_err
    with pytest.raises(ValueError, match="float64 resolution"):
        page_average(1, 400, 3.0, 0.5, tol=1e-13)
    # The error bound itself is a tolerance the value meets.
    assert page_average(1, 400, 3.0, 0.5, tol=tight.trunc_err) == tight


def test_unsettled_quadrature_is_not_called_a_resolution_limit():
    # von Neumann at r = 1/2 and s = 10: the quadrature's last change is 0.0018
    # on a value of 1.9e4, whose float64 spacing is 3.6e-12, so the default
    # tolerance is far above resolution; the quadrature has not settled. The
    # closed form has no rule to settle and meets the tolerance there.
    with pytest.raises(ValueError) as info:
        page_average_two_pass(1, 2000, 10, 0.5)
    message = str(info.value)
    assert f"did not settle within {MAX_NODES} nodes" in message
    assert "resolution" not in message
    assert page_average(1, 2000, 10, 0.5).trunc_err <= 1e-3


def _agrees(res, oracle):
    """Within the quadrature's error estimate, at the same realized ratio."""
    slack = oracle.trunc_err + 1e-12 * abs(res.value)
    return abs(res.value - oracle.value) <= slack and res.realized_r == oracle.realized_r


def test_single_pass_matches_two_pass_oracle_on_sweep():
    # A sub-grid of the benchmark's analytic sweep, s = 0.15, 0.30, ..., 3.0
    # and r = 0.1, 0.2, ..., 0.9: the closed form within the error of the
    # theta quadrature, which settles there at 64 or 128 nodes.
    s_grid = [round(0.05 + i * 0.05, 12) for i in range(2, 60, 3)]
    r_grid = [round(0.05 + i * 0.05, 12) for i in range(1, 19, 2)]
    for alpha in (1, 2, 3, 15):
        for s in s_grid:
            for r in r_grid:
                for n in (100, 400, ASYMPTOTIC):
                    res = page_average(alpha, n, s, r)
                    oracle = page_average_two_pass(alpha, n, s, r)
                    assert _agrees(res, oracle) and oracle.nodes in (64, 128), (alpha, n, s, r)


# The third entry is the node count at which the quadrature settles.
@pytest.mark.parametrize("args, kwargs, oracle_nodes", [
    ((1, 100, 2.95, 0.5), {}, 128),
    ((15, 400, 2.85, 0.5), {}, 128),
    ((1, 400, 5, 0.5), {}, 256),
    ((2, 400, 10, 0.5), {}, 1024),
    ((1, 400, 3, 0.5), {"tol": 1e-8}, 1024),
    ((1, 100, 0.0, 0.5), {}, 0),
    ((3, ASYMPTOTIC, 0.0, 0.3), {}, 0),
    ((2, 100, 0.5, 0.0), {}, 0),
    ((1, 100, 1e-200, 0.5), {}, 64),
    # r n = n/2: the gap g is 0, and nu = 1 at the end l = c.
    *(((alpha, n, 1.0, 0.5), {}, 64) for alpha in (1, 2, 15) for n in (100, 400, ASYMPTOTIC)),
    # sinh^2(2s) underflows: every shift is 0.
    ((2, 400, 1e-200, 0.3), {}, 64),
    ((15, ASYMPTOTIC, 1e-200, 0.5), {}, 64),
    # nu^2 = 1 + 4e-16 (1 - l): within a few floats of 1 (one above it at
    # the end l = c), so the quadrature, which takes f of nu, loses the value.
    ((2, 400, 1e-8, 0.005), {}, 64),
    ((1, 400, 1e-8, 0.005), {}, 64),
    # Within 1 of the float64 range of sinh^2(2s).
    ((2, ASYMPTOTIC, 177.7, 0.5), {}, 64),
    ((1, 400, 177.7, 0.3), {}, 64),
    ((3, 100, -177.7, 0.5), {}, 512),
])
def test_single_pass_matches_two_pass_oracle_at_edges(args, kwargs, oracle_nodes):
    res = page_average(*args, **kwargs)
    oracle = page_average_two_pass(*args, **kwargs)
    assert oracle.nodes == oracle_nodes
    if args[2] != 1e-8:
        assert _agrees(res, oracle)
    else:  # the quadrature gives 0.0 at order 2 and 11 % too much at order 1
        exact = page_average_mpmath(*args)
        assert abs(res.value - exact) <= min(res.trunc_err, 1e-13 * abs(exact))


@pytest.mark.parametrize("args, kwargs", [
    ((3, 10000, 6, 0.5), {}),
    ((1, 2000, 10, 0.5), {}),
    ((2, 400, 0.5, 0.3), {"tol": 1e-16}),
    ((1, 400, 177.8, 0.5), {}),
    ((1, 10000, 10, 0.5), {}),
    ((1, 400, 345.6, 0.5), {}),
    ((2, 100, -400.0, 0.3), {}),
])
def test_refusals_match_two_pass_oracle(args, kwargs):
    # A refusal at a float64 limit stands, for the same cause. Where the
    # quadrature did not settle (r = 1/2 under strong squeezing: nu -> 1 in a
    # layer of width about 2/sinh(2s), which Gauss-Legendre nodes in theta do
    # not reach), or its sinh^2(2s) overflows (from |s| = 177.79) within the
    # range of the closed form's roots sinh(2s) a_j, the closed form answers
    # at the mpmath value.
    with pytest.raises(ValueError) as old:
        page_average_two_pass(*args, **kwargs)
    alpha, _, s, _ = args
    within = abs(s) <= _squeezing_limit(1, alpha == 1)
    if "did not settle" in str(old.value) or ("float64 range" in str(old.value) and within):
        res = page_average(*args, **kwargs)
        exact = page_average_mpmath(*args)
        assert abs(res.value - exact) <= min(res.trunc_err, 1e-13 * abs(exact))
        return
    with pytest.raises(ValueError) as new:
        page_average(*args, **kwargs)
    if "float64 range" in str(old.value):
        assert "float64 range" in str(new.value)
    else:
        assert "float64 resolution" in str(old.value) and "float64 resolution" in str(new.value)


def _outcomes(cells):
    """page_average of each (args, kwargs) cell, or its refusal message."""
    out = []
    for args, kwargs in cells:
        try:
            out.append(page_average(*args, **kwargs))
        except ValueError as exc:
            out.append(str(exc))
    return out


# Orders whose rules page_average sums in Python floats: alpha // 2 shifts.
FLOAT_ORDERS = range(2, 2 * entropy._FLOAT_SHIFTS + 2)

# The ends of the strength range (s = +-355.2, and 355.3 beyond it), shifts
# that underflow (1e-200) or put nu within a few floats of 1 (1e-8), r = 1/2
# (g = 0) and small r, odd n, n up to 10^4 and the per-mode curve, and
# tolerances below the value's resolution.
FLOAT_EDGE_CELLS = [
    ((n, s, r), kwargs)
    for s in (355.2, -355.2, 1e-200, 1e-8, 10.0)
    for r in (0.005, 0.5)
    for n in (101, 400, 10000, ASYMPTOTIC)
    for kwargs in ({}, {"tol": 1e-16})
] + [((400, 355.3, 0.5), {}), ((10000, 6.0, 0.5), {"tol": 1e-9})]


@pytest.fixture
def memo():
    """The per-mode sums memo, empty at the start and at the end of the test."""
    pagecurve._cell_terms.cache_clear()
    yield pagecurve._cell_terms
    pagecurve._cell_terms.cache_clear()


def _memo_key(alpha, n, s, r):
    """The memo key of a cell that reaches the sums, else None."""
    rq = realized_ratio(n, r)[1]
    if abs(s) > _squeezing_limit(1, alpha == 1) or s == 0 or rq == 0:
        return None
    return alpha, abs(math.sinh(2.0 * s)), rq


def test_float_terms_match_array_terms(monkeypatch, memo):
    # Every order whose rule is at most _FLOAT_SHIFTS long takes the float
    # evaluator (the numpy one raises here); rules built with the bound at 0
    # keep no float pairs, and go through numpy. Values agree within 0.1
    # trunc_err, refusals to the letter. The memo is emptied before each
    # pass, so the numpy pass evaluates every distinct key once instead of
    # reading the float pass's sums, and the rule cache before and after the
    # numpy pass, so that no rule without its pairs outlives it.
    assert len(entropy._order_rule(FLOAT_ORDERS[-1], 1.0).pairs) == entropy._FLOAT_SHIFTS
    assert len(entropy._order_rule(FLOAT_ORDERS[-1] + 1, 1.0).weights) > entropy._FLOAT_SHIFTS
    s_grid = [round(0.05 + i * 0.05, 12) for i in range(2, 60, 3)]
    r_grid = [round(0.05 + i * 0.05, 12) for i in range(1, 19, 2)]
    sweep = [((n, s, r), {}) for s in s_grid for r in r_grid for n in (100, 101, 400, ASYMPTOTIC)]
    cells = [((alpha, *args), kwargs) for alpha in FLOAT_ORDERS
             for args, kwargs in sweep + FLOAT_EDGE_CELLS]
    keys = {_memo_key(*args) for args, _ in cells} - {None}

    def no_arrays(*args):
        raise AssertionError("a short rule reached the numpy evaluator")

    array_terms = pagecurve._array_terms
    calls = []

    def counted_arrays(*args):
        calls.append(args)
        return array_terms(*args)

    with monkeypatch.context() as patch:
        patch.setattr(pagecurve, "_array_terms", no_arrays)
        floats = _outcomes(cells)
    memo.cache_clear()
    entropy._rule.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(pagecurve, "_array_terms", counted_arrays)
            patch.setattr(entropy, "_FLOAT_SHIFTS", 0)
            arrays = _outcomes(cells)
    finally:
        entropy._rule.cache_clear()
    assert len(calls) == len(keys)
    refused = 0
    for cell, new, old in zip(cells, floats, arrays):
        if isinstance(old, str):
            refused += 1
            assert new == old, cell
            continue
        assert abs(new.value - old.value) <= 0.1 * old.trunc_err, cell
        assert new.trunc_err == pytest.approx(old.trunc_err, rel=1e-12, abs=0.0), cell
        assert (new.nodes, new.realized_r) == (old.nodes, old.realized_r) == (0, old.realized_r)
    assert refused >= 2 * len(FLOAT_ORDERS)


# The benchmark's sweep grid, and edge cells: weak squeezing down to shifts
# that underflow, the branch change at sinh(2s) a_1 = 1 (0.4407 at order 1),
# both ends of the strength range and beyond them, both signs, the ends of r
# and small sides, odd and single-mode n, and a tolerance at the resolution.
SWEEP_CELLS = [((alpha, n, round(0.05 + i * 0.05, 12), round(0.05 + j * 0.05, 12)), {})
               for alpha in (1, 2, 3, 15) for i in range(60) for j in range(19)
               for n in (100, 400, ASYMPTOTIC)]
EDGE_S = (1e-200, 1e-160, 1e-20, 1e-8, 1e-5, 0.05, 0.44, 0.4407, 0.5, 1.0, 3.0, 10.0, 177.7,
          345.58, 345.6, 355.2, 355.3)
EDGE_CELLS = [((alpha, n, sign * s, r), kwargs)
              for alpha in (1, 2, 3, 15, 49, 50, 2000) for s in EDGE_S for sign in (1, -1)
              for r in (0.0, 0.005, 0.3, 0.5, 0.7, 0.995, 1.0)
              for n in (1, 100, 101, 400, 2000, ASYMPTOTIC)
              for kwargs in (({}, {"tol": 1e-12}) if r == 0.3 else ({},))]
# Each parameter in another type, or out of its range, the others valid: the
# readers convert or refuse it as they did before the fast paths past them.
_OTHER_VALUES = {
    0: (True, 0, -1, 1.0, 1.5, np.int64(1), np.int64(15), "2", None),
    1: (True, 0, 10.5, 100.0, np.int64(101), float("inf"), float("nan"), 10**400, "100"),
    2: (0, 1, np.float64(0.5), -0.0, float("nan"), float("inf"), 345.6, 355.3, "0.5", None),
    3: (0, 1, np.float64(0.3), -0.1, 1.1, float("nan"), "0.3", None),
    4: (1, np.float64(1e-3), 0.0, -1e-3, float("nan"), float("inf"), 1e-16, "x", None),
}
TYPE_CELLS = [((*base[:i], value, *base[i + 1:]), {})
              for base in ((1, 100, 0.5, 0.3, 1e-3), (15, ASYMPTOTIC, 0.5, 0.3, 1e-3))
              for i, values in _OTHER_VALUES.items() for value in values]


def test_node_constants_match_the_shift_logs_oracle(memo):
    # The evaluators before the rule's node constants (tests/oracles.py): rules
    # summed in Python floats (orders 2 to 49) give the same bits, rules
    # summed in numpy (order 1, orders >= 50) agree within 0.05 trunc_err,
    # and every refusal has the same message.
    cells = SWEEP_CELLS + EDGE_CELLS + TYPE_CELLS
    new = _outcomes(cells)
    old = []
    for args, kwargs in cells:
        try:
            old.append(page_average_shift_logs(*args, **kwargs))
        except ValueError as exc:
            old.append(str(exc))
    refused = 0
    for (args, _), a, b in zip(cells, new, old):
        if isinstance(b, str) or 2 <= int(args[0]) <= 49:
            refused += isinstance(b, str)
            assert a == b, args
            continue
        assert abs(a.value - b.value) <= 0.05 * b.trunc_err, args
        assert a.trunc_err == pytest.approx(b.trunc_err, rel=1e-12, abs=0.0), args
        assert (a.nodes, a.realized_r) == (b.nodes, b.realized_r), args
    assert refused > 1000


def test_memo_answers_as_a_fresh_evaluation(memo):
    # r and 1 - r, n of equal and of odd reduced ratios, s and -s, and orders
    # on both sides of each evaluator's bound: every field equals the one
    # computed with the memo emptied first.
    cells = [(alpha, n, sign * s, r) for alpha in (1, 2, 3, 15, 49, 50)
             for s in (1e-8, 0.05, 0.5, 3.0, 177.7) for sign in (1, -1)
             for r in (0.005, 0.3, 0.5, 0.7, 0.995) for n in (100, 101, 400, ASYMPTOTIC)]
    fresh = []
    for cell in cells:
        memo.cache_clear()
        fresh.append(page_average(*cell))
    memo.cache_clear()
    stored = [page_average(*cell) for cell in cells]
    assert stored == fresh
    keys = [key for key in (_memo_key(*cell) for cell in cells) if key is not None]
    info = memo.cache_info()
    assert info.misses == len(set(keys))
    assert info.hits == len(keys) - info.misses > len(keys) // 2


def test_memo_shares_mirrored_and_resized_cells(memo):
    for alpha in (1, 2, 15, 50):
        memo.cache_clear()
        small = page_average(alpha, 100, 0.5, 0.3)
        large = page_average(alpha, 400, 0.5, 0.7)
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        # the same sums, scaled by n: n per_mode - edge / 4
        per_mode, edge, nodes = memo(alpha, abs(math.sinh(1.0)), 0.3)
        assert small.value == 100.0 * per_mode - 0.25 * edge
        assert large.value == 400.0 * per_mode - 0.25 * edge
        assert small.nodes == large.nodes == nodes


def test_memo_stores_no_refusal(memo):
    # Refused before the sums: no entry, and the same error again.
    for args in [(1, 400, 345.6, 0.5), (2, 100, -400.0, 0.3), (2, 100, 400.0, 0.0),
                 (0, 100, 0.5, 0.3),
                 (2.5, 100, 0.5, 0.3), (2, 100, 0.5, 1.5), (2, 100, 0.5, None)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                page_average(*args)
    assert memo.cache_info().currsize == 0
    # A tolerance refusal is decided on each call from the sums, which hold
    # for any tolerance: the refusal repeats, and the sums answer a larger one.
    for _ in range(2):
        with pytest.raises(ValueError, match="float64 resolution"):
            page_average(2, 400, 0.5, 0.3, tol=1e-16)
    info = memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    answered = page_average(2, 400, 0.5, 0.3)
    memo.cache_clear()
    assert answered == page_average(2, 400, 0.5, 0.3)


def test_memo_bound_is_fixed():
    assert pagecurve._cell_terms.cache_info().maxsize == pagecurve._MEMO_SIZE == 1 << 14


@pytest.mark.parametrize("alpha", [1, 2, 50])
def test_asymptotic_error_bound_excludes_the_edge_term(alpha, memo):
    # The memo always holds the edge sum; the per-mode curve leaves it out
    # of its value and of its trunc_err, a finite n takes it into both.
    per_mode, edge, _ = memo(alpha, abs(math.sinh(1.0)), 0.3)
    assert edge > 0
    curve = page_average(alpha, ASYMPTOTIC, 0.5, 0.3)
    assert (curve.value, curve.trunc_err) == (per_mode, pagecurve.ROUNDING * per_mode)
    finite = page_average(alpha, 100, 0.5, 0.3)
    assert finite.trunc_err == pagecurve.ROUNDING * (100.0 * per_mode + 0.25 * edge)


@pytest.mark.parametrize("alpha", [FLOAT_ORDERS[-2], FLOAT_ORDERS[-1]])
def test_longest_float_rules_match_mpmath_integral(alpha):
    for n, s, r in [(401, 0.05, 0.5), (2000, 1.0, 0.3), (ASYMPTOTIC, 30.0, 0.5)]:
        res = page_average(alpha, n, s, r)
        exact = page_average_mpmath(alpha, n, s, r, dps=20)
        err = abs(res.value - exact)
        assert err <= min(res.trunc_err, 1e-13 * abs(exact)), (n, s, r)


# Both ends of the strength range and of the spectral law: weak and strong
# squeezing, r = 1/2 (gap g = 1 - 2 rq = 0, where nu -> 1 at the edge of the
# law), k = n/2 +- 1 (g = 2/n), odd n and small r.
MPMATH_CELLS = [
    (400, 1e-5, 0.45), (401, 0.05, 0.5), (2000, 1.0, 0.3), (ASYMPTOTIC, 3.0, 0.05),
    (10000, 10.0, 0.5001), (ASYMPTOTIC, 30.0, 0.5), (401, 30.0, 201 / 401),
]


@pytest.mark.parametrize("alpha", [1, 2, 3, 15])
def test_matches_mpmath_integral(alpha):
    for n, s, r in MPMATH_CELLS:
        res = page_average(alpha, n, s, r)
        exact = page_average_mpmath(alpha, n, s, r, dps=20)
        err = abs(res.value - exact)
        assert err <= res.trunc_err and err <= 1e-13 * abs(exact), (n, s, r)


def test_order_one_answers_where_its_shifts_overflow():
    # (sinh(2s) cosh t)^2 overflows from |s| = 168.14, sinh^2(2s) only from
    # 177.79; per mode at r = 1/2 each step in s adds 2 min(r, 1-r) ds.
    values = {s: page_average(1, ASYMPTOTIC, s, 0.5).value for s in (100.0, 170.0, 177.7)}
    assert abs(values[170.0] - values[100.0] - 70.0) <= 1e-9
    assert abs(values[177.7] - values[100.0] - 77.7) <= 1e-9
    assert page_average(1, 400, -177.7, 0.3) == page_average(1, 400, 177.7, 0.3)


def test_nodes_count_the_order_one_rule():
    for s in (1e-5, 0.05, 0.5, 3.0):
        assert page_average(1, 400, s, 0.3).nodes == _von_neumann_count(math.sinh(2 * s) ** 2)
        assert all(page_average(alpha, 400, s, 0.3).nodes == 0 for alpha in (2, 3, 15))
    assert page_average(1, 400, 0.5, 0.3).nodes == 81
    assert page_average(1, 400, 0.0, 0.3).nodes == 0


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


def test_unequal_small_law_is_the_page_limit_coefficient():
    # One copy of the weak-squeezing coefficient: page_limit's, which gives
    # alpha/(alpha-1) r (1-r) sum s_i^2 to the bit.
    svec = [0.01, -0.02, 0.03, 0.005]
    total = float(np.sum(np.square(svec)))
    for alpha in (2, 3, 4, 7, 15, 50):
        for r in np.linspace(0.0, 1.0, 23):
            r = float(r)
            value = renyi_unequal_small(alpha, r, svec)
            assert value == page_limit(alpha, "small", r)[0] * total
            assert value == alpha / (alpha - 1.0) * r * (1.0 - r) * total


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


def test_a_mode_count_beyond_float64_is_refused():
    # k = round(r n) needs r n as a float64: an n beyond the largest float64
    # is named by its bit length (the digits of 10**5000 once exceeded
    # Python's int-to-str limit), and the largest answers.
    top = int(_FLOAT_MAX)
    for n in (top + 1, 10**400, 10**5000):
        with pytest.raises(ValueError, match=rf"^mode count n of {n.bit_length()} bits is "
                                             r"beyond float64"):
            page_average(2, n, 0.5, 0.5)
    for n in (10**308, top):
        assert page_average(2, n, 0.5, 0.5, tol=1e300).realized_r == 0.5


def test_an_average_beyond_float64_is_named():
    # n times the per-mode value overflows before the tolerance is compared:
    # this once read "tolerance 1e+300 is below the float64 resolution".
    top = int(_FLOAT_MAX)
    for alpha in (1, 2):  # numpy sums and Python floats; a warning fails the test
        with pytest.raises(ValueError, match=r"^the average at n = 1\.79769e\+308 is beyond "
                                             r"float64: n times its per-mode value"):
            page_average(alpha, top, 3.0, 0.5, tol=1e300)
    assert page_average(2, top, 0.5, 0.5, tol=1e300).value == pytest.approx(2.16e307, rel=1e-3)


def test_validation():
    # Order 1 is the von Neumann average, to the bit, under any integral
    # spelling of 1 (the 50-digit integrals are 19.58796838711631644 and
    # 0.7186807897261933667: the pinned values are 7.6e-15 below the first
    # and 5.9e-17 above the second).
    for one in (1, 1.0, np.int64(1)):
        assert page_average(one, 100, 0.5, 0.5).value == 19.58796838711631
        assert page_average(one, ASYMPTOTIC, 1.5, 0.3).value == 0.7186807897261934
    for n in (True, float("inf"), float("nan"), 10.5, 0):
        with pytest.raises(ValueError, match="mode count"):
            page_average(2, n, 0.5, 0.5)
    for alpha in (np.True_, True, 0, 2.5):
        with pytest.raises(ValueError, match="Renyi order"):
            page_average(alpha, 10, 0.5, 0.5)
    with pytest.raises(ValueError, match="Renyi order must be >= 2"):
        renyi_unequal_small(1, 0.5, [0.1])
    # The squeezing strength is read through float(), like r and tol.
    assert page_average(1, 100, "0.5", 0.5) == page_average(1, 100, 0.5, 0.5)
    for s in (None, "x", [0.5, 0.5]):
        with pytest.raises(ValueError, match="squeezing strength must be a real number"):
            page_average(1, 100, s, 0.5)
    for s in (float("nan"), "inf"):
        with pytest.raises(ValueError, match="squeezing strength must be finite"):
            page_average(1, 100, s, 0.5)
    # So are r and tol, and each names itself when float() cannot read it.
    assert page_average(1, 100, 0.5, "0.5", "1e-3") == page_average(1, 100, 0.5, 0.5)
    assert page_average(1, 100, 0.5, np.float64(0.3)) == page_average(1, 100, 0.5, 0.3)
    for r in (None, "x", [0.5, 0.5]):
        with pytest.raises(ValueError, match="partition ratio must be a real number"):
            page_average(1, 100, 0.5, r)
        with pytest.raises(ValueError, match="partition ratio must be a real number"):
            page_limit(2, "small", r)
    for r in (1.2, -0.1, float("inf"), float("nan"), "nan"):
        with pytest.raises(ValueError, match=r"partition ratio must lie in \[0, 1\]"):
            page_average(2, 100, 0.5, r)
    for tol in (None, "x", [1e-3]):
        with pytest.raises(ValueError, match="tolerance must be a real number"):
            page_average(1, 100, 0.5, 0.5, tol)
    for tol in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            page_average(2, 100, 0.5, 0.5, tol=tol)
    with pytest.raises(ValueError):
        page_average(2, 0, 0.5, 0.5)
    with pytest.raises(ValueError):
        renyi_unequal_small(3, 0.5, [0.1, np.inf])


def test_unequal_small_needs_a_squeezing_vector():
    with pytest.raises(ValueError, match="squeezing vector is empty"):
        renyi_unequal_small(2, 0.5, [])
    with pytest.raises(ValueError, match="squeezing vector must be one-dimensional"):
        renyi_unequal_small(2, 0.5, [[0.1, 0.2], [0.1, 0.1]])
    assert renyi_unequal_small(2, 0.5, 0.1) == renyi_unequal_small(2, 0.5, [0.1])


def test_page_curve_value_is_a_read_only_tuple():
    value = page_average(2, 100, 0.5, 0.3)
    assert tuple(value) == (value.value, value.nodes, value.trunc_err, value.realized_r)
    with pytest.raises(AttributeError):
        value.value = 0.0
    # The oracles build it positionally.
    oracle = page_average_two_pass(2, 100, 0.5, 0.3)
    assert type(oracle) is PageCurveValue and oracle.nodes > 0
    assert page_average_two_pass(2, ASYMPTOTIC, 0.0, 0.3) == PageCurveValue(0.0, 0, 0.0, 0.3)


# The last cell takes ln((1 - rho_j) + rho_j (1 - rho_k)) at g != 0.
VARIANCE_CELLS = [(1, 0.5, 0.3), (2, 0.5, 0.5), (3, 1.0, 0.3), (2, 1.5, 0.5), (15, 0.3, 0.2),
                  (2, 2.0, 0.45)]


@pytest.mark.parametrize("alpha,s,r", VARIANCE_CELLS)
def test_variance_matches_the_cosine_transform(alpha, s, r):
    # Two routes to (1/2) sum_k k a_k^2: the closed form in rho and a
    # 4096-node DCT of the entropy's integrand.
    res = page_variance(alpha, s, r)
    assert res.value == pytest.approx(page_variance_dct(alpha, s, r), rel=1e-13)
    assert res.trunc_err == float(pagecurve.ROUNDING * res.value) > 0


def test_variance_weak_squeezing_laws():
    # Twice the squared per-mode mean's law: 2 [alpha/(alpha-1) r(1-r) s^2]^2
    # at order 2, approached as 1 - O(s^2), and 2 [r(1-r) s^2 ln(1/s^2)]^2 at
    # order 1, approached logarithmically, like the mean.
    r = 0.3

    def ratio(alpha, s):
        law = page_limit(alpha, "small", r)[0] * s * s
        return page_variance(alpha, s, r).value / (2 * (law * (math.log(1 / s**2) if alpha == 1
                                                                 else 1.0)) ** 2)

    assert ratio(2, 1e-2) == pytest.approx(0.99980, abs=5e-6)
    for s in (1e-6, 1e-10, 1e-30, 1e-50):
        assert ratio(2, s) == pytest.approx(1.0, abs=1e-9)
    for s, want, digits in ((1e-2, 1.141, 5e-4), (1e-6, 1.046, 5e-4), (1e-50, 1.0054, 5e-5)):
        assert ratio(1, s) == pytest.approx(want, abs=digits)


def test_variance_strong_squeezing_laws():
    # r = 1/2: s + C_alpha, with C_2 = -(3/2) ln 2 exactly and the other
    # constants to their six decimals. r != 1/2: every rule's weights sum to
    # 1/2, so each order tends to (1/2) ln((1 - rq)^2 / (1 - 2 rq)).
    for s in (20.0, 50.0):
        assert page_variance(2, s, 0.5).value - s == pytest.approx(-1.5 * math.log(2), abs=1e-13)
        for alpha, constant in ((1, -0.906571), (3, -1.111641), (15, -1.321893)):
            assert page_variance(alpha, s, 0.5).value - s == pytest.approx(constant, abs=6e-7)
    def law(r):
        rq = min(r, 1 - r)
        return 0.5 * math.log((1 - rq) ** 2 / (1 - 2 * rq))

    for r, value in ((0.1, 0.0062113), (0.25, 0.0588915), (0.4, 0.2938933)):
        assert law(r) == pytest.approx(value, abs=5e-8)
    for r in (0.1, 0.25, 0.4, 0.45, 0.75):  # from 0.42 up, rho_j rho_k passes 1/2
        for alpha in (1, 2, 3):
            assert page_variance(alpha, 30.0, r).value == pytest.approx(law(r), rel=1e-12)


@pytest.mark.parametrize("s", [5e-324, 1e-160, 1e-50, 1e-6, 10.0, 50.0, 300.0])
def test_variance_is_finite_and_non_negative(s):
    # Both branches of ln(1 - rho_j rho_k) at weak and strong squeezing, at r
    # = 1/2 where rho rounds to 1 from s = 20, and roots whose v^2 overflows
    # or that are zero: a RuntimeWarning fails the test.
    for alpha in (1, 2, 3, 15, 50):
        for r in (0.3, 0.5):
            res = page_variance(alpha, s, r)
            assert math.isfinite(res.value) and math.copysign(1.0, res.value) == 1.0
            assert 0.0 <= res.trunc_err < math.inf


@pytest.mark.parametrize("alpha", [1, 2, 3, 50, 2000])
def test_variance_matches_the_whole_pair_array(alpha):
    # Rules of up to 256 shifts are one block, and their values have the
    # bits of L formed whole; longer ones (order 2000, order 1 below
    # s = 1e-19) sum several blocks' column sums, within 1e-14. Both give 0.0
    # where the value underflows, from s = 1e-82 down at order 1 and 1e-81 at
    # the others, and the same subnormals just above.
    for s in (1e-200, 1e-160, 1e-120, 1e-82, 1e-81, 1e-80, 1e-79, 1e-40, 1e-19, 1e-5, 0.5,
              3.0, 30.0):
        one_block = len(entropy._order_rule(alpha, math.sinh(2 * s) ** 2).weights) <= 256
        for r in (0.05, 0.3, 0.5):
            value, whole = page_variance(alpha, s, r).value, page_variance_full(alpha, s, r)
            if one_block:
                assert value == whole, (s, r)
            else:
                assert value == pytest.approx(whole, rel=1e-14, abs=0.0), (s, r)
    assert page_variance(1, 1e-82, 0.3).value == 0.0 < page_variance(1, 1e-81, 0.3).value


def test_variance_memory_is_bounded():
    # With every pair (j, k) in one array the temporaries held about four
    # rule-length-squared arrays: 76 MiB (tracemalloc) for order 1 at
    # s = 1e-160, a rule of 1555 nodes whose value underflows, and 32 MiB for
    # the 1000 shifts of order 2000. Now a few blocks of 2^16 pairs are held
    # beside the rule's length of column sums (4.3 blocks measured), and no
    # pair is formed where the value underflows.
    assert pagecurve._VARIANCE_BLOCK == 1 << 16
    block_bytes = 8 * pagecurve._VARIANCE_BLOCK
    for args, underflows in [((1, 1e-160, 0.3), True), ((2000, 1e-100, 0.5), True),
                             ((1, 1e-40, 0.5), False), ((2000, 0.5, 0.3), False)]:
        expected = page_variance(*args)  # the rule is built outside the measurement
        shifts = len(entropy._order_rule(args[0], math.sinh(2 * args[1]) ** 2).weights)
        tracemalloc.start()
        try:
            res = page_variance(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res == expected
        assert (res.value == 0.0) == underflows, args
        assert peak < (2**20 if underflows else 6 * block_bytes + 64 * shifts), (args, peak)


def test_variance_of_a_long_rule_holds_blocks_not_the_pair_array():
    # Order 8000 has 4000 shifts: L whole is 122 MiB, and holding it peaked
    # at 124 MiB. Summed a block of rows at a time, it peaks at 2.2 MiB,
    # within 1e-14 of L formed whole; at r = 0.45 and s = 3 some products
    # rho_j rho_k pass 1/2, so both forms of ln(1 - rho_j rho_k) are summed.
    for s, r in ((0.5, 0.3), (3.0, 0.45)):
        whole = page_variance_full(8000, s, r)
        page_variance(8000, s, r)  # the rule is built outside the measurement
        tracemalloc.start()
        try:
            res = page_variance(8000, s, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == pytest.approx(whole, rel=1e-14, abs=0.0), (s, r)
        assert peak <= 8 * 2**20, (s, r, peak)


@pytest.mark.parametrize("alpha", [1, 2, 15])
def test_variance_answers_where_the_average_does(alpha):
    limit = _squeezing_limit(1, alpha == 1)
    for s in (limit, -limit):
        res = page_variance(alpha, s, 0.5)
        assert res.value - abs(s) == pytest.approx(page_variance(alpha, 50.0, 0.5).value - 50.0,
                                                   abs=1e-9)
    for r in (0.5, 0.0):
        with pytest.raises(ValueError, match=rf"above \|s\| = {limit:.2f}$"):
            page_variance(alpha, float(np.nextafter(limit, np.inf)), r)


def test_variance_reads_parameters_as_the_average_does():
    assert page_variance(2, 0.0, 0.3) == PageCurveValue(0.0, 0, 0.0, 0.3)
    for r in (0.0, 1.0):
        assert page_variance(1, 0.5, r) == PageCurveValue(0.0, 0, 0.0, r)
    assert page_variance(2, -0.5, 0.3) == page_variance(2, 0.5, 0.3)
    assert page_variance(2, 0.5, 0.7).value == pytest.approx(page_variance(2, 0.5, 0.3).value,
                                                             rel=1e-14)
    assert page_variance("2", "0.5", "0.3") == page_variance(2, 0.5, 0.3)
    for s in (0.01, 0.5, 3.0):
        assert page_variance(1, s, 0.3).nodes == page_average(1, ASYMPTOTIC, s, 0.3).nodes > 0
        assert page_variance(3, s, 0.3).nodes == 0
    for alpha in (np.True_, 0, 2.5):
        with pytest.raises(ValueError, match="Renyi order"):
            page_variance(alpha, 0.5, 0.5)
    for r in (1.2, float("nan")):
        with pytest.raises(ValueError, match=r"partition ratio must lie in \[0, 1\]"):
            page_variance(2, 0.5, r)
    with pytest.raises(ValueError, match="squeezing strength must be finite"):
        page_variance(2, float("inf"), 0.5)
    with pytest.raises(ValueError, match="squeezing strength must be a real number"):
        page_variance(2, None, 0.5)


@pytest.mark.parametrize("n,r,s", [(200, 0.5, 0.5), (200, 0.3, 0.5), (100, 0.5, 1.5),
                                   (400, 0.25, 3.0), (401, 0.3, 1.0)])
def test_variance_matches_monte_carlo(n, r, s):
    # 4000 samples, normal-theory se v sqrt(2/(N - 1)) of the sample variance,
    # at the realized k/n.
    plan = ExperimentPlan.from_ratio(n=n, r=r, squeezing=s, alphas=(1, 2, 3), n_samples=4000,
                                     master_seed=5)
    _, summary = run_experiment(plan)
    for alpha, stats in summary.per_alpha.items():
        law = page_variance(alpha, s, plan.realized_r).value
        se = stats.variance * math.sqrt(2 / (plan.n_samples - 1))
        assert abs(stats.variance - law) <= 3 * se, (alpha, stats.variance, law)
