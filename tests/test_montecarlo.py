import math
import re
import sys

import numpy as np
import pytest
from oracles import (
    cholesky_qr_frame_inv,
    equal_squeezing_spectrum,
    gram_full_product,
    haar_unitary,
    jacobi_trace_powers,
    jacobi_transmissions,
    out_of_range_bidiagonal_squares,
    purity_symmetry_check,
    s2_variance_identity_loop,
)

from gbs_page import (
    ExperimentPlan,
    SampleFailure,
    haar_frame,
    page_average,
    reduced_covariance_general,
    renyi_entropy,
    renyi_mode_entropy,
    run_experiment,
    symplectic_eigenvalues,
    variance_trend,
)
from gbs_page import montecarlo
from gbs_page.entropy import (_FLOAT_MAX, _MAX_SQUEEZING, bidiagonal_entropies,
                              spectrum_entropies)
from gbs_page.haar import _bidiagonal_squares, _ginibre
from gbs_page.symplectic import _gram_spectrum


def test_full_partition_gives_zero():
    plan = ExperimentPlan(n=10, k=10, squeezing=0.7, alphas=(1, 2), n_samples=5,
                          master_seed=1)
    table, summary = run_experiment(plan)
    assert table.shape == (5, 2)
    assert np.all(np.abs(table) <= 1e-8)
    assert abs(summary.per_alpha[1].mean) <= 1e-8


def test_pure_state_at_strong_squeezing_gives_exact_zero():
    # k = n leaves no transmission eigenvalue: every nu is exactly one.
    plan = ExperimentPlan(n=40, k=40, squeezing=3.0, alphas=(1, 2, 3), n_samples=5,
                          master_seed=3)
    table, summary = run_experiment(plan)
    assert np.all(table == 0.0)
    assert all(st.mean == 0.0 for st in summary.per_alpha.values())


def test_vacuum_gives_exact_zero():
    plan = ExperimentPlan(n=8, k=3, squeezing=0.0, alphas=(1, 2, 3), n_samples=4,
                          master_seed=2)
    table, _ = run_experiment(plan)
    assert table.shape == (4, 3) and np.all(table == 0.0)


def test_per_mode_pure_state_gives_exact_zero():
    # k = n leaves the other side empty: no frame is drawn, and every
    # entropy is exactly zero at any squeezing.
    plan = ExperimentPlan(n=40, k=40, squeezing=tuple(np.linspace(0.0, 3.0, 40)),
                          alphas=(1, 2, 3), n_samples=5, master_seed=3)
    table, summary = run_experiment(plan)
    assert np.all(table == 0.0)
    assert all(st.mean == 0.0 for st in summary.per_alpha.values())


def _recording_pools(monkeypatch):
    """Replace ``montecarlo.ThreadPoolExecutor`` by one that logs its worker counts."""
    pools = []

    class RecordingPool(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    return pools


def test_equal_squeezing_runs_on_the_calling_thread(monkeypatch):
    # Whatever the thread count, an equal-squeezing plan starts no worker
    # pool and gives the one-thread table (70 samples: two blocks).
    pools = _recording_pools(monkeypatch)
    for n, k, s, alphas in ((40, 17, 0.5, (1, 2)), (9, 6, 3.0, (1, 2, 3)), (12, 12, 0.5, (1,)),
                            (400, 200, 0.0, (2, 15))):
        plan = ExperimentPlan(n=n, k=k, squeezing=s, alphas=alphas, n_samples=70,
                              master_seed=2)
        want, _ = run_experiment(plan, threads=1)
        for threads in (2, 3):
            assert np.array_equal(run_experiment(plan, threads=threads)[0], want)
    assert pools == []


def test_per_mode_plans_start_a_pool_of_threads(monkeypatch):
    # The one other case of the thread rule: a per-mode plan runs on a pool
    # of ``threads`` workers, at most one per usable CPU, with the one-thread
    # table. A single worker runs on the calling thread.
    pools = _recording_pools(monkeypatch)
    plan = ExperimentPlan(n=12, k=5, squeezing=tuple(np.linspace(0.0, 0.5, 12)),
                          alphas=(1, 2), n_samples=5, master_seed=2)
    want, _ = run_experiment(plan, threads=1)
    assert pools == []
    assert np.array_equal(run_experiment(plan, threads=3)[0], want)
    workers = min(3, montecarlo._usable_cpus())
    assert pools == ([workers] if workers > 1 else [])


def test_the_pool_never_outgrows_the_cpus_or_the_blocks(monkeypatch):
    # With two usable CPUs, 64 requested threads start two workers for 21
    # pairs, and a plan of one pair starts none: the bound costs no result.
    pools = _recording_pools(monkeypatch)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    squeezing = tuple(np.linspace(0.0, 0.5, 12))
    plan = ExperimentPlan(n=12, k=5, squeezing=squeezing, alphas=(1, 2), n_samples=41,
                          master_seed=2)
    assert len(montecarlo._blocks(plan)) == 21
    assert np.array_equal(run_experiment(plan, threads=64)[0], run_experiment(plan)[0])
    assert pools == [2]
    pair = ExperimentPlan(n=12, k=5, squeezing=squeezing, alphas=(1, 2), n_samples=2,
                          master_seed=2)
    assert np.array_equal(run_experiment(pair, threads=64)[0], run_experiment(pair)[0])
    assert pools == [2]


def test_determinism_and_thread_independence():
    plan = ExperimentPlan(n=12, k=5, squeezing=0.4, alphas=(1, 2), n_samples=8,
                          master_seed=99)
    table1, _ = run_experiment(plan, threads=1)
    table2, _ = run_experiment(plan, threads=1)
    table3, _ = run_experiment(plan, threads=3)
    assert table1.shape == (8, 2)
    assert np.array_equal(table1, table2) and np.array_equal(table1, table3)


def test_per_sample_alpha_monotonicity():
    plan = ExperimentPlan(n=30, k=12, squeezing=0.6, alphas=(1, 2, 3, 5, 15),
                          n_samples=25, master_seed=7)
    table, _ = run_experiment(plan)
    for vals in table:
        assert all(x >= y - 1e-9 for x, y in zip(vals, vals[1:]))
        assert vals[-1] >= -1e-9


def test_purity_symmetry_equal_and_unequal():
    U = haar_unitary(12, master_seed=5, sample_index=0)
    assert purity_symmetry_check(U, 0.5, 5)
    assert purity_symmetry_check(U, 0.5, 0)
    assert purity_symmetry_check(U, 0.5, 12)
    rng = np.random.default_rng(3)
    svec = rng.uniform(-0.3, 0.6, 12)
    assert purity_symmetry_check(U, svec, 4)


def test_purity_symmetry_across_samples():
    for idx in range(10):
        U = haar_unitary(16, master_seed=42, sample_index=idx)
        assert purity_symmetry_check(U, 0.5, 6, alphas=(1, 2, 3))


def test_mean_matches_analytic():
    n, s, r = 50, 0.5, 0.5
    plan = ExperimentPlan.from_ratio(n=n, r=r, squeezing=s, alphas=(2,),
                                     n_samples=400, master_seed=11)
    _, summary = run_experiment(plan)
    pred = page_average(2, n, s, r, tol=1e-9).value
    stats = summary.per_alpha[2]
    assert abs(stats.mean - pred) <= 3 * stats.stderr


def test_trace_powers_fall_with_the_power():
    # The traces of the moment identity (oracles.s2_variance_identity_loop).
    plan = ExperimentPlan(n=12, k=6, squeezing=0.5, alphas=(2,), n_samples=3,
                          master_seed=13)
    trw = jacobi_trace_powers(plan, 4)
    assert trw.shape == (3, 4)
    # Tr W^i decreasing in i (eigenvalues in [0, 1])
    assert np.all(trw[:, 1:] <= trw[:, :-1] + 1e-12)


@pytest.mark.parametrize("max_power", [1, 2, 5, 11])
@pytest.mark.parametrize("n,k", [(12, 12), (40, 39), (41, 20), (9, 6), (13, 7), (40, 17),
                                 (400, 200)])
def test_equal_trw_are_power_sums_of_the_sample_draw(n, k, max_power):
    # The oracle's Tr W^i are those of each sample's own draw, the one its
    # entropies use: S_2 = sum_i t^i/(2i) (k - Tr W^i) with t = tanh^2(2s),
    # and each term lies in [0, m t^i/(2i)], so the sum cut at P powers
    # falls short of S_2 by at most m t^(P+1) / (2 (P+1) (1 - t)). m = 0,
    # m = 1, odd n, k > n/2 (m = 3 < 6 at (9, 6)) and n = 400; 70 samples
    # make two blocks.
    plan = ExperimentPlan(n=n, k=k, squeezing=0.3, alphas=(2,), n_samples=70,
                          master_seed=21)
    trw = jacobi_trace_powers(plan, max_power)
    assert trw.shape == (70, max_power)
    powers = np.arange(1, max_power + 1)
    t = np.tanh(0.6) ** 2
    cut = (k - trw) @ (t**powers / (2 * powers))
    tail = min(k, n - k) * t ** (max_power + 1) / (2 * (max_power + 1) * (1 - t))
    s2 = run_experiment(plan)[0][:, 0]
    assert np.all(cut <= s2 + 1e-11) and np.all(s2 <= cut + tail + 1e-11)


def test_variance_diagnostics_take_no_eigenvalues(monkeypatch):
    def eigvalsh(*args, **kwargs):
        raise AssertionError("the variance diagnostics called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert variance_trend([41], 0.5, 0.5, 2, 70, 2, n_boot=20)[0].variance > 0


def test_unequal_sample_is_the_frame_covariance():
    s = np.linspace(-0.2, 0.7, 8)
    plan = ExperimentPlan(n=8, k=3, squeezing=tuple(s), alphas=(1, 2), n_samples=3,
                          master_seed=6)
    table, _ = run_experiment(plan)
    for index, row in enumerate(table):
        F = haar_frame(8, 3, master_seed=6, sample_index=index)
        nu = symplectic_eigenvalues(reduced_covariance_general(F, s))
        assert row.tolist() == [renyi_entropy(nu, 1), renyi_entropy(nu, 2)]


def test_per_mode_samples_match_the_oracle_route():
    # Frame by the LU inverse of its Cholesky factor and A^T A from the full
    # products, below and above k = n/2 (the sample takes the other side).
    s = tuple(np.linspace(0.6, -0.3, 40))
    for k in (17, 25):
        plan = ExperimentPlan(n=40, k=k, squeezing=s, alphas=(1, 2, 3), n_samples=5,
                              master_seed=12)
        m = min(k, 40 - k)
        for index, row in enumerate(run_experiment(plan)[0]):
            frame = cholesky_qr_frame_inv(_ginibre(40, m, 12, index))
            gram = gram_full_product(reduced_covariance_general(frame, s))
            want = spectrum_entropies(_gram_spectrum(np.linalg.eigvalsh(gram)), plan.alphas)
            assert np.all(np.abs(row - want) <= 1e-13 * want)


def test_per_mode_strong_squeezing_runs():
    # s_i = 20: nu ~ 1e17, where the von Neumann entropy once read 0.
    for n, k in ((8, 4), (7, 5)):
        plan = ExperimentPlan(n=n, k=k, squeezing=(20.0,) * n, alphas=(1, 2, 3),
                              n_samples=6, master_seed=2)
        table, _ = run_experiment(plan)
        for s1, s2, s3 in table:
            assert s1 >= s2 >= s3 > 0
            assert s1 - s2 <= min(k, n - k) * (1 - np.log(2)) + 1e-9


@pytest.mark.parametrize("n,k", [(40, 38), (12, 10)])
def test_near_pure_per_mode_state_answers(n, k):
    # One squeezed input: the smaller side has one nu > 1, and every other
    # is exactly one. Roundoff once left 1 - 6e-8 (sample 0 of the first
    # plan) and 1 - 1.5e-8 (sample 11 of the second) unrounded, and the
    # entropies refused them.
    s = (12.0,) + (0.0,) * (n - 1)
    plan = ExperimentPlan(n=n, k=k, squeezing=s, alphas=(1, 2, 3), n_samples=40, master_seed=4)
    table, _ = run_experiment(plan)
    assert np.all(table > 0) and np.all(np.isfinite(table))
    m = n - k
    gram = np.empty((2 * m, 2 * m))
    montecarlo._sample_gram(plan, 11, gram)
    nu = _gram_spectrum(np.linalg.eigvalsh(gram))
    assert nu[0] > 1e4
    if n == 12:
        assert nu[1] == 1.0
    assert np.array_equal(table[11], spectrum_entropies(nu, plan.alphas))


@pytest.mark.xfail(strict=True, raises=SampleFailure,
                   reason="a symplectic eigenvalue of one near e^26 is resolved below 1 - 1e-6")
def test_nearer_pure_per_mode_state_answers():
    # The ExperimentPlan's known limit: at s_0 = 13 sample 2 fails.
    s = (13.0,) + (0.0,) * 11
    plan = ExperimentPlan(n=12, k=10, squeezing=s, alphas=(1, 2, 3), n_samples=40, master_seed=4)
    table, _ = run_experiment(plan)
    assert np.all(np.isfinite(table)) and np.all(table >= 0)


def test_equal_squeezing_beyond_the_log_determinant_range_is_rejected():
    # The last order-1 shift sinh^2(2s) cosh^2(20) overflows above |s| = 168.14,
    # sinh^2(2s) above 177.79; a plan names the limit of its orders.
    for s, alphas, limit in ((168.2, (1, 2), "168.14"), (-175.0, (1,), "168.14"),
                             (177.8, (2, 3), "177.79")):
        with pytest.raises(ValueError, match=rf"above \|s\| = {limit}"):
            ExperimentPlan(n=8, k=4, squeezing=s, alphas=alphas)
    table, _ = run_experiment(ExperimentPlan(n=8, k=4, squeezing=175.0, alphas=(2, 3),
                                             n_samples=4))
    assert np.all(table[:, 0] > 1000)


@pytest.mark.parametrize("n,k,s,alphas,samples", [(8, 4, 168.1, (1, 2), 4),
                                                  (40, 20, 177.0, (2, 3), 64)])
def test_log_determinants_stay_finite_inside_the_accepted_range(n, k, s, alphas, samples):
    # Just below each limit: the pivot recurrence once formed x sup (1 + rho),
    # about x^2, and overflowed (sample 3 of the first plan, 0 of the second).
    plan = ExperimentPlan(n=n, k=k, squeezing=s, alphas=alphas, n_samples=samples,
                          master_seed=1)
    for index, row in enumerate(run_experiment(plan)[0]):
        nu = equal_squeezing_spectrum(
            jacobi_transmissions(n, k, master_seed=1, sample_index=index), k, s)
        for alpha, value in zip(alphas, row):
            assert value == pytest.approx(renyi_entropy(nu, alpha), rel=1e-12)


def test_variance_trend_vacuum_is_zero():
    trend = variance_trend([10, 20], r=0.5, s=0.0, alpha=2, n_samples=30, seed=5)
    assert all(est.variance == 0.0 for est in trend)


def test_variance_trend_constancy_alpha3():
    trend = variance_trend([30, 60], r=0.5, s=0.5, alpha=3, n_samples=200, seed=17)
    variances = [est.variance for est in trend]
    assert max(variances) <= 2.5 * min(variances)
    # bootstrap intervals overlap
    lo = max(est.ci_low for est in trend)
    hi = min(est.ci_high for est in trend)
    assert lo <= hi


def test_s2_variance_identity_quick():
    out = s2_variance_identity_loop(n=60, r=0.5, s=0.5, d_max=12, n_samples=300,
                                    seed=29, n_boot=500)
    assert out["consistent"]
    assert out["model"] == pytest.approx(out["variance"], rel=0.5)


def test_variance_diagnostics_keep_their_values():
    # The values the package's banded trace powers gave: with the oracle's
    # dense eigensolve Var(S_2) is the same run_experiment column, and the
    # model moves in the last bits.
    out = s2_variance_identity_loop(60, 0.5, 0.5, 12, 300, 29, n_boot=500)
    assert out["variance"] == pytest.approx(0.01974010483604088, rel=1e-12)
    assert out["variance_ci"] == pytest.approx((0.01691655369397683, 0.022820786308927705),
                                               rel=1e-12)
    assert out["model"] == pytest.approx(0.019717439650402454, rel=1e-12)
    assert out["model_ci"] == pytest.approx((0.016897745062776245, 0.022794861118164093),
                                            rel=1e-12)
    assert out["consistent"]


@pytest.mark.parametrize("diagnostic,zeros", [
    (lambda r: [(est.variance, est.ci_low, est.ci_high)
                for est in variance_trend([10, 11], r, 0.5, 2, 20, 1, n_boot=50)],
     [(0.0, 0.0, 0.0)] * 2),
], ids=["variance_trend"])
def test_variance_diagnostics_mirror_an_empty_side(diagnostic, zeros):
    # Both empty sides, r n rounding to k = 0 and r = 1, answer zeros.
    assert diagnostic(0.0) == diagnostic(0.04) == diagnostic(1.0) == zeros


@pytest.mark.parametrize("function,args,message", [
    (variance_trend, ([10], 0.5, 0.5, 1, 10, 1), "^Renyi order must be >= 2"),
    (variance_trend, ([10], 0.5, 0.5, "x", 10, 1), "^Renyi order must be an integer"),
    (variance_trend, ([10], 0.5, 0.5, 2, 1, 1), "^n_samples must be >= 2"),
    (variance_trend, (10, 0.5, 0.5, 2, 10, 1), "^ns must be a one-dimensional sequence"),
    (variance_trend, (None, 0.5, 0.5, 2, 10, 1), "^ns must be a one-dimensional sequence"),
    (variance_trend, ([10], 0.5, None, 2, 10, 1), "^squeezing strength must be a real"),
    (variance_trend, ([10], 0.5, "x", 2, 10, 1), "^squeezing strength must be a real"),
], ids=["trend-alpha", "trend-alpha-x", "trend-samples", "trend-ns-int", "trend-ns-none",
        "trend-s-none", "trend-s-x"])
def test_variance_functions_check_their_inputs(function, args, message):
    # The package rules, before any shortcut: k = 0 or a vacuum run would
    # otherwise return zeros for a bad n or seed.
    with pytest.raises(ValueError, match=message):
        function(*args)


def test_variance_functions_refuse_a_non_finite_s():
    # The plan refuses it, as in run_experiment, before any sample runs.
    for s in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^squeezing strength must be finite"):
            variance_trend([10], 0.5, s, 2, 10, 1, n_boot=5)


def test_variance_functions_name_a_failing_sample_0(monkeypatch):
    monkeypatch.setattr(montecarlo, "_bidiagonal_squares", out_of_range_bidiagonal_squares)
    with pytest.raises(SampleFailure, match="^sample 0 failed") as err:
        variance_trend([10], 0.5, 0.5, 2, 10, 1, n_boot=5)
    assert err.value.sample_index == 0


def test_variance_functions_check_n_boot():
    for n_boot in (0, -1, 1.5, True):
        with pytest.raises(ValueError, match="^n_boot must be"):
            variance_trend([10], 0.5, 0.5, 2, 10, 1, n_boot=n_boot)
    (trend,) = variance_trend([10], 0.5, 0.5, 2, 10, 1, n_boot=2.0)
    assert trend.ci_low <= trend.ci_high


@pytest.mark.parametrize("ten", [10, 10.0, "10", np.int64(10)], ids=repr)
def test_variance_functions_take_the_plan_integers(ten):
    # n and the seed seed the bootstrap as the plan's checked integers.
    (trend,) = variance_trend([ten], 0.5, 0.5, 2, 10, ten, n_boot=50)
    assert type(trend.n) is int
    assert trend == variance_trend([10], 0.5, 0.5, 2, 10, 10, n_boot=50)[0]


def test_weak_typicality_proxy():
    plan = ExperimentPlan.from_ratio(n=200, r=0.5, squeezing=0.5, alphas=(2,),
                                     n_samples=1000, master_seed=31)
    table, summary = run_experiment(plan)
    mean = summary.per_alpha[2].mean
    vals = table[:, 0]
    fraction = np.mean(np.abs(vals / mean - 1.0) < 0.05)
    assert fraction > 0.99


def test_sample_failure_aborts_with_index(monkeypatch):
    monkeypatch.setattr(montecarlo, "_bidiagonal_squares", out_of_range_bidiagonal_squares)
    plan = ExperimentPlan(n=4, k=2, squeezing=0.5, alphas=(2,), n_samples=3, master_seed=1)
    with pytest.raises(SampleFailure, match="^sample 0 failed") as err:
        run_experiment(plan)
    assert err.value.sample_index == 0


@pytest.mark.parametrize("squeezing", [np.inf, -np.inf, np.nan, (0.1, np.inf, 0.2, 0.3),
                                       (0.1, 0.2, np.nan, 0.3)], ids=repr)
def test_plan_refuses_a_non_finite_squeezing(squeezing):
    message = "squeezing strengths? must be finite"
    with pytest.raises(ValueError, match=message):
        ExperimentPlan(n=4, k=2, squeezing=squeezing)
    with pytest.raises(ValueError, match=message):
        ExperimentPlan.from_ratio(n=4, r=0.5, squeezing=squeezing)


@pytest.mark.parametrize("squeezing", [0.5, tuple(np.linspace(0.0, 0.3, 10))],
                         ids=["equal", "per-mode"])
def test_an_empty_side_gives_zero_entropies(squeezing):
    # k = 0 and k = n are the two empty sides of a cut: nothing is drawn.
    tables = []
    for plan in (ExperimentPlan(n=10, k=0, squeezing=squeezing, alphas=(1, 2, 3), n_samples=5,
                                master_seed=1),
                 ExperimentPlan.from_ratio(n=10, r=0.04, squeezing=squeezing, alphas=(1, 2, 3),
                                           n_samples=5, master_seed=1),
                 ExperimentPlan(n=10, k=10, squeezing=squeezing, alphas=(1, 2, 3), n_samples=5,
                                master_seed=1)):
        for threads in (1, 2):
            table, summary = run_experiment(plan, threads)
            tables.append(table.tolist())
            assert all(st == montecarlo.AlphaStats(0.0, 0.0, 0.0)
                       for st in summary.per_alpha.values())
    assert tables == [[[0.0] * 3] * 5] * 6


@pytest.mark.parametrize("lam", [[0.2, np.nan], [0.2, 1.5], [0.2, 1.0 + 1e-3]])
def test_bad_w_spectrum_is_a_sample_failure(monkeypatch, lam):
    # The draw returns a diagonal B11 whose squared entries are T = 1 - lambda
    # for every index: a NaN, -0.5 and -1e-3.
    monkeypatch.setattr(montecarlo, "_bidiagonal_squares",
                        lambda n, k, seed, index: (np.tile(1.0 - np.array(lam), (len(index), 1)),
                                                   np.zeros((len(index), 1))))
    plan = ExperimentPlan(n=4, k=2, squeezing=0.5, alphas=(1, 2), n_samples=2,
                          master_seed=1)
    with pytest.raises(SampleFailure) as err:
        run_experiment(plan)
    assert err.value.sample_index == 0 and isinstance(err.value.cause, ValueError)


@pytest.mark.parametrize("threads", [1, 2])
def test_failure_inside_a_block_names_its_sample(monkeypatch, threads):
    # Blocks [0, B) and [B, B + 7). Indices 4 and B + 2 are bad, so both blocks
    # fail, and the run names index 4, not the first index of its block.
    size = montecarlo._BLOCK_SAMPLES

    def draw(n, k, seed, index):
        diag, sup = _bidiagonal_squares(n, k, seed, index)
        diag[np.isin(index, [4, size + 2]), 0] = np.nan
        return diag, sup

    monkeypatch.setattr(montecarlo, "_bidiagonal_squares", draw)
    plan = ExperimentPlan(n=400, k=200, squeezing=0.5, alphas=(1, 2), n_samples=size + 7,
                          master_seed=1)
    assert [len(b) for b in montecarlo._blocks(plan)] == [size, 7]
    with pytest.raises(SampleFailure) as err:
        run_experiment(plan, threads=threads)
    assert err.value.sample_index == 4 and isinstance(err.value.cause, ValueError)


def test_a_draw_that_raises_names_its_sample(monkeypatch):
    # The draw raises for any block that holds index 5: the entropies name
    # sample 5, not the first index of its block.
    def draw(n, k, seed, index):
        if 5 in index:
            raise FloatingPointError("draw failed")
        return _bidiagonal_squares(n, k, seed, index)

    monkeypatch.setattr(montecarlo, "_bidiagonal_squares", draw)
    plan = ExperimentPlan(n=20, k=9, squeezing=0.5, alphas=(1, 2), n_samples=10, master_seed=1)
    with pytest.raises(SampleFailure, match="^sample 5 failed: draw failed$") as err:
        run_experiment(plan)
    assert err.value.sample_index == 5
    assert isinstance(err.value.cause, FloatingPointError)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_per_mode_frame_that_raises_names_its_sample(monkeypatch, threads):
    # Pairs [0, 2), [2, 4), [4, 6), [6]; the frame of sample 3 raises.
    draw = montecarlo.haar_frame

    def frame(n, k, seed, index):
        if index == 3:
            raise np.linalg.LinAlgError("frame failed")
        return draw(n, k, seed, index)

    monkeypatch.setattr(montecarlo, "haar_frame", frame)
    plan = ExperimentPlan(n=8, k=3, squeezing=tuple(np.linspace(0.1, 0.8, 8)), alphas=(1, 2),
                          n_samples=7, master_seed=1)
    with pytest.raises(SampleFailure, match="^sample 3 failed: frame failed$") as err:
        run_experiment(plan, threads=threads)
    assert err.value.sample_index == 3
    assert isinstance(err.value.cause, np.linalg.LinAlgError)


def test_non_finite_log_determinant_names_its_sample(monkeypatch):
    # The pivot check: in-range entries whose entropies come out non-finite.
    # Sample 3 is told apart by its von Neumann entropy in a run without the
    # patch, in whatever block it is evaluated.
    plan = ExperimentPlan(n=20, k=9, squeezing=0.5, alphas=(1, 2), n_samples=6, master_seed=1)
    table, _ = run_experiment(plan)

    def entropies(diag, sup, s, alphas):
        values = bidiagonal_entropies(diag, sup, s, alphas)
        values[values[:, 0] == table[3, 0], 1] = np.inf  # sample 3, order 2
        return values

    monkeypatch.setattr(montecarlo, "bidiagonal_entropies", entropies)
    with pytest.raises(SampleFailure, match="pivots") as err:
        run_experiment(plan)
    assert err.value.sample_index == 3 and isinstance(err.value.cause, ValueError)


def _spoil(values, kind):
    """Make one row of two entropies negative, or rise from order 1 to order 2."""
    values[:] = [-1e-3, -1e-3] if kind == "negative" else [0.5, 1.5]


UNPHYSICAL_ROWS = [
    ("negative", r"^negative entropy -0\.001$"),
    ("rising", r"^entropies not monotone in alpha: \[0\.5, 1\.5\]$"),
]


@pytest.mark.parametrize("kind,message", UNPHYSICAL_ROWS)
def test_unphysical_equal_row_in_a_later_block_names_its_sample(monkeypatch, kind, message):
    # Blocks [0, B) and [B, B + 7); rows 2 and 4 of the second are bad, told
    # apart by their von Neumann entropies in a run without the patch.
    size = montecarlo._BLOCK_SAMPLES
    plan = ExperimentPlan(n=20, k=9, squeezing=0.5, alphas=(1, 2), n_samples=size + 7,
                          master_seed=1)
    table, _ = run_experiment(plan)

    def entropies(diag, sup, s, alphas):
        values = bidiagonal_entropies(diag, sup, s, alphas)
        for row in values:
            if row[0] in (table[size + 2, 0], table[size + 4, 0]):
                _spoil(row, kind)
        return values

    monkeypatch.setattr(montecarlo, "bidiagonal_entropies", entropies)
    with pytest.raises(SampleFailure) as err:
        run_experiment(plan)
    assert err.value.sample_index == size + 2
    assert isinstance(err.value.cause, FloatingPointError)
    assert re.search(message, str(err.value.cause))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind,message", UNPHYSICAL_ROWS)
def test_unphysical_per_mode_row_in_a_later_block_names_its_sample(monkeypatch, threads, kind,
                                                                    message):
    # Pairs [0, 2), [2, 4), [4, 6), [6]; samples 5 and 6 are bad, told apart
    # by their von Neumann entropies in a run without the patch.
    plan = ExperimentPlan(n=8, k=3, squeezing=tuple(np.linspace(0.1, 0.8, 8)), alphas=(1, 2),
                          n_samples=7, master_seed=1)
    table, _ = run_experiment(plan)

    def entropies(nu, alphas):
        values = spectrum_entropies(nu, alphas)
        if values[0] in (table[5, 0], table[6, 0]):
            _spoil(values, kind)
        return values

    monkeypatch.setattr(montecarlo, "spectrum_entropies", entropies)
    with pytest.raises(SampleFailure) as err:
        run_experiment(plan, threads=threads)
    assert err.value.sample_index == 5
    assert isinstance(err.value.cause, FloatingPointError)
    assert re.search(message, str(err.value.cause))


def test_blocks_match_one_sample_at_a_time_for_any_thread_count():
    # Blocks of B and 7 samples: each row of a block's log-determinant pass
    # is the one-sample value, bit for bit, whatever the thread count.
    size = montecarlo._BLOCK_SAMPLES
    plan = ExperimentPlan(n=400, k=200, squeezing=0.5, alphas=(1, 2, 3), n_samples=size + 7,
                          master_seed=8)
    assert [len(b) for b in montecarlo._blocks(plan)] == [size, 7]
    single = np.vstack([montecarlo._entropy_rows(plan, range(i, i + 1))
                        for i in range(plan.n_samples)])
    for threads in (1, 2, 3):
        assert np.array_equal(run_experiment(plan, threads=threads)[0], single)


@pytest.mark.parametrize("n,k", [(4, 2), (3, 1), (9, 6), (400, 200), (401, 150), (1000, 500),
                                 (1002, 501), (2000, 1000), (10, 10)])
def test_blocks_cover_every_index_and_depend_on_the_plan_alone(monkeypatch, n, k):
    # Equal squeezing: runs of one fixed size whatever m = min(k, n - k) is;
    # per-mode squeezing: pairs, the last one a single sample when the count
    # is odd. Any thread count evaluates the same blocks.
    size = montecarlo._BLOCK_SAMPLES
    plan = ExperimentPlan(n=n, k=k, squeezing=0.5, n_samples=1000)
    blocks = montecarlo._blocks(plan)
    assert [i for b in blocks for i in b] == list(range(1000))
    assert [len(b) for b in blocks] == [size] * (1000 // size) + [1000 % size]
    per_mode = ExperimentPlan(n=n, k=k, squeezing=(0.5,) * n, n_samples=11)
    assert [i for b in montecarlo._blocks(per_mode) for i in b] == list(range(11))
    assert [len(b) for b in montecarlo._blocks(per_mode)] == [2] * 5 + [1]

    evaluate = montecarlo._entropy_rows
    small = ExperimentPlan(n=n, k=k, squeezing=0.5, n_samples=size + 3)
    seen = {}
    for threads in (1, 3):
        monkeypatch.setattr(montecarlo, "_entropy_rows", lambda plan, block: (
            seen.setdefault(threads, []).append(block) or evaluate(plan, block)))
        run_experiment(small, threads=threads)
    assert sorted(seen[1], key=min) == sorted(seen[3], key=min) == montecarlo._blocks(small)


PER_MODE_S = tuple(np.linspace(0.0, 0.6, 300))


@pytest.mark.parametrize("n,k", [(300, 140), (300, 160), (9, 6), (5, 5)])
def test_pairs_match_one_sample_at_a_time_for_any_thread_count(n, k):
    # Seven samples: three pairs and a single. Each sample's entropies are
    # the ones it gets in a block of its own, and those of
    # symplectic_eigenvalues of the smaller side's covariance, bit for bit,
    # on 1, 2 or 3 workers. m = 140 stacks 560 values.
    plan = ExperimentPlan(n=n, k=k, squeezing=PER_MODE_S[:n], alphas=(1, 2, 3), n_samples=7,
                          master_seed=8)
    assert [len(b) for b in montecarlo._blocks(plan)] == [2, 2, 2, 1]
    single = np.vstack([montecarlo._entropy_rows(plan, range(i, i + 1))
                        for i in range(plan.n_samples)])
    m = min(k, n - k)
    for index, row in enumerate(single):
        nu = (symplectic_eigenvalues(reduced_covariance_general(
            haar_frame(n, m, master_seed=8, sample_index=index), PER_MODE_S[:n]))
            if m else [])
        assert row.tolist() == [renyi_entropy(nu, a) for a in (1, 2, 3)]
    for threads in (1, 2, 3):
        assert np.array_equal(run_experiment(plan, threads=threads)[0], single)


def test_workers_write_disjoint_rows_under_frequent_switches():
    # 120 pairs on four workers, switching threads every microsecond: a row
    # lost or written by the wrong block would differ from the one-thread table.
    plan = ExperimentPlan(n=8, k=3, squeezing=tuple(np.linspace(0.1, 0.8, 8)), alphas=(1, 2),
                          n_samples=240, master_seed=5)
    want, _ = run_experiment(plan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, _ = run_experiment(plan, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


def _frames_with(monkeypatch, changes):
    """Make ``montecarlo.haar_frame`` return index i's frame times changes[i]."""
    draw = montecarlo.haar_frame
    monkeypatch.setattr(montecarlo, "haar_frame", lambda n, k, seed, index: (
        draw(n, k, seed, index) * changes.get(index, 1.0)))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("changes,first", [
    ({3: np.nan}, 3),                # second of a pair, in its covariance checks
    ({4: np.nan, 7: np.nan}, 4),     # first of a pair
    ({2: 0.5, 3: np.nan}, 2),        # first unphysical (nu < 1) after its pair's stack
    ({6: 0.5}, 6),                   # the single at the end
])
def test_bad_sample_in_a_pair_names_its_index(monkeypatch, threads, changes, first):
    _frames_with(monkeypatch, changes)
    plan = ExperimentPlan(n=8, k=3, squeezing=tuple(np.linspace(0.1, 0.8, 8)), alphas=(1, 2),
                          n_samples=7, master_seed=1)
    with pytest.raises(SampleFailure) as err:
        run_experiment(plan, threads=threads)
    assert err.value.sample_index == first and isinstance(err.value.cause, ValueError)


def test_stacked_eigensolve_failure_falls_back_to_one_sample_at_a_time(monkeypatch):
    # Every stack of more than one matrix fails to solve: each sample is then
    # solved alone, as a stack of one, with the same table; a one-sample
    # solve that raises names its index.
    plan = ExperimentPlan(n=12, k=5, squeezing=tuple(np.linspace(0.0, 0.5, 12)),
                          alphas=(1, 2), n_samples=5, master_seed=3)
    want, _ = run_experiment(plan)
    eigvalsh, solved, fail_at = np.linalg.eigvalsh, [], []

    def stacked_fails(a):
        if a.ndim == 3 and len(a) > 1 or len(solved) in fail_at:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        solved.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", stacked_fails)
    assert np.array_equal(run_experiment(plan)[0], want)
    assert solved == [(1, 10, 10)] * 5
    solved.clear()
    fail_at.append(3)  # the fourth one-sample solve: index 3, second of its pair
    with pytest.raises(SampleFailure) as err:
        run_experiment(plan)
    assert err.value.sample_index == 3
    assert isinstance(err.value.cause, np.linalg.LinAlgError)


EQUAL_ORACLE_SHAPES = [(21, 13), (40, 17), (9, 6), (61, 30), (12, 12), (400, 200)]


@pytest.mark.parametrize("n,k", EQUAL_ORACLE_SHAPES)
def test_equal_samples_match_the_eigvalsh_oracle(n, k):
    # Per sample, the log-determinant entropies against the entropies of
    # nu_j = sqrt(1 + sinh^2(2s) T_j), T_j from the transmission eigensolve.
    alphas = (1, 2, 3, 4, 15)
    for s in (0.05, 0.5, 3.0, 5.0):
        plan = ExperimentPlan(n=n, k=k, squeezing=s, alphas=alphas, n_samples=5,
                              master_seed=17)
        for index, row in enumerate(run_experiment(plan)[0]):
            t = jacobi_transmissions(n, k, master_seed=17, sample_index=index)
            nu = equal_squeezing_spectrum(t, k, s)
            for alpha, value in zip(alphas, row):
                want = renyi_entropy(nu, alpha)
                assert (want > 0) == (t.size > 0)
                assert value == pytest.approx(want, rel=1e-12, abs=0)


def test_plan_validation():
    for k in (-1, 6):
        with pytest.raises(ValueError, match=rf"^subsystem size k={k} out of range \[0, 5\]"):
            ExperimentPlan(n=5, k=k, squeezing=0.5)
    with pytest.raises(ValueError):
        ExperimentPlan(n=5, k=2, squeezing=0.5, alphas=(0,))
    with pytest.raises(ValueError):
        ExperimentPlan(n=5, k=2, squeezing=(0.1, 0.2))
    with pytest.raises(ValueError):
        ExperimentPlan(n=5, k=2, squeezing=0.5, n_samples=0)
    with pytest.raises(ValueError):
        ExperimentPlan.from_ratio(n=5, r=1.5, squeezing=0.5)
    plan = ExperimentPlan.from_ratio(n=10, r=0.333, squeezing=0.5)
    assert plan.k == 3 and plan.realized_r == pytest.approx(0.3)
    with pytest.raises(ValueError):
        run_experiment(ExperimentPlan(n=4, k=2, squeezing=0.5), threads=0)


def test_plan_refuses_a_mode_count_beyond_the_draws_range():
    # The Jacobi draw forms its Beta parameters as exact Python-int quotients,
    # and from_ratio forms r n as a float64, so a plan takes every n up to the
    # largest float64. Beyond it the message gives n's bit length (the digits
    # of 10**5000 once exceeded Python's int-to-str limit). Within it a
    # sample answers, also past the former int64 bound |n - 2k| <= 2**63 - 1
    # (n = 2**63 + 6, k = 3) and where int64 parameters once wrapped or could
    # not be formed (2**63 + 5 with k = 3; k = 0 and 1).
    top = int(_FLOAT_MAX)
    for n in (top + 1, 10**400, 10**5000):
        message = rf"^mode count n of {n.bit_length()} bits is beyond float64"
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(n=n, k=3, squeezing=0.5)
        with pytest.raises(ValueError, match=message):
            ExperimentPlan.from_ratio(n=n, r=0.5, squeezing=0.5)
    limit = 2**63 - 1
    for n, k in ((limit + 6, 3), (limit + 7, 3), (limit, 0), (limit + 1, 1), (limit + 1, 3),
                 (top, 3), (top, 0)):
        table, _ = run_experiment(ExperimentPlan(n=n, k=k, squeezing=0.5, n_samples=2))
        assert np.isfinite(table).all() and (table > 0).all() == (k > 0)


def test_plan_refuses_a_side_beyond_every_numpy_array():
    # n = 10**21 at r = 1/2 once failed its sample 0 ("Maximum allowed
    # dimension exceeded"), as a numerical failure. A side of 2**60 - 1,
    # whose row of floats numpy can size, is planned; a larger one is not.
    message = (r"^the smaller side of the cut, min\(k, n - k\) of 69 bits, is beyond the "
               r"longest float64 array numpy can make$")
    with pytest.raises(ValueError, match=message):
        ExperimentPlan.from_ratio(n=10**21, r=0.5, squeezing=0.5)
    longest = montecarlo._LONGEST_ROW
    assert longest == 2**60 - 1
    assert ExperimentPlan(n=2 * longest + 1, k=longest, squeezing=0.5).k == longest
    for n, k in ((2 * longest + 2, longest + 1), (10**300, 10**299)):
        with pytest.raises(ValueError, match="beyond the longest float64 array"):
            ExperimentPlan(n=n, k=k, squeezing=0.5)


@pytest.mark.parametrize("n", [2**63 + 6, 10**300], ids=["2**63+6", "10**300"])
def test_a_vast_mode_count_transmits_its_three_modes_whole(n):
    # At k = 3 with |n - 2k| this large every squared bidiagonal entry is 1.0
    # or 0.0 in float: each T_j = 1 and nu_j = cosh(2s), so each order is 3
    # single-mode entropies to a few ulps, in the Monte Carlo and the average.
    diag, sup = _bidiagonal_squares(n, 3, 2, range(4))
    assert np.all(diag == 1.0) and np.all(sup == 0.0)
    s, alphas = 0.5, (1, 2, 3, 15)
    table, _ = run_experiment(ExperimentPlan(n=n, k=3, squeezing=s, alphas=alphas,
                                             n_samples=4, master_seed=2))
    for column, alpha in zip(table.T, alphas):
        want = 3 * renyi_mode_entropy(math.cosh(2 * s), alpha)
        assert column.tolist() == pytest.approx([want] * 4, rel=1e-15, abs=0)
        assert page_average(alpha, n, s, 3 / n).value == pytest.approx(want, rel=1e-15, abs=0)


def test_per_mode_squeezing_is_refused_beyond_the_float64_range():
    # The largest eigenvalue of A^T A, nu^2 <= cosh^2(2 s_i), is a float up to
    # |s_i| = 177.79 (``_MAX_SQUEEZING``): there a plan answers, with equal
    # strengths and with alternating signs. From the next float, in any one
    # entry, the plan is refused before any sample runs.
    beyond = float(np.nextafter(_MAX_SQUEEZING, np.inf))
    for n, k in ((6, 3), (9, 2)):
        for signs in (np.ones(n), (-1.0) ** np.arange(n)):
            squeezing = tuple(_MAX_SQUEEZING * signs)
            table, _ = run_experiment(ExperimentPlan(n=n, k=k, squeezing=squeezing,
                                                     alphas=(1, 2, 3), n_samples=4,
                                                     master_seed=4))
            assert np.isfinite(table).all() and (table > 0).all()
            bad = (0.0,) * (n - 1) + (beyond * float(signs[-1]),)
            with pytest.raises(ValueError, match=rf"^squeezing strength {re.escape(repr(bad[-1]))} "
                                                 r"is beyond .* above \|s\| = 177\.79$"):
                ExperimentPlan(n=n, k=k, squeezing=bad)


def test_from_ratio_reads_n_by_the_integer_rule():
    # k = round(r n) from the checked integer n; r is checked first.
    plans = [ExperimentPlan.from_ratio(n=ten, r=0.5, squeezing=0.5)
             for ten in (10, 10.0, "10", np.int64(10))]
    assert all(plan == plans[0] for plan in plans)
    assert type(plans[0].n) is int and plans[0].k == 5
    for bad in (None, "x"):
        with pytest.raises(ValueError, match="^n must be an integer"):
            ExperimentPlan.from_ratio(n=bad, r=0.5, squeezing=0.5)
    with pytest.raises(ValueError, match="^partition ratio must lie in"):
        ExperimentPlan.from_ratio(n=None, r=1.5, squeezing=0.5)


def test_plan_orders_are_sorted_and_distinct():
    # Column j of run_experiment's table is plan.alphas[j].
    plan = ExperimentPlan(n=9, k=4, squeezing=0.5, alphas=(3, 1, 3), n_samples=5)
    assert plan.alphas == (1, 3)
    assert plan == ExperimentPlan(n=9, k=4, squeezing=0.5, alphas=(1, 3), n_samples=5)
    table, summary = run_experiment(plan)
    assert table.shape == (5, 2) and list(summary.per_alpha) == [1, 3]


def test_plan_integer_fields_take_integral_values_only():
    plan = ExperimentPlan(n=6.0, k=np.int64(3), squeezing=0.5, alphas=[2.0, 1],
                          n_samples=np.float64(3.0), master_seed="7")
    assert plan == ExperimentPlan(n=6, k=3, squeezing=0.5, alphas=(2, 1), n_samples=3,
                                  master_seed=7)
    assert all(type(getattr(plan, f)) is int
               for f in ("n", "k", "n_samples", "master_seed"))
    assert all(type(a) is int for a in plan.alphas)

    good = dict(n=6, k=3, squeezing=0.5, alphas=(2,), n_samples=3, master_seed=1)
    for field in ("n", "k", "n_samples", "master_seed"):
        for bad in (6.7, True, np.float32(2.5), float("nan"), float("inf"), "x", None, [3]):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                ExperimentPlan(**{**good, field: bad})
    for bad in ((2, True), (2.5,), (None,)):
        with pytest.raises(ValueError, match="^alphas must be an integer"):
            ExperimentPlan(**{**good, "alphas": bad})
    for bad in ((), 2, [[2]]):
        with pytest.raises(ValueError, match="^alphas must be a non-empty sequence"):
            ExperimentPlan(**{**good, "alphas": bad})
    for bad in (None, "x", [[0.1] * 6], {"s": 0.5}):
        with pytest.raises(ValueError, match="^squeezing must be a number or a sequence"):
            ExperimentPlan(**{**good, "squeezing": bad})


def test_plan_seed_must_be_non_negative():
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
        ExperimentPlan(n=5, k=2, squeezing=0.5, master_seed=-1)
    assert ExperimentPlan(n=5, k=2, squeezing=0.5, master_seed=0).master_seed == 0


def test_thread_count_follows_the_plan_integer_rule():
    plan = ExperimentPlan(n=6, k=3, squeezing=0.5, alphas=(2,), n_samples=3)
    want, _ = run_experiment(plan, threads=1)
    assert np.array_equal(run_experiment(plan, threads=2.0)[0], want)
    for bad in (1.5, True, "x"):
        with pytest.raises(ValueError, match="^thread count must be an integer"):
            run_experiment(plan, threads=bad)
    with pytest.raises(ValueError, match="^thread count must be >= 1, got 0"):
        run_experiment(plan, threads=0)
