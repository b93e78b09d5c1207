"""Acceptance suite: one test per acceptance criterion, printing a PASS/FAIL
line each (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Three sub-criteria are implemented exactly as stated and marked
``xfail(strict=True)`` because the stated tolerance is unreachable at the
stated parameters (the convergence corrections are larger than the stated
band; see the companion ``*_scaling_law`` tests, which verify the same
physics at parameters where it holds):

* large-squeezing limit at s = 3 (corrections are O(1/s) ~ 20-26% there),
* von Neumann constant-term ratio at s = 0.01 (correction 1/ln(1/s^2) ~ 11%),
* von Neumann small-s Monte Carlo at s = 0.05 (same log correction, ~ 23%).
"""

import math
import os

import numpy as np
import pytest
from oracles import (
    build_M,
    build_W,
    haar_unitary,
    purity_symmetry_check,
    renyi_entropy_factored,
    symplectic_form,
)
from series_oracle import vn_series_coefficients, vn_series_constant

from gbs_page import (
    ExperimentPlan,
    estimate_Vd,
    page_average,
    page_limit,
    renyi_entropy,
    renyi_mode_entropy,
    renyi_unequal_small,
    run_experiment,
    s2_variance_identity,
    variance_trend,
)

FULL_SCALE = bool(os.environ.get("GBS_PAGE_FULL"))


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def _mc_vs_analytic(n, s, alphas, n_samples, seed, r_values, rel_allowance=0.02):
    """Max |mc - analytic| / (3 se + rel_allowance |analytic|) over the grid."""
    worst = 0.0
    worst_cell = None
    for r in r_values:
        plan = ExperimentPlan.from_ratio(
            n=n, r=r, squeezing=s, alphas=tuple(alphas),
            n_samples=n_samples, master_seed=seed + round(100 * r),
        )
        _, summary = run_experiment(plan)
        for alpha in alphas:
            tol = 1e-3 if alpha == 1 else 1e-8
            pred = page_average(alpha, n, plan.squeezing, r, tol=tol).value
            stats = summary.per_alpha[alpha]
            margin = 3 * stats.stderr + rel_allowance * abs(pred)
            ratio = abs(stats.mean - pred) / margin
            if ratio > worst:
                worst, worst_cell = ratio, (alpha, r)
    return worst, worst_cell


def test_criterion_1_fig1_desk_scale():
    worst, cell = _mc_vs_analytic(
        n=100, s=0.5, alphas=(1, 2, 3, 5, 15), n_samples=100, seed=9000,
        r_values=[round(0.1 * i, 2) for i in range(1, 10)],
    )
    ok = worst <= 1.0
    _report("1", ok, f"desk scale n=100: worst |mc-analytic|/(3se+2%) = "
                     f"{worst:.3f} at (alpha, r) = {cell}")
    assert ok


@pytest.mark.skipif(not FULL_SCALE, reason="set GBS_PAGE_FULL=1 for the n=400 run")
def test_criterion_1_fig1_full_scale():
    worst, cell = _mc_vs_analytic(
        n=400, s=0.5, alphas=(1, 2, 3, 4, 5, 6, 7, 15), n_samples=250, seed=9400,
        r_values=[round(0.1 * i, 2) for i in range(1, 10)],
    )
    ok = worst <= 1.0
    _report("1-full", ok, f"full scale n=400: worst ratio = {worst:.3f} at {cell}")
    assert ok


def test_criterion_2_renyi_small_s_limit():
    n, s, r = 400, 0.05, 0.5
    devs = {}
    for alpha in (2, 3, 5, 15):
        scaled = page_average(alpha, n, s, r, tol=1e-10).value / (n * s * s)
        devs[alpha] = abs(scaled / page_limit(alpha, "small", r)[0] - 1.0)
    ok = all(d <= 0.05 for d in devs.values())
    _report("2", ok, "series/(n s^2) vs alpha/(alpha-1) r(1-r) rel devs: "
            + ", ".join(f"a={a}: {d:.4f}" for a, d in devs.items()))
    assert ok


def _large_s_deviations(s, n=100, n_samples=100, seed=3000):
    plan = ExperimentPlan.from_ratio(
        n=n, r=0.5, squeezing=s, alphas=(1, 2, 3), n_samples=n_samples,
        master_seed=seed + int(s),
    )
    _, summary = run_experiment(plan)
    return {a: abs(summary.per_alpha[a].mean / (s * n) - 1.0) for a in (1, 2, 3)}


@pytest.mark.xfail(
    strict=True,
    reason="finite-s corrections to the strong-squeezing limit are O(1/s): "
    "18-26% at s=3, far above the stated 10% band; see the scaling-law test",
)
def test_criterion_3_large_s_limit_as_stated():
    devs = _large_s_deviations(3.0)
    ok = all(d <= 0.10 for d in devs.values())
    _report("3", ok, "S/(s n) deviation from 1 at s=3: "
            + ", ".join(f"a={a}: {d:.3f}" for a, d in devs.items())
            + " (stated 10% band; deviations are O(1/s), documented defect)")
    assert ok


def test_criterion_3_large_s_scaling_law():
    dev3 = _large_s_deviations(3.0)
    dev5 = _large_s_deviations(5.0)
    envelope = all(dev3[a] <= 1.0 / 3.0 and dev5[a] <= 1.0 / 5.0 for a in (1, 2, 3))
    approaching = all(dev5[a] < dev3[a] for a in (1, 2, 3))
    ok = envelope and approaching
    _report("3-law", ok,
            "S/(s n) -> 1 with O(1/s) deviations: "
            + ", ".join(f"a={a}: {dev3[a]:.3f}@s=3 -> {dev5[a]:.3f}@s=5"
                        for a in (1, 2, 3)))
    assert ok


def _vn_constant_ratio(s: float) -> float:
    return vn_series_constant(s) / (s * s * math.log(1.0 / s**2))


@pytest.mark.xfail(
    strict=True,
    reason="the constant-term ratio is 1 + 1/ln(1/s^2) + O(s^2); at s=0.01 "
    "that is 1.108, outside the stated 5% band (a 5% match needs s < e^-10)",
)
def test_criterion_4_constant_term_as_stated():
    ratio = _vn_constant_ratio(0.01)
    ok = abs(ratio - 1.0) <= 0.05
    _report("4a", ok, f"constant/(s^2 ln(1/s^2)) at s=0.01: {ratio:.4f} "
                      "(stated 5% band; correction is 1/ln(1/s^2), documented defect)")
    assert ok


def test_criterion_4_constant_term_scaling_law():
    law_ok = all(
        abs(_vn_constant_ratio(s) - (1.0 + 1.0 / math.log(1.0 / s**2))) <= 5e-3
        for s in (0.01, 0.001)
    )
    tiny = _vn_constant_ratio(1e-5)
    ok = law_ok and abs(tiny - 1.0) <= 0.05
    _report("4a-law", ok, f"ratio follows 1 + 1/ln(1/s^2); at s=1e-5: {tiny:.4f} "
                          "(within 5%)")
    assert ok


def _vn_small_s_mc(n=200, s=0.05, n_samples=200, seed=4000):
    plan = ExperimentPlan.from_ratio(n=n, r=0.5, squeezing=s, alphas=(1,),
                                     n_samples=n_samples, master_seed=seed)
    _, summary = run_experiment(plan)
    stats = summary.per_alpha[1]
    norm = n * s * s * math.log(1.0 / s**2)
    return stats.mean / norm, stats.stderr / norm


@pytest.mark.xfail(
    strict=True,
    reason="subleading log corrections put S1/(n s^2 ln(1/s^2)) near 0.31 at "
    "s=0.05, 23% above r(1-r)=0.25; outside the stated 15% band",
)
def test_criterion_4_von_neumann_small_s_mc_as_stated():
    ratio, _ = _vn_small_s_mc()
    ok = abs(ratio / 0.25 - 1.0) <= 0.15
    _report("4b", ok, f"MC S1/(n s^2 ln(1/s^2)) at n=200, s=0.05: {ratio:.4f} "
                      "(stated band 0.25 +- 15%; documented defect)")
    assert ok


def test_criterion_4_von_neumann_small_s_mc_vs_series():
    n, s = 200, 0.05
    ratio, se = _vn_small_s_mc(n=n, s=s)
    norm = n * s * s * math.log(1.0 / s**2)
    pred = page_average(1, n, s, 0.5, tol=1e-4).value / norm
    mc_ok = abs(ratio - pred) <= 3 * se + 0.01 * pred
    # the analytic normalized ratio decreases toward r(1-r) = 0.25 as s -> 0
    ratios = [
        page_average(1, n, sv, 0.5, tol=1e-4).value
        / (n * sv * sv * math.log(1.0 / sv**2))
        for sv in (0.05, 0.03, 0.02)
    ]
    trend_ok = all(a > b for a, b in zip(ratios, ratios[1:])) and ratios[-1] > 0.25
    ok = mc_ok and trend_ok
    _report("4b-law", ok, f"MC ratio {ratio:.4f} matches series {pred:.4f} within "
                          f"3se; normalized series decreasing toward 0.25: "
                          + " > ".join(f"{x:.4f}" for x in ratios))
    assert ok


def test_criterion_5_coefficient_cancellation_identity():
    worst = 0.0
    details = []
    for s in (0.3, 0.5, 1.0):
        x = 1.0 / np.cosh(2 * s) ** 2
        # partial sums approach the closed form like (1-x)/(4x) / I
        i_max = 4_000_000
        partial = float(vn_series_coefficients(i_max, s).sum())
        target = vn_series_constant(s)
        rel = abs(partial - target) / abs(target)
        worst = max(worst, rel)
        details.append(f"s={s}: rel={rel:.2e}")
    ok = worst <= 1e-6
    _report("5", ok, "partial coefficient sums vs (1/2)ln(sinh^2(2s)/4) + "
                     "cosh(2s) artanh(sech(2s)): " + ", ".join(details))
    assert ok


def test_criterion_6_unequal_small_squeezing():
    rng = np.random.default_rng(606)
    n, r, alpha, n_samples = 60, 0.5, 2, 5000
    svec = tuple(rng.uniform(0.0, 0.05, n))
    plan = ExperimentPlan.from_ratio(n=n, r=r, squeezing=svec, alphas=(alpha,),
                                     n_samples=n_samples, master_seed=66)
    _, summary = run_experiment(plan)
    pred = renyi_unequal_small(alpha, r, svec)
    dev = abs(summary.per_alpha[alpha].mean / pred - 1.0)
    ok = dev <= 0.10
    _report("6", ok, f"MC mean {summary.per_alpha[alpha].mean:.6f} vs leading-order "
                     f"{pred:.6f} (rel dev {dev:.3f}, band 10%)")
    assert ok


def test_criterion_7_variance_constancy_and_moment_identity():
    trend = variance_trend([50, 100, 200], r=0.5, s=0.5, alpha=2,
                           n_samples=500, seed=70)
    variances = [est.variance for est in trend]
    overlap = max(est.ci_low for est in trend) <= min(est.ci_high for est in trend)
    bounded = max(variances) <= 2.0 * min(variances)

    ident = s2_variance_identity(n=100, r=0.5, s=0.5, d_max=12, n_samples=500,
                                 seed=71)
    ok = overlap and bounded and ident["consistent"]
    _report("7", ok,
            f"Var(S2) at n=50/100/200: {[f'{v:.4f}' for v in variances]} "
            f"(CIs overlap: {overlap}, max<=2min: {bounded}); moment-expansion "
            f"model {ident['model']:.4f} vs variance {ident['variance']:.4f}, "
            f"bootstrap CIs overlap: {ident['consistent']}")
    assert ok


def test_criterion_8_property_suite():
    checks = {}

    U = haar_unitary(64, master_seed=88, sample_index=0)
    checks["unitarity"] = np.abs(U.conj().T @ U - np.eye(64)).max() <= 1e-10

    M = build_M(U, 20)
    omega = symplectic_form(20)
    checks["M anticommutes"] = np.abs(omega @ M + M @ omega).max() <= 1e-10

    W = build_W(U, 20)
    checks["TrM^2i = 2TrW^i"] = all(
        abs(np.trace(np.linalg.matrix_power(M, 2 * i))
            - 2 * np.trace(np.linalg.matrix_power(W, i)).real) <= 1e-8
        for i in (1, 2, 3)
    )

    checks["complementary reductions"] = all(
        purity_symmetry_check(haar_unitary(16, 888, idx), 0.5, 6)
        for idx in range(5)
    )

    plan = ExperimentPlan(n=24, k=9, squeezing=0.6, alphas=(1, 2, 3, 5, 15),
                          n_samples=20, master_seed=8)
    records, _ = run_experiment(plan)
    checks["alpha monotone per sample"] = all(
        all(rec.entropies[a] >= rec.entropies[b] - 1e-9
            for a, b in [(1, 2), (2, 3), (3, 5), (5, 15)])
        for rec in records
    )

    checks["r <-> 1-r symmetry"] = all(
        page_average(alpha, 100, 0.5, 0.3).value
        == page_average(alpha, 100, 0.5, 0.7).value
        for alpha in (1, 2, 3)
    )

    rng = np.random.default_rng(1)
    nu = 1 + 9 * rng.random(6)
    checks["renyi == factored"] = all(
        abs(renyi_entropy(nu, a) - renyi_entropy_factored(nu, a)) <= 1e-10
        for a in (2, 3, 4, 5, 15)
    )

    grid = np.linspace(1.001, 50, 200)
    ident = 0.5 * np.log((grid**2 - 1) / 4) + grid * np.arctanh(1 / grid)
    checks["mode entropy identity"] = np.abs(renyi_mode_entropy(grid, 1) - ident).max() <= 1e-12

    ok = all(checks.values())
    _report("8", ok, "; ".join(f"{name}: {'ok' if val else 'FAIL'}"
                               for name, val in checks.items()))
    assert ok
