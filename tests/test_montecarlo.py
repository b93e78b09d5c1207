import numpy as np
import pytest
from oracles import haar_unitary, purity_symmetry_check

from gbs_page import (
    ExperimentPlan,
    SampleFailure,
    equal_squeezing_spectrum,
    estimate_Vd,
    haar_frame,
    jacobi_transmissions,
    page_average,
    reduced_covariance_general,
    renyi_entropy,
    run_experiment,
    s2_variance_identity,
    symplectic_eigenvalues,
    variance_trend,
)
from gbs_page import montecarlo
from gbs_page.entropy import bidiagonal_entropies
from gbs_page.haar import _bidiagonal_squares


def test_full_partition_gives_zero():
    plan = ExperimentPlan(n=10, k=10, squeezing=0.7, alphas=(1, 2), n_samples=5,
                          master_seed=1)
    records, summary = run_experiment(plan)
    for rec in records:
        for val in rec.entropies.values():
            assert abs(val) <= 1e-8
    assert abs(summary.per_alpha[1].mean) <= 1e-8


def test_pure_state_at_strong_squeezing_gives_exact_zero():
    # k = n leaves no transmission eigenvalue: every nu is exactly one.
    plan = ExperimentPlan(n=40, k=40, squeezing=3.0, alphas=(1, 2, 3), n_samples=5,
                          master_seed=3)
    records, summary = run_experiment(plan)
    assert all(v == 0.0 for rec in records for v in rec.entropies.values())
    assert all(st.mean == 0.0 for st in summary.per_alpha.values())


def test_vacuum_gives_exact_zero():
    plan = ExperimentPlan(n=8, k=3, squeezing=0.0, alphas=(1, 2, 3), n_samples=4,
                          master_seed=2)
    records, _ = run_experiment(plan)
    for rec in records:
        assert all(v == 0.0 for v in rec.entropies.values())


def test_per_mode_pure_state_gives_exact_zero():
    # k = n leaves the other side empty: no frame is drawn, every entropy is
    # exactly zero at any squeezing, and W is the identity (Tr W^i = n).
    plan = ExperimentPlan(n=40, k=40, squeezing=tuple(np.linspace(0.0, 3.0, 40)),
                          alphas=(1, 2, 3), n_samples=5, master_seed=3, trw_max=2)
    records, summary = run_experiment(plan)
    assert all(v == 0.0 for rec in records for v in rec.entropies.values())
    assert all(rec.trw == (40.0, 40.0) for rec in records)
    assert all(st.mean == 0.0 for st in summary.per_alpha.values())


def test_equal_squeezing_runs_on_the_calling_thread(monkeypatch):
    # Two blocks and two threads: the records are the one-thread ones, and no
    # worker pool is started.
    plan = ExperimentPlan(n=40, k=17, squeezing=0.5, alphas=(1, 2), n_samples=70,
                          master_seed=2)
    want, _ = run_experiment(plan, threads=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("an equal-squeezing run started a worker pool")

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    assert run_experiment(plan, threads=2)[0] == want


def test_equal_squeezing_with_traces_keeps_the_workers(monkeypatch):
    # Trace blocks spend their time in a stacked eigvalsh that releases the
    # interpreter lock, so two threads start a pool of two, with the same
    # records as one thread.
    plan = ExperimentPlan(n=40, k=17, squeezing=0.5, alphas=(2,), n_samples=70,
                          master_seed=2, trw_max=3)
    want, _ = run_experiment(plan, threads=1)
    pools = []

    class RecordingPool(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    assert run_experiment(plan, threads=2)[0] == want
    assert pools == [2]


def test_determinism_and_thread_independence():
    plan = ExperimentPlan(n=12, k=5, squeezing=0.4, alphas=(1, 2), n_samples=8,
                          master_seed=99)
    rec1, _ = run_experiment(plan, threads=1)
    rec2, _ = run_experiment(plan, threads=1)
    rec3, _ = run_experiment(plan, threads=3)
    for a, b, c in zip(rec1, rec2, rec3):
        assert a.entropies == b.entropies == c.entropies
        assert a.sample_index == c.sample_index


def test_per_sample_alpha_monotonicity():
    plan = ExperimentPlan(n=30, k=12, squeezing=0.6, alphas=(1, 2, 3, 5, 15),
                          n_samples=25, master_seed=7)
    records, _ = run_experiment(plan)
    for rec in records:
        vals = [rec.entropies[a] for a in (1, 2, 3, 5, 15)]
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


def test_trw_moments_recorded():
    plan = ExperimentPlan(n=12, k=6, squeezing=0.5, alphas=(2,), n_samples=3,
                          master_seed=13, trw_max=4)
    records, _ = run_experiment(plan)
    for rec in records:
        assert len(rec.trw) == 4
        # Tr W^i decreasing in i (eigenvalues in [0, 1])
        assert all(x >= y - 1e-12 for x, y in zip(rec.trw, rec.trw[1:]))


def test_equal_trw_are_power_sums_of_the_sample_draw():
    # The equal path takes Tr W^i from the sample's own transmission draw:
    # lambda = 1 - T, padded with k - m ones. k > n/2 here, so m = 3 < k = 6.
    plan = ExperimentPlan(n=9, k=6, squeezing=0.3, alphas=(2,), n_samples=3,
                          master_seed=21, trw_max=5)
    records, _ = run_experiment(plan)
    for rec in records:
        t = jacobi_transmissions(9, 6, master_seed=21, sample_index=rec.sample_index)
        lam = np.concatenate([1.0 - t, np.ones(3)])
        want = [np.sum(lam ** i) for i in range(1, 6)]
        assert t.size == 3 and np.allclose(rec.trw, want, rtol=0, atol=1e-12)


def test_unequal_trw_match_trW_moments():
    # Per-mode squeezing draws the same n x k frame as the equal path, and
    # its Tr W^i are traces of matrix powers of that frame's block x x^dag.
    s = tuple(np.linspace(0.1, 0.4, 6))
    plan = ExperimentPlan(n=6, k=2, squeezing=s, alphas=(2,), n_samples=2,
                          master_seed=4, trw_max=3)
    records, _ = run_experiment(plan)
    for rec in records:
        F = haar_frame(6, 2, master_seed=4, sample_index=rec.sample_index)
        x = F.T @ F
        block = x @ x.conj().T
        want = [np.trace(np.linalg.matrix_power(block, i)).real for i in range(1, 4)]
        assert np.allclose(rec.trw, want, rtol=0, atol=1e-12)


def test_unequal_trw_above_half_are_those_of_the_smaller_frame():
    # k = 6 of 9: the sample draws a 9 x 3 frame, and Tr W^i of the six
    # modes are the power sums of that frame's lambda plus 2k - n = 3.
    s = tuple(np.linspace(0.1, 0.4, 9))
    plan = ExperimentPlan(n=9, k=6, squeezing=s, alphas=(2,), n_samples=3, master_seed=4,
                          trw_max=4)
    records, _ = run_experiment(plan)
    for rec in records:
        F = haar_frame(9, 3, master_seed=4, sample_index=rec.sample_index)
        x = F.T @ F
        lam = np.linalg.eigvalsh(x @ x.conj().T)
        want = [np.sum(lam ** i) + 3 for i in range(1, 5)]
        assert np.allclose(rec.trw, want, rtol=0, atol=1e-12)


def test_unequal_sample_is_the_frame_covariance():
    s = np.linspace(-0.2, 0.7, 8)
    plan = ExperimentPlan(n=8, k=3, squeezing=tuple(s), alphas=(1, 2), n_samples=3,
                          master_seed=6)
    records, _ = run_experiment(plan)
    for rec in records:
        F = haar_frame(8, 3, master_seed=6, sample_index=rec.sample_index)
        nu = symplectic_eigenvalues(reduced_covariance_general(F, s))
        assert rec.entropies == {1: renyi_entropy(nu, 1), 2: renyi_entropy(nu, 2)}


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


def test_estimate_Vd_degenerate_partitions():
    assert np.allclose(estimate_Vd(6, 20, 0.0, 50, seed=1), 0.0)
    assert np.allclose(estimate_Vd(6, 20, 1.0, 50, seed=1), 0.0)


def test_estimate_Vd_positive_at_half():
    vd = estimate_Vd(4, 30, 0.5, 400, seed=23)
    assert vd.shape == (3,)
    assert vd[0] > 0  # V_2 = Var(Tr W) > 0


def test_s2_variance_identity_quick():
    out = s2_variance_identity(n=60, r=0.5, s=0.5, d_max=12, n_samples=300,
                               seed=29, n_boot=500)
    assert out["consistent"]
    assert out["model"] == pytest.approx(out["variance"], rel=0.5)


def test_weak_typicality_proxy():
    plan = ExperimentPlan.from_ratio(n=200, r=0.5, squeezing=0.5, alphas=(2,),
                                     n_samples=1000, master_seed=31)
    records, summary = run_experiment(plan)
    mean = summary.per_alpha[2].mean
    vals = np.array([rec.entropies[2] for rec in records])
    fraction = np.mean(np.abs(vals / mean - 1.0) < 0.05)
    assert fraction > 0.99


def test_sample_failure_aborts_with_index():
    plan = ExperimentPlan(n=4, k=2, squeezing=float("inf"), alphas=(2,),
                          n_samples=3, master_seed=1)
    with pytest.raises(SampleFailure) as err:
        run_experiment(plan)
    assert err.value.sample_index == 0


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


def test_non_finite_log_determinant_names_its_sample(monkeypatch):
    # The pivot check: in-range entries whose entropies come out non-finite.
    def entropies(diag, sup, s, alphas):
        values = bidiagonal_entropies(diag, sup, s, alphas)
        values[2][3] = np.inf
        return values

    monkeypatch.setattr(montecarlo, "bidiagonal_entropies", entropies)
    plan = ExperimentPlan(n=20, k=9, squeezing=0.5, alphas=(1, 2), n_samples=6, master_seed=1)
    with pytest.raises(SampleFailure, match="pivots") as err:
        run_experiment(plan)
    assert err.value.sample_index == 3 and isinstance(err.value.cause, ValueError)


@pytest.mark.parametrize("trw_max", [0, 3])
def test_blocks_match_one_sample_at_a_time_for_any_thread_count(trw_max):
    # Blocks of B and 7 samples: each row of a block's log-determinant pass
    # (and of its stacked eigvalsh) is the one-sample value, bit for bit, on
    # 1, 2 or 3 workers.
    size = montecarlo._BLOCK_SAMPLES
    plan = ExperimentPlan(n=400, k=200, squeezing=0.5, alphas=(1, 2, 3), n_samples=size + 7,
                          master_seed=8, trw_max=trw_max)
    assert [len(b) for b in montecarlo._blocks(plan)] == [size, 7]
    single = [rec for i in range(plan.n_samples)
              for rec in montecarlo._evaluate_block(plan, range(i, i + 1))]
    for threads in (1, 2, 3):
        records, _ = run_experiment(plan, threads=threads)
        assert records == single


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

    evaluate = montecarlo._evaluate_block
    small = ExperimentPlan(n=n, k=k, squeezing=0.5, n_samples=size + 3)
    seen = {}
    for threads in (1, 3):
        monkeypatch.setattr(montecarlo, "_evaluate_block", lambda plan, block: (
            seen.setdefault(threads, []).append(block) or evaluate(plan, block)))
        run_experiment(small, threads=threads)
    assert sorted(seen[1], key=min) == sorted(seen[3], key=min) == montecarlo._blocks(small)


PER_MODE_S = tuple(np.linspace(0.0, 0.6, 300))


@pytest.mark.parametrize("n,k", [(300, 140), (300, 160), (9, 6), (5, 5)])
def test_pairs_match_one_sample_at_a_time_for_any_thread_count(n, k):
    # Seven samples: three pairs and a single. Each sample's entropies and
    # Tr W^i are the ones it gets in a block of its own, and the entropies
    # are those of symplectic_eigenvalues of the smaller side's covariance,
    # bit for bit, on 1, 2 or 3 workers. m = 140 stacks 560 values.
    plan = ExperimentPlan(n=n, k=k, squeezing=PER_MODE_S[:n], alphas=(1, 2, 3), n_samples=7,
                          master_seed=8, trw_max=2)
    assert [len(b) for b in montecarlo._blocks(plan)] == [2, 2, 2, 1]
    single = [rec for i in range(plan.n_samples)
              for rec in montecarlo._evaluate_block(plan, range(i, i + 1))]
    m = min(k, n - k)
    for rec in single:
        nu = (symplectic_eigenvalues(reduced_covariance_general(
            haar_frame(n, m, master_seed=8, sample_index=rec.sample_index), PER_MODE_S[:n]))
            if m else [])
        assert rec.entropies == {a: renyi_entropy(nu, a) for a in (1, 2, 3)}
    for threads in (1, 2, 3):
        records, _ = run_experiment(plan, threads=threads)
        assert records == single


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
    # Every stacked eigvalsh raises: each sample is then solved alone, with
    # the same records; a one-sample solve that raises names its index.
    plan = ExperimentPlan(n=12, k=5, squeezing=tuple(np.linspace(0.0, 0.5, 12)),
                          alphas=(1, 2), n_samples=5, master_seed=3)
    want, _ = run_experiment(plan)
    eigvalsh, solved, fail_at = np.linalg.eigvalsh, [], []

    def stacked_fails(a):
        if a.ndim == 3 or len(solved) in fail_at:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        solved.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", stacked_fails)
    assert run_experiment(plan)[0] == want
    assert solved == [(10, 10)] * 5
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
        for rec in run_experiment(plan)[0]:
            t = jacobi_transmissions(n, k, master_seed=17, sample_index=rec.sample_index)
            nu = equal_squeezing_spectrum(t, k, s)
            for alpha in alphas:
                want = renyi_entropy(nu, alpha)
                assert (want > 0) == (t.size > 0)
                assert rec.entropies[alpha] == pytest.approx(want, rel=1e-12, abs=0)


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan(n=5, k=0, squeezing=0.5)
    with pytest.raises(ValueError):
        ExperimentPlan(n=5, k=6, squeezing=0.5)
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


def test_plan_integer_fields_take_integral_values_only():
    plan = ExperimentPlan(n=6.0, k=np.int64(3), squeezing=0.5, alphas=[2.0, 1],
                          n_samples=np.float64(3.0), master_seed="7", trw_max=2.0)
    assert plan == ExperimentPlan(n=6, k=3, squeezing=0.5, alphas=(2, 1), n_samples=3,
                                  master_seed=7, trw_max=2)
    assert all(type(getattr(plan, f)) is int
               for f in ("n", "k", "n_samples", "master_seed", "trw_max"))
    assert all(type(a) is int for a in plan.alphas)

    good = dict(n=6, k=3, squeezing=0.5, alphas=(2,), n_samples=3, master_seed=1, trw_max=0)
    for field in ("n", "k", "n_samples", "master_seed", "trw_max"):
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
    assert run_experiment(plan, threads=2.0)[0] == want
    for bad in (1.5, True, "x"):
        with pytest.raises(ValueError, match="^thread count must be an integer"):
            run_experiment(plan, threads=bad)
    with pytest.raises(ValueError, match="^thread count must be >= 1, got 0"):
        run_experiment(plan, threads=0)
