"""Tests of the benchmark itself: run with ``python -m pytest bench/tests -q``.

They use reduced sizes (except ``figure fig1 --scale desk``, which has no
smaller form) and take about a minute on two cores.
"""

import argparse
import csv
import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
import tracing
import workloads
from workloads import AnalyticSweep, FigureFig1, Simulate, check_analytic

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_simulate():
    return Simulate("simulate_n400", n=40, k=20, s=0.5, alphas=(1, 2, 3), samples=20)


def small_unequal():
    return Simulate("simulate_unequal_n400", n=40, k=20, s_high=0.1, alphas=(1, 2, 3),
                    samples=20)


def small_sweep():
    # Includes cells the series refuses (von Neumann at r = 0.5, s >= 2.5).
    return AnalyticSweep("analytic_sweep", alphas=(1, 2, 15), s_grid=(0.5, 2.5, 3.0),
                         r_grid=(0.25, 0.5, 0.75), ns=(100, None))


def run_one(workload, opdir, index=0, seed=5):
    """Prepare the workload, run operation ``index`` into ``opdir``, keep its files."""
    workload.prepare(seed, 2)
    opdir.mkdir(parents=True, exist_ok=True)
    code, wall, _, _ = run.spawn(workload.command(index, opdir), opdir, run.child_env())
    return workload.outcome(index, opdir, code, wall)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("make", [small_simulate, small_unequal, small_sweep,
                                  workloads.WORKLOADS["figure_fig1_desk"]])
def test_smoke_every_metric_printed_with_unit(make, trace, tmp_path, capsys):
    args = argparse.Namespace(workload="smoke", seed=3, seconds=0.1, trace=trace)
    result = run.measure(make(), args, tmp_path)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert {words[1]: words[-1] for words in printed if words[0] == "result"} == {
        m["name"]: m["unit"] for m in declared}


def test_simulate_gate_rejects_perturbed_reference(tmp_path):
    workload = small_simulate()
    assert run_one(workload, tmp_path).failed == 0
    workload.reference[2] *= 1.10
    outcome = workload.outcome(0, tmp_path, 0, 1.0)
    assert outcome.failed == 1 and "alpha 2" in outcome.details[0]


def test_unequal_gate_rejects_perturbed_reference(tmp_path):
    workload = small_unequal()
    assert run_one(workload, tmp_path).failed == 0
    workload.reference *= 1.25
    assert workload.outcome(0, tmp_path, 0, 1.0).failed == 1


def test_figure_gate_rejects_perturbed_reference(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "stdout").write_text("")
    (out / "manifest.json").write_text(json.dumps({"r_grid": [0.25, 0.5], "alphas": [1, 2]}))
    reference = {(1, 0.25): 10.0, (2, 0.25): 8.0, (1, 0.5): 12.0, (2, 0.5): 9.0}
    with open(out / "fig1_simulated.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "alpha", "mean", "stderr", "n_samples"])
        for (alpha, r), value in reference.items():
            writer.writerow([r, alpha, value + 0.01, 0.01, 100])
    (out / "fig1_analytic.csv").write_text("header\n" + "row\n" * 4)
    workload = FigureFig1("figure_fig1_desk")
    workload.prepare(1, 2)
    workload.reference = dict(reference)
    assert workload.outcome(0, tmp_path, 0, 1.0).failed == 0
    workload.reference[(2, 0.5)] = 9.5
    outcome = workload.outcome(0, tmp_path, 0, 1.0)
    assert outcome.failed == 1 and "(2, 0.5)" in outcome.details[0]


def test_analytic_gates_reject_perturbed_values(tmp_path):
    workload = small_sweep()
    outcome = run_one(workload, tmp_path)
    assert outcome.failed == 0 and 0 < outcome.answered < outcome.attempted
    cells = workload.ordered_cells(0)
    rows = json.loads((tmp_path / "results.json").read_text())["rows"]
    assert check_analytic(cells, rows) == {}

    def find(alpha, s, r, n):
        return next(i for i, c in enumerate(cells) if c[:4] == [alpha, s, r, n])

    def perturbed(idx, column, value):
        bad = [list(row) for row in rows]
        bad[idx][column] = value
        return check_analytic(cells, bad)

    lo, hi = find(1, 0.5, 0.25, 100), find(15, 0.5, 0.25, 100)
    assert hi in perturbed(hi, 1, rows[lo][1] + 0.1)  # S_15 above S_1
    mirror = find(2, 0.5, 0.75, None)
    assert mirror in perturbed(mirror, 1, rows[mirror][1] + 0.01)  # r <-> 1 - r
    assert lo in perturbed(lo, 2, 2e-3)  # bound above tol
    refused = next(i for i, row in enumerate(rows) if row[0] == "refused")
    assert refused in perturbed(refused, 2, 1e-4)  # refusal that met tol
    assert lo in perturbed(lo, 0, "error:ValueError")


def test_self_time_on_synthetic_span_tree():
    info = {}
    spans = [
        [1, None, "cli.main", 0.0, 10.0, 1, info],
        [2, 1, "haar.a", 1.0, 4.0, 1, info],
        [3, 1, "haar.b", 3.0, 6.0, 2, info],  # overlaps span 2 on another thread
        [4, 2, "states.c", 2.0, 3.0, 1, info],
        [5, 1, "entropy.d", 9.0, 12.0, 2, info],  # runs past its parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 10.0 - (5.0 + 1.0), 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == 4.0 and metrics["haar.self_s"] == 5.0
    assert metrics["haar.calls"] == 2 and metrics["entropy.self_s"] == 3.0


def test_worker_spans_take_the_fanout_parent():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2, timeout=10)
    sample = tracer.wrap("montecarlo.sample", lambda i: barrier.wait())

    def run_experiment(plan, threads):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(sample, range(2)))

    tracer.wrap("montecarlo.run_experiment", run_experiment,
                tracing._run_experiment, fanout=True)(None, threads=2)
    pool_span = next(s for s in tracer.spans if s[2] == "montecarlo.run_experiment")
    workers = [s for s in tracer.spans if s[2] == "montecarlo.sample"]
    assert [s[1] for s in workers] == [pool_span[0]] * 2
    assert len({s[5] for s in workers}) == 2
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["montecarlo.samples"] == 2
    assert 0.0 <= metrics["montecarlo.worker_idle_share"] < 1.0


def test_same_seed_commands_write_identical_files(tmp_path):
    for name in ("a", "b"):
        assert run_one(small_simulate(), tmp_path / name, index=4).failed == 0
    files = sorted(p.name for p in (tmp_path / "a" / "out").iterdir())
    assert files == ["sim_samples.csv", "sim_summary.json"]
    for f in files:
        assert (tmp_path / "a" / "out" / f).read_bytes() == (tmp_path / "b" / "out" / f).read_bytes()


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate_n400", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
