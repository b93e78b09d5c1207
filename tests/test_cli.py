import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest
from oracles import householder_frame

import gbs_page
from gbs_page.cli import (
    EXIT_NUMERICAL,
    EXIT_USAGE,
    FigureParams,
    main,
    run_figure,
)
from gbs_page.haar import _ginibre


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_analytic_zero_squeezing(capsys):
    code, out, _ = run_cli(
        capsys, "analytic", "--alpha", "2", "--s", "0", "--n", "100",
        "--r-grid", "0:1:0.25",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "alpha", "s", "n", "value", "per_mode_value",
                      "nodes", "trunc_err"]
    assert len(rows) == 5
    assert all(float(row[4]) == 0.0 for row in rows)


def test_analytic_multiple_alphas_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "analytic", "--alpha", "1,2", "--s", "0.5", "--n", "50",
        "--r-grid", "0.5:0.5:1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2
    row = payload["rows"][0]
    assert row["alpha"] == 1 and row["realized_r"] == 0.5
    assert row["value"] > 0


def test_analytic_asymptotic(capsys):
    code, out, _ = run_cli(
        capsys, "analytic", "--alpha", "2", "--s", "0.5", "--asymptotic",
        "--r-grid", "0.5:0.5:1",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][3] == "inf"
    assert float(rows[0][4]) == float(rows[0][5])  # per-mode value in both


def test_analytic_strong_and_weak_squeezing_answered(capsys):
    for alpha, s in (("2", "3"), ("1", "3"), ("1", "0.005")):
        code, out, _ = run_cli(
            capsys, "analytic", "--alpha", alpha, "--s", s, "--n", "400",
            "--r-grid", "0:1:0.1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 11
        assert all(float(row[7]) <= 1e-3 for row in rows)
        assert float(rows[5][4]) > 0 and int(rows[5][6]) > 0


def test_analytic_tol_below_resolution_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "analytic", "--alpha", "1", "--s", "3", "--n", "400",
        "--r-grid", "0.5:0.5:1", "--tol", "1e-13",
    )
    assert code == EXIT_USAGE
    assert "float64 resolution" in err


def test_analytic_flag_validation(capsys):
    code, _, _ = run_cli(capsys, "analytic", "--alpha", "2", "--s", "0.5",
                         "--r-grid", "0:1:0.5")
    assert code == EXIT_USAGE  # neither --n nor --asymptotic
    code, _, _ = run_cli(capsys, "analytic", "--alpha", "2", "--s", "0.5",
                         "--n", "10", "--r-grid", "oops")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "analytic", "--s", "0.5", "--n", "10",
                         "--r-grid", "0:1:0.5")
    assert code == EXIT_USAGE  # argparse: missing --alpha


def test_simulate_full_partition_zeros(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "10", "--k", "10", "--s", "0.7",
        "--alphas", "1,2", "--samples", "5", "--seed", "1",
        "--threads", "1", "--out-prefix", prefix,
    )
    assert code == 0
    header, rows = parse_csv((tmp_path / "run_samples.csv").read_text())
    assert header == ["sample_index", "alpha", "entropy"]
    assert len(rows) == 10
    assert all(abs(float(row[2])) <= 1e-8 for row in rows)
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["results"]["realized_r"] == 1.0
    assert summary["config"]["seed"] == 1


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    args = ["simulate", "--n", "8", "--k", "4", "--s", "0.5", "--alphas", "1,2",
            "--samples", "6", "--seed", "42", "--threads", "1"]
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(capsys, *args, "--out-prefix", p1)[0] == 0
    assert run_cli(capsys, *args, "--out-prefix", p2)[0] == 0
    assert (tmp_path / "a_samples.csv").read_bytes() == (tmp_path / "b_samples.csv").read_bytes()
    s1 = json.loads((tmp_path / "a_summary.json").read_text())
    s2 = json.loads((tmp_path / "b_summary.json").read_text())
    s1["config"].pop("out_prefix")
    s2["config"].pop("out_prefix")
    assert s1 == s2


def test_simulate_thread_count_does_not_change_results(tmp_path, capsys):
    args = ["simulate", "--n", "8", "--k", "4", "--s", "0.5", "--alphas", "2",
            "--samples", "6", "--seed", "42"]
    p1, p2 = str(tmp_path / "t1"), str(tmp_path / "t2")
    assert run_cli(capsys, *args, "--threads", "1", "--out-prefix", p1)[0] == 0
    assert run_cli(capsys, *args, "--threads", "3", "--out-prefix", p2)[0] == 0
    assert (tmp_path / "t1_samples.csv").read_bytes() == (tmp_path / "t2_samples.csv").read_bytes()
    s1 = json.loads((tmp_path / "t1_summary.json").read_text())
    s2 = json.loads((tmp_path / "t2_summary.json").read_text())
    assert s1["results"] == s2["results"]
    assert s2["config"]["threads"] == 3


def test_simulate_per_mode_thread_count_does_not_change_results(tmp_path, capsys):
    config = {"n": 9, "k": 4, "s": [0.4, -0.2, 0.1, 0.7, 0.0, 0.3, -0.5, 0.2, 0.6],
              "alphas": [1, 2, 3], "samples": 7, "seed": 11}
    for name, threads in (("t1", "1"), ("t3", "3")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, "out_prefix": str(tmp_path / name)}))
        assert run_cli(capsys, "simulate", "--config", str(path), "--threads", threads)[0] == 0
    assert (tmp_path / "t1_samples.csv").read_bytes() == (tmp_path / "t3_samples.csv").read_bytes()
    s1 = json.loads((tmp_path / "t1_summary.json").read_text())
    s3 = json.loads((tmp_path / "t3_summary.json").read_text())
    assert s1["results"] == s3["results"]
    assert (s1["config"]["threads"], s3["config"]["threads"]) == (1, 3)


def test_simulate_config_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "orig")
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "9", "--r", "0.4", "--s", "0.3",
        "--alphas", "1,3", "--samples", "4", "--seed", "5", "--threads", "1",
        "--out-prefix", prefix,
    )
    assert code == 0
    summary_path = tmp_path / "orig_summary.json"
    original_samples = (tmp_path / "orig_samples.csv").read_bytes()
    original_summary = summary_path.read_bytes()

    # re-ingest the emitted summary as the run config: bit-identical rerun
    code, _, _ = run_cli(capsys, "simulate", "--config", str(summary_path))
    assert code == 0
    assert (tmp_path / "orig_samples.csv").read_bytes() == original_samples
    assert summary_path.read_bytes() == original_summary


def test_simulate_config_threads_flag_overrides(tmp_path, capsys):
    config = {"n": 8, "k": 4, "s": 0.5, "alphas": [1, 2], "samples": 6, "seed": 42,
              "threads": 1}
    for name, threads in (("c1", 1), ("c2", 4)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, "threads": threads,
                                    "out_prefix": str(tmp_path / name)}))
    assert run_cli(capsys, "simulate", "--config", str(tmp_path / "c1.json"))[0] == 0
    assert run_cli(capsys, "simulate", "--config", str(tmp_path / "c2.json"),
                   "--threads", "2")[0] == 0
    s1 = json.loads((tmp_path / "c1_summary.json").read_text())
    s2 = json.loads((tmp_path / "c2_summary.json").read_text())
    assert s2["config"]["threads"] == 2  # the flag, not the config's 4
    assert s1["results"] == s2["results"]
    assert (tmp_path / "c1_samples.csv").read_bytes() == (tmp_path / "c2_samples.csv").read_bytes()


def test_simulate_config_threads_auto(tmp_path, capsys):
    path = tmp_path / "auto.json"
    path.write_text(json.dumps({"n": 6, "k": 3, "s": 0.5, "alphas": [2], "samples": 3,
                                "seed": 1, "threads": "auto",
                                "out_prefix": str(tmp_path / "auto")}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0, err
    summary = json.loads((tmp_path / "auto_summary.json").read_text())
    if hasattr(os, "process_cpu_count"):
        usable = os.process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count()
    assert summary["config"]["threads"] == (usable or 1)

    path.write_text(json.dumps({"n": 6, "k": 3, "s": 0.5, "alphas": [2], "samples": 3,
                                "seed": 1, "threads": "many"}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == EXIT_USAGE and "thread count" in err


def test_threads_auto_counts_the_cpus_this_process_may_use(tmp_path, capsys, monkeypatch):
    # Under taskset or a cpuset the affinity mask is smaller than the host.
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    prefix = str(tmp_path / "run")
    code, _, err = run_cli(capsys, "simulate", "--n", "6", "--k", "3", "--s", "0.5",
                           "--alphas", "2", "--samples", "2", "--seed", "1",
                           "--out-prefix", prefix)
    assert code == 0, err
    assert json.loads((tmp_path / "run_summary.json").read_text())["config"]["threads"] == 1


@pytest.mark.parametrize("threads", [2.7, True])
def test_simulate_config_threads_not_an_integer(tmp_path, capsys, threads):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 6, "k": 3, "s": 0.5, "alphas": [2], "samples": 3,
                                "seed": 1, "threads": threads}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == EXIT_USAGE and "thread count" in err and out == ""


def test_simulate_summary_records_sampler(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, _, _ = run_cli(capsys, "simulate", "--n", "6", "--k", "3", "--s", "0.4",
                         "--alphas", "2", "--samples", "2", "--seed", "3",
                         "--threads", "1", "--out-prefix", prefix)
    assert code == 0
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["config"]["sampler"] == gbs_page.montecarlo.SAMPLER == 5

    for old_sampler in (1, 2, 3, 4):
        summary["config"]["sampler"] = old_sampler
        old = tmp_path / "old_summary.json"
        old.write_text(json.dumps(summary))
        code, out, err = run_cli(capsys, "simulate", "--config", str(old))
        assert code == EXIT_USAGE and f"sampler {old_sampler}" in err
        assert "replayed" in err and out == ""

    # a config written before samplers were recorded runs under the current one
    del summary["config"]["sampler"]
    old.write_text(json.dumps(summary))
    code, _, _ = run_cli(capsys, "simulate", "--config", str(old))
    rerun = json.loads((tmp_path / "run_summary.json").read_text())
    assert code == 0 and rerun["config"]["sampler"] == 5


def _assert_samples_csv(path, pinned):
    header, rows = parse_csv(path.read_text())
    _, want = parse_csv("sample_index,alpha,entropy\n" + pinned)
    assert header == ["sample_index", "alpha", "entropy"] and len(rows) == len(want)
    for got, ref in zip(rows, want):
        assert got[:2] == ref[:2]
        assert math.isclose(float(got[2]), float(ref[2]), rel_tol=1e-13, abs_tol=0)


def test_simulate_equal_samples_unchanged_since_sampler_4(tmp_path, capsys):
    # The samples CSV of this command under sampler 4, which draws the
    # transmission eigenvalues of each sample from the Jacobi bidiagonal model.
    sampler4 = """\
0,1,0.90109112563080651
0,2,0.529779638592216
0,3,0.42133293603547212
1,1,0.73693245276506958
1,2,0.40429385600179074
1,3,0.31819997005953882
2,1,0.31775413222274668
2,2,0.14458082507697489
2,3,0.11097015483982431
3,1,0.80950443152852125
3,2,0.4369108621079637
3,3,0.3432022012271399
"""
    prefix = str(tmp_path / "run")
    code, _, _ = run_cli(capsys, "simulate", "--n", "6", "--k", "3", "--s", "0.4",
                         "--alphas", "1,2,3", "--samples", "4", "--seed", "3",
                         "--threads", "1", "--out-prefix", prefix)
    assert code == 0
    _assert_samples_csv(tmp_path / "run_samples.csv", sampler4)


def test_simulate_per_mode_samples_unchanged_since_sampler_3(tmp_path, capsys):
    # The samples CSV of this per-mode config under sampler 3: sampler 4
    # changed only the equal-squeezing draw, and sampler 5 only per-mode
    # samples with k > n/2 (here k = 3 of 7; the frame's Cholesky QR
    # changes them by roundoff).
    sampler3 = """\
0,1,0.96521942013629858
0,2,0.57115220969707226
0,3,0.45947973697831745
1,1,0.67253322886075306
1,2,0.34992004959215633
1,3,0.27322474936772806
2,1,0.9581204634149616
2,2,0.58870035479332816
2,3,0.47956321659606549
3,1,0.77238499356086021
3,2,0.43170681631074626
3,3,0.34254779399103241
"""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 7, "k": 3, "s": [0.1, 0.25, -0.3, 0.5, 0.0, 0.8, 0.35],
                                  "alphas": [1, 2, 3], "samples": 4, "seed": 5, "threads": 1,
                                  "out_prefix": str(tmp_path / "run")}))
    code, _, _ = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 0
    _assert_samples_csv(tmp_path / "run_samples.csv", sampler3)


def test_simulate_per_mode_samples_above_half_since_sampler_5(tmp_path, capsys):
    # The samples CSV of the same per-mode config at k = 5 of 7 under
    # sampler 5, which evaluates the other n - k = 2 modes: the pinned values
    # are the oracle route's entropies of the covariance of each index's
    # 7 x 2 Householder frame.
    sampler5 = """\
0,1,0.60783872615072565
0,2,0.3364088095015948
0,3,0.26530552236420918
1,1,0.80800678021707983
1,2,0.49689113805717666
1,3,0.40287402171528852
2,1,0.65524117188449027
2,2,0.36954682866618688
2,3,0.29257747980742549
3,1,0.91097765228235306
3,2,0.59125755884722497
3,3,0.48780115927984019
"""
    s = [0.1, 0.25, -0.3, 0.5, 0.0, 0.8, 0.35]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 7, "k": 5, "s": s, "alphas": [1, 2, 3], "samples": 4,
                                  "seed": 5, "threads": 1, "out_prefix": str(tmp_path / "run")}))
    code, _, _ = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 0
    _assert_samples_csv(tmp_path / "run_samples.csv", sampler5)

    _, pinned = parse_csv(sampler5)
    for index, alpha, value in pinned:
        frame = householder_frame(_ginibre(7, 2, master_seed=5, sample_index=int(index)))
        nu = gbs_page.symplectic_eigenvalues(gbs_page.reduced_covariance_general(frame, s))
        assert math.isclose(gbs_page.renyi_entropy(nu, int(alpha)), float(value),
                            rel_tol=1e-13, abs_tol=0)


def test_simulate_config_strictness(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 5, "k": 2, "s": 0.5, "alphas": [2],
                               "samples": 2, "seed": 1, "bogus": True}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(bad))
    assert code == EXIT_USAGE and "bogus" in err

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 5, "k": 2}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(missing))
    assert code == EXIT_USAGE and "missing" in err.lower()

    code, _, err = run_cli(capsys, "simulate", "--config", str(bad), "--n", "5")
    assert code == EXIT_USAGE and "--config" in err


def test_simulate_flag_validation(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--s", "0.5",
                           "--alphas", "2", "--samples", "2", "--seed", "1")
    assert code == EXIT_USAGE and "--k" in err
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--k", "2", "--r", "0.5",
                           "--s", "0.5", "--alphas", "2", "--samples", "2",
                           "--seed", "1")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--k", "2",
                           "--s", "0.1,0.2", "--alphas", "2", "--samples", "2",
                           "--seed", "1")
    assert code == EXIT_USAGE  # squeezing vector length mismatch


def test_simulate_numerical_failure_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "4", "--k", "2", "--s", "inf",
        "--alphas", "2", "--samples", "2", "--seed", "1", "--threads", "1",
    )
    assert code == EXIT_NUMERICAL
    assert "sample 0" in err


def test_limits_von_neumann_small(capsys):
    code, out, _ = run_cli(capsys, "limits", "--alpha", "1", "--regime", "small",
                           "--r-grid", "0:1:0.5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "alpha", "regime", "value", "normalization_label"]
    assert [float(row[3]) for row in rows] == [0.0, 0.25, 0.0]
    assert all(row[4] == "s^2 log(1/s^2) n" for row in rows)


def test_limits_renyi_values(capsys):
    code, out, _ = run_cli(capsys, "limits", "--alpha", "2", "--regime", "large",
                           "--r-grid", "0.25:0.25:1")
    _, rows = parse_csv(out)
    assert float(rows[0][3]) == 0.5 and rows[0][4] == "s n"

    code, out, _ = run_cli(capsys, "limits", "--alpha", "3", "--regime", "small",
                           "--r-grid", "0.5:0.5:1")
    _, rows = parse_csv(out)
    assert float(rows[0][3]) == pytest.approx(0.375)
    assert rows[0][4] == "s^2 n"


def test_limits_s_vector(tmp_path, capsys):
    svec = tmp_path / "svec.txt"
    svec.write_text("0.01 0.02\n0.03\n")
    code, out, _ = run_cli(capsys, "limits", "--alpha", "2", "--regime", "small",
                           "--s-vector", str(svec), "--r-grid", "0.5:0.5:1")
    assert code == 0
    _, rows = parse_csv(out)
    expect = 2.0 * 0.25 * (0.01**2 + 0.02**2 + 0.03**2)
    assert float(rows[0][3]) == pytest.approx(expect, rel=1e-12)
    assert rows[0][4] == "sum s_i^2"

    code, _, err = run_cli(capsys, "limits", "--alpha", "1", "--regime", "small",
                           "--s-vector", str(svec), "--r-grid", "0.5:0.5:1")
    assert code == EXIT_USAGE


def test_figure_bundle_tiny(tmp_path):
    out = tmp_path / "fig"
    manifest = run_figure(
        "fig1", str(out), FigureParams(n=12, n_samples=5), seed=3,
        alphas=(1, 2), grid=[0.25, 0.5], gnuplot=True,
    )
    assert (out / "fig1_analytic.csv").exists()
    assert (out / "fig1_simulated.csv").exists()
    assert (out / "fig1.gp").exists()
    stored = json.loads((out / "manifest.json").read_text())
    assert stored["alphas"] == [1, 2] and stored["seed"] == 3
    assert manifest["files"][0] == "fig1_analytic.csv"

    # deterministic re-run
    before = (out / "fig1_simulated.csv").read_bytes()
    run_figure("fig1", str(out), FigureParams(n=12, n_samples=5), seed=3,
               alphas=(1, 2), grid=[0.25, 0.5], gnuplot=True)
    assert (out / "fig1_simulated.csv").read_bytes() == before


def test_figure_page_vs_s_strong_squeezing_rows(tmp_path):
    out = tmp_path / "pvs"
    manifest = run_figure(
        "page-vs-s", str(out), FigureParams(n=12, n_samples=4), seed=2,
        alphas=(1, 2), grid=[0.5, 3.0], mc_grid=[0.5],
    )
    assert "analytic_skipped" not in manifest
    _, rows = parse_csv((out / "page_vs_s_analytic.csv").read_text())
    assert [(row[0], row[1]) for row in rows] == [
        ("0.5", "1"), ("0.5", "2"), ("3", "1"), ("3", "2")]
    # S/(s n) below its strong-squeezing limit 2 min(r, 1-r) = 1
    assert all(0 < float(row[2]) < float(row[3]) == 1.0 for row in rows)


def test_figure_small_s_desk_cli(tmp_path, capsys):
    out = tmp_path / "smalls"
    code, _, _ = run_cli(capsys, "figure", "small-s", "--scale", "desk",
                         "--threads", "1", "--out-dir", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n"] == 100 and manifest["n_samples"] == 100
    _, rows = parse_csv((out / "small_s_analytic.csv").read_text())
    # scaled values approach the weak-squeezing limit at the small-s end
    first = [row for row in rows if row[0] == "0.05"]
    for row in first:
        assert float(row[2]) == pytest.approx(float(row[3]), rel=0.05)


FIGURE_SCHEMAS = {
    "fig1": (
        ["r", "alpha", "s", "n", "value", "per_mode_value", "nodes", "trunc_err"],
        ["r", "alpha", "mean", "stderr", "n_samples"],
        {"s", "r_grid"},
    ),
    "small-s": (
        ["s", "alpha", "scaled_value", "limit_value"],
        ["s", "alpha", "scaled_mean", "scaled_stderr", "n_samples"],
        {"r", "s_grid", "mc_s_grid"},
    ),
    "page-vs-s": (
        ["s", "alpha", "scaled_value", "limit_value"],
        ["s", "alpha", "scaled_mean", "scaled_stderr", "n_samples"],
        {"r", "analytic_s_grid", "mc_s_grid"},
    ),
}


@pytest.mark.parametrize("name", sorted(FIGURE_SCHEMAS))
def test_figure_schema(tmp_path, name):
    analytic_header, simulated_header, grid_keys = FIGURE_SCHEMAS[name]
    grid = [0.25, 0.5]
    manifest = run_figure(name, str(tmp_path), FigureParams(n=12, n_samples=3), seed=5,
                          alphas=(2, 3), grid=grid, gnuplot=True)
    analytic, simulated, script = manifest["files"]
    header, rows = parse_csv((tmp_path / analytic).read_text())
    assert header == analytic_header and len(rows) == 4
    header, rows = parse_csv((tmp_path / simulated).read_text())
    assert header == simulated_header
    # the manifest names exactly the points each file holds
    assert sorted({float(row[0]) for row in rows}) == manifest.get("mc_s_grid", grid)
    assert json.loads((tmp_path / "manifest.json").read_text()) == manifest
    common = {"figure", "n", "n_samples", "alphas", "seed", "tol", "files"}
    assert set(manifest) == common | grid_keys
    assert all(manifest[key] == grid for key in grid_keys - {"r", "s", "mc_s_grid"})

    plot = (tmp_path / script).read_text().split("plot \\\n", 1)[1].split(", \\\n")
    limit_lines = [line for line in plot if "dt 2" in line]
    if name == "fig1":
        assert limit_lines == [] and len(plot) == 4
        assert all(f"'{analytic}' using 1:($2=={a}?$5:1/0) with lines title 'alpha={a}'"
                   in plot[2 * i] for i, a in enumerate((2, 3)))
    else:
        assert len(limit_lines) == 2 and len(plot) == 6
        assert all(f"'{analytic}' using 1:($2=={a}?$4:1/0) with lines dt 2"
                   in plot[3 * i + 1] for i, a in enumerate((2, 3)))


def test_figure_limit_law_must_share_the_figure_scale(tmp_path):
    # The order-1 weak-squeezing law is per s^2 log(1/s^2) n, not the n s^2
    # the small-s figure divides by.
    with pytest.raises(ValueError, match="scaled by s\\^2 n"):
        run_figure("small-s", str(tmp_path / "out"), FigureParams(n=12, n_samples=3), seed=5,
                   alphas=(2, 1), grid=[0.25])
    assert list(tmp_path.iterdir()) == []


def test_figure_fig1_takes_no_mc_grid(tmp_path):
    with pytest.raises(ValueError, match="mc_grid"):
        run_figure("fig1", str(tmp_path), FigureParams(n=12, n_samples=3), seed=5,
                   grid=[0.5], mc_grid=[0.5])


def test_unknown_figure_or_scale(capsys):
    code, _, _ = run_cli(capsys, "figure", "nope", "--out-dir", "x")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "figure", "fig1", "--scale", "huge", "--out-dir", "x")
    assert code == EXIT_USAGE


def test_cli_import_leaves_out_scipy():
    # scipy is a test-only dependency; importing it roughly doubled start-up.
    src = os.path.dirname(os.path.dirname(gbs_page.__file__))
    code = "import sys, gbs_page.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "False"


def test_equal_simulate_leaves_out_scipy(tmp_path):
    # A lazy import inside the sampling path would not show at import time.
    src = os.path.dirname(os.path.dirname(gbs_page.__file__))
    code = ("import sys, gbs_page.cli\n"
            "argv = ['simulate', '--n', '12', '--k', '5', '--s', '0.5', '--alphas', '1,2',\n"
            "        '--samples', '3', '--seed', '1', '--threads', '1',\n"
            f"        '--out-prefix', {str(tmp_path / 'run')!r}]\n"
            "print(gbs_page.cli.main(argv), 'scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "0 False"


@pytest.mark.parametrize("argv", [
    ("analytic", "--alpha", "2", "--s", "0.5", "--n", "10", "--r-grid", "0:inf:1"),
    ("analytic", "--alpha", "2", "--s", "0.5", "--asymptotic", "--r-grid", "0:1:inf"),
    ("limits", "--alpha", "2", "--regime", "small", "--r-grid", "0:inf:0.5"),
    ("limits", "--alpha", "2", "--regime", "large", "--r-grid=-inf:1:0.5"),
])
def test_non_finite_grid_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == "" and "finite" in err


def test_negative_seed_is_rejected_before_any_sample(tmp_path, capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "5", "--k", "2", "--s", "0.5",
                             "--alphas", "2", "--samples", "2", "--seed", "-1")
    assert code == EXIT_USAGE and out == "" and "master_seed must be >= 0" in err
    assert "sample" not in err.replace("n_samples", "")

    out_dir = tmp_path / "fig"
    code, out, err = run_cli(capsys, "figure", "fig1", "--seed", "-5", "--threads", "1",
                             "--out-dir", str(out_dir))
    assert code == EXIT_USAGE and out == "" and "master_seed must be >= 0" in err
    assert not out_dir.exists()  # every plan is checked before any file is written


@pytest.mark.parametrize("override, field", [
    ({"n": 6.7}, "n"),
    ({"samples": 2.9}, "n_samples"),
    ({"seed": 1.5}, "master_seed"),
    ({"k": True}, "k"),
    ({"alphas": [2.0, True]}, "alphas"),
    ({"n": 6.7, "samples": 2.9, "seed": 1.5}, "n"),
])
def test_simulate_config_integers_are_not_truncated(tmp_path, capsys, override, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 6, "k": 3, "s": 0.5, "alphas": [2], "samples": 3,
                                "seed": 1, "threads": 1, **override}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == EXIT_USAGE and out == ""
    assert f"error: {field} must be an integer, got " in err


def test_simulate_config_integral_floats_run_as_integers(tmp_path, capsys):
    base = {"n": 6, "k": 3, "s": 0.5, "alphas": [2], "samples": 3, "seed": 1, "threads": 1}
    for name, config in (("ints", base),
                         ("floats", {**base, "n": 6.0, "k": 3.0, "alphas": [2.0],
                                     "samples": 3.0, "seed": 1.0, "threads": 1.0})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**config, "out_prefix": str(tmp_path / name)}))
        assert run_cli(capsys, "simulate", "--config", str(path))[0] == 0
    assert (tmp_path / "ints_samples.csv").read_bytes() == (tmp_path / "floats_samples.csv").read_bytes()
    floats = json.loads((tmp_path / "floats_summary.json").read_text())
    assert floats["config"] == {**base, "sampler": 5, "out_prefix": str(tmp_path / "floats")}
    assert all(type(floats["config"][key]) is int for key in ("n", "k", "samples", "seed"))


def test_analytic_n_and_asymptotic_are_exclusive(capsys):
    code, out, err = run_cli(capsys, "analytic", "--alpha", "2", "--s", "0.5", "--n", "10",
                             "--asymptotic", "--r-grid", "0:1:0.5")
    assert code == EXIT_USAGE and out == "" and "--asymptotic" in err


def test_limits_checks_its_flags_before_reading_the_s_vector(tmp_path, capsys):
    malformed = tmp_path / "bad.txt"
    malformed.write_text("0.1 oops\n")
    for regime, alpha in (("large", "2"), ("small", "1")):
        code, out, err = run_cli(capsys, "limits", "--alpha", alpha, "--regime", regime,
                                 "--s-vector", str(malformed), "--r-grid", "0:1:0.5")
        assert code == EXIT_USAGE and out == "" and "--s-vector applies only" in err
    code, out, err = run_cli(capsys, "limits", "--alpha", "2", "--regime", "small",
                             "--s-vector", str(malformed), "--r-grid", "0:1:0.5")
    assert code == EXIT_USAGE and out == "" and "cannot read squeezing vector" in err


SIM = ("simulate", "--n", "6", "--k", "3", "--s", "0.5", "--alphas", "2", "--samples", "2",
       "--seed", "1", "--threads", "1")


def _replace(argv, flag, value):
    i = argv.index(flag)
    return argv[:i + 1] + (value,) + argv[i + 2:]


def _drop(argv, flag):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


INVALID_INVOCATIONS = {
    "analytic bad grid": ("analytic", "--alpha", "2", "--s", "0.5", "--n", "10",
                          "--r-grid", "0:1"),
    "analytic alpha 0": ("analytic", "--alpha", "0", "--s", "0.5", "--n", "10",
                         "--r-grid", "0:1:0.5"),
    "analytic n 0": ("analytic", "--alpha", "2", "--s", "0.5", "--n", "0", "--r-grid", "0:1:0.5"),
    "analytic tol 0": ("analytic", "--alpha", "2", "--s", "0.5", "--n", "10",
                       "--r-grid", "0:1:0.5", "--tol", "0"),
    "analytic r above 1": ("analytic", "--alpha", "2", "--s", "0.5", "--n", "10",
                           "--r-grid", "0.5:1.5:0.5"),
    "analytic malformed alpha": ("analytic", "--alpha", "2,x", "--s", "0.5", "--n", "10",
                                 "--r-grid", "0:1:0.5"),
    "simulate missing k and r": _drop(SIM, "--k"),
    "simulate k and r": SIM + ("--r", "0.5"),
    "simulate r above 1": _replace(_drop(SIM, "--k"), "--n", "6") + ("--r", "1.5"),
    "simulate r inf": _replace(_drop(SIM, "--k"), "--n", "10") + ("--r", "inf"),
    "simulate r nan": _replace(_drop(SIM, "--k"), "--n", "10") + ("--r", "nan"),
    "simulate r 1.5 of n 10": _replace(_drop(SIM, "--k"), "--n", "10") + ("--r", "1.5"),
    "simulate r without n": _drop(_drop(SIM, "--k"), "--n") + ("--r", "0.5"),
    "simulate alpha 0": _replace(SIM, "--alphas", "0"),
    "simulate n 0": _replace(SIM, "--n", "0"),
    "simulate samples 0": _replace(SIM, "--samples", "0"),
    "simulate threads 0": _replace(SIM, "--threads", "0"),
    "simulate threads fractional": _replace(SIM, "--threads", "1.5"),
    "simulate malformed s": _replace(SIM, "--s", "0.5,x"),
    "simulate s of wrong length": _replace(SIM, "--s", "0.1,0.2"),
    "limits bad grid": ("limits", "--alpha", "2", "--regime", "small", "--r-grid", "a:b:c"),
    "limits alpha 0": ("limits", "--alpha", "0", "--regime", "large", "--r-grid", "0:1:0.5"),
    "limits r below 0": ("limits", "--alpha", "2", "--regime", "small", "--r-grid=-1:1:0.5"),
    "limits r above 1": ("limits", "--alpha", "1", "--regime", "small",
                         "--r-grid", "0:2:0.5"),
    "figure threads 0": ("figure", "fig1", "--threads", "0", "--out-dir", "unused"),
    "figure seed fractional": ("figure", "fig1", "--seed", "1.5", "--out-dir", "unused"),
}


@pytest.mark.parametrize("argv", INVALID_INVOCATIONS.values(), ids=INVALID_INVOCATIONS.keys())
def test_invalid_invocations_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert "error" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("r", ["inf", "nan", "1.5"])
def test_simulate_checks_r_before_rounding(capsys, r):
    code, out, err = run_cli(capsys, *_replace(_drop(SIM, "--k"), "--n", "10"), "--r", r)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: partition ratio must lie in [0, 1], got {float(r)!r}\n"
    code, out, err = run_cli(capsys, *_drop(_drop(SIM, "--k"), "--n"), "--r", "0.5")
    assert code == EXIT_USAGE and err == "error: missing config keys: n (--n)\n"


# An output path under a regular file cannot be created, whoever runs the tests.
UNWRITABLE_OUTPUTS = {
    "analytic": ("analytic", "--alpha", "2", "--s", "0.5", "--n", "10",
                 "--r-grid", "0:1:0.5", "--out", "blocker/x.csv"),
    "limits": ("limits", "--alpha", "2", "--regime", "small", "--r-grid", "0:1:0.5",
               "--out", "blocker/x.csv"),
    "simulate": SIM + ("--out-prefix", "blocker/run"),
    "figure": ("figure", "fig1", "--threads", "1", "--out-dir", "blocker/sub"),
}


@pytest.mark.parametrize("argv", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS.keys())
def test_unwritable_output_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: cannot write blocker/") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


# Where the directory of an output is missing or is a file, nothing is computed.
UNWRITABLE_BEFORE_WORK = {
    "simulate missing dir": SIM + ("--out-prefix", "nodir/run"),
    "simulate under a file": SIM + ("--out-prefix", "blocker/run"),
    "figure under a file": ("figure", "small-s", "--threads", "1", "--out-dir", "blocker/sub"),
}


@pytest.mark.parametrize("argv", UNWRITABLE_BEFORE_WORK.values(),
                         ids=UNWRITABLE_BEFORE_WORK.keys())
def test_output_paths_are_checked_before_the_work(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("")

    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before its output path was checked")

    monkeypatch.setattr(gbs_page.cli, "run_experiment", refuse)
    monkeypatch.setattr(gbs_page.cli, "page_average", refuse)
    code, out, err = run_cli(capsys, *argv)
    directory = argv[-1].split("/")[0]
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: cannot write {directory}/") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


def test_simulate_large_n_allocates_no_m_by_m_array(tmp_path, capsys):
    # m = 5000: one m x m float64 array is 200 MB. The bidiagonal route keeps
    # the peak of traced numpy allocations to a few MB.
    prefix = str(tmp_path / "big")
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "simulate", "--n", "10000", "--k", "5000", "--s", "0.5",
                             "--alphas", "1,2,3", "--samples", "4", "--seed", "1",
                             "--threads", "1", "--out-prefix", prefix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 20e6
    _, rows = parse_csv((tmp_path / "big_samples.csv").read_text())
    values = {}
    for index, alpha, entropy in rows:
        values.setdefault(index, []).append((int(alpha), float(entropy)))
    assert sorted(values) == ["0", "1", "2", "3"]
    for entropies in values.values():
        ordered = [e for _, e in sorted(entropies)]
        assert len(ordered) == 3 and all(math.isfinite(e) and e > 0 for e in ordered)
        assert ordered[0] > ordered[1] > ordered[2]
