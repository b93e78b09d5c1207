import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import gbs_page
from gbs_page.cli import (
    EXIT_NUMERICAL,
    EXIT_USAGE,
    FigureParams,
    main,
    run_figure,
)


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
    assert summary["config"]["sampler"] == gbs_page.montecarlo.SAMPLER == 4

    for old_sampler in (1, 2, 3):
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
    assert code == 0 and rerun["config"]["sampler"] == 4


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
    # changed only the equal-squeezing draw.
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
        "fig1", str(out), FigureParams(n=12, n_samples=5), seed=3, threads=1,
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
    run_figure("fig1", str(out), FigureParams(n=12, n_samples=5), seed=3, threads=1,
               alphas=(1, 2), grid=[0.25, 0.5], gnuplot=True)
    assert (out / "fig1_simulated.csv").read_bytes() == before


def test_figure_page_vs_s_strong_squeezing_rows(tmp_path):
    out = tmp_path / "pvs"
    manifest = run_figure(
        "page-vs-s", str(out), FigureParams(n=12, n_samples=4), seed=2, threads=1,
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
                          threads=1, alphas=(2, 3), grid=grid, gnuplot=True)
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


def test_figure_fig1_takes_no_mc_grid(tmp_path):
    with pytest.raises(ValueError, match="mc_grid"):
        run_figure("fig1", str(tmp_path), FigureParams(n=12, n_samples=3), seed=5,
                   threads=1, grid=[0.5], mc_grid=[0.5])


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
