"""Command-line interface.

Subcommands:

* ``analytic``  closed-form averages on an r grid (CSV or JSON),
* ``simulate``  seeded Monte-Carlo runs (per-sample CSV + summary JSON),
* ``limits``    small/large squeezing limit curves,
* ``figure``    bundled analytic + simulated datasets for the three
                standard figures, with a manifest recording every parameter.

Exit codes: 0 success, 2 validation error (including an analytic ``--tol``
too small for float64), 4 numerical failure in a sample. The environment
variable GBS_PAGE_THREADS overrides ``--threads``. Numeric output is full-precision (17 significant
digits); identical invocations produce byte-identical files.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .montecarlo import ExperimentPlan, SampleFailure, run_experiment
from .pagecurve import (
    ASYMPTOTIC,
    DEFAULT_TOL,
    page_average,
    renyi_large_s_limit,
    renyi_small_s_limit,
    renyi_unequal_small,
    vn_large_s_limit,
    vn_small_s_limit,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 4

THREADS_ENV = "GBS_PAGE_THREADS"

ANALYTIC_COLUMNS = ["r", "alpha", "s", "n", "value", "per_mode_value", "nodes", "trunc_err"]
SAMPLES_COLUMNS = ["sample_index", "alpha", "entropy"]
LIMITS_COLUMNS = ["r", "alpha", "regime", "value", "normalization_label"]

SIMULATE_CONFIG_KEYS = {"n", "k", "s", "alphas", "samples", "seed", "threads", "out_prefix"}
SIMULATE_REQUIRED_KEYS = {"n", "k", "s", "alphas", "samples", "seed"}

FIG1_ALPHAS = (1, 2, 3, 4, 5, 6, 7, 15)
SMALL_S_ALPHAS = (2, 3, 4, 5, 15)
PAGE_VS_S_ALPHAS = (1, 2, 3)


class UsageError(Exception):
    """Invalid flags, config contents, or parameter domain."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_grid(text: str, lo: float | None = None, hi: float | None = None) -> list[float]:
    """Parse 'start:stop:step' into an inclusive, decimal-rounded grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"grid values must be numbers: {text!r}") from exc
    if step <= 0 or stop < start:
        raise UsageError(f"grid needs step > 0 and stop >= start, got {text!r}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    values = [round(start + i * step, 12) for i in range(count)]
    for v in values:
        if lo is not None and v < lo or hi is not None and v > hi:
            raise UsageError(f"grid value {v} outside [{lo}, {hi}]")
    return values


def _parse_int_list(text: str, minimum: int = 1) -> tuple[int, ...]:
    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc
    if any(v < minimum for v in vals):
        raise UsageError(f"values must be >= {minimum}: {text!r}")
    return vals


def _parse_squeezing(text: str):
    """Scalar s or comma-separated per-mode list."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"expected a number or comma-separated numbers, got {text!r}") from exc
    return parts[0] if len(parts) == 1 else tuple(parts)


def _resolve_threads(requested: str | None) -> int:
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        requested = env
    if requested is None:
        requested = "auto"
    if requested == "auto":
        return os.cpu_count() or 1
    try:
        threads = int(requested)
    except ValueError as exc:
        raise UsageError(f"thread count must be an integer or 'auto', got {requested!r}") from exc
    if threads < 1:
        raise UsageError(f"thread count must be >= 1, got {threads}")
    return threads


def _write_rows(path: str | None, columns: list[str], rows: list[list[str]]) -> None:
    """CSV to a file, or to stdout when no path is given."""
    def emit(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)

    if path is None:
        emit(sys.stdout)
    else:
        buf = io.StringIO()
        emit(buf)
        with open(path, "w") as fh:
            fh.write(buf.getvalue())


def _write_json(path: str | None, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# analytic

def _analytic_rows(alphas, s, n, r_values, tol):
    rows = []
    for r in r_values:
        for alpha in alphas:
            res = page_average(alpha, n, s, r, tol)
            if n is ASYMPTOTIC:
                per_mode = res.value
                n_field = "inf"
                total = res.value
            else:
                per_mode = res.value / n
                n_field = str(n)
                total = res.value
            rows.append(
                {
                    "r": r,
                    "alpha": alpha,
                    "s": s,
                    "n": n_field,
                    "value": total,
                    "per_mode_value": per_mode,
                    "nodes": res.nodes,
                    "trunc_err": res.trunc_err,
                    "realized_r": res.realized_r,
                }
            )
    return rows


def cmd_analytic(args) -> int:
    alphas = _parse_int_list(args.alpha, minimum=1)
    if args.asymptotic:
        n = ASYMPTOTIC
    elif args.n is not None:
        if args.n < 1:
            raise UsageError(f"--n must be >= 1, got {args.n}")
        n = args.n
    else:
        raise UsageError("one of --n or --asymptotic is required")
    r_values = _parse_grid(args.r_grid, 0.0, 1.0)
    if args.tol <= 0:
        raise UsageError(f"--tol must be positive, got {args.tol}")
    try:
        rows = _analytic_rows(alphas, args.s, n, r_values, args.tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if args.format == "json":
        _write_json(args.out, {"rows": rows})
    else:
        table = [
            [_fmt(row["r"]), str(row["alpha"]), _fmt(row["s"]), row["n"],
             _fmt(row["value"]), _fmt(row["per_mode_value"]),
             str(row["nodes"]), _fmt(row["trunc_err"])]
            for row in rows
        ]
        _write_rows(args.out, ANALYTIC_COLUMNS, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def _load_simulate_config(path: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    if isinstance(payload, dict) and "config" in payload:
        payload = payload["config"]
    if not isinstance(payload, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(payload) - SIMULATE_CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    missing = SIMULATE_REQUIRED_KEYS - set(payload)
    if missing:
        raise UsageError(f"missing config keys: {sorted(missing)}")
    return payload


def _simulate_config_from_args(args) -> dict:
    if args.config is not None:
        conflicting = [
            name
            for name, value in [
                ("--n", args.n), ("--k", args.k), ("--r", args.r), ("--s", args.s),
                ("--alphas", args.alphas), ("--samples", args.samples),
                ("--seed", args.seed), ("--out-prefix", args.out_prefix),
            ]
            if value is not None
        ]
        if conflicting:
            raise UsageError(f"--config cannot be combined with {', '.join(conflicting)}")
        return _load_simulate_config(args.config)

    for name, value in [("--n", args.n), ("--s", args.s), ("--alphas", args.alphas),
                        ("--samples", args.samples), ("--seed", args.seed)]:
        if value is None:
            raise UsageError(f"{name} is required (or use --config)")
    if (args.k is None) == (args.r is None):
        raise UsageError("exactly one of --k or --r is required")
    k = args.k if args.k is not None else round(args.r * args.n)
    config = {
        "n": args.n,
        "k": k,
        "s": _parse_squeezing(args.s),
        "alphas": list(_parse_int_list(args.alphas, minimum=1)),
        "samples": args.samples,
        "seed": args.seed,
        "threads": _resolve_threads(args.threads),
    }
    if args.out_prefix is not None:
        config["out_prefix"] = args.out_prefix
    return config


def _run_simulation(config: dict):
    squeezing = config["s"]
    if isinstance(squeezing, list):
        squeezing = tuple(float(x) for x in squeezing)
    try:
        plan = ExperimentPlan(
            n=int(config["n"]),
            k=int(config["k"]),
            squeezing=squeezing,
            alphas=tuple(int(a) for a in config["alphas"]),
            n_samples=int(config["samples"]),
            master_seed=int(config["seed"]),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    threads = int(config.get("threads", 1))
    if os.environ.get(THREADS_ENV):
        threads = _resolve_threads(None)
    return plan, run_experiment(plan, threads=threads), threads


def cmd_simulate(args) -> int:
    config = _simulate_config_from_args(args)
    plan, (records, summary), threads = _run_simulation(config)

    echo = {
        "n": plan.n,
        "k": plan.k,
        "s": list(plan.squeezing) if not plan.equal_squeezing else plan.squeezing,
        "alphas": [int(a) for a in plan.alphas],
        "samples": plan.n_samples,
        "seed": plan.master_seed,
        "threads": threads,
    }
    prefix = config.get("out_prefix")
    if prefix is not None:
        echo["out_prefix"] = prefix

    sample_rows = [
        [str(rec.sample_index), str(alpha), _fmt(rec.entropies[alpha])]
        for rec in records
        for alpha in sorted(rec.entropies)
    ]
    summary_payload = {
        "config": echo,
        "results": {
            "n_samples": summary.n_samples,
            "realized_r": summary.realized_r,
            "per_alpha": {
                str(a): {
                    "mean": st.mean,
                    "variance": st.variance,
                    "stderr": st.stderr,
                }
                for a, st in sorted(summary.per_alpha.items())
            },
        },
    }
    if prefix is None:
        _write_rows(None, SAMPLES_COLUMNS, sample_rows)
        _write_json(None, summary_payload)
    else:
        _write_rows(f"{prefix}_samples.csv", SAMPLES_COLUMNS, sample_rows)
        _write_json(f"{prefix}_summary.json", summary_payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# limits

def _load_s_vector(path: str) -> tuple[float, ...]:
    try:
        with open(path) as fh:
            tokens = fh.read().replace(",", " ").split()
        values = tuple(float(tok) for tok in tokens)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read squeezing vector from {path!r}: {exc}") from exc
    if not values:
        raise UsageError(f"squeezing vector file {path!r} is empty")
    return values


def cmd_limits(args) -> int:
    if args.alpha < 1:
        raise UsageError(f"--alpha must be >= 1, got {args.alpha}")
    r_values = _parse_grid(args.r_grid, 0.0, 1.0)
    s_vec = _load_s_vector(args.s_vector) if args.s_vector else None
    if s_vec is not None and (args.alpha == 1 or args.regime != "small"):
        raise UsageError("--s-vector applies only to --regime small with --alpha >= 2")

    rows = []
    for r in r_values:
        if s_vec is not None:
            value = renyi_unequal_small(args.alpha, r, s_vec)
            label = "sum s_i^2"
        elif args.regime == "small":
            if args.alpha == 1:
                value, label = vn_small_s_limit(r), "s^2 log(1/s^2) n"
            else:
                value, label = renyi_small_s_limit(args.alpha, r), "s^2 n"
        else:
            if args.alpha == 1:
                value = vn_large_s_limit(r)
            else:
                value = renyi_large_s_limit(args.alpha, r)
            label = "s n"
        rows.append([_fmt(r), str(args.alpha), args.regime, _fmt(value), label])
    _write_rows(args.out, LIMITS_COLUMNS, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure

@dataclass(frozen=True)
class FigureParams:
    n: int
    n_samples: int


FIGURE_SCALES = {
    "fig1": {"desk": FigureParams(100, 100), "full": FigureParams(400, 250)},
    "small-s": {"desk": FigureParams(100, 100), "full": FigureParams(400, 250)},
    "page-vs-s": {"desk": FigureParams(100, 100), "full": FigureParams(400, 250)},
}


def _mc_curve(n, k, s, alphas, n_samples, seed, threads):
    plan = ExperimentPlan(
        n=n, k=k, squeezing=s, alphas=tuple(alphas),
        n_samples=n_samples, master_seed=seed,
    )
    _, summary = run_experiment(plan, threads=threads)
    return summary


def run_fig1(out_dir, params: FigureParams, seed: int, threads: int, s: float = 0.5,
             alphas=FIG1_ALPHAS, r_grid=None, tol: float = DEFAULT_TOL,
             gnuplot: bool = False) -> dict:
    """Analytic curves plus simulated points of the entropy-vs-r figure."""
    r_values = r_grid if r_grid is not None else _parse_grid("0.05:0.95:0.05")
    os.makedirs(out_dir, exist_ok=True)

    analytic = _analytic_rows(alphas, s, params.n, r_values, tol)
    analytic_rows = [
        [_fmt(row["r"]), str(row["alpha"]), _fmt(row["s"]), row["n"],
         _fmt(row["value"]), _fmt(row["per_mode_value"]),
         str(row["nodes"]), _fmt(row["trunc_err"])]
        for row in analytic
    ]
    _write_rows(os.path.join(out_dir, "fig1_analytic.csv"), ANALYTIC_COLUMNS, analytic_rows)

    mc_rows = []
    for idx, r in enumerate(r_values):
        summary = _mc_curve(params.n, round(r * params.n), s, alphas,
                            params.n_samples, seed + idx, threads)
        for alpha in alphas:
            st = summary.per_alpha[alpha]
            mc_rows.append([_fmt(r), str(alpha), _fmt(st.mean), _fmt(st.stderr),
                            str(params.n_samples)])
    _write_rows(os.path.join(out_dir, "fig1_simulated.csv"),
                ["r", "alpha", "mean", "stderr", "n_samples"], mc_rows)

    files = ["fig1_analytic.csv", "fig1_simulated.csv"]
    if gnuplot:
        _write_fig1_gnuplot(os.path.join(out_dir, "fig1.gp"), alphas)
        files.append("fig1.gp")
    manifest = {
        "figure": "fig1",
        "n": params.n,
        "n_samples": params.n_samples,
        "s": s,
        "alphas": list(alphas),
        "r_grid": [float(r) for r in r_values],
        "seed": seed,
        "tol": tol,
        "files": files,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def run_small_s(out_dir, params: FigureParams, seed: int, threads: int,
                alphas=SMALL_S_ALPHAS, s_grid=None, mc_stride: int = 4,
                r: float = 0.5, tol: float = DEFAULT_TOL, gnuplot: bool = False) -> dict:
    """Renyi averages over s^2 versus s, with their weak-squeezing limits."""
    s_values = s_grid if s_grid is not None else _parse_grid("0.05:1.0:0.05")
    os.makedirs(out_dir, exist_ok=True)
    n = params.n

    rows = []
    for s in s_values:
        for alpha in alphas:
            res = page_average(alpha, n, s, r, tol)
            rows.append([_fmt(s), str(alpha), _fmt(res.value / (n * s * s)),
                         _fmt(renyi_small_s_limit(alpha, r))])
    _write_rows(os.path.join(out_dir, "small_s_analytic.csv"),
                ["s", "alpha", "scaled_value", "limit_value"], rows)

    mc_rows = []
    for idx, s in enumerate(s_values[::mc_stride]):
        summary = _mc_curve(n, round(r * n), s, alphas, params.n_samples,
                            seed + idx, threads)
        for alpha in alphas:
            st = summary.per_alpha[alpha]
            mc_rows.append([_fmt(s), str(alpha), _fmt(st.mean / (n * s * s)),
                            _fmt(st.stderr / (n * s * s)), str(params.n_samples)])
    _write_rows(os.path.join(out_dir, "small_s_simulated.csv"),
                ["s", "alpha", "scaled_mean", "scaled_stderr", "n_samples"], mc_rows)

    files = ["small_s_analytic.csv", "small_s_simulated.csv"]
    if gnuplot:
        _write_generic_gnuplot(os.path.join(out_dir, "small_s.gp"),
                               "small_s_analytic.csv", "small_s_simulated.csv",
                               alphas, "s", "S/(n s^2)")
        files.append("small_s.gp")
    manifest = {
        "figure": "small-s",
        "n": n,
        "n_samples": params.n_samples,
        "r": r,
        "alphas": list(alphas),
        "s_grid": [float(s) for s in s_values],
        "mc_s_grid": [float(s) for s in s_values[::mc_stride]],
        "seed": seed,
        "tol": tol,
        "files": files,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def run_page_vs_s(out_dir, params: FigureParams, seed: int, threads: int,
                  alphas=PAGE_VS_S_ALPHAS, analytic_s_grid=None, mc_s_grid=None,
                  r: float = 0.5, tol: float = DEFAULT_TOL, gnuplot: bool = False) -> dict:
    """Entropy over s n versus s, approaching 2 min(r, 1-r).

    Analytic and Monte-Carlo points both default to s = 0.25:3.0:0.25.
    """
    default_grid = _parse_grid("0.25:3.0:0.25")
    s_analytic = analytic_s_grid if analytic_s_grid is not None else default_grid
    s_mc = mc_s_grid if mc_s_grid is not None else default_grid
    os.makedirs(out_dir, exist_ok=True)
    n = params.n

    rows = []
    for s in s_analytic:
        for alpha in alphas:
            res = page_average(alpha, n, s, r, tol)
            rows.append([_fmt(s), str(alpha), _fmt(res.value / (s * n)),
                         _fmt(renyi_large_s_limit(max(alpha, 2), r))])
    _write_rows(os.path.join(out_dir, "page_vs_s_analytic.csv"),
                ["s", "alpha", "scaled_value", "limit_value"], rows)

    mc_rows = []
    for idx, s in enumerate(s_mc):
        summary = _mc_curve(n, round(r * n), s, alphas, params.n_samples,
                            seed + idx, threads)
        for alpha in alphas:
            st = summary.per_alpha[alpha]
            mc_rows.append([_fmt(s), str(alpha), _fmt(st.mean / (s * n)),
                            _fmt(st.stderr / (s * n)), str(params.n_samples)])
    _write_rows(os.path.join(out_dir, "page_vs_s_simulated.csv"),
                ["s", "alpha", "scaled_mean", "scaled_stderr", "n_samples"], mc_rows)

    files = ["page_vs_s_analytic.csv", "page_vs_s_simulated.csv"]
    if gnuplot:
        _write_generic_gnuplot(os.path.join(out_dir, "page_vs_s.gp"),
                               "page_vs_s_analytic.csv", "page_vs_s_simulated.csv",
                               alphas, "s", "S/(s n)")
        files.append("page_vs_s.gp")
    manifest = {
        "figure": "page-vs-s",
        "n": n,
        "n_samples": params.n_samples,
        "r": r,
        "alphas": list(alphas),
        "analytic_s_grid": [float(s) for s in s_analytic],
        "mc_s_grid": [float(s) for s in s_mc],
        "seed": seed,
        "tol": tol,
        "files": files,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _write_fig1_gnuplot(path: str, alphas) -> None:
    lines = [
        "set datafile separator ','",
        "set xlabel 'r'",
        "set ylabel 'entropy (nats)'",
        "set key outside",
        "plot \\",
    ]
    parts = []
    for alpha in alphas:
        parts.append(
            f"  'fig1_analytic.csv' using 1:($2=={alpha}?$5:1/0) with lines title 'alpha={alpha}'"
        )
        parts.append(
            f"  'fig1_simulated.csv' using 1:($2=={alpha}?$3:1/0) with points notitle"
        )
    lines.append(", \\\n".join(parts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_generic_gnuplot(path: str, analytic_csv: str, mc_csv: str, alphas,
                           xlabel: str, ylabel: str) -> None:
    lines = [
        "set datafile separator ','",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set key outside",
        "plot \\",
    ]
    parts = []
    for alpha in alphas:
        parts.append(
            f"  '{analytic_csv}' using 1:($2=={alpha}?$3:1/0) with lines title 'alpha={alpha}'"
        )
        parts.append(
            f"  '{analytic_csv}' using 1:($2=={alpha}?$4:1/0) with lines dt 2 notitle"
        )
        parts.append(
            f"  '{mc_csv}' using 1:($2=={alpha}?$3:1/0) with points notitle"
        )
    lines.append(", \\\n".join(parts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_figure(args) -> int:
    params = FIGURE_SCALES[args.name][args.scale]
    threads = _resolve_threads(args.threads)
    runner = {"fig1": run_fig1, "small-s": run_small_s, "page-vs-s": run_page_vs_s}[args.name]
    runner(args.out_dir, params, seed=args.seed, threads=threads, gnuplot=args.gnuplot)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbs-page",
        description="Page curves of Gaussian boson sampling output states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form entropy averages on an r grid")
    p.add_argument("--alpha", required=True, help="comma list of Renyi orders; 1 = von Neumann")
    p.add_argument("--s", type=float, required=True, help="equal squeezing strength")
    p.add_argument("--n", type=int, help="mode count")
    p.add_argument("--asymptotic", action="store_true", help="n -> infinity (per-mode values)")
    p.add_argument("--r-grid", required=True, help="partition ratios, start:stop:step")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="absolute tolerance (nats) of each value, met by doubling "
                        "the quadrature nodes")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo entropy sampling")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, help="subsystem mode count")
    p.add_argument("--r", type=float, help="subsystem ratio (k = round(r n))")
    p.add_argument("--s", help="squeezing: scalar or comma list of n values")
    p.add_argument("--alphas", help="comma list of Renyi orders; 1 = von Neumann")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", help="worker threads, integer or 'auto'")
    p.add_argument("--out-prefix", help="write <prefix>_samples.csv and <prefix>_summary.json")
    p.add_argument("--config", help="JSON run config (exclusive with the other flags)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("limits", help="small/large squeezing limit curves")
    p.add_argument("--alpha", type=int, required=True, help="Renyi order; 1 = von Neumann")
    p.add_argument("--regime", choices=["small", "large"], required=True)
    p.add_argument("--r-grid", required=True, help="partition ratios, start:stop:step")
    p.add_argument("--s-vector", help="file of per-mode squeezings (unequal small-s curve)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("figure", help="reproduce a standard figure dataset")
    p.add_argument("name", choices=sorted(FIGURE_SCALES))
    p.add_argument("--scale", choices=["desk", "full"], default="desk")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--threads", help="worker threads, integer or 'auto'")
    p.add_argument("--gnuplot", action="store_true", help="also emit a gnuplot script")
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SampleFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
