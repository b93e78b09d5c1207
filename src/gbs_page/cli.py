"""Command-line interface.

Subcommands:

* ``analytic``  closed-form averages on an r grid (CSV or JSON),
* ``simulate``  seeded Monte-Carlo runs (per-sample CSV + summary JSON),
* ``limits``    small/large squeezing limit curves,
* ``figure``    bundled analytic + simulated datasets for the three
                standard figures, with a manifest recording every parameter.

The three figures are entries of ``FIGURES`` run by one driver,
``run_figure``.

Worker threads come from ``--threads`` (default ``auto``, one per CPU this
process may run on) or from a ``simulate --config`` file's ``threads``
(default 1), which ``--threads`` overrides. The thread count never changes
results. The workers are the command's only parallelism: unless one of
``BLAS_THREAD_VARS`` is already set, importing this module before numpy sets
all of them to 1, so each worker's BLAS calls run on that worker's thread
instead of starting BLAS threads that compete with the other workers. Once
numpy has loaded, its BLAS has read them, and they are left alone. Library
callers of ``run_experiment`` with several threads set them themselves.

Exit codes: 0 success, 2 validation error (including an analytic ``--tol``
too small for float64), 4 numerical failure in a sample. Numeric output is
full-precision (17 significant digits); identical invocations produce
byte-identical files.
"""

import os
import sys

# Before numpy loads: its BLAS reads these once, at load time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import argparse
import csv
import io
import json
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .montecarlo import SAMPLER, ExperimentPlan, SampleFailure, run_experiment
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

ANALYTIC_COLUMNS = ["r", "alpha", "s", "n", "value", "per_mode_value", "nodes", "trunc_err"]
SAMPLES_COLUMNS = ["sample_index", "alpha", "entropy"]
LIMITS_COLUMNS = ["r", "alpha", "regime", "value", "normalization_label"]

SIMULATE_REQUIRED_KEYS = {"n", "k", "s", "alphas", "samples", "seed"}
SIMULATE_CONFIG_KEYS = SIMULATE_REQUIRED_KEYS | {"threads", "out_prefix", "sampler"}


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


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), not the host's count."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_threads(requested) -> int:
    """Worker count from ``--threads`` or a config's ``threads``: an integer or 'auto'."""
    if requested == "auto":
        return _usable_cpus()
    if isinstance(requested, bool) or isinstance(requested, float) and requested % 1:
        raise UsageError(f"thread count must be an integer or 'auto', got {requested!r}")
    try:
        threads = int(requested)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"thread count must be an integer or 'auto', got {requested!r}") from exc
    if threads < 1:
        raise UsageError(f"thread count must be >= 1, got {threads}")
    return threads


def _write_text(path: str | None, text: str) -> None:
    """Write to a file, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_rows(path: str | None, columns: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def _write_json(path: str | None, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# analytic

def _analytic_row(alpha, n, s, r, tol) -> dict:
    """One quadrature cell as a JSON row; ASYMPTOTIC values are per mode."""
    res = page_average(alpha, n, s, r, tol)
    return {
        "r": r,
        "alpha": alpha,
        "s": s,
        "n": "inf" if n is ASYMPTOTIC else str(n),
        "value": res.value,
        "per_mode_value": res.value if n is ASYMPTOTIC else res.value / n,
        "nodes": res.nodes,
        "trunc_err": res.trunc_err,
        "realized_r": res.realized_r,
    }


def _analytic_csv_row(row: dict) -> list[str]:
    return [_fmt(row["r"]), str(row["alpha"]), _fmt(row["s"]), row["n"],
            _fmt(row["value"]), _fmt(row["per_mode_value"]),
            str(row["nodes"]), _fmt(row["trunc_err"])]


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
        rows = [_analytic_row(alpha, n, args.s, r, args.tol)
                for r in r_values for alpha in alphas]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if args.format == "json":
        _write_json(args.out, {"rows": rows})
    else:
        _write_rows(args.out, ANALYTIC_COLUMNS, [_analytic_csv_row(row) for row in rows])
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
    if payload.get("sampler", SAMPLER) != SAMPLER:
        raise UsageError(f"config comes from sampler {payload['sampler']!r}, this program "
                         f"runs sampler {SAMPLER}: its samples cannot be replayed")
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
        config = _load_simulate_config(args.config)
        requested = args.threads if args.threads is not None else config.get("threads", 1)
        config["threads"] = _resolve_threads(requested)
        return config

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
        "threads": _resolve_threads(args.threads if args.threads is not None else "auto"),
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
    return plan, run_experiment(plan, threads=config["threads"])


def cmd_simulate(args) -> int:
    config = _simulate_config_from_args(args)
    plan, (records, summary) = _run_simulation(config)

    echo = {
        "n": plan.n,
        "k": plan.k,
        "s": list(plan.squeezing) if not plan.equal_squeezing else plan.squeezing,
        "alphas": [int(a) for a in plan.alphas],
        "samples": plan.n_samples,
        "seed": plan.master_seed,
        "threads": config["threads"],
        "sampler": SAMPLER,
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
                str(a): {"mean": st.mean, "variance": st.variance, "stderr": st.stderr}
                for a, st in sorted(summary.per_alpha.items())
            },
        },
    }
    _write_rows(None if prefix is None else f"{prefix}_samples.csv", SAMPLES_COLUMNS, sample_rows)
    _write_json(None if prefix is None else f"{prefix}_summary.json", summary_payload)
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
            value = vn_large_s_limit(r) if args.alpha == 1 else renyi_large_s_limit(args.alpha, r)
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


SCALES = {"desk": FigureParams(100, 100), "full": FigureParams(400, 250)}

# Value of the parameter a figure holds fixed: s for a sweep over r, r for
# a sweep over s.
FIXED_PARAM = 0.5


@dataclass(frozen=True)
class FigureSpec:
    """One standard figure: quadrature values and Monte-Carlo means on a sweep.

    With ``norm`` set, both files hold entropies divided by ``norm(n, s)``
    and the analytic file adds the limit law; without it the analytic file
    is the ``analytic`` table. Every ``mc_stride``-th grid point is
    simulated unless an explicit Monte-Carlo grid is given, which only a
    figure with an ``mc_grid_key`` accepts.
    """

    stem: str
    sweep: str
    grid: str
    alphas: tuple[int, ...]
    mc_stride: int
    norm: Callable[[int, float], float] | None
    limit: Callable[[int, float], float] | None
    ylabel: str
    grid_key: str
    mc_grid_key: str | None


FIGURES = {
    "fig1": FigureSpec(
        "fig1", "r", "0.05:0.95:0.05", (1, 2, 3, 4, 5, 6, 7, 15), 1,
        None, None, "entropy (nats)", "r_grid", None),
    "small-s": FigureSpec(
        "small_s", "s", "0.05:1.0:0.05", (2, 3, 4, 5, 15), 4,
        lambda n, s: n * s * s, renyi_small_s_limit, "S/(n s^2)",
        "s_grid", "mc_s_grid"),
    "page-vs-s": FigureSpec(
        "page_vs_s", "s", "0.25:3.0:0.25", (1, 2, 3), 1,
        lambda n, s: s * n, lambda alpha, r: renyi_large_s_limit(max(alpha, 2), r),
        "S/(s n)", "analytic_s_grid", "mc_s_grid"),
}


def run_figure(name, out_dir, params: FigureParams, seed: int, threads: int, *,
               alphas=None, grid=None, mc_grid=None, tol: float = DEFAULT_TOL,
               gnuplot: bool = False) -> dict:
    """Write one figure's analytic and simulated CSVs and its manifest.

    Monte-Carlo point ``i`` uses seed ``seed + i``.
    """
    spec = FIGURES[name]
    alphas = tuple(alphas) if alphas is not None else spec.alphas
    grid = list(grid) if grid is not None else _parse_grid(spec.grid)
    if mc_grid is None:
        mc_grid = grid[::spec.mc_stride]
    elif spec.mc_grid_key is None:
        raise ValueError(f"figure {name} simulates its own grid; it takes no mc_grid")
    n = params.n
    os.makedirs(out_dir, exist_ok=True)

    def point(x):
        return (FIXED_PARAM, x) if spec.sweep == "r" else (x, FIXED_PARAM)

    prefix = "" if spec.norm is None else "scaled_"
    rows = []
    for x in grid:
        s, r = point(x)
        for alpha in alphas:
            row = _analytic_row(alpha, n, s, r, tol)
            if spec.norm is None:
                rows.append(_analytic_csv_row(row))
            else:
                rows.append([_fmt(x), str(alpha), _fmt(row["value"] / spec.norm(n, s)),
                             _fmt(spec.limit(alpha, r))])
    files = [f"{spec.stem}_analytic.csv", f"{spec.stem}_simulated.csv"]
    _write_rows(os.path.join(out_dir, files[0]), ANALYTIC_COLUMNS if spec.norm is None
                else [spec.sweep, "alpha", "scaled_value", "limit_value"], rows)

    mc_rows = []
    for idx, x in enumerate(mc_grid):
        s, r = point(x)
        plan = ExperimentPlan(n=n, k=round(r * n), squeezing=s, alphas=alphas,
                              n_samples=params.n_samples, master_seed=seed + idx)
        _, summary = run_experiment(plan, threads=threads)
        scale = 1.0 if spec.norm is None else spec.norm(n, s)
        for alpha in alphas:
            st = summary.per_alpha[alpha]
            mc_rows.append([_fmt(x), str(alpha), _fmt(st.mean / scale),
                            _fmt(st.stderr / scale), str(params.n_samples)])

    _write_rows(os.path.join(out_dir, files[1]),
                [spec.sweep, "alpha", prefix + "mean", prefix + "stderr", "n_samples"], mc_rows)
    if gnuplot:
        files.append(f"{spec.stem}.gp")
        _write_gnuplot(os.path.join(out_dir, files[2]), spec, alphas)
    manifest = {
        "figure": name,
        "n": n,
        "n_samples": params.n_samples,
        "s" if spec.sweep == "r" else "r": FIXED_PARAM,
        "alphas": list(alphas),
        spec.grid_key: [float(x) for x in grid],
        "seed": seed,
        "tol": tol,
        "files": files,
    }
    if spec.mc_grid_key is not None:
        manifest[spec.mc_grid_key] = [float(x) for x in mc_grid]
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _write_gnuplot(path: str, spec: FigureSpec, alphas) -> None:
    """Curves and points per alpha; a dashed limit line when the figure is normalised."""
    analytic, simulated = f"{spec.stem}_analytic.csv", f"{spec.stem}_simulated.csv"
    value_col = ANALYTIC_COLUMNS.index("value") + 1 if spec.norm is None else 3
    parts = []
    for alpha in alphas:
        parts.append(f"  '{analytic}' using 1:($2=={alpha}?${value_col}:1/0) "
                     f"with lines title 'alpha={alpha}'")
        if spec.norm is not None:
            parts.append(f"  '{analytic}' using 1:($2=={alpha}?$4:1/0) with lines dt 2 notitle")
        parts.append(f"  '{simulated}' using 1:($2=={alpha}?$3:1/0) with points notitle")
    lines = [
        "set datafile separator ','",
        f"set xlabel '{spec.sweep}'",
        f"set ylabel '{spec.ylabel}'",
        "set key outside",
        "plot \\",
        ", \\\n".join(parts),
    ]
    _write_text(path, "\n".join(lines) + "\n")


def cmd_figure(args) -> int:
    run_figure(args.name, args.out_dir, SCALES[args.scale], args.seed,
               _resolve_threads(args.threads), gnuplot=args.gnuplot)
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
    p.add_argument("--config", help="JSON run config (exclusive with the other flags "
                                    "except --threads, which overrides its 'threads')")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("limits", help="small/large squeezing limit curves")
    p.add_argument("--alpha", type=int, required=True, help="Renyi order; 1 = von Neumann")
    p.add_argument("--regime", choices=["small", "large"], required=True)
    p.add_argument("--r-grid", required=True, help="partition ratios, start:stop:step")
    p.add_argument("--s-vector", help="file of per-mode squeezings (unequal small-s curve)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("figure", help="reproduce a standard figure dataset")
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--scale", choices=sorted(SCALES), default="desk")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--threads", default="auto", help="worker threads, integer or 'auto'")
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
