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
(default 1), which ``--threads`` overrides; ``run_experiment`` starts no
more workers than there are such CPUs. The thread count never changes
results. ``figure`` still accepts and checks ``--threads``, so existing
command lines keep working, but runs on one thread: its plans are all equal
squeezing, which ``run_experiment`` keeps on the calling thread. The
workers are the command's only parallelism: unless one of
``BLAS_THREAD_VARS`` is already set, importing this module before numpy sets
all of them to 1, so each worker's BLAS calls run on that worker's thread
instead of starting BLAS threads that compete with the other workers. Once
numpy has loaded, its BLAS has read them, and they are left alone. Library
callers of ``run_experiment`` with several threads set them themselves.
A per-mode ``simulate`` also sets glibc's allocator policy once
(``_keep_freed_memory``), so that the buffers its samples free stay in the
heap instead of going back to the kernel and being faulted in again; library
callers who run per-mode plans set it themselves too.

This module only turns text into arguments; the library checks every
parameter. Exit codes: 0 success, 2 invalid flags, config or parameter (any
``ValueError``, such as a non-finite ``--s``, a squeezing or mode count
beyond the float64 range of its route, or a ``--tol`` below the float64
error bound), a request larger than memory (a ``MemoryError``, such as a
sample table, a sample's draw or an order's shift rule that cannot be
allocated) or an
unwritable output path, 4 only a numerical failure inside a sample.
Numeric output is full-precision (17 significant digits); identical
invocations produce byte-identical files.
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
import errno
import functools
import io
import json
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .entropy import _integer
from .montecarlo import SAMPLER, ExperimentPlan, SampleFailure, _usable_cpus, run_experiment
from .pagecurve import (
    ASYMPTOTIC,
    DEFAULT_TOL,
    LIMIT_REGIMES,
    page_average,
    page_limit,
    renyi_unequal_small,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 4

ANALYTIC_COLUMNS = ["r", "alpha", "s", "n", "value", "per_mode_value", "nodes", "trunc_err"]
SAMPLES_COLUMNS = ["sample_index", "alpha", "entropy"]
LIMITS_COLUMNS = ["r", "alpha", "regime", "value", "normalization_label"]

# Required simulate config keys and the flags that give them.
SIMULATE_REQUIRED = {"n": "--n", "k": "--k or --r", "s": "--s", "alphas": "--alphas",
                     "samples": "--samples", "seed": "--seed"}
SIMULATE_CONFIG_KEYS = set(SIMULATE_REQUIRED) | {"threads", "out_prefix", "sampler"}
# The simulate flags (by argparse dest) that a --config file replaces.
SIMULATE_FLAGS = (*SIMULATE_REQUIRED, "r", "out_prefix")


def _fmt(x) -> str:
    return format(float(x), ".17g")


# Argument types: argparse reports a ValueError from one as "invalid <name> value".
def grid(text: str) -> list[float]:
    """Parse 'start:stop:step' into an inclusive, decimal-rounded grid."""
    start, stop, step = (float(p) for p in text.split(":"))
    if not np.isfinite([start, stop, step]).all() or step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(
            f"grid needs finite values, step > 0 and stop >= start, got {text!r}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + i * step, 12) for i in range(count)]


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def squeezing(text: str):
    """Scalar s or comma-separated per-mode list."""
    parts = [float(p) for p in text.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def _resolve_threads(requested) -> int:
    """Worker count from ``--threads`` or a config's ``threads``: an integer or 'auto'."""
    return _usable_cpus() if requested == "auto" else _integer("thread count", requested, 1)


# glibc mallopt parameters (malloc.h) and the values a per-mode simulate sets:
# blocks up to 32 MiB come from the heap rather than their own mappings, and
# the heap's free top is returned to the kernel only beyond 256 MiB.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD_BYTES = 256 << 20
MMAP_THRESHOLD_BYTES = 32 << 20


@functools.cache
def _keep_freed_memory() -> None:
    """Keep the buffers that per-mode samples free in the process heap.

    A per-mode sample at n = 400 allocates and frees several MB of
    temporaries. Under glibc's default dynamic thresholds each large one is
    its own mapping, and freeing it unmaps it: the next sample faults every
    page back in, and the unmapping makes the workers wait on one another.
    Fixed thresholds keep them in the heap for reuse. Where the C library
    has no ``mallopt`` (not glibc), this does nothing. Set once per process.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def _write_text(path: str | None, text: str) -> None:
    """Write to a file, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _check_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` would raise, before the work that fills it.

    The directory must exist and take new files; the file itself is opened
    only when it is written.
    """
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    if not os.access(directory, os.W_OK | os.X_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)


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
    """One analytic cell as a JSON row; ASYMPTOTIC values are per mode."""
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
    n = ASYMPTOTIC if args.asymptotic else args.n
    rows = [_analytic_row(alpha, n, args.s, r, args.tol)
            for r in args.r_grid for alpha in args.alpha]
    if args.format == "json":
        _write_json(args.out, {"rows": rows})
    else:
        _write_rows(args.out, ANALYTIC_COLUMNS, [_analytic_csv_row(row) for row in rows])
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def _simulate_plan(args) -> tuple[ExperimentPlan, dict]:
    """The plan and config of a ``simulate`` run, from its flags or its --config.

    The flags build the same config dict a file holds, and both go through
    one set of key checks and one ``ExperimentPlan``; ``--r`` stands for
    ``k`` and goes through ``ExperimentPlan.from_ratio``, which checks it
    before it sets k = round(r n). ``--threads`` overrides the config's
    ``threads``.
    """
    flags = {key: getattr(args, key) for key in SIMULATE_FLAGS if getattr(args, key) is not None}
    r = None
    if args.config is None:
        config = {"threads": "auto", **flags}
        r = config.pop("r", None)
    elif flags:
        given = ", ".join("--" + key.replace("_", "-") for key in flags)
        raise ValueError(f"--config cannot be combined with {given}")
    else:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config {args.config!r}: {exc}") from exc
        if isinstance(config, dict) and "config" in config:
            config = config["config"]  # a summary JSON replays its run
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        config = {"threads": 1, **config}
    if args.threads is not None:
        config["threads"] = args.threads

    unknown = set(config) - SIMULATE_CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = [f"{key} ({flag})" for key, flag in SIMULATE_REQUIRED.items()
               if key not in config and not (key == "k" and r is not None)]
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    if config.get("sampler", SAMPLER) != SAMPLER:
        raise ValueError(f"config comes from sampler {config['sampler']!r}, this program "
                         f"runs sampler {SAMPLER}: its samples cannot be replayed")
    config["threads"] = _resolve_threads(config["threads"])
    fields = dict(n=config["n"], squeezing=config["s"], alphas=config["alphas"],
                  n_samples=config["samples"], master_seed=config["seed"])
    plan = (ExperimentPlan(k=config["k"], **fields) if r is None
            else ExperimentPlan.from_ratio(r=r, **fields))
    return plan, config


def cmd_simulate(args) -> int:
    plan, config = _simulate_plan(args)
    prefix = config.get("out_prefix")
    if prefix is not None:
        _check_writable(f"{prefix}_samples.csv")  # the summary goes beside it
    if not plan.equal_squeezing:
        _keep_freed_memory()
    table, summary = run_experiment(plan, threads=config["threads"])

    # The summary echoes the config with the plan's values, so that it replays the run.
    config.update(n=plan.n, k=plan.k, alphas=list(plan.alphas), samples=plan.n_samples,
                  seed=plan.master_seed, sampler=SAMPLER,
                  s=list(plan.squeezing) if not plan.equal_squeezing else plan.squeezing)
    if prefix is None:
        config.pop("out_prefix", None)

    sample_rows = [[str(index), str(alpha), _fmt(value)]
                   for index, row in enumerate(table.tolist())
                   for alpha, value in zip(plan.alphas, row)]
    summary_payload = {
        "config": config,
        "results": {
            "n_samples": summary.n_samples,
            "realized_r": summary.realized_r,
            "per_alpha": {
                str(a): {"mean": st.mean, "variance": st.variance, "stderr": st.stderr}
                for a, st in summary.per_alpha.items()
            },
        },
    }
    _write_rows(None if prefix is None else f"{prefix}_samples.csv", SAMPLES_COLUMNS, sample_rows)
    _write_json(None if prefix is None else f"{prefix}_summary.json", summary_payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# limits

def cmd_limits(args) -> int:
    s_vec = None
    if args.s_vector:
        if args.alpha == 1 or args.regime != "small":
            raise ValueError("--s-vector applies only to --regime small with --alpha >= 2")
        try:
            with open(args.s_vector) as fh:
                s_vec = tuple(float(tok) for tok in fh.read().replace(",", " ").split())
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"cannot read squeezing vector from {args.s_vector!r}: {exc}") from exc

    rows = []
    for r in args.r_grid:
        if s_vec is None:
            value, label = page_limit(args.alpha, args.regime, r)
        else:
            value, label = renyi_unequal_small(args.alpha, r, s_vec), "sum s_i^2"
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
    """One standard figure: analytic values and Monte-Carlo means on a sweep.

    A figure with a ``limit`` regime divides both files' entropies by the
    ``scale`` of that regime's ``page_limit`` law at every one of its
    orders (``SCALE_NORMS``), and its analytic file adds the law; without
    one, the analytic file is the ``analytic`` table. Every
    ``mc_stride``-th grid point is simulated; a sweep over s records those
    points in the manifest as ``mc_s_grid``.
    """

    stem: str
    sweep: str
    grid: list[float]
    alphas: tuple[int, ...]
    mc_stride: int
    limit: str | None
    scale: str | None
    ylabel: str
    grid_key: str


# The entropy scale each limit law's label names, as a function of (n, s).
SCALE_NORMS: dict[str, Callable[[int, float], float]] = {
    "s^2 n": lambda n, s: n * s * s,
    "s n": lambda n, s: s * n,
}

FIGURES = {
    "fig1": FigureSpec(
        "fig1", "r", grid("0.05:0.95:0.05"), (1, 2, 3, 4, 5, 6, 7, 15), 1,
        None, None, "entropy (nats)", "r_grid"),
    "small-s": FigureSpec(
        "small_s", "s", grid("0.05:1.0:0.05"), (2, 3, 4, 5, 15), 4,
        "small", "s^2 n", "S/(n s^2)", "s_grid"),
    "page-vs-s": FigureSpec(
        "page_vs_s", "s", grid("0.25:3.0:0.25"), (1, 2, 3), 1,
        "large", "s n", "S/(s n)", "analytic_s_grid"),
}


def run_figure(name, out_dir, params: FigureParams, seed: int, *,
               gnuplot: bool = False) -> dict:
    """Write one figure's analytic and simulated CSVs and its manifest.

    Monte-Carlo point ``i`` uses seed ``seed + i``. Every plan is equal
    squeezing, so ``run_experiment`` runs it on the calling thread.
    """
    spec = FIGURES[name]
    mc_grid = spec.grid[::spec.mc_stride]
    norm = SCALE_NORMS.get(spec.scale)
    n = params.n

    def point(x):
        return (FIXED_PARAM, x) if spec.sweep == "r" else (x, FIXED_PARAM)

    # Every plan is checked, and the directory made, before any work.
    plans = [ExperimentPlan.from_ratio(n=n, r=r, squeezing=s, alphas=spec.alphas,
                                       n_samples=params.n_samples, master_seed=seed + idx)
             for idx, (s, r) in enumerate(map(point, mc_grid))]
    os.makedirs(out_dir, exist_ok=True)

    prefix = "" if norm is None else "scaled_"
    rows = []
    for x in spec.grid:
        s, r = point(x)
        for alpha in spec.alphas:
            row = _analytic_row(alpha, n, s, r, DEFAULT_TOL)
            if norm is None:
                rows.append(_analytic_csv_row(row))
                continue
            rows.append([_fmt(x), str(alpha), _fmt(row["value"] / norm(n, s)),
                         _fmt(page_limit(alpha, spec.limit, r)[0])])
    files = [f"{spec.stem}_analytic.csv", f"{spec.stem}_simulated.csv"]
    _write_rows(os.path.join(out_dir, files[0]), ANALYTIC_COLUMNS if norm is None
                else [spec.sweep, "alpha", "scaled_value", "limit_value"], rows)

    mc_rows = []
    for x, plan in zip(mc_grid, plans):
        _, summary = run_experiment(plan)
        scale = 1.0 if norm is None else norm(n, point(x)[0])
        for alpha in spec.alphas:
            st = summary.per_alpha[alpha]
            mc_rows.append([_fmt(x), str(alpha), _fmt(st.mean / scale),
                            _fmt(st.stderr / scale), str(params.n_samples)])

    _write_rows(os.path.join(out_dir, files[1]),
                [spec.sweep, "alpha", prefix + "mean", prefix + "stderr", "n_samples"], mc_rows)
    if gnuplot:
        files.append(f"{spec.stem}.gp")
        _write_gnuplot(os.path.join(out_dir, files[2]), spec)
    manifest = {
        "figure": name,
        "n": n,
        "n_samples": params.n_samples,
        "s" if spec.sweep == "r" else "r": FIXED_PARAM,
        "alphas": list(spec.alphas),
        spec.grid_key: [float(x) for x in spec.grid],
        "seed": seed,
        "tol": DEFAULT_TOL,
        "files": files,
    }
    if spec.sweep == "s":
        manifest["mc_s_grid"] = [float(x) for x in mc_grid]
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _write_gnuplot(path: str, spec: FigureSpec) -> None:
    """Curves and points per alpha; a dashed limit line when the figure is normalised."""
    analytic, simulated = f"{spec.stem}_analytic.csv", f"{spec.stem}_simulated.csv"
    value_col = ANALYTIC_COLUMNS.index("value") + 1 if spec.limit is None else 3
    parts = []
    for alpha in spec.alphas:
        parts.append(f"  '{analytic}' using 1:($2=={alpha}?${value_col}:1/0) "
                     f"with lines title 'alpha={alpha}'")
        if spec.limit is not None:
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
    _resolve_threads(args.threads)  # checked, then unused: see run_figure
    run_figure(args.name, args.out_dir, SCALES[args.scale], args.seed, gnuplot=args.gnuplot)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbs-page",
        description="Page curves of Gaussian boson sampling output states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form entropy averages on an r grid")
    p.add_argument("--alpha", type=int_list, required=True,
                   help="comma list of Renyi orders; 1 = von Neumann")
    p.add_argument("--s", type=float, required=True,
                   help="equal squeezing strength; give one that starts with '-' as --s=-1e-3")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, help="mode count")
    size.add_argument("--asymptotic", action="store_true", help="n -> infinity (per-mode values)")
    p.add_argument("--r-grid", type=grid, required=True, help="partition ratios, start:stop:step")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="absolute tolerance (nats) of each value; a value whose "
                        "float64 error bound exceeds it is refused")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo entropy sampling")
    p.add_argument("--n", type=int)
    size = p.add_mutually_exclusive_group()
    size.add_argument("--k", type=int, help="subsystem mode count")
    size.add_argument("--r", type=float, help="subsystem ratio (k = round(r n))")
    p.add_argument("--s", type=squeezing,
                   help="squeezing: scalar or comma list of n values; give one that starts "
                        "with '-' as --s=-0.1,0.2")
    p.add_argument("--alphas", type=int_list, help="comma list of Renyi orders; 1 = von Neumann")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", help="worker threads, integer or 'auto'")
    p.add_argument("--out-prefix", help="write <prefix>_samples.csv and <prefix>_summary.json")
    p.add_argument("--config", help="JSON run config (exclusive with the other flags "
                                    "except --threads, which overrides its 'threads')")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("limits", help="small/large squeezing limit curves")
    p.add_argument("--alpha", type=int, required=True, help="Renyi order; 1 = von Neumann")
    p.add_argument("--regime", choices=LIMIT_REGIMES, required=True)
    p.add_argument("--r-grid", type=grid, required=True, help="partition ratios, start:stop:step")
    p.add_argument("--s-vector", help="file of per-mode squeezings (unequal small-s curve)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("figure", help="reproduce a standard figure dataset")
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--scale", choices=sorted(SCALES), default="desk")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--threads", default="auto",
                   help="integer or 'auto'; checked, but every figure is equal squeezing "
                        "and runs on one thread")
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
    except SampleFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a request larger than memory, such as numpy's table
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # reading an input raises a ValueError; this is an output
        print(f"error: cannot write {exc.filename or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
