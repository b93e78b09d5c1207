"""Benchmark of gbs-page: workloads over the CLI and the analytic API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is used from ``src/`` without
installing it. Closed loop with one client: one command or one analytic cell
is in flight at a time. Every operation's output is checked (``workloads.py``)
and a failed check fails the run. The child processes get the caller's
environment minus the thread-count variables, so the program's own default
thread layout is what gets measured.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs each operation twice, untraced and traced, and reports the per-layer
metrics from the traced runs' spans (``tracing.py``). Human-readable lines
come first; the last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GBS_PAGE_THREADS")
SETUP_REPEATS = 7
# The whole run ends within this many seconds: a child still running is killed.
HARD_LIMIT_S = 170.0
START = time.perf_counter()

EXIT_NO_PROGRAM = 2
EXIT_BROKEN = 3


class BrokenProgram(Exception):
    """The program cannot even start; no result is printed."""


def child_env():
    """The caller's environment without thread-count variables, using src/."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    # Let the children cache bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv, cwd, env):
    """Run one child to completion; return (exit code, wall s, cpu s, peak RSS MB)."""
    cwd = Path(cwd)
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        remaining = max(1.0, START + HARD_LIMIT_S - t0)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup(env, workdir):
    """Median wall time of a no-op invocation: spawn until the CLI is ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = spawn([sys.executable, "-m", "gbs_page.cli", "--help"], workdir, env)
        if code != 0:
            err = (Path(workdir) / "stderr").read_text()[-2000:]
            raise BrokenProgram(f"no-op invocation failed with exit code {code}:\n{err}")
        times.append(wall)
    return statistics.median(times)


def provenance(env, workers):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_workers": workers,
        "child_thread_env": {k: env.get(k) for k in THREAD_VARS},
    }


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_op(workload, index, workdir, env, traced):
    """One operation in its own directory; returns (outcome, process facts, spans)."""
    opdir = Path(workdir) / f"op{index}{'t' if traced else ''}"
    opdir.mkdir()
    spans_path = opdir / "spans.json" if traced else None
    argv = workload.command(index, opdir, spans_path)
    code, wall, cpu, rss = spawn(argv, opdir, env)
    outcome = workload.outcome(index, opdir, code, wall)
    print(f"op {index}{' traced' if traced else ''}: exit {code}, wall {wall:.4f} s, "
          f"cpu {cpu:.4f} s, peak rss {rss:.1f} MB, {outcome.items} items, "
          f"{outcome.failed} failed")
    spans = None
    if traced and code == 0:
        with open(spans_path) as fh:
            trace = json.load(fh)
        spans = trace["spans"]
        if trace["missing"]:
            print(f"trace: not in the program, not traced: {', '.join(trace['missing'])}")
    if outcome.failed:
        tail = (opdir / "stderr").read_text()[-1500:]
        print(f"op {index} FAILED: {'; '.join(outcome.details)}\n{tail}", file=sys.stderr)
    shutil.rmtree(opdir)
    return outcome, {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss}, spans


def end_to_end(outcomes, facts, setup_s, per_cell):
    """The gated metrics, and the workload's own metrics (printed only)."""
    attempted = sum(o.attempted for o in outcomes)
    ok_ratio = sum(o.answered for o in outcomes) / attempted
    latencies = [ms for o in outcomes for ms in o.latencies_ms]
    p50 = statistics.median(latencies)
    # Throughput is total work over total busy time; latencies are medians.
    rate = sum(o.items for o in outcomes) / sum(o.busy_s for o in outcomes)
    rss = statistics.median(f["rss_mb"] for f in facts)
    gated = {"setup_s": setup_s, "items_per_s": rate, "op_ok_ratio": ok_ratio,
             "peak_rss_mb": rss}
    kind = "cell" if per_cell else "command"
    named = {
        "setup_s": (setup_s, "s"),
        ("cells_per_s" if per_cell else "samples_per_s"): (rate, "1/s"),
        f"{kind}_ms_p50": (p50, "ms"),
        "op_fail_ratio": (1.0 - ok_ratio, f"ratio of {attempted} {kind}s"),
        "peak_rss_mb": (rss, "MB"),
    }
    if per_cell:
        named["cell_ms_p999"] = (tracing.percentile(latencies, 99.9), "ms")
    return named, gated


def per_layer(pairs, per_cell):
    """Median over traced operations of each layer metric, plus process facts."""
    rows = []
    for (outcome, facts, _), (t_outcome, _, spans) in pairs:
        row = tracing.layer_metrics(spans or [])
        samples = outcome.items if not per_cell else 0
        row["cli.bytes_out"] = t_outcome.bytes_out
        row["process.cpu_s_per_sample"] = facts["cpu_s"] / samples if samples else 0.0
        row["process.cpu_util"] = facts["cpu_s"] / (facts["wall_s"] * (os.cpu_count() or 1))
        rows.append(row)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    untraced = statistics.median(u[1]["wall_s"] for u, _ in pairs)
    traced = statistics.median(t[1]["wall_s"] for _, t in pairs)
    metrics["trace.overhead_share"] = traced / untraced - 1.0
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gbs_page" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'gbs_page'}; run from a checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(workload, args, workdir)
    except BrokenProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BROKEN
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def measure(workload, args, workdir):
    env = child_env()
    workers = os.cpu_count() or 1  # what the CLI's '--threads auto' resolves to
    prov = dict(provenance(env, workers), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    setup_s = None if args.trace else measure_setup(env, workdir)
    workload.prepare(args.seed, workers)

    deadline = time.perf_counter() + args.seconds
    ops, index = [], 0
    while True:
        # Start an operation only if a typical one still ends inside the window.
        if ops:
            typical = statistics.median(
                sum(f["wall_s"] for _, f, _ in group) for group in ops)
            if time.perf_counter() + typical > deadline:
                break
            if time.perf_counter() - START > HARD_LIMIT_S - 2 * typical:
                break
        if args.trace:
            # A pair, untraced first on even indices and traced first on odd ones.
            order = (True, False) if index % 2 else (False, True)
            pair = {traced: run_op(workload, index, workdir, env, traced) for traced in order}
            group = [pair[False], pair[True]]
        else:
            group = [run_op(workload, index, workdir, env, False)]
        ops.append(group)
        index += 1

    outcomes = [o for group in ops for o, _, _ in group]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"operations {len(ops)}{' pairs' if args.trace else ''}: "
          f"{attempted} attempted, {failed} failed")
    if args.trace:
        metrics = per_layer(ops, workload.per_cell)
    else:
        untraced = [group[0] for group in ops]
        named, metrics = end_to_end([o for o, _, _ in untraced],
                                    [f for _, f, _ in untraced], setup_s, workload.per_cell)
        for name, (value, unit) in named.items():
            print(f"metric {name} {value:.6g} {unit}")
    units = declared_units()
    out = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    for name, entry in out.items():
        print(f"result {name} {entry['value']:.6g} {entry['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


if __name__ == "__main__":
    sys.exit(main())
