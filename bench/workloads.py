"""The benchmark's workloads: inputs from the seed, commands, correctness gates.

Each workload turns the benchmark seed into the program's inputs, builds the
command line of one operation, and checks that operation's outputs. An
operation is one CLI command for ``simulate_*`` and ``figure_fig1_desk`` and
one analytic cell for ``analytic_sweep`` (a child process evaluates a whole
sweep of cells, one at a time). Why each workload exists is recorded in
``README.md`` next to this file.
"""

import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
CHILD = str(BENCH_DIR / "child.py")

# Acceptance criterion 1: |mc - analytic| <= 3 se + 2 % |analytic| per cell.
MC_REL_ALLOWANCE = 0.02
# Acceptance criterion 6: Renyi-2 mean within 10 % of the leading-order law.
UNEQUAL_REL_BAND = 0.10
# Analytic tolerance of the reference values, as in acceptance criterion 1.
REF_TOL_VN = 1e-3
REF_TOL_RENYI = 1e-8


def derive_seed(seed, *keys):
    """A 32-bit seed that depends only on the benchmark seed and the keys."""
    return int(np.random.SeedSequence([int(seed), *keys]).generate_state(1)[0])


def grid(start, stop, step):
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + i * step, 12) for i in range(count)]


def reference_value(alpha, n, s, r):
    from gbs_page import page_average

    tol = REF_TOL_VN if alpha == 1 else REF_TOL_RENYI
    return page_average(alpha, n, s, r, tol=tol).value


def mc_gate(cells, rel_allowance=MC_REL_ALLOWANCE):
    """Criterion 1 on ``{key: (mean, stderr, reference)}``; returns failing keys."""
    bad = []
    for key, (mean, stderr, ref) in cells.items():
        margin = 3.0 * stderr + rel_allowance * abs(ref)
        if not abs(mean - ref) <= margin:
            bad.append(key)
    return bad


def unequal_gate(mean, reference, band=UNEQUAL_REL_BAND):
    """Criterion 6: True when the Renyi-2 mean is within ``band`` of the law."""
    return reference > 0 and abs(mean / reference - 1.0) <= band


@dataclass
class Outcome:
    """What one operation (or one sweep of cells) produced."""

    attempted: int
    answered: int
    failed: int
    items: int
    busy_s: float
    latencies_ms: list
    details: list = field(default_factory=list)
    bytes_out: int = 0


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class CliWorkload:
    """A workload whose operation is one ``gbs-page`` command."""

    per_cell = False

    def command(self, index, opdir, spans=None):
        args = self.cli_args(index, opdir)
        if spans is None:
            return [sys.executable, "-m", "gbs_page.cli", *args]
        return [sys.executable, CHILD, "cli", str(spans), "--", *args]

    def outcome(self, index, opdir, exit_code, wall_s):
        out = Path(opdir) / "out"
        bytes_out = _dir_bytes(out) + (Path(opdir) / "stdout").stat().st_size
        if exit_code != 0:
            problems = [f"exit code {exit_code}"]
            items = 0
        else:
            try:
                items, problems = self.check(index, out)
            except (OSError, ValueError, KeyError) as exc:
                items, problems = 0, [f"unreadable output: {exc!r}"]
        ok = not problems
        return Outcome(attempted=1, answered=int(ok), failed=int(not ok), items=items,
                       busy_s=wall_s, latencies_ms=[1e3 * wall_s], details=problems,
                       bytes_out=bytes_out)


@dataclass
class Simulate(CliWorkload):
    """``simulate`` at one (n, k): equal squeezing s, or unequal from [0, s_high]."""

    name: str
    n: int
    k: int
    alphas: tuple
    samples: int
    s: float = 0.0
    s_high: float = 0.0

    def prepare(self, seed, workers):
        self.seed = seed
        self.workers = workers
        r = self.k / self.n
        if self.s_high:
            rng = np.random.default_rng(derive_seed(seed, 1))
            self.s_vec = [float(x) for x in rng.uniform(0.0, self.s_high, self.n)]
            from gbs_page import renyi_unequal_small

            self.reference = renyi_unequal_small(2, r, self.s_vec)
        else:
            self.reference = {a: reference_value(a, self.n, self.s, r) for a in self.alphas}

    def cli_args(self, index, opdir):
        mc_seed = derive_seed(self.seed, 2, index)
        os.makedirs(Path(opdir) / "out", exist_ok=True)
        if self.s_high:
            # The squeezing vector reaches the program only through --config.
            # A config carries no 'auto': it gets the worker count 'auto' means.
            config = {"n": self.n, "k": self.k, "s": self.s_vec,
                      "alphas": list(self.alphas), "samples": self.samples,
                      "seed": mc_seed, "threads": self.workers, "out_prefix": "out/sim"}
            with open(Path(opdir) / "config.json", "w") as fh:
                json.dump(config, fh)
            return ["simulate", "--config", "config.json"]
        return ["simulate", "--n", str(self.n), "--k", str(self.k), "--s", repr(self.s),
                "--alphas", ",".join(map(str, self.alphas)),
                "--samples", str(self.samples), "--seed", str(mc_seed),
                "--threads", "auto", "--out-prefix", "out/sim"]

    def check(self, index, out):
        with open(out / "sim_summary.json") as fh:
            results = json.load(fh)["results"]
        per_alpha = results["per_alpha"]
        with open(out / "sim_samples.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        problems = []
        if results["n_samples"] != self.samples or rows != self.samples * len(self.alphas):
            problems.append(f"expected {self.samples} samples, summary says "
                            f"{results['n_samples']} and the CSV has {rows} rows")
        if self.s_high:
            mean = per_alpha["2"]["mean"]
            if not unequal_gate(mean, self.reference):
                problems.append(f"Renyi-2 mean {mean!r} not within {UNEQUAL_REL_BAND:.0%} "
                                f"of the leading-order law {self.reference!r}")
        else:
            cells = {a: (per_alpha[str(a)]["mean"], per_alpha[str(a)]["stderr"],
                         self.reference[a]) for a in self.alphas}
            for a in mc_gate(cells):
                problems.append(f"alpha {a}: mc {cells[a][0]!r} +- {cells[a][1]!r} vs "
                                f"analytic {cells[a][2]!r} outside 3 se + 2 %")
        return self.samples, problems


@dataclass
class FigureFig1(CliWorkload):
    """``figure fig1 --scale desk``: n = 100, 19 partitions, 100 samples each."""

    name: str
    n: int = 100
    s: float = 0.5

    def prepare(self, seed, workers):
        self.seed = seed
        self.reference = {}

    def cli_args(self, index, opdir):
        return ["figure", "fig1", "--scale", "desk",
                "--seed", str(derive_seed(self.seed, 3, index)),
                "--out-dir", "out", "--threads", "auto"]

    def _reference(self, alpha, r):
        key = (alpha, r)
        if key not in self.reference:
            self.reference[key] = reference_value(alpha, self.n, self.s, r)
        return self.reference[key]

    def check(self, index, out):
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        with open(out / "fig1_simulated.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "fig1_analytic.csv") as fh:
            analytic_rows = sum(1 for _ in fh) - 1
        expected = len(manifest["r_grid"]) * len(manifest["alphas"])
        problems = []
        if len(rows) != expected or analytic_rows != expected:
            problems.append(f"expected {expected} cells, got {len(rows)} simulated "
                            f"and {analytic_rows} analytic rows")
        cells = {
            (int(row["alpha"]), float(row["r"])): (
                float(row["mean"]), float(row["stderr"]),
                self._reference(int(row["alpha"]), float(row["r"])))
            for row in rows
        }
        for key in mc_gate(cells):
            problems.append(f"(alpha, r) = {key}: mc {cells[key][0]!r} vs analytic "
                            f"{cells[key][2]!r} outside 3 se + 2 %")
        samples = sum(int(row["n_samples"]) for row in rows) // len(manifest["alphas"])
        return samples, problems


def check_analytic(cells, rows):
    """Gates of the analytic sweep; returns ``{cell index: reason}`` of failures.

    Every answered cell must meet its tolerance; values must not increase
    with alpha (up to the summed truncation bounds); and a cell and its
    mirror r -> 1 - r, at the realized k, must agree within those bounds.
    A refusal must report a bound above the tolerance it could not meet.
    """
    failed = {}
    answered = {}
    for idx, ((*_, tol), (status, value, err, *_)) in enumerate(zip(cells, rows)):
        if status == "refused":
            if err is not None and err <= tol:
                failed[idx] = f"refused with bound {err!r} <= tol {tol!r}"
        elif status != "ok":
            failed[idx] = status
        elif err is None or not math.isfinite(value) or not err <= tol:
            failed[idx] = f"value {value!r} with bound {err!r} > tol {tol!r}"
        else:
            answered[idx] = (value, err)

    def slack(a, b):
        return a[1] + b[1] + 1e-12 * max(1.0, abs(a[0]), abs(b[0]))

    by_point = {}
    for idx in answered:
        alpha, s, r, n, _ = cells[idx]
        by_point.setdefault((s, r, n), []).append((alpha, idx))
    for members in by_point.values():
        members.sort()
        for (a_lo, i_lo), (a_hi, i_hi) in zip(members, members[1:]):
            lo, hi = answered[i_lo], answered[i_hi]
            if hi[0] > lo[0] + slack(lo, hi):
                for i, a in ((i_lo, a_lo), (i_hi, a_hi)):
                    failed.setdefault(i, f"alpha {a_hi} value {hi[0]!r} exceeds "
                                         f"alpha {a_lo} value {lo[0]!r}")

    def side(idx):
        alpha, s, r, n, _ = cells[idx]
        realized = rows[idx][4]
        if n is None:
            return (alpha, s, n, round(r, 9)), (alpha, s, n, round(1.0 - r, 9))
        k = round(realized * n)
        return (alpha, s, n, k), (alpha, s, n, n - k)

    by_side = {side(idx)[0]: idx for idx in answered}
    for idx in answered:
        mirror = by_side.get(side(idx)[1])
        if mirror is None:
            continue
        a, b = answered[idx], answered[mirror]
        if abs(a[0] - b[0]) > slack(a, b):
            failed.setdefault(idx, f"r <-> 1-r: {a[0]!r} vs {b[0]!r}")
    return failed


@dataclass
class AnalyticSweep:
    """``page_average`` over alphas x s grid x r grid x n, in seed-shuffled order."""

    name: str
    alphas: tuple
    s_grid: tuple
    r_grid: tuple
    ns: tuple  # None is the asymptotic (per-mode) curve
    tol: float = 1e-3
    per_cell = True

    def prepare(self, seed, workers):
        self.seed = seed
        self.cells = [[a, s, r, n, self.tol] for a in self.alphas for s in self.s_grid
                      for r in self.r_grid for n in self.ns]

    def ordered_cells(self, index):
        rng = np.random.default_rng(derive_seed(self.seed, 4, index))
        return [self.cells[i] for i in rng.permutation(len(self.cells))]

    def command(self, index, opdir, spans=None):
        with open(Path(opdir) / "cells.json", "w") as fh:
            json.dump(self.ordered_cells(index), fh)
        argv = [sys.executable, CHILD, "analytic", "cells.json", "results.json"]
        return argv + (["--trace", str(spans)] if spans is not None else [])

    def outcome(self, index, opdir, exit_code, wall_s):
        cells = self.ordered_cells(index)
        try:
            with open(Path(opdir) / "results.json") as fh:
                results = json.load(fh)
            rows = results["rows"]
            problem = None if len(rows) == len(cells) else f"{len(rows)} rows"
        except (OSError, ValueError, KeyError) as exc:
            problem = f"no results: {exc!r}"
        if exit_code != 0 or problem:
            return Outcome(attempted=len(cells), answered=0, failed=len(cells), items=0,
                           busy_s=wall_s, latencies_ms=[1e3 * wall_s],
                           details=[f"exit code {exit_code}, {problem}"])
        failed = check_analytic(cells, rows)
        answered = sum(1 for i, row in enumerate(rows) if row[0] == "ok" and i not in failed)
        details = [f"cell {cells[i]}: {why}" for i, why in sorted(failed.items())[:10]]
        return Outcome(attempted=len(cells), answered=answered, failed=len(failed),
                       items=len(cells), busy_s=results["loop_s"],
                       latencies_ms=[row[5] for row in rows], details=details)


# Sizes and grids are fixed: later changes are judged against these numbers.
# Each entry makes a fresh workload, which ``prepare`` then fills per run.
WORKLOADS = {
    "simulate_n400": partial(Simulate, "simulate_n400", n=400, k=200, s=0.5,
                             alphas=(1, 2, 3, 4, 5, 6, 7, 15), samples=120),
    "simulate_unequal_n400": partial(Simulate, "simulate_unequal_n400", n=400, k=200,
                                     s_high=0.1, alphas=(1, 2, 3), samples=120),
    "figure_fig1_desk": partial(FigureFig1, "figure_fig1_desk"),
    "analytic_sweep": partial(AnalyticSweep, "analytic_sweep", alphas=(1, 2, 3, 15),
                              s_grid=tuple(grid(0.05, 3.0, 0.05)),
                              r_grid=tuple(grid(0.05, 0.95, 0.05)),
                              ns=(100, 400, None)),
}
