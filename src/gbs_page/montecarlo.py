"""Seeded Monte-Carlo experiments over Haar-random circuits.

Every sample is a pure function of (plan, sample_index), so results are
independent of the worker count and bit-reproducible across runs. Workers
take fixed blocks of consecutive indices. The entropies are one table of
shape (n_samples, orders): row i is sample i, column j the order
``plan.alphas[j]`` (sorted and distinct), and each block writes its own
rows. At equal squeezing a block draws each sample's squared Jacobi
bidiagonal on its own stream and takes every entropy from one pass of
O(m) log-determinant recurrences over the block's samples and every shift
(``entropy.bidiagonal_entropies``): no eigensolve, and each row's values
are the ones it would have alone; these blocks run on the calling thread.
Per-mode squeezing evaluates the smaller side of the cut (the global state
is pure) in blocks of two samples: each sample draws its frame and forms
its Gram matrix on its own, and the pair shares one stacked ``eigvalsh``,
whose rows are the values each sample gets alone. An empty side (k = 0 or
n) draws nothing. A block that fails numerically is run again one sample
at a time, in index order (``_fill``), and the first sample that fails
alone aborts the whole experiment as a ``SampleFailure`` naming its
index: the constructions are physically guaranteed to be valid states, so
a failure indicates a bug, and silently skipping it would bias the means.
A request larger than memory is not such a failure: its ``MemoryError``
passes unwrapped.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .entropy import (_MAX_SQUEEZING, _check_alpha, _check_ratio, _check_squeezing, _integer,
                      _mode_count, _real, _shift_rule, _side, bidiagonal_entropies,
                      spectrum_entropies)
from .haar import _bidiagonal_squares, _check_shape, haar_frame
from .states import reduced_covariance_general
from .symplectic import _gram, _gram_spectrum

__all__ = [
    "AlphaStats",
    "ExperimentPlan",
    "SAMPLER",
    "SampleFailure",
    "Summary",
    "VarianceEstimate",
    "run_experiment",
    "variance_trend",
]

# Per-sample slack for the exact monotonicity/positivity of entropies.
_MONOTONE_TOL = 1e-9

# Equal-squeezing samples per block. The log-determinant pass costs a few
# numpy calls per bidiagonal index whatever the block holds, so a block
# amortises them over this many samples; its per-step arrays (samples x
# shifts, about 90 shifts) stay a few tens of kB.
_BLOCK_SAMPLES = 64

# Indices per stacked run of bootstrap resamples: the values they gather
# take 512 kB.
_BOOT_INDICES = 1 << 16

# Longest float64 array numpy can make: a sample's bidiagonal row of
# min(k, n - k) entries must fit, so that a longer one fails to allocate
# (MemoryError) instead of failing numpy's size check.
_LONGEST_ROW = np.iinfo(np.intp).max // np.dtype(float).itemsize

# Per-mode samples per block. Two 2m x 2m Gram matrices make one stacked
# eigvalsh of 4m values, which numpy runs without the interpreter lock from
# m = 126 up; a pair adds one Gram matrix (1.3 MB at m = 200) to a sample's
# peak memory, where a block of three doubled it.
_PAIR_SAMPLES = 2

# Version of the map from (plan, sample_index) to samples. Sampler 5 draws
# an n x min(k, n - k) Haar frame for per-mode squeezing, the smaller side
# of the cut, so only per-mode samples with k > n/2 changed; equal
# squeezing draws the transmission eigenvalues as in sampler 4. Sampler 4
# drew the n x k frame for every per-mode sample (as sampler 3 did), and
# sampler 3 drew it for equal squeezing too, sampler 2 only for equal
# squeezing, sampler 1 never.
SAMPLER = 5

class SampleFailure(RuntimeError):
    """Numerical failure inside one Monte-Carlo sample; ``cause`` is also its ``__cause__``."""

    def __init__(self, sample_index: int, cause: Exception):
        super().__init__(f"sample {sample_index} failed: {cause}")
        self.sample_index = sample_index
        self.cause = self.__cause__ = cause


@dataclass(frozen=True)
class ExperimentPlan:
    """Specification of one sampling experiment.

    ``squeezing`` is a scalar for the equal case (spectrum from the drawn
    transmission eigenvalues) or a length-n sequence for the general case
    (reduced covariance of the smaller side of the cut, built from an
    n x min(k, n - k) Haar frame). ``alphas`` may include 1, meaning the
    von Neumann entropy; the plan keeps them sorted and distinct, the column
    order of ``run_experiment``'s table. The integer fields take integral
    values only (6 or 6.0, not 6.7 or True), ``master_seed`` must be >= 0,
    n at most the largest float64 and 0 <= k <= n, with min(k, n - k) at
    most 2^60 - 1 (``_LONGEST_ROW``); an empty side (k = 0 or n) has every
    entropy 0. The squeezing must be finite and within float64:
    |s| <= 168.14 with order 1 and 177.79 without at equal squeezing (the
    shifts), every |s_i| <= 177.79 per mode (nu^2 <= cosh^2(2 s_i)).
    Known limit: per-mode plans with one input squeezed to s_0 >= 12.75 and
    the rest in vacuum can fail, with a symplectic eigenvalue below
    1 - 1e-6 (at (n, k) = (12, 10) and (40, 38), seed 4).
    """

    n: int
    k: int
    squeezing: float | tuple[float, ...]
    alphas: tuple[int, ...] = (1, 2)
    n_samples: int = 100
    master_seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n", 1), ("k", None), ("n_samples", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        _check_shape(self.n, self.k)
        m = min(self.k, self.n - self.k)
        if m > _LONGEST_ROW:
            raise ValueError(f"the smaller side of the cut, min(k, n - k) of {m.bit_length()} "
                             f"bits, is beyond the longest float64 array numpy can make")
        if np.ndim(self.alphas) != 1 or len(self.alphas) == 0:
            raise ValueError(f"alphas must be a non-empty sequence of Renyi orders, "
                             f"got {self.alphas!r}")
        object.__setattr__(self, "alphas",
                           tuple(sorted({_integer("alphas", a, 1) for a in self.alphas})))
        try:
            if np.ndim(self.squeezing) == 0:
                squeezing = float(self.squeezing)
            else:
                squeezing = tuple(float(x) for x in self.squeezing)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"squeezing must be a number or a sequence of n numbers, "
                             f"got {self.squeezing!r}") from exc
        object.__setattr__(self, "squeezing", squeezing)
        if self.equal_squeezing:
            _shift_rule(squeezing, self.alphas)  # rejects a non-finite s and one that overflows
        elif len(squeezing) != self.n:
            raise ValueError(f"squeezing vector has {len(squeezing)} entries for n={self.n}")
        elif not np.isfinite(squeezing).all():
            raise ValueError("squeezing strengths must be finite")
        else:
            _check_squeezing(max(squeezing, key=abs), _MAX_SQUEEZING)

    @classmethod
    def from_ratio(cls, n: int, r: float, **kwargs) -> "ExperimentPlan":
        """Build a plan from a partition ratio; k = round(r n), ties to even."""
        return cls(n=n, k=_side(_check_ratio(r), _mode_count(n, "n")), **kwargs)

    @property
    def realized_r(self) -> float:
        return self.k / self.n

    @property
    def equal_squeezing(self) -> bool:
        return np.ndim(self.squeezing) == 0


@dataclass(frozen=True)
class AlphaStats:
    mean: float
    variance: float  # unbiased
    stderr: float


@dataclass(frozen=True)
class Summary:
    per_alpha: dict[int, AlphaStats]
    n_samples: int
    realized_r: float


def _check_rows(rows: np.ndarray) -> None:
    """Raise the cause of the first row of entropies (orders rising) that is not physical.

    A row fails when an entropy is not finite (``ValueError``), or when one
    is negative or grows with the order (``FloatingPointError``).
    """
    finite = np.isfinite(rows).all(axis=1)
    negative = (rows < -_MONOTONE_TOL).any(axis=1)
    rising = (rows[:, 1:] > rows[:, :-1] + _MONOTONE_TOL).any(axis=1)
    bad = ~finite | negative | rising
    if bad.any():
        row = int(np.argmax(bad))
        if not finite[row]:
            raise ValueError("log-determinant pivots must be finite and positive")
        if negative[row]:
            raise FloatingPointError(f"negative entropy {float(rows[row].min())!r}")
        raise FloatingPointError(f"entropies not monotone in alpha: {rows[row].tolist()!r}")


def _sample_gram(plan: ExperimentPlan, index: int, out: np.ndarray) -> None:
    """One per-mode sample up to its eigensolve: A^T A into ``out``.

    The global state is pure, so the k modes have the entropies of the
    other n - k. The sample takes the smaller side, m = min(k, n - k)
    modes: the covariance of an ``n x m`` Haar frame, and its Gram matrix
    as ``symplectic_eigenvalues`` forms it. At an empty side (k = 0 or n)
    it draws nothing (m = 0). The frame is freed before the Gram matrix is
    formed, the covariance and Cholesky factor when this returns.
    """
    m = min(plan.k, plan.n - plan.k)
    if m:
        frame = haar_frame(plan.n, m, plan.master_seed, index)
        sigma = reduced_covariance_general(frame, plan.squeezing)
        del frame
        _gram(sigma, out=out)


def _per_mode_rows(plan: ExperimentPlan, block: range) -> np.ndarray:
    """Checked entropies of per-mode samples whose Gram matrices share one stacked ``eigvalsh``.

    Each row of the solve is the one that sample gets alone.
    """
    m = min(plan.k, plan.n - plan.k)
    grams = np.empty((len(block), 2 * m, 2 * m))
    for row, index in enumerate(block):
        _sample_gram(plan, index, grams[row])
    rows = np.array([spectrum_entropies(_gram_spectrum(values), plan.alphas)
                     for values in np.linalg.eigvalsh(grams)])
    _check_rows(rows)
    return rows


def _equal_rows(plan: ExperimentPlan, block: range) -> np.ndarray:
    """Checked entropies of the block's squared bidiagonals, one row each.

    Raises ``ValueError`` unless every squared entry lies in [0, 1].
    """
    diag, sup = _bidiagonal_squares(plan.n, plan.k, plan.master_seed, block)
    if not (np.all((diag >= 0) & (diag <= 1)) and np.all((sup >= 0) & (sup <= 1))):
        raise ValueError("squared bidiagonal entries must be finite and in [0, 1]")
    with np.errstate(all="ignore"):  # a row that comes out unphysical fails its check
        rows = bidiagonal_entropies(diag, sup, plan.squeezing, plan.alphas)
    _check_rows(rows)
    return rows


def _blocks(plan: ExperimentPlan) -> list[range]:
    """The fixed runs of consecutive sample indices that are evaluated together.

    Equal-squeezing blocks hold ``_BLOCK_SAMPLES`` samples, per-mode
    squeezing blocks ``_PAIR_SAMPLES`` (the last one the rest). The blocks
    depend on the plan alone, never on the thread count.
    """
    size = _BLOCK_SAMPLES if plan.equal_squeezing else _PAIR_SAMPLES
    return [range(j, min(j + size, plan.n_samples)) for j in range(0, plan.n_samples, size)]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), not the host's count."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill(plan: ExperimentPlan, width: int, rows_of, threads: int = 1) -> np.ndarray:
    """The (n_samples, width) table whose rows ``rows_of(indices)`` gives, block by block.

    A sample's row must not depend on its block (``_blocks``). A block that
    raises runs again one sample at a time, in index order, and the first
    sample that raises alone is the ``SampleFailure``, the only one built,
    unless it raised ``MemoryError``, which passes unwrapped; if none
    raises, the replayed rows stand. The one thread rule: per-mode
    plans run on min(threads, usable CPUs, blocks) workers, and equal
    squeezing, like a single worker, on the calling thread.
    """
    table = np.empty((plan.n_samples, width))

    def run(block):
        try:
            table[block.start:block.stop] = rows_of(block)
        except Exception:
            for index in block:
                try:
                    table[index] = rows_of(range(index, index + 1))
                except MemoryError:
                    raise
                except Exception as exc:
                    raise SampleFailure(index, exc)

    blocks = _blocks(plan)
    workers = min(_integer("thread count", threads, 1), _usable_cpus(), len(blocks))
    if plan.equal_squeezing or workers == 1:
        for block in blocks:
            run(block)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, blocks))
    return table


def _entropy_rows(plan: ExperimentPlan, indices: range) -> np.ndarray:
    """Checked entropies of the samples at ``indices`` (one sample too), one row each."""
    return (_equal_rows(plan, indices) if plan.equal_squeezing
            else _per_mode_rows(plan, indices))


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> tuple[np.ndarray, Summary]:
    """Run every sample of the plan and aggregate summary statistics.

    Returns the entropies as a float64 table of shape (n_samples, orders):
    row i is sample i and column j the order ``plan.alphas[j]``, from
    ``_entropy_rows`` in the fixed blocks of ``_fill``: identical plans give
    bit-identical tables whatever the thread count, and a failure is the
    ``SampleFailure`` of the first sample that fails alone in the first
    failing block. Equal-squeezing plans run on the calling thread: their
    blocks are chains of short numpy calls that take the interpreter lock
    back every few microseconds, so a second worker only adds contention.
    Per-mode plans run on at most ``threads`` workers, and on no more than
    the CPUs the process may use. Pin the process's BLAS to one thread
    before numpy loads (as ``gbs_page.cli`` does), or each worker's BLAS
    calls start threads that compete with the other workers.
    """
    table = _fill(plan, len(plan.alphas), lambda indices: _entropy_rows(plan, indices), threads)
    per_alpha = {}
    for a, vals in zip(plan.alphas, table.T):
        # One 1-D column at a time: a reduction over axis 0 sums in another order.
        var = float(vals.var(ddof=1)) if len(vals) > 1 else 0.0
        per_alpha[a] = AlphaStats(
            mean=float(vals.mean()),
            variance=var,
            stderr=float(np.sqrt(var / len(vals))),
        )
    summary = Summary(
        per_alpha=per_alpha, n_samples=plan.n_samples, realized_r=plan.realized_r
    )
    return table, summary


@dataclass(frozen=True)
class VarianceEstimate:
    n: int
    variance: float
    ci_low: float
    ci_high: float


def _bootstrap_ci(statistic, m: int, n_boot: int, rng: np.random.Generator) -> np.ndarray:
    """Percentile bootstrap of ``statistic`` over ``n_boot`` resamples of m indices.

    Each resample draws its m indices with one ``rng.integers`` call, in
    turn. ``statistic`` maps a stack of resamples, an index array of shape
    (resamples, m), to one value per resample; it sees the resamples in
    runs of at most ``_BOOT_INDICES`` indices. The result is the 2.5th and
    97.5th percentiles.
    """
    draws = [rng.integers(0, m, m) for _ in range(n_boot)]
    run = max(1, _BOOT_INDICES // m)
    stats = np.concatenate([statistic(np.array(draws[j:j + run]))
                            for j in range(0, n_boot, run)])
    return np.percentile(stats, (2.5, 97.5), axis=0)


def variance_trend(ns, r: float, s: float, alpha: int, n_samples: int, seed: int,
                   n_boot: int = 2000) -> list[VarianceEstimate]:
    """Unbiased entropy variance vs system size, with bootstrap CIs.

    One experiment per n (same r, s, alpha, sample count); the bootstrap
    (percentile, ``n_boot`` resamples) is seeded per n so the whole trend is
    reproducible. Entropy distributions are skewed at small n, hence the
    bootstrap rather than normal-theory intervals. ``ns`` is a
    one-dimensional sequence of mode counts, ``alpha`` an order >= 2 and
    ``n_samples`` at least 2. An n whose side k = round(r n) is empty has
    variance 0.
    """
    alpha = _check_alpha(alpha, 2)
    n_samples = _integer("n_samples", n_samples, 2)
    n_boot = _integer("n_boot", n_boot, 1)
    s = _real("squeezing strength", s)
    if np.ndim(ns) != 1:
        raise ValueError(f"ns must be a one-dimensional sequence of mode counts, got {ns!r}")
    out = []
    for n in ns:
        plan = ExperimentPlan.from_ratio(n, r, squeezing=s, alphas=(alpha,),
                                         n_samples=n_samples, master_seed=seed)
        table, summary = run_experiment(plan)
        vals = table[:, 0]
        brng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(plan.master_seed, spawn_key=(0xB007, plan.n)))
        )
        lo, hi = _bootstrap_ci(lambda idx: vals[idx].var(axis=1, ddof=1), len(vals), n_boot,
                               brng)
        out.append(VarianceEstimate(n=plan.n, variance=summary.per_alpha[alpha].variance,
                                    ci_low=float(lo), ci_high=float(hi)))
    return out

