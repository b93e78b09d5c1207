"""Seeded Monte-Carlo experiments over Haar-random circuits.

Every sample is a pure function of (plan, sample_index), so results are
independent of the worker count and bit-reproducible across runs. Workers
take fixed blocks of consecutive indices. At equal squeezing a block draws
each sample's squared Jacobi bidiagonal on its own stream and takes every
entropy from one pass of O(m) log-determinant recurrences over the block's
samples and every shift (``entropy.bidiagonal_entropies``): no eigensolve,
and each row's values are the ones it would have alone; these blocks run
on the calling thread. Per-mode squeezing evaluates the smaller side of the
cut (the global state is pure) in blocks of two samples: each sample draws
its frame and forms its Gram matrix on its own, and the pair shares one
stacked ``eigvalsh``, whose rows are the values each sample gets alone.
A sample that fails numerically aborts the whole experiment, naming the
first failing index: the constructions are physically guaranteed to be
valid states, so a failure indicates a bug, and silently skipping it would
bias the means.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .entropy import _integer, bidiagonal_entropies, spectrum_entropies
from .haar import _bidiagonal_squares, _squared_singular_values, haar_frame
from .pagecurve import _check_ratio
from .states import _power_sums, _w_block_eigenvalues, reduced_covariance_general
from .symplectic import _gram, _gram_spectrum

__all__ = [
    "AlphaStats",
    "ExperimentPlan",
    "SAMPLER",
    "SampleFailure",
    "SampleRecord",
    "Summary",
    "VarianceEstimate",
    "estimate_Vd",
    "run_experiment",
    "s2_variance_identity",
    "variance_trend",
]

# Per-sample slack for the exact monotonicity/positivity of entropies.
_MONOTONE_TOL = 1e-9

# Equal-squeezing samples per block. The log-determinant pass costs a few
# numpy calls per bidiagonal index whatever the block holds, so a block
# amortises them over this many samples; its per-step arrays (samples x
# shifts, about 90 shifts) stay a few tens of kB.
_BLOCK_SAMPLES = 64

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
    """Numerical failure inside one Monte-Carlo sample."""

    def __init__(self, sample_index: int, cause: Exception):
        super().__init__(f"sample {sample_index} failed: {cause}")
        self.sample_index = sample_index
        self.cause = cause


@dataclass(frozen=True)
class ExperimentPlan:
    """Specification of one sampling experiment.

    ``squeezing`` is a scalar for the equal case (spectrum from the drawn
    transmission eigenvalues) or a length-n sequence for the general case
    (reduced covariance of the first k modes built from an n x k Haar frame).
    ``alphas`` may include 1, meaning the von Neumann entropy. ``trw_max``
    requests per-sample power traces Tr W^i for i = 1..trw_max. The integer
    fields take integral values only (6 or 6.0, not 6.7 or True), and
    ``master_seed`` must be >= 0.
    """

    n: int
    k: int
    squeezing: float | tuple[float, ...]
    alphas: tuple[int, ...] = (1, 2)
    n_samples: int = 100
    master_seed: int = 0
    trw_max: int = 0

    def __post_init__(self):
        for name, minimum in (("n", 1), ("k", None), ("n_samples", 1), ("master_seed", 0),
                              ("trw_max", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if not 1 <= self.k <= self.n:
            raise ValueError(f"subsystem size k={self.k} out of range [1, {self.n}]")
        if np.ndim(self.alphas) != 1 or len(self.alphas) == 0:
            raise ValueError(f"alphas must be a non-empty sequence of Renyi orders, "
                             f"got {self.alphas!r}")
        object.__setattr__(self, "alphas", tuple(_integer("alphas", a, 1) for a in self.alphas))
        try:
            if np.ndim(self.squeezing) == 0:
                squeezing = float(self.squeezing)
            else:
                squeezing = tuple(float(x) for x in self.squeezing)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"squeezing must be a number or a sequence of n numbers, "
                             f"got {self.squeezing!r}") from exc
        object.__setattr__(self, "squeezing", squeezing)
        if not self.equal_squeezing and len(squeezing) != self.n:
            raise ValueError(f"squeezing vector has {len(squeezing)} entries for n={self.n}")

    @classmethod
    def from_ratio(cls, n: int, r: float, **kwargs) -> "ExperimentPlan":
        """Build a plan from a partition ratio; k = round(r n), ties to even."""
        return cls(n=n, k=round(_check_ratio(r) * n), **kwargs)

    @property
    def realized_r(self) -> float:
        return self.k / self.n

    @property
    def equal_squeezing(self) -> bool:
        return np.ndim(self.squeezing) == 0


@dataclass(frozen=True)
class SampleRecord:
    """Entropies (and optional W power traces) of one Haar draw."""

    sample_index: int
    entropies: dict[int, float]
    trw: tuple[float, ...] | None = None


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


def _checked(entropies: dict[int, float]) -> dict[int, float]:
    """A sample's entropies, once they are non-negative and monotone in alpha."""
    ordered = [entropies[a] for a in sorted(entropies)]
    if any(e < -_MONOTONE_TOL for e in ordered):
        raise FloatingPointError(f"negative entropy {min(ordered)!r}")
    if any(b > a + _MONOTONE_TOL for a, b in zip(ordered, ordered[1:])):
        raise FloatingPointError(f"entropies not monotone in alpha: {ordered!r}")
    return entropies


def _power_traces(lam: np.ndarray, plan: ExperimentPlan) -> tuple[float, ...]:
    return tuple(float(x) for x in _power_sums(lam, plan.trw_max))


def _sample_gram(plan: ExperimentPlan, index: int, out: np.ndarray) -> tuple[float, ...] | None:
    """One per-mode sample up to its eigensolve: A^T A into ``out``, and its Tr W^i.

    The global state is pure, so the k modes have the entropies of the
    other n - k. The sample takes the smaller side, m = min(k, n - k)
    modes: the covariance of an ``n x m`` Haar frame, and its Gram matrix
    as ``symplectic_eigenvalues`` forms it. At k = n it draws nothing
    (m = 0). Tr W^i of the k-mode side are the power sums of the frame's
    lambda and of 2k - n ones (k - m). The frame, covariance and Cholesky
    factor are freed when this returns.
    """
    m = min(plan.k, plan.n - plan.k)
    lam = np.empty(0)
    if m:
        frame = haar_frame(plan.n, m, plan.master_seed, index)
        _gram(reduced_covariance_general(frame, plan.squeezing), out=out)
        if plan.trw_max:
            lam = _w_block_eigenvalues(frame)
    if not plan.trw_max:
        return None
    return _power_traces(np.concatenate([lam, np.ones(plan.k - m)]), plan)


def _evaluate_per_mode_block(plan: ExperimentPlan, block: range) -> list[SampleRecord]:
    """A block of per-mode samples whose Gram matrices share one stacked ``eigvalsh``.

    Each sample fills its row of the stack in index order. A sample that
    fails there ends the stack: the rows before it are still evaluated, so
    the failure named is the block's first. If the stacked solve raises,
    each row is solved alone, which names the row it fails on.
    """
    m = min(plan.k, plan.n - plan.k)
    grams = np.empty((len(block), 2 * m, 2 * m))
    trw, failure = [], None
    for row, index in enumerate(block):
        try:
            trw.append(_sample_gram(plan, index, grams[row]))
        except Exception as exc:
            failure = index, exc
            break
    grams = grams[:len(trw)]
    try:
        values = np.linalg.eigvalsh(grams)
    except np.linalg.LinAlgError:
        values = None
    records = []
    for row, index in enumerate(block[:len(trw)]):
        try:
            nu = _gram_spectrum(np.linalg.eigvalsh(grams[row]) if values is None else values[row])
            entropies = _checked(spectrum_entropies(nu, plan.alphas))
        except Exception as exc:
            raise SampleFailure(index, exc) from exc
        records.append(SampleRecord(sample_index=index, entropies=entropies, trw=trw[row]))
    if failure:
        raise SampleFailure(*failure) from failure[1]
    return records


def _evaluate_equal_block(plan: ExperimentPlan, block: range) -> list[SampleRecord]:
    """A block of equal-squeezing samples from their squared bidiagonals.

    A row is physical when its squared entries lie in [0, 1] and its
    entropies are finite (then every log-determinant pivot is finite and
    >= 1). The rows are checked in index order, so a failure names the
    block's first failing sample. Tr W^i, when the plan asks, are power
    sums of lambda = 1 - T padded with k - m ones, with T from one stacked
    ``eigvalsh`` of the block's checked bidiagonals.
    """
    try:
        diag, sup = _bidiagonal_squares(plan.n, plan.k, plan.master_seed, block)
        with np.errstate(all="ignore"):  # an unphysical row fails its own check below
            values = bidiagonal_entropies(diag, sup, plan.squeezing, plan.alphas)
    except Exception as exc:
        raise SampleFailure(block[0], exc) from exc
    in_range = np.all((diag >= 0) & (diag <= 1), axis=1) & np.all((sup >= 0) & (sup <= 1), axis=1)
    finite = np.all([np.isfinite(v) for v in values.values()], axis=0)
    entropies = []
    for row, index in enumerate(block):
        try:
            if not in_range[row]:
                raise ValueError("squared bidiagonal entries must be finite and in [0, 1]")
            if not finite[row]:
                raise ValueError("log-determinant pivots must be finite and positive")
            entropies.append(_checked({a: float(v[row]) for a, v in values.items()}))
        except (ValueError, FloatingPointError) as exc:
            raise SampleFailure(index, exc) from exc
    trw = [None] * len(block)
    if plan.trw_max:
        t = _squared_singular_values(diag, sup)
        ones = np.ones(plan.k - t.shape[1])
        trw = [_power_traces(np.concatenate([1.0 - row, ones]), plan) for row in t]
    return [SampleRecord(sample_index=index, entropies=e, trw=w)
            for index, e, w in zip(block, entropies, trw)]


def _blocks(plan: ExperimentPlan) -> list[range]:
    """The fixed runs of consecutive sample indices that are evaluated together.

    Equal-squeezing blocks hold ``_BLOCK_SAMPLES`` samples, per-mode
    squeezing blocks ``_PAIR_SAMPLES`` (the last one the rest). The blocks
    depend on the plan alone, never on the thread count.
    """
    size = _BLOCK_SAMPLES if plan.equal_squeezing else _PAIR_SAMPLES
    return [range(j, min(j + size, plan.n_samples)) for j in range(0, plan.n_samples, size)]


def _evaluate_block(plan: ExperimentPlan, block: range) -> list[SampleRecord]:
    if plan.equal_squeezing:
        return _evaluate_equal_block(plan, block)
    return _evaluate_per_mode_block(plan, block)


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> tuple[list[SampleRecord], Summary]:
    """Run every sample of the plan and aggregate summary statistics.

    Samples are evaluated in the fixed blocks of ``_blocks``, one block per
    task. Records are returned (and aggregated) in sample-index order
    whatever the thread count; identical plans give bit-identical records.
    Equal-squeezing plans without traces (``trw_max == 0``) run on the
    calling thread whatever ``threads`` is: their blocks are chains of short
    numpy calls that take the interpreter lock back every few microseconds,
    so a second worker only adds contention. Plans with traces keep the
    workers: their blocks spend most of their time in one stacked
    ``eigvalsh`` that releases the lock (two workers take ``estimate_Vd`` at
    n = 400 from 0.63 to 0.40 s on two cores). With several threads, pin
    the process's BLAS to one thread before numpy loads (as ``gbs_page.cli``
    does), or each worker's BLAS calls start threads that compete with the
    other workers.
    """
    threads = _integer("thread count", threads, 1)
    blocks = _blocks(plan)
    if threads == 1 or (plan.equal_squeezing and not plan.trw_max):
        done = [_evaluate_block(plan, block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(lambda block: _evaluate_block(plan, block), blocks))
    records = [rec for block in done for rec in block]

    per_alpha = {}
    for a in plan.alphas:
        vals = np.array([rec.entropies[int(a)] for rec in records])
        var = float(vals.var(ddof=1)) if len(vals) > 1 else 0.0
        per_alpha[int(a)] = AlphaStats(
            mean=float(vals.mean()),
            variance=var,
            stderr=float(np.sqrt(var / len(vals))),
        )
    summary = Summary(
        per_alpha=per_alpha, n_samples=plan.n_samples, realized_r=plan.realized_r
    )
    return records, summary


@dataclass(frozen=True)
class VarianceEstimate:
    n: int
    variance: float
    ci_low: float
    ci_high: float


def _bootstrap_ci(values: np.ndarray, statistic, n_boot: int, rng: np.random.Generator,
                  levels=(2.5, 97.5)) -> tuple[float, float]:
    stats = np.empty(n_boot)
    m = len(values)
    for b in range(n_boot):
        stats[b] = statistic(values[rng.integers(0, m, m)])
    lo, hi = np.percentile(stats, levels)
    return float(lo), float(hi)


def variance_trend(ns, r: float, s: float, alpha: int, n_samples: int, seed: int,
                   n_boot: int = 2000) -> list[VarianceEstimate]:
    """Unbiased entropy variance vs system size, with bootstrap CIs.

    One experiment per n (same r, s, alpha, sample count); the bootstrap
    (percentile, ``n_boot`` resamples) is seeded per n so the whole trend is
    reproducible. Entropy distributions are skewed at small n, hence the
    bootstrap rather than normal-theory intervals. Its plans are equal
    squeezing without traces, so they run on the calling thread.
    """
    if alpha < 2:
        raise ValueError(f"variance trend is defined for Renyi orders >= 2, got {alpha}")
    out = []
    for n in ns:
        plan = ExperimentPlan.from_ratio(
            n=n, r=r, squeezing=float(s), alphas=(alpha,),
            n_samples=n_samples, master_seed=seed,
        )
        records, summary = run_experiment(plan)
        vals = np.array([rec.entropies[alpha] for rec in records])
        brng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0xB007, n)))
        )
        lo, hi = _bootstrap_ci(vals, lambda v: v.var(ddof=1), n_boot, brng)
        out.append(VarianceEstimate(n=n, variance=summary.per_alpha[alpha].variance,
                                    ci_low=lo, ci_high=hi))
    return out


def _vd_from_trw(trw: np.ndarray, d_max: int) -> np.ndarray:
    """Plug-in covariance combinations V_d, d = 2..d_max, from (N, d_max-1) traces."""
    cov = np.cov(trw, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    out = np.zeros(d_max - 1)
    for d in range(2, d_max + 1):
        out[d - 2] = sum(
            cov[ell - 1, d - ell - 1] / (ell * (d - ell)) for ell in range(1, d)
        )
    return out


def estimate_Vd(d_max: int, n: int, r: float, n_samples: int, seed: int,
                threads: int = 1) -> np.ndarray:
    """Monte-Carlo estimates of the trace-covariance constants V_d, d = 2..d_max.

    V_d = sum_{ell=1}^{d-1} cov(Tr W^ell, Tr W^{d-ell}) / (ell (d-ell)),
    estimated with unbiased sample covariances. Independent of squeezing.
    For k = 0 or k = n the traces are deterministic and every V_d is zero.
    """
    if d_max < 2:
        raise ValueError(f"d_max must be >= 2, got {d_max}")
    k = round(r * n)
    if k == 0 or k == n:
        return np.zeros(d_max - 1)
    plan = ExperimentPlan(
        n=n, k=k, squeezing=0.0, alphas=(2,), n_samples=n_samples,
        master_seed=seed, trw_max=d_max - 1,
    )
    records, _ = run_experiment(plan, threads=threads)
    trw = np.array([rec.trw for rec in records])
    return _vd_from_trw(trw, d_max)


def s2_variance_identity(n: int, r: float, s: float, d_max: int, n_samples: int,
                         seed: int, n_boot: int = 2000, threads: int = 1) -> dict:
    """Compare Var(S_2) against its trace-covariance expansion on one run.

    The exact per-sample identity S_2 = sum_i tanh^{2i}(2s)/(2i) (k - Tr W^i)
    implies Var(S_2) = (1/4) sum_{d>=2} tanh^{2d}(2s) V_d. Both sides are
    estimated from the same samples, each with its own percentile bootstrap
    CI, and ``consistent`` reports whether the two intervals overlap. The
    d_max cut biases the model low by a relative O(tanh^{2(d_max+1)}(2s)),
    far inside the CI widths at the intended sample counts (a paired
    difference test would resolve that truncation bias and is deliberately
    not used).
    """
    plan = ExperimentPlan.from_ratio(
        n=n, r=r, squeezing=float(s), alphas=(2,), n_samples=n_samples,
        master_seed=seed, trw_max=d_max - 1,
    )
    records, _ = run_experiment(plan, threads=threads)
    s2 = np.array([rec.entropies[2] for rec in records])
    trw = np.array([rec.trw for rec in records])
    t2 = np.tanh(2.0 * s) ** 2
    weights = 0.25 * t2 ** np.arange(2, d_max + 1)

    var_s2 = float(s2.var(ddof=1))
    model_full = float(weights @ _vd_from_trw(trw, d_max))
    brng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0xD1FF,)))
    )
    var_boot = np.empty(n_boot)
    model_boot = np.empty(n_boot)
    for b in range(n_boot):
        idx = brng.integers(0, n_samples, n_samples)
        var_boot[b] = float(s2[idx].var(ddof=1))
        model_boot[b] = float(weights @ _vd_from_trw(trw[idx], d_max))
    var_ci = tuple(float(x) for x in np.percentile(var_boot, [2.5, 97.5]))
    model_ci = tuple(float(x) for x in np.percentile(model_boot, [2.5, 97.5]))
    return {
        "variance": var_s2,
        "model": model_full,
        "variance_ci": var_ci,
        "model_ci": model_ci,
        "consistent": var_ci[0] <= model_ci[1] and model_ci[0] <= var_ci[1],
    }
