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
The table holds entropies only; the variance diagnostics take Tr W^i from
the same draws as traces of banded powers of the tridiagonal I - B^T B
(``_trace_powers``), again with no eigensolve, and ``s2_variance_identity``
takes both from one draw per block.
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

# Indices per stacked run of bootstrap resamples: the traces they gather are
# a few MB at the usual 11 powers.
_BOOT_INDICES = 1 << 16

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
    n at most the largest float64 and 0 <= k <= n; an empty side (k = 0 or
    n) has every entropy 0. The squeezing must be finite and within float64:
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


def _squares(plan: ExperimentPlan, block: range) -> tuple[np.ndarray, np.ndarray]:
    """The block's squared bidiagonals; ``ValueError`` unless every entry lies in [0, 1]."""
    diag, sup = _bidiagonal_squares(plan.n, plan.k, plan.master_seed, block)
    if not (np.all((diag >= 0) & (diag <= 1)) and np.all((sup >= 0) & (sup <= 1))):
        raise ValueError("squared bidiagonal entries must be finite and in [0, 1]")
    return diag, sup


def _equal_rows(plan: ExperimentPlan, squares) -> np.ndarray:
    """Checked entropies of the samples whose ``_squares`` are given, one row each."""
    diag, sup = squares
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
    sample that raises alone is the ``SampleFailure``, the only one built;
    if none does, the replayed rows stand. The one thread rule: per-mode
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
    return (_equal_rows(plan, _squares(plan, indices)) if plan.equal_squeezing
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
    (resamples, m), to one value or one vector of values per resample; it
    sees the resamples in runs of at most ``_BOOT_INDICES`` indices. The
    result has two rows, the 2.5th and 97.5th percentiles, and one column
    per value.
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


def _block_trace_powers(plan: ExperimentPlan, squares, max_power: int) -> np.ndarray:
    """Tr W^i, i = 1..max_power, of a block's samples from its ``_squares``.

    W has the eigenvalues of M = I - B11^T B11 and k - m ones. M is
    tridiagonal: diagonal 1 - diag_i - sup_{i-1}, off-diagonal
    -sqrt(diag_i sup_i). So M^q is symmetric with bandwidth q, kept as its
    upper band, ``band[:, j, i] = (M^q)_{i, i+j}`` (zero past the matrix),
    and one product with M is four updates over the block's rows. Then
    Tr M^{2q} = <M^q, M^q>_F and Tr M^{2q-1} = <M^{q-1}, M^q>_F for
    q <= ceil(max_power / 2): O(m max_power^2) per sample, no eigenvalues.
    """
    diag, sup = squares
    rows, m = diag.shape
    width = (max_power + 1) // 2 + 1  # diagonals of M^ceil(max_power / 2)
    # M's diagonal alpha_i and off-diagonal beta_i = M_{i-1, i}, zero outside
    # 0 <= i < m (beta_0 too), seen as windows: window j holds x_{i+j} at i.
    alpha, beta = np.zeros((2, rows, m + width))
    alpha[:, :m] = 1.0 - diag
    alpha[:, 1:m] -= sup
    beta[:, 1:m] = -np.sqrt(diag[:, :-1] * sup)
    alpha, beta = (np.lib.stride_tricks.sliding_window_view(x, m, axis=1) for x in (alpha, beta))

    def frobenius(a, b):
        terms = (a * b).sum(axis=-1)
        return terms[:, 0] + 2.0 * terms[:, 1:].sum(axis=-1)

    out = np.empty((rows, max_power))
    band = np.zeros((rows, width, m))
    band[:, 0] = 1.0
    for q in range(1, width):
        prev = band  # M^{q-1}, whose top diagonal is zero
        band = prev * alpha[:, :width]
        band[:, 1:] += prev[:, :-1] * beta[:, 1:width]
        band[:, :-1] += prev[:, 1:] * beta[:, 1:width]
        band[:, 0, 1:] += prev[:, 1, :-1] * beta[:, 0, 1:]
        out[:, 2 * q - 2] = frobenius(prev, band)
        if 2 * q <= max_power:
            out[:, 2 * q - 1] = frobenius(band, band)
    return out + (plan.k - m)


def _trace_powers(plan: ExperimentPlan, max_power: int) -> np.ndarray:
    """Tr W^i, i = 1..max_power, of every sample of the plan: shape (n_samples, max_power).

    Tr W^i does not depend on squeezing. Each block draws its squared
    bidiagonals as an equal-squeezing block does.
    """
    return _fill(plan, max_power, lambda indices: _block_trace_powers(
        plan, _squares(plan, indices), max_power))


def _trace_cov(trw: np.ndarray) -> np.ndarray:
    """Unbiased covariance of the traces, shape (..., N, D) -> (..., D, D).

    Each stacked set of N samples is centred on its own mean and multiplied
    by its transpose in one stacked product: the operations of
    ``np.cov(trw, rowvar=False)``, so each set gets the floats it gives.
    """
    centred = trw - trw.mean(axis=-2, keepdims=True)
    cov = np.matmul(centred.swapaxes(-1, -2), centred)
    cov *= 1.0 / (trw.shape[-2] - 1)
    return cov


def _vd_from_cov(cov: np.ndarray, d_max: int) -> np.ndarray:
    """Plug-in V_d, d = 2..d_max, of stacked trace covariances (..., d_max-1, d_max-1).

    V_d adds cov(Tr W^ell, Tr W^{d-ell}) / (ell (d - ell)) in rising ell,
    over the whole stack at once.
    """
    out = np.zeros(cov.shape[:-2] + (d_max - 1,))
    for d in range(2, d_max + 1):
        for ell in range(1, d):
            out[..., d - 2] += cov[..., ell - 1, d - ell - 1] / (ell * (d - ell))
    return out


def estimate_Vd(d_max: int, n: int, r: float, n_samples: int, seed: int) -> np.ndarray:
    """Monte-Carlo estimates of the trace-covariance constants V_d, d = 2..d_max.

    V_d = sum_{ell=1}^{d-1} cov(Tr W^ell, Tr W^{d-ell}) / (ell (d-ell)),
    estimated with unbiased sample covariances from ``n_samples >= 2``
    draws. Independent of squeezing. At an empty side (k = round(r n) = 0
    or n) every V_d is zero.
    """
    d_max = _integer("d_max", d_max, 2)
    plan = ExperimentPlan.from_ratio(n, r, squeezing=0.0, master_seed=seed,
                                     n_samples=_integer("n_samples", n_samples, 2))
    return _vd_from_cov(_trace_cov(_trace_powers(plan, d_max - 1)), d_max)


def s2_variance_identity(n: int, r: float, s: float, d_max: int, n_samples: int,
                         seed: int, n_boot: int = 2000) -> dict:
    """Compare Var(S_2) against its trace-covariance expansion on one run.

    The exact per-sample identity S_2 = sum_i tanh^{2i}(2s)/(2i) (k - Tr W^i)
    implies Var(S_2) = (1/4) sum_{d>=2} tanh^{2d}(2s) V_d. Both sides are
    estimated from the same samples, each block drawn once for its S_2
    (``run_experiment``'s blocks, entropies and row checks) and its traces,
    each with its own percentile bootstrap CI, and ``consistent`` reports
    whether the two intervals overlap. The resamples' trace covariances
    come from stacked products (``_trace_cov``). The
    d_max cut biases the model low by a relative O(tanh^{2(d_max+1)}(2s)),
    far inside the CI widths at the intended sample counts (a paired
    difference test would resolve that truncation bias and is deliberately
    not used). At an empty side (k = round(r n) = 0 or n) the variance and
    the model are 0.
    """
    d_max = _integer("d_max", d_max, 2)
    n_boot = _integer("n_boot", n_boot, 1)
    s = _real("squeezing strength", s)
    plan = ExperimentPlan.from_ratio(n, r, squeezing=s, alphas=(2,), master_seed=seed,
                                     n_samples=_integer("n_samples", n_samples, 2))

    def draw(indices):
        squares = _squares(plan, indices)
        return np.hstack([_equal_rows(plan, squares),
                          _block_trace_powers(plan, squares, d_max - 1)])

    table = _fill(plan, d_max, draw)
    s2, trw = table[:, 0], table[:, 1:]
    t2 = np.tanh(2.0 * plan.squeezing) ** 2
    weights = 0.25 * t2 ** np.arange(2, d_max + 1)

    var_s2 = float(s2.var(ddof=1))
    model_full = float(weights @ _vd_from_cov(_trace_cov(trw), d_max))

    def resampled(idx):
        vd = _vd_from_cov(_trace_cov(trw[idx]), d_max)
        # One dot product per resample, the one the full sample takes.
        return np.column_stack([s2[idx].var(axis=1, ddof=1), [weights @ row for row in vd]])

    brng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(plan.master_seed, spawn_key=(0xD1FF,)))
    )
    var_ci, model_ci = (tuple(float(x) for x in ci) for ci in _bootstrap_ci(
        resampled, plan.n_samples, n_boot, brng).T)
    return {
        "variance": var_s2,
        "model": model_full,
        "variance_ci": var_ci,
        "model_ci": model_ci,
        "consistent": var_ci[0] <= model_ci[1] and model_ci[0] <= var_ci[1],
    }
