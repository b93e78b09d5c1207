"""Seeded Monte-Carlo experiments over Haar-random circuits.

Every sample is a pure function of (plan, sample_index), so results are
independent of the worker count and bit-reproducible across runs. A sample
that fails numerically aborts the whole experiment: the constructions are
physically guaranteed to be valid states, so a failure indicates a bug, and
silently skipping it would bias the means.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .entropy import spectrum_entropies
from .haar import haar_frame, jacobi_transmissions
from .states import _power_sums, _w_block_eigenvalues, reduced_covariance_general
from .symplectic import equal_squeezing_spectrum, symplectic_eigenvalues

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

# Version of the map from (plan, sample_index) to samples. Sampler 4 draws
# the transmission eigenvalues for equal squeezing and an n x k Haar frame
# for per-mode squeezing (those samples are sampler 3's). Sampler 3 drew the
# frame for both, sampler 2 only for equal squeezing, sampler 1 never.
SAMPLER = 4


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
    requests per-sample power traces Tr W^i for i = 1..trw_max.
    """

    n: int
    k: int
    squeezing: float | tuple[float, ...]
    alphas: tuple[int, ...] = (1, 2)
    n_samples: int = 100
    master_seed: int = 0
    trw_max: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"mode count must be >= 1, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"subsystem size k={self.k} out of range [1, {self.n}]")
        if self.n_samples < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n_samples}")
        if self.trw_max < 0:
            raise ValueError(f"trw_max must be >= 0, got {self.trw_max}")
        if len(self.alphas) == 0:
            raise ValueError("at least one Renyi order is required")
        for a in self.alphas:
            if int(a) != a or a < 1:
                raise ValueError(f"Renyi orders must be integers >= 1, got {a!r}")
        if np.ndim(self.squeezing) != 0:
            object.__setattr__(self, "squeezing", tuple(float(x) for x in self.squeezing))
            if len(self.squeezing) != self.n:
                raise ValueError(
                    f"squeezing vector has {len(self.squeezing)} entries for n={self.n}"
                )
        else:
            object.__setattr__(self, "squeezing", float(self.squeezing))

    @classmethod
    def from_ratio(cls, n: int, r: float, **kwargs) -> "ExperimentPlan":
        """Build a plan from a partition ratio; k = round(r n), ties to even."""
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"partition ratio must lie in [0, 1], got {r!r}")
        return cls(n=n, k=round(r * n), **kwargs)

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


def _sample_spectrum(plan: ExperimentPlan, index: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Symplectic spectrum of one sample and, if the plan asks, its Tr W^i."""
    if plan.equal_squeezing:
        t = jacobi_transmissions(plan.n, plan.k, plan.master_seed, index)
        lam = np.concatenate([1.0 - t, np.ones(plan.k - t.size)]) if plan.trw_max else None
        nu = equal_squeezing_spectrum(t, plan.k, plan.squeezing)
    else:
        frame = haar_frame(plan.n, plan.k, plan.master_seed, index)
        lam = _w_block_eigenvalues(frame) if plan.trw_max else None
        nu = symplectic_eigenvalues(reduced_covariance_general(frame, plan.squeezing))
    return nu, _power_sums(lam, plan.trw_max) if plan.trw_max else None


def _evaluate_sample(plan: ExperimentPlan, index: int) -> SampleRecord:
    try:
        nu, trw = _sample_spectrum(plan, index)
        entropies = spectrum_entropies(nu, [int(a) for a in plan.alphas])
        ordered = [entropies[a] for a in sorted(entropies)]
        if any(e < -_MONOTONE_TOL for e in ordered):
            raise FloatingPointError(f"negative entropy {min(ordered)!r}")
        if any(b > a + _MONOTONE_TOL for a, b in zip(ordered, ordered[1:])):
            raise FloatingPointError(f"entropies not monotone in alpha: {ordered!r}")
        trw = None if trw is None else tuple(float(x) for x in trw)
        return SampleRecord(sample_index=index, entropies=entropies, trw=trw)
    except SampleFailure:
        raise
    except Exception as exc:
        raise SampleFailure(index, exc) from exc


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> tuple[list[SampleRecord], Summary]:
    """Run every sample of the plan and aggregate summary statistics.

    Records are returned (and aggregated) in sample-index order whatever the
    thread count; identical plans give bit-identical records. With several
    threads, pin the process's BLAS to one thread before numpy loads (as
    ``gbs_page.cli`` does), or each worker's BLAS calls start threads that
    compete with the other workers.
    """
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    indices = range(plan.n_samples)
    if threads == 1:
        records = [_evaluate_sample(plan, i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(lambda i: _evaluate_sample(plan, i), indices))

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
                   n_boot: int = 2000, threads: int = 1) -> list[VarianceEstimate]:
    """Unbiased entropy variance vs system size, with bootstrap CIs.

    One experiment per n (same r, s, alpha, sample count); the bootstrap
    (percentile, ``n_boot`` resamples) is seeded per n so the whole trend is
    reproducible. Entropy distributions are skewed at small n, hence the
    bootstrap rather than normal-theory intervals.
    """
    if alpha < 2:
        raise ValueError(f"variance trend is defined for Renyi orders >= 2, got {alpha}")
    out = []
    for n in ns:
        plan = ExperimentPlan.from_ratio(
            n=n, r=r, squeezing=float(s), alphas=(alpha,),
            n_samples=n_samples, master_seed=seed,
        )
        records, summary = run_experiment(plan, threads=threads)
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
