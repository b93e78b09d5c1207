"""Entanglement Page curves of Gaussian boson sampling output states.

Analytic averages of Renyi-alpha (integer alpha >= 2) and von Neumann
entanglement entropies over Haar-random passive circuits acting on
squeezed-vacuum inputs, the corresponding small/large squeezing limits,
and a seeded Monte-Carlo pipeline that cross-validates the formulas.
All entropies are in nats.
"""

from .haar import haar_frame, jacobi_transmissions, sample_generator
from .states import reduced_covariance_general
from .symplectic import equal_squeezing_spectrum, symplectic_eigenvalues
from .entropy import (
    renyi_entropy,
    renyi_mode_entropy,
    vn_mode_entropy,
    von_neumann_entropy,
)
from .pagecurve import (
    ASYMPTOTIC,
    PageCurveValue,
    page_average,
    renyi2_average,
    renyi_average,
    renyi_large_s_limit,
    renyi_small_s_limit,
    renyi_unequal_small,
    vn_large_s_limit,
    vn_small_s_limit,
    von_neumann_average,
)
from .montecarlo import (
    ExperimentPlan,
    SampleFailure,
    SampleRecord,
    Summary,
    estimate_Vd,
    run_experiment,
    s2_variance_identity,
    variance_trend,
)

__version__ = "0.1.0"

__all__ = [
    "ASYMPTOTIC",
    "ExperimentPlan",
    "PageCurveValue",
    "SampleFailure",
    "SampleRecord",
    "Summary",
    "equal_squeezing_spectrum",
    "estimate_Vd",
    "haar_frame",
    "jacobi_transmissions",
    "page_average",
    "reduced_covariance_general",
    "renyi2_average",
    "renyi_average",
    "renyi_entropy",
    "renyi_mode_entropy",
    "renyi_large_s_limit",
    "renyi_small_s_limit",
    "renyi_unequal_small",
    "run_experiment",
    "s2_variance_identity",
    "sample_generator",
    "symplectic_eigenvalues",
    "variance_trend",
    "vn_large_s_limit",
    "vn_mode_entropy",
    "vn_small_s_limit",
    "von_neumann_average",
    "von_neumann_entropy",
]
