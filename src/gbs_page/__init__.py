"""Entanglement Page curves of Gaussian boson sampling output states.

Analytic averages of the Renyi-alpha entanglement entropies (any integer
alpha >= 1, where order 1 is the von Neumann entropy) over Haar-random
passive circuits acting on squeezed-vacuum inputs, the leading term of
their variance, the corresponding small/large squeezing limits, and a
seeded Monte-Carlo pipeline that cross-validates the formulas. All entropies are in nats.

The public names, listed once by submodule in ``_EXPORTS``, are imported
from their submodules on first use, so
``import gbs_page`` alone loads no numpy; ``gbs_page.cli`` relies on that
to set the BLAS thread variables before numpy starts its BLAS.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "haar": ("haar_frame", "sample_generator"),
    "states": ("reduced_covariance_general",),
    "symplectic": ("symplectic_eigenvalues",),
    "entropy": ("renyi_entropy", "renyi_mode_entropy"),
    "pagecurve": ("ASYMPTOTIC", "PageCurveValue", "page_average", "page_limit",
                  "page_variance", "renyi_unequal_small"),
    "montecarlo": ("ExperimentPlan", "SampleFailure", "Summary", "run_experiment",
                   "variance_trend"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    """Import a public name or a submodule on first use (PEP 562)."""
    from importlib import import_module  # here, so that it stays out of dir()

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds it here too
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
