"""Verification toolkit for the Gaussian CLT of circulant-matrix trace
statistics: the exact limiting variance, a block-batched spectral trace
kernel, Monte Carlo experiments, and the Stein-method total-variation
bound.  ``__all__`` is the supported API; the kernel's building blocks
are imported from their modules."""

__version__ = "0.1.0"

from .circulant import TestPolynomial
from .combinatorics import limiting_variance
from .ensembles import EnsembleSpec
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentSummary,
    SmoothnessRequiredError,
    SteinEstimate,
    estimate_kappas,
    run_clt_experiment,
)

__all__ = [
    "__version__",
    "ConfigError",
    "EnsembleSpec",
    "ExperimentConfig",
    "ExperimentSummary",
    "SmoothnessRequiredError",
    "SteinEstimate",
    "TestPolynomial",
    "estimate_kappas",
    "limiting_variance",
    "run_clt_experiment",
]
