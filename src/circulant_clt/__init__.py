"""Verification toolkit for the Gaussian CLT of circulant-matrix trace
statistics: exact lattice-slice combinatorics, dual-route trace
computation, Monte Carlo experiments, and the Stein-method
total-variation bound.  ``__all__`` is the supported API; per-replica
building blocks and test oracles are imported from their modules."""

__version__ = "0.1.0"

from .circulant import TestPolynomial
from .combinatorics import (
    LatticeSliceCount,
    euler_frobenius_density,
    gaussian_central_moment,
    limiting_variance,
    slice_table,
)
from .ensembles import EnsembleSpec, from_family, gaussian, rademacher, uniform_symmetric
from .errors import (
    BudgetExceededError,
    ConfigError,
    ImaginaryResidualError,
    SmoothnessRequiredError,
)
from .harness import (
    ExperimentConfig,
    ExperimentSummary,
    NormScalingRow,
    SteinEstimate,
    empirical_moments,
    estimate_kappas,
    norm_scaling_study,
    run_clt_experiment,
    standardized_moments,
)

__all__ = [
    "__version__",
    "BudgetExceededError",
    "ConfigError",
    "EnsembleSpec",
    "ExperimentConfig",
    "ExperimentSummary",
    "ImaginaryResidualError",
    "LatticeSliceCount",
    "NormScalingRow",
    "SmoothnessRequiredError",
    "SteinEstimate",
    "TestPolynomial",
    "empirical_moments",
    "estimate_kappas",
    "euler_frobenius_density",
    "from_family",
    "gaussian",
    "gaussian_central_moment",
    "limiting_variance",
    "norm_scaling_study",
    "rademacher",
    "run_clt_experiment",
    "slice_table",
    "standardized_moments",
    "uniform_symmetric",
]
