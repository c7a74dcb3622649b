"""Verification toolkit for the Gaussian CLT of circulant-matrix trace
statistics: exact lattice-slice combinatorics, a block-batched spectral
trace kernel, Monte Carlo experiments, and the Stein-method
total-variation bound.  ``__all__`` is the supported API; the kernel's
building blocks are imported from their modules."""

__version__ = "0.1.0"

from .circulant import TestPolynomial
from .combinatorics import (
    LatticeSliceCount,
    euler_frobenius_density,
    limiting_variance,
    slice_table,
)
from .ensembles import EnsembleSpec, gaussian, rademacher, uniform_symmetric
from .errors import (
    ConfigError,
    ImaginaryResidualError,
    SmoothnessRequiredError,
)
from .harness import (
    ExperimentConfig,
    ExperimentSummary,
    NormScalingRow,
    SteinEstimate,
    estimate_kappas,
    norm_scaling_study,
    run_clt_experiment,
)

__all__ = [
    "__version__",
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
    "estimate_kappas",
    "euler_frobenius_density",
    "gaussian",
    "limiting_variance",
    "norm_scaling_study",
    "rademacher",
    "run_clt_experiment",
    "slice_table",
    "uniform_symmetric",
]
