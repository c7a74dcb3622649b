"""The package namespace is the supported API: the names the CLI and the
README use, the records they return, the builtin ensembles and the errors."""

import re
from pathlib import Path

import circulant_clt

SUPPORTED = [
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
    "__version__",
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


def test_all_is_the_supported_api():
    assert sorted(circulant_clt.__all__) == SUPPORTED
    for name in circulant_clt.__all__:
        assert getattr(circulant_clt, name) is not None


def test_readme_library_example_uses_only_the_supported_api():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    library = readme.split("## Library", 1)[1]
    block = library.split("```python", 1)[1].split("```", 1)[0]
    used = set(re.findall(r"\bcc\.(\w+)", block))
    assert used
    assert used <= set(circulant_clt.__all__)
