"""Standardized input ensembles with reproducible per-replica randomness.

Every family is standardized to mean 0 and variance 1 so that variance
targets are comparable across ensembles:

* ``gaussian`` — standard normal.
* ``rademacher`` — fair signs in {-1, +1}.
* ``uniform_symmetric`` — uniform on [-sqrt(3), sqrt(3)].
* ``custom_smooth`` — user-supplied law u(Z) of a standard normal Z.

The smooth families (all but ``rademacher``) are representable as u(Z)
with a twice continuously differentiable u; they carry the bounds
c1 >= sup|u'| and c2 >= sup|u''| consumed by the total-variation bound
machinery.  ``uniform_symmetric`` uses u(z) = 2*sqrt(3)*(Phi(z) - 1/2),
so c1 = 2*sqrt(3)/sqrt(2*pi) and c2 = 2*sqrt(3)/sqrt(2*pi*e).

Randomness is externalized: a :class:`RandomStream` names a substream as
a pure function of (master_seed, replica_index), so concurrent replicas
draw identical values regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import SmoothnessRequiredError

FAMILIES = ("gaussian", "rademacher", "uniform_symmetric", "custom_smooth")

UNIFORM_HALF_WIDTH = math.sqrt(3.0)
UNIFORM_C1 = 2.0 * math.sqrt(3.0) / math.sqrt(2.0 * math.pi)
UNIFORM_C2 = 2.0 * math.sqrt(3.0) / math.sqrt(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of one standardized input-variable law.

    ``c1``/``c2`` are present exactly when the family is smooth;
    ``transform`` is the map u applied to standard-normal draws and is
    required only for ``custom_smooth``.
    """

    family: str
    subgaussian_sigma: float
    symmetric: bool = True
    c1: float | None = None
    c2: float | None = None
    transform: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not self.subgaussian_sigma > 0:
            raise ValueError("subgaussian_sigma must be positive")
        if self.family == "rademacher":
            if self.c1 is not None or self.c2 is not None:
                raise ValueError("rademacher has no smooth-representation constants")
        else:
            if self.c1 is None or self.c2 is None:
                raise ValueError(f"{self.family} requires smoothness bounds c1, c2")
            if self.c1 < 0 or self.c2 < 0:
                raise ValueError("c1 and c2 must be nonnegative")
        if self.family == "custom_smooth" and self.transform is None:
            raise ValueError("custom_smooth requires a transform callable")

    @property
    def is_smooth(self) -> bool:
        return self.c1 is not None


def gaussian() -> EnsembleSpec:
    return EnsembleSpec("gaussian", subgaussian_sigma=1.0, c1=1.0, c2=0.0)


def rademacher() -> EnsembleSpec:
    return EnsembleSpec("rademacher", subgaussian_sigma=1.0)


def uniform_symmetric() -> EnsembleSpec:
    # bounded mean-zero law => subgaussian with sigma equal to its sup norm
    return EnsembleSpec(
        "uniform_symmetric",
        subgaussian_sigma=UNIFORM_HALF_WIDTH,
        c1=UNIFORM_C1,
        c2=UNIFORM_C2,
    )


def custom_smooth(
    transform: Callable[[np.ndarray], np.ndarray],
    c1: float,
    c2: float,
    subgaussian_sigma: float,
    symmetric: bool = True,
) -> EnsembleSpec:
    """Wrap a user-supplied u(Z) law; standardization is the caller's duty."""
    return EnsembleSpec(
        "custom_smooth",
        subgaussian_sigma=subgaussian_sigma,
        symmetric=symmetric,
        c1=c1,
        c2=c2,
        transform=transform,
    )


def from_family(name: str) -> EnsembleSpec:
    """Build the named builtin ensemble (``custom_smooth`` needs its factory)."""
    builders = {
        "gaussian": gaussian,
        "rademacher": rademacher,
        "uniform_symmetric": uniform_symmetric,
    }
    if name not in builders:
        raise ValueError(
            f"unknown ensemble family {name!r}; choose from {sorted(builders)}"
        )
    return builders[name]()


@dataclass(frozen=True)
class RandomStream:
    """Name of one reproducible substream.

    The generator is a pure function of (master_seed, replica_index):
    replicas never share state, so draws are identical under any degree
    of parallelism or execution order.
    """

    master_seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.replica_index < 0:
            raise ValueError("replica_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.replica_index,))
        return np.random.Generator(np.random.Philox(seq))


def sample_sequence(spec: EnsembleSpec, n: int, stream: RandomStream) -> np.ndarray:
    """Draw n independent standardized values from the spec's law.

    Deterministic given (spec, n, stream).  Smooth families are sampled
    as u(Z) of standard-normal draws, so identical streams yield coupled
    samples across smooth families.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = stream.generator()
    if spec.family == "rademacher":
        return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    z = rng.standard_normal(n)
    if spec.family == "gaussian":
        return z
    return smooth_transform_value(spec, z)


def smooth_transform_value(spec: EnsembleSpec, z):
    """Evaluate the smooth representation u at z (scalar or array).

    For ``uniform_symmetric``, u(z) = 2*sqrt(3)*(Phi(z) - 1/2) pushes the
    standard normal forward to the uniform law on [-sqrt(3), sqrt(3)].
    """
    if not spec.is_smooth:
        raise SmoothnessRequiredError(
            f"{spec.family!r} is not representable as a smooth function u of a "
            "standard normal with bounded |u'| <= c1 and |u''| <= c2"
        )
    if spec.family == "gaussian":
        return z
    if spec.family == "uniform_symmetric":
        return 2.0 * UNIFORM_HALF_WIDTH * (ndtr(z) - 0.5)
    return spec.transform(z)


@dataclass(frozen=True)
class MomentReport:
    """Empirical standardization check: mean, variance, absolute moments."""

    m: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    abs_moments: tuple[float, ...]  # orders 1..k_max
    abs_moment_ses: tuple[float, ...]


def verify_standardization(
    spec: EnsembleSpec, m: int, stream: RandomStream, k_max: int
) -> MomentReport:
    """Estimate mean, variance and E|X|^k for k <= k_max with standard errors."""
    if m < 100:
        raise ValueError("need at least 100 samples for a moment report")
    if k_max < 3:
        raise ValueError("k_max must be at least 3")
    xs = sample_sequence(spec, m, stream)
    mean = float(xs.mean())
    var = float(xs.var(ddof=1))
    mean_se = math.sqrt(var / m)
    # standard error of the sample variance via its fourth central moment
    mu4 = float(np.mean((xs - mean) ** 4))
    var_se = math.sqrt(max(mu4 - var**2, 0.0) / m)
    abs_pows = np.abs(xs)[:, None] ** np.arange(1, k_max + 1)[None, :]
    abs_moments = abs_pows.mean(axis=0)
    abs_ses = abs_pows.std(axis=0, ddof=1) / math.sqrt(m)
    return MomentReport(
        m=m,
        mean=mean,
        mean_se=mean_se,
        variance=var,
        variance_se=var_se,
        abs_moments=tuple(float(v) for v in abs_moments),
        abs_moment_ses=tuple(float(v) for v in abs_ses),
    )
