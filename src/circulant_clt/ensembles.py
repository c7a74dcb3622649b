"""Standardized input ensembles with reproducible per-replica randomness.

Every family is standardized to mean 0 and variance 1 so that variance
targets are comparable across ensembles:

* ``gaussian`` — standard normal.
* ``rademacher`` — fair signs in {-1, +1}.
* ``uniform_symmetric`` — uniform on [-sqrt(3), sqrt(3)].

All three laws are symmetric.  The smooth families (all but
``rademacher``) are representable as u(Z) of a standard normal Z with a
twice continuously differentiable u; they carry the bounds
c1 >= sup|u'| and c2 >= sup|u''| consumed by the total-variation bound
machinery.  ``uniform_symmetric`` uses u(z) = 2*sqrt(3)*(Phi(z) - 1/2),
so c1 = 2*sqrt(3)/sqrt(2*pi) and c2 = 2*sqrt(3)/sqrt(2*pi*e).

Randomness is externalized: a :class:`RandomStream` names a substream as
a pure function of (master_seed, replica_index), so concurrent replicas
draw identical values regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import SmoothnessRequiredError

UNIFORM_HALF_WIDTH = math.sqrt(3.0)
UNIFORM_C1 = 2.0 * math.sqrt(3.0) / math.sqrt(2.0 * math.pi)
UNIFORM_C2 = 2.0 * math.sqrt(3.0) / math.sqrt(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of one standardized input-variable law.

    ``c1``/``c2`` are present exactly when the family is smooth.
    """

    family: str
    subgaussian_sigma: float
    c1: float | None = None
    c2: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; choose from {sorted(FAMILIES)}"
            )
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


FAMILIES = {
    "gaussian": gaussian,
    "rademacher": rademacher,
    "uniform_symmetric": uniform_symmetric,
}


def from_family(name: str) -> EnsembleSpec:
    """Build the named ensemble."""
    if name not in FAMILIES:
        raise ValueError(
            f"unknown ensemble family {name!r}; choose from {sorted(FAMILIES)}"
        )
    return FAMILIES[name]()


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
    return 2.0 * UNIFORM_HALF_WIDTH * (ndtr(z) - 0.5)
