"""Standardized input ensembles with reproducible per-replica randomness.

Every family is standardized to mean 0 and variance 1 so that variance
targets are comparable across ensembles:

* ``gaussian`` — standard normal.
* ``rademacher`` — fair signs in {-1, +1}.
* ``uniform_symmetric`` — uniform on [-sqrt(3), sqrt(3)].

All three laws are symmetric.  The smooth families (all but
``rademacher``) have the law of u(Z) for a standard normal Z and a
twice continuously differentiable u; they carry the bounds
c1 >= sup|u'| and c2 >= sup|u''| consumed by the total-variation bound
machinery.  For ``uniform_symmetric`` that is u(z) = 2*sqrt(3)*(Phi(z) - 1/2),
so c1 = 2*sqrt(3)/sqrt(2*pi) and c2 = 2*sqrt(3)/sqrt(2*pi*e).  The bounds
need only the law, so the inputs are drawn directly: uniform values as
sqrt(3)*(2U - 1) from standard uniforms U, not through u.

Randomness is externalized: a :class:`RandomStream` names a substream as
a pure function of (master_seed, replica_index), so concurrent replicas
draw identical values regardless of scheduling.  Every substream of one
master seed is a Philox generator with the same key and its own counter
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11):
counter word 2 holds the replica index and words 0-1 advance within a
draw, so substreams never overlap.  :func:`draw_rows` fills a block of
consecutive replicas by re-setting one generator's counter per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIFORM_HALF_WIDTH = math.sqrt(3.0)
UNIFORM_C1 = 2.0 * math.sqrt(3.0) / math.sqrt(2.0 * math.pi)
UNIFORM_C2 = 2.0 * math.sqrt(3.0) / math.sqrt(2.0 * math.pi * math.e)

# Per family, the bounds (c1, c2) >= (sup|u'|, sup|u''|) of its smooth
# representation u, or (None, None) for a family with none.
SMOOTH_BOUNDS = {
    "gaussian": (1.0, 0.0),
    "rademacher": (None, None),
    "uniform_symmetric": (UNIFORM_C1, UNIFORM_C2),
}


@dataclass(frozen=True)
class EnsembleSpec:
    """One standardized input-variable law, named by its family.

    ``c1``/``c2`` come from the family and are None when it is not smooth.
    """

    family: str

    def __post_init__(self) -> None:
        if self.family not in SMOOTH_BOUNDS:
            raise ValueError(
                f"unknown ensemble family {self.family!r}; "
                f"choose from {sorted(SMOOTH_BOUNDS)}"
            )

    @property
    def c1(self) -> float | None:
        return SMOOTH_BOUNDS[self.family][0]

    @property
    def c2(self) -> float | None:
        return SMOOTH_BOUNDS[self.family][1]

    @property
    def is_smooth(self) -> bool:
        return self.c1 is not None


def gaussian() -> EnsembleSpec:
    return EnsembleSpec("gaussian")


def rademacher() -> EnsembleSpec:
    return EnsembleSpec("rademacher")


def uniform_symmetric() -> EnsembleSpec:
    return EnsembleSpec("uniform_symmetric")


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
        if not 0 <= self.replica_index < 2**64:
            raise ValueError("replica_index must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        """Philox keyed by the master seed, at counter [0, 0, replica_index, 0]."""
        key = np.random.SeedSequence(self.master_seed).generate_state(2, np.uint64)
        return np.random.Generator(
            np.random.Philox(key=key, counter=[0, 0, self.replica_index, 0])
        )


def draw_rows(spec: EnsembleSpec, stream: RandomStream, out: np.ndarray) -> np.ndarray:
    """Fill row i of out with the draw of replica stream.replica_index + i.

    Each row is what a fresh :meth:`RandomStream.generator` of its replica
    draws: one generator is reused, and only its counter word 2 and its
    output buffer are reset per row.  Rademacher rows are 2B - 1 for fair
    bits B, uniform rows sqrt(3)*(2U - 1) for standard uniforms U.
    """
    rng = stream.generator()
    bitgen = rng.bit_generator
    state = bitgen.state
    counter = state["state"]["counter"]
    for i, row in enumerate(out):
        counter[2] = stream.replica_index + i
        bitgen.state = state
        if spec.family == "rademacher":
            row[:] = rng.integers(0, 2, size=row.size)
        elif spec.family == "gaussian":
            rng.standard_normal(out=row)
        else:
            rng.random(out=row)
    if spec.family != "gaussian":
        out *= 2.0
        out -= 1.0
    if spec.family == "uniform_symmetric":
        out *= UNIFORM_HALF_WIDTH
    return out
