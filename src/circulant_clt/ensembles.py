"""Standardized input ensembles with reproducible counter-keyed randomness.

An ensemble is named by its family alone, as ``EnsembleSpec(family)``.
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

Randomness is externalized.  Replicas are grouped in blocks of
:func:`block_rows` consecutive indices.  The substream of one block of a
run at size n is a pure function of (master_seed, block, n), so
concurrent blocks draw identical values regardless of scheduling.  Each
is a Philox generator keyed by the master seed (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11): counter word 3 holds n,
word 2 the block and words 0-1 advance within a draw, so no two
substreams overlap, within a run or across sizes.  One generator call
fills a whole block, and replica r is row r mod block_rows(n) of block
r // block_rows(n).  Each draw consumes its stream in order, so a run
of m replicas gives the first m replicas of any longer run.  The
harness hands blocks out in order to whichever worker is free, and a
worker builds one generator (:func:`worker_generator`), which
:func:`draw_rows` moves to each block's counter [0, 0, block, n], with
Philox's 4-word output buffer emptied, before it draws: exactly what a
fresh generator at that counter would draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIFORM_HALF_WIDTH = math.sqrt(3.0)
UNIFORM_C1 = 2.0 * math.sqrt(3.0) / math.sqrt(2.0 * math.pi)
UNIFORM_C2 = 2.0 * math.sqrt(3.0) / math.sqrt(2.0 * math.pi * math.e)
# Input values per replica block, from a measured sweep of block size, n
# and worker count (see CHANGES.md): with the block's spectra and
# temporaries a worker's arrays peak near 1.3 MB.  It is part of the
# stream definition: a block's rows, and so every sample value, depend on it.
BLOCK_VALUES = 2**15

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
        if not isinstance(self.family, str):
            raise TypeError(f"family must be a string, not {self.family!r}")
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


def block_rows(n: int) -> int:
    """Replicas per block: BLOCK_VALUES // n, at least one."""
    return max(BLOCK_VALUES // n, 1)


def worker_generator(master_seed: int) -> np.random.Generator:
    """A worker's Philox generator, keyed by the master seed; :func:`draw_rows`
    moves it to each block it draws."""
    key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_rows(spec: EnsembleSpec, rng: np.random.Generator, block: int,
              out: np.ndarray) -> np.ndarray:
    """Fill out with the leading rows of block `block` at n = out.shape[1]
    of the stream of rng, a :func:`worker_generator`.

    rng moves to the block's counter [0, 0, block, n] with Philox's 4-word
    output buffer emptied, so a draw that stopped inside a buffer leaves no
    trace, and one call of it fills out in row-major order: a short block
    takes the leading rows of a full one.  Gaussian rows come from
    ``standard_normal``; uniform rows are sqrt(3)*(2U - 1) for standard
    uniforms U from ``random``; Rademacher rows are 2B - 1 for the bits B
    of the block's ``random_raw`` words, least significant bit first,
    mapped to signs in int8 and cast to float once.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    state["state"]["counter"][:] = (0, 0, block, out.shape[1])
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    bitgen.state = state
    if spec.family == "rademacher":
        words = bitgen.random_raw(-(-out.size // 64)).astype("<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8), count=out.size, bitorder="little")
        signs = bits.view(np.int8)
        signs *= 2
        signs -= 1
        np.copyto(out, signs.reshape(out.shape))
    elif spec.family == "gaussian":
        rng.standard_normal(out=out)
    else:
        rng.random(out=out)
        out *= 2.0
        out -= 1.0
        out *= UNIFORM_HALF_WIDTH
    return out
