"""Exact lattice-slice counting and the limiting variance it determines.

The central objects are the slices of the discrete box {0, ..., n-1}^p by
the hyperplanes of coordinate sum s*n:

    slice(p, s, n) = #{ (i_1, ..., i_p) : i_1 + ... + i_p = s*n,
                        0 <= i_j <= n-1 }.

Summed over s = 0..p-1 the slices partition the solutions of
i_1 + ... + i_p = 0 (mod n), of which there are exactly n^(p-1): the
first p-1 coordinates are free and the last is determined.

As n grows, slice(p, s, n) / n^(p-1) converges to the Euler-Frobenius
density

    f_p(s) = (1/(p-1)!) * sum_{k=0}^{s} (-1)^k C(p, k) (s - k)^(p-1),

the volume of the section {y in [0,1]^p : sum y = s} of the unit cube.
Everything here is computed in exact integer/rational arithmetic; the
binomials involved overflow 64-bit integers already for moderate (p, n).

:func:`slice_table` counts slices by inclusion-exclusion, each box binomial
taken once.  The test suite checks those counts against a direct enumeration
of the box and against a distinct-coordinates count, which shows that
repeated coordinates are negligible in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from sys import float_info

from .circulant import TestPolynomial
from .errors import require_integers


@dataclass(frozen=True)
class LatticeSliceCount:
    """Exact count of one slice together with its normalized density."""

    p: int
    s: int
    n: int
    count: int
    density: Fraction


def euler_frobenius_density(p: int, s: int) -> Fraction:
    """Exact rational f_p(s) = (1/(p-1)!) sum_k (-1)^k C(p,k) (s-k)^(p-1).

    f_p(0) = 0 for p >= 2 and sum_{s=0}^{p-1} f_p(s) = 1 exactly.
    """
    p, s = require_integers(p=p, s=s).values()
    if p < 2:
        raise ValueError("p must be at least 2")
    if not 0 <= s <= p - 1:
        raise ValueError(f"s={s} out of range [0, {p - 1}]")
    acc = sum((-1) ** k * comb(p, k) * (s - k) ** (p - 1) for k in range(s + 1))
    return Fraction(acc, factorial(p - 1))


def slice_table(p: int, n: int) -> list[LatticeSliceCount]:
    """All p slices of {0..n-1}^p with exact counts and densities; p >= 1.

    With the box binomials b_j = C(j*n + p - 1, p - 1), each taken once,
    inclusion-exclusion over bounded compositions counts slice s as

        sum_{k=0}^{s} (-1)^k C(p, k) b_{s-k};

    for k > s the upper argument is below p - 1, so those terms are 0.
    """
    p, n = require_integers(p=p, n=n).values()
    if p < 1:
        raise ValueError(f"p must be at least 1, not {p}")
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    box = [comb(j * n + p - 1, p - 1) for j in range(p)]
    scale = n ** (p - 1)
    rows = []
    for s in range(p):
        count = sum((-1) ** k * comb(p, k) * box[s - k] for k in range(s + 1))
        rows.append(LatticeSliceCount(p, s, n, count, Fraction(count, scale)))
    return rows


def limiting_variance(poly: TestPolynomial) -> Fraction:
    """Limiting variance sum_l a_l^2 * l! of the centered, sqrt(n)-normalized
    trace statistic; exact whenever the coefficients are.

    The slice form sum_l a_l^2 * l! * sum_s f_l(s) reduces to it because the
    Euler-Frobenius densities f_l sum to exactly 1.  A variance beyond the
    largest float or below the smallest normal one is refused: no float
    statistic could be read against it.
    """
    total = sum((Fraction(a) ** 2 * factorial(ell) for ell, a in poly.terms()),
                Fraction(0))
    if not float_info.min <= total <= float_info.max:
        side = "exceeds" if total > 1 else "is below"
        raise ValueError(f"the limiting variance sum_k a_k^2 k! {side} the float range")
    return total
