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

Slices are counted in closed form by inclusion-exclusion
(:func:`count_slice_exact`).  The test suite checks that count against a
direct enumeration of the box and against a distinct-coordinates count,
which shows that repeated coordinates are negligible in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .circulant import TestPolynomial


@dataclass(frozen=True)
class LatticeSliceCount:
    """Exact count of one slice together with its normalized density."""

    p: int
    s: int
    n: int
    count: int
    density: Fraction

    def __post_init__(self) -> None:
        if self.p < 1 or self.n < 1:
            raise ValueError("p and n must be positive")
        if not 0 <= self.s <= self.p - 1:
            raise ValueError("s must lie in [0, p-1]")
        if self.count < 0:
            raise ValueError("count must be nonnegative")


def euler_frobenius_density(p: int, s: int) -> Fraction:
    """Exact rational f_p(s) = (1/(p-1)!) sum_k (-1)^k C(p,k) (s-k)^(p-1).

    f_p(0) = 0 for p >= 2 and sum_{s=0}^{p-1} f_p(s) = 1 exactly.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if not 0 <= s <= p - 1:
        raise ValueError(f"s={s} out of range [0, {p - 1}]")
    acc = sum((-1) ** k * comb(p, k) * (s - k) ** (p - 1) for k in range(s + 1))
    return Fraction(acc, factorial(p - 1))


def _comb_or_zero(a: int, b: int) -> int:
    if a < 0 or b < 0 or a < b:
        return 0
    return comb(a, b)


def count_slice_exact(p: int, s: int, n: int) -> int:
    """Closed-form slice count by inclusion-exclusion over bounded compositions.

    Counts solutions of i_1 + ... + i_p = s*n with 0 <= i_j <= n-1 as

        sum_{k>=0} (-1)^k C(p, k) C(s*n - k*n + p - 1, p - 1),

    dropping terms whose upper binomial argument is negative.  Exact for
    all arguments; big integers throughout.
    """
    if p < 1 or n < 1:
        raise ValueError("p and n must be positive")
    if not 0 <= s <= p - 1:
        raise ValueError(f"s={s} out of range [0, {p - 1}]")
    return sum(
        (-1) ** k * comb(p, k) * _comb_or_zero(s * n - k * n + p - 1, p - 1)
        for k in range(p + 1)
    )


def slice_table(p: int, n: int) -> list[LatticeSliceCount]:
    """All slices of {0..n-1}^p with exact counts and densities; p >= 2,
    the degrees the densities f_p describe."""
    if p < 2:
        raise ValueError("p must be at least 2")
    rows = []
    scale = n ** (p - 1)
    for s in range(p):
        cnt = count_slice_exact(p, s, n)
        rows.append(LatticeSliceCount(p, s, n, cnt, Fraction(cnt, scale)))
    return rows


def limiting_variance(poly: TestPolynomial) -> Fraction:
    """Limiting variance of the centered, sqrt(n)-normalized trace statistic.

    Equals sum_l a_l^2 * l! * sum_s f_l(s).  The inner density sum is
    exactly 1, but it is evaluated explicitly so the density formula stays
    on the tested path; the result is exact whenever the coefficients are.
    """
    total = Fraction(0)
    for ell, a in poly.terms():
        inner = sum(
            (euler_frobenius_density(ell, s) for s in range(ell)), Fraction(0)
        )
        total += Fraction(a) ** 2 * factorial(ell) * inner
    return total


def gaussian_central_moment(order: int, variance: float) -> float:
    """Central moment of N(0, variance): zero for odd orders, else
    (2k)!/(k! 2^k) * variance^k for order 2k."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order % 2 == 1:
        return 0.0
    k = order // 2
    return factorial(2 * k) // (factorial(k) * 2**k) * float(variance) ** k
