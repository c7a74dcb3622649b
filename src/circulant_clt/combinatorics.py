"""The exact limiting variance of the centered, sqrt(n)-normalized trace
statistic, in rational arithmetic."""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from sys import float_info

from .circulant import TestPolynomial


def limiting_variance(poly: TestPolynomial) -> Fraction:
    """Limiting variance sum_l a_l^2 * l! of the centered, sqrt(n)-normalized
    trace statistic; exact whenever the coefficients are.

    The lattice-slice form sum_l a_l^2 * l! * sum_s f_l(s) reduces to it,
    as the Euler-Frobenius densities f_l sum to exactly 1.  A variance
    beyond the largest float or below the smallest normal one is refused:
    no float statistic could be read against it.  Zero coefficients take
    no factorial, and as every term is >= 0 the sum stops once it passes
    the largest float: a nonzero term of degree 433 or more passes it
    alone, so no polynomial takes more than 432 factorials.
    """
    total = Fraction(0)
    for ell, a in poly.terms():
        if total > float_info.max:
            break
        if a:
            total += Fraction(a) ** 2 * factorial(ell)
    if not float_info.min <= total <= float_info.max:
        side = "exceeds" if total > 1 else "is below"
        raise ValueError(f"the limiting variance sum_k a_k^2 k! {side} the float range")
    return total
