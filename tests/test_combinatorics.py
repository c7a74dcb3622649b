"""Exact-combinatorics tests: slice_table's closed-form counts agree with
the brute-force and distinct-coordinates oracles and take each box binomial
once, densities are exact rationals, and the limiting variance follows."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_clt import (
    LatticeSliceCount,
    TestPolynomial,
    combinatorics,
    euler_frobenius_density,
    limiting_variance,
    slice_table,
)
from oracles import (
    count_slice_bruteforce,
    count_slice_distinct,
    limiting_variance_by_densities,
)


def literal_slice_count(p, s, n, distinct=False):
    """Definition-level oracle: walk every tuple in {0..n-1}^p."""
    total = 0
    for t in itertools.product(range(n), repeat=p):
        if sum(t) == s * n and (not distinct or len(set(t)) == p):
            total += 1
    return total


class TestEulerFrobeniusDensity:
    def test_small_values(self):
        assert euler_frobenius_density(2, 0) == 0
        assert euler_frobenius_density(2, 1) == 1
        assert euler_frobenius_density(3, 1) == Fraction(1, 2)
        assert euler_frobenius_density(3, 2) == Fraction(1, 2)
        assert euler_frobenius_density(4, 1) == Fraction(1, 6)
        assert euler_frobenius_density(4, 2) == Fraction(2, 3)

    def test_zero_slice_has_density_zero(self):
        for p in range(2, 9):
            assert euler_frobenius_density(p, 0) == 0

    def test_normalization_exact(self):
        for p in range(2, 11):
            total = sum(euler_frobenius_density(p, s) for s in range(p))
            assert total == 1

    def test_symmetry_exact(self):
        # reflection i -> n - i maps positive-coordinate slices s <-> p - s
        for p in range(2, 9):
            for s in range(1, p):
                assert euler_frobenius_density(p, s) == euler_frobenius_density(
                    p, p - s
                )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            euler_frobenius_density(3, 3)
        with pytest.raises(ValueError):
            euler_frobenius_density(3, -1)
        with pytest.raises(ValueError):
            euler_frobenius_density(1, 0)

    def test_accepts_numpy_integers(self):
        # the binomials of f_30(15) pass the int8 range
        assert (euler_frobenius_density(np.int8(30), np.int8(15))
                == euler_frobenius_density(30, 15))

    @pytest.mark.parametrize("name, p, s", [
        ("p", True, 0), ("p", 3.0, 1), ("s", 3, True), ("s", 3, 1.0),
    ])
    def test_rejects_non_integer_arguments(self, name, p, s):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, not "):
            euler_frobenius_density(p, s)

    def test_matches_normalized_counts_at_moderate_n(self):
        # f_3(1) = 1/2, not the unnormalized 3: the counts decide
        n = 500
        density = Fraction(slice_table(3, n)[1].count, n**2)
        assert abs(density - Fraction(1, 2)) < Fraction(1, 100)
        assert abs(density - 3) > 2


class TestSliceCounts:
    def test_frozen_examples(self):
        # enumerated by hand / literal_slice_count
        assert slice_table(2, 5)[1].count == 4
        assert slice_table(3, 3)[1].count == 7
        # over {0,1}^4 the sum never reaches 3*2 = 6; (1,1,1,1) sums to 4,
        # i.e. it is the sole member of slice s = 2
        assert count_slice_bruteforce(4, 3, 2) == 0
        assert count_slice_bruteforce(4, 2, 2) == 1
        assert count_slice_bruteforce(1, 0, 7) == 1

    def test_zero_slice_is_single_tuple(self):
        for p in range(1, 7):
            for n in (1, 2, 5, 19):
                assert slice_table(p, n)[0].count == 1

    @settings(deadline=None, max_examples=60)
    @given(p=st.integers(1, 5), n=st.integers(1, 14))
    def test_exact_matches_bruteforce(self, p, n):
        table = slice_table(p, n)
        for s in range(p):
            assert table[s].count == count_slice_bruteforce(p, s, n)

    @settings(deadline=None, max_examples=60)
    @given(p=st.integers(1, 6), n=st.integers(1, 50))
    def test_completeness(self, p, n):
        table = slice_table(p, n)
        assert sum(table[s].count for s in range(p)) == n ** (p - 1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="p must be at least 1, not 0"):
            slice_table(0, 4)
        with pytest.raises(ValueError, match="n must be at least 1, not 0"):
            slice_table(3, 0)

    def test_accepts_numpy_integers(self):
        # n ** (p - 1) wraps in int16, without a warning
        table = slice_table(np.int8(5), np.int16(1000))
        assert table == slice_table(5, 1000)
        assert all(type(row.p) is int and type(row.n) is int for row in table)

    @pytest.mark.parametrize("name, p, n", [
        ("p", True, 5), ("p", 5.0, 5), ("n", 5, True), ("n", 5, 2.0),
    ])
    def test_rejects_non_integer_arguments(self, name, p, n):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, not "):
            slice_table(p, n)

    def test_box_binomials_taken_once(self, monkeypatch):
        # each C(j*n + p - 1, p - 1), j < p, is taken once per table, not
        # once per slice; the signs C(p, k) are the calls whose upper
        # argument is p, which no box binomial has for n >= 2
        calls = []

        def counted_comb(a, b):
            calls.append(a)
            return math.comb(a, b)

        monkeypatch.setattr(combinatorics, "comb", counted_comb)
        for p, n in [(2, 5), (7, 10), (30, 97)]:
            calls.clear()
            table = slice_table(p, n)
            assert sum(row.count for row in table) == n ** (p - 1)
            assert len([a for a in calls if a != p]) <= p


class TestDistinctCounts:
    def test_frozen_examples(self):
        assert count_slice_distinct(2, 1, 5) == 4
        assert count_slice_distinct(2, 1, 4) == 2  # excludes (2, 2)
        assert count_slice_distinct(3, 1, 3) == 6  # excludes (1, 1, 1)
        assert count_slice_distinct(2, 1, 1000) == 998  # a + b = 1000, a != b

    @settings(deadline=None, max_examples=40)
    @given(p=st.integers(1, 5), n=st.integers(1, 10))
    def test_matches_literal_enumeration(self, p, n):
        for s in range(p):
            assert count_slice_distinct(p, s, n) == literal_slice_count(
                p, s, n, distinct=True
            )

    def test_negligible_in_the_limit(self):
        # The repeated-coordinate excess is Theta(n^(p-2)), so the
        # normalized gap decays like 1/n.  The decay constant is exact
        # enough that the 200 -> 400 ratio sits at 1/2 + O(1/n) (it equals
        # 1/2 exactly for p = 2 and for p = 3, s = 1), so assert the rate
        # with that O(1/n) headroom rather than a strict halving.
        for p in (2, 3):
            tables = {n: slice_table(p, n) for n in (200, 400)}
            for s in range(1, p):
                gaps = {}
                for n in (200, 400):
                    gap = tables[n][s].count - count_slice_distinct(p, s, n)
                    gaps[n] = Fraction(gap, n ** (p - 1))
                assert gaps[400] < gaps[200]
                assert gaps[400] <= gaps[200] * Fraction(51, 100)


class TestDensityConvergence:
    def test_error_decays_at_least_geometrically(self):
        # |count/n^(p-1) - f_p(s)| = a/n + b/n^2 + ... exactly, so doubling
        # n shrinks the error to 1/2 + O(1/n) of its value (1/4 + O(1/n)
        # when the leading coefficient vanishes, as for p=4, s=2).
        for p in (3, 4, 5):
            tables = {n: slice_table(p, n) for n in (100, 200, 400, 800)}
            for s in range(1, p):
                errors = []
                for n in (100, 200, 400, 800):
                    density = Fraction(tables[n][s].count, n ** (p - 1))
                    errors.append(abs(density - euler_frobenius_density(p, s)))
                assert errors[0] > errors[1] > errors[2] > errors[3]
                for a, b in zip(errors, errors[1:]):
                    assert b < a * Fraction(11, 20)

    def test_error_envelope_with_fitted_constant(self):
        # err(n) <= C/n on the whole grid with a uniformly small constant
        for p in (3, 4, 5):
            tables = {n: slice_table(p, n) for n in (100, 200, 400, 800)}
            for s in range(1, p):
                scaled = [
                    n
                    * abs(
                        Fraction(tables[n][s].count, n ** (p - 1))
                        - euler_frobenius_density(p, s)
                    )
                    for n in (100, 200, 400, 800)
                ]
                assert max(scaled) <= 2


class TestLimitingVariance:
    def test_monomials(self):
        assert limiting_variance(TestPolynomial((1.0,))) == 2
        assert limiting_variance(TestPolynomial((0.0, 1.0))) == 6
        assert limiting_variance(TestPolynomial((1.0, 1.0))) == 8

    def test_exact_rational_for_rational_coefficients(self):
        poly = TestPolynomial((0.5,))
        assert limiting_variance(poly) == Fraction(1, 2)
        assert isinstance(limiting_variance(poly), Fraction)

    def test_coefficient_scaling(self):
        # variance is quadratic in each coefficient
        assert limiting_variance(TestPolynomial((3.0,))) == 18

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.fractions(-8, 8, max_denominator=64), min_size=1, max_size=11)
           .filter(lambda c: c[-1] != 0))
    def test_matches_density_sums(self, coeffs):
        # coefficients a_2 .. a_d for degrees d up to 12
        poly = TestPolynomial(tuple(float(a) for a in coeffs))
        assert limiting_variance(poly) == limiting_variance_by_densities(poly)


class TestRecordTypes:
    def test_slice_table_partitions_the_box(self):
        rows = slice_table(4, 9)
        assert sum(r.count for r in rows) == 9**3
        assert sum(r.density for r in rows) == 1
        assert all(isinstance(r, LatticeSliceCount) for r in rows)
