"""Circulant-core tests: spectrum conventions, dual trace routes, the
dense-matrix oracle, analytic gradients, and the Hessian majorant."""

import math

import numpy as np
import pytest

from circulant_clt import (
    BudgetExceededError,
    ImaginaryResidualError,
    TestPolynomial,
    gaussian,
    rademacher,
    uniform_symmetric,
)
from circulant_clt.circulant import (
    CirculantSample,
    build_sample,
    gradient_trace_polynomial,
    hessian_norm_bound,
    spectral_norm,
    trace_polynomial,
    trace_power_direct,
    trace_power_spectral,
)
from circulant_clt.ensembles import RandomStream

POLY_X2 = TestPolynomial((1.0,))
POLY_X2_X3 = TestPolynomial((1.0, 1.0))


def sample_from_scaled(x) -> CirculantSample:
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    return CirculantSample(n=n, raw_inputs=x * math.sqrt(n), scaled_row=x.copy())


def sample_from_raw(X) -> CirculantSample:
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    return CirculantSample(n=n, raw_inputs=X.copy(), scaled_row=X / math.sqrt(n))


def dense_trace_polynomial(sample: CirculantSample, poly: TestPolynomial) -> float:
    """Oracle: explicit matrix powers of the materialized circulant."""
    C = sample.dense_matrix()
    total = 0.0
    power = C.copy()
    for k in range(2, poly.degree + 1):
        power = power @ C
        a = dict(poly.terms()).get(k, 0.0)
        total += a * np.trace(power)
    return float(total)


class TestPolynomialType:
    def test_from_dense_accepts_valid(self):
        poly = TestPolynomial.from_dense([0, 0, 1.0, 2.0])
        assert poly.degree == 3
        assert poly.coefficients == (1.0, 2.0)
        assert poly.dense() == [0.0, 0.0, 1.0, 2.0]

    def test_from_dense_rejects_low_degree_terms(self):
        with pytest.raises(ValueError, match="degree"):
            TestPolynomial.from_dense([0, 1, 1])
        with pytest.raises(ValueError, match="degree"):
            TestPolynomial.from_dense([1, 0, 1])
        with pytest.raises(ValueError, match="degree 2"):
            TestPolynomial.from_dense([0, 0])

    def test_leading_coefficient_nonzero(self):
        with pytest.raises(ValueError, match="nonzero"):
            TestPolynomial((1.0, 0.0))
        with pytest.raises(ValueError):
            TestPolynomial(())

    def test_majorant_values(self):
        assert POLY_X2.second_derivative_majorant(7.3) == 2.0
        poly3 = TestPolynomial((0.0, 2.0))
        assert poly3.second_derivative_majorant(4.0) == pytest.approx(6 * 2 * 4.0)
        mixed = TestPolynomial((1.0, 0.0, 1.0))  # x^2 + x^4
        assert mixed.second_derivative_majorant(2.0) == pytest.approx(2 + 12 * 4.0)
        with pytest.raises(ValueError):
            POLY_X2.second_derivative_majorant(-1.0)

    def test_majorant_nondecreasing(self):
        poly = TestPolynomial((-1.0, 2.0, -0.5))
        grid = np.linspace(0, 5, 50)
        vals = [poly.second_derivative_majorant(z) for z in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v >= 0 for v in vals)

    def test_evaluate_and_derivative(self):
        poly = TestPolynomial((2.0, 1.0))  # 2x^2 + x^3
        assert poly.evaluate(2.0) == pytest.approx(16.0)
        assert poly.derivative_values(2.0) == pytest.approx(8 + 12)


class TestBuildSample:
    def test_n_one_spectrum_is_the_entry(self):
        s = build_sample(gaussian(), 1, RandomStream(1, 0))
        assert s.scaled_row[0] == s.raw_inputs[0]
        assert np.allclose(s.spectrum(), [s.scaled_row[0]])

    def test_rademacher_scaling(self):
        s = build_sample(rademacher(), 4, RandomStream(2, 0))
        assert set(np.abs(s.scaled_row)) == {0.5}

    def test_deterministic(self):
        a = build_sample(gaussian(), 8, RandomStream(3, 5))
        b = build_sample(gaussian(), 8, RandomStream(3, 5))
        assert np.array_equal(a.raw_inputs, b.raw_inputs)

    def test_immutable_views(self):
        s = build_sample(gaussian(), 8, RandomStream(3, 5))
        with pytest.raises(ValueError):
            s.raw_inputs[0] = 0.0
        with pytest.raises(ValueError):
            s.spectrum()[0] = 0.0


class TestSpectrum:
    def test_two_by_two(self):
        lam = sample_from_scaled([1.5, -0.25]).spectrum()
        assert np.allclose(sorted(lam.real), sorted([1.5 - 0.25, 1.5 + 0.25]))
        assert np.allclose(lam.imag, 0.0, atol=1e-15)

    def test_identity_like(self):
        lam = sample_from_scaled([1.0, 0.0, 0.0]).spectrum()
        assert np.allclose(lam, np.ones(3))

    def test_matches_dense_eigenvalues(self):
        s = build_sample(uniform_symmetric(), 9, RandomStream(9, 0))

        def canonical(values):
            # sort on rounded keys so float noise cannot flip tie-breaks
            keys = np.round(np.column_stack([values.real, values.imag]), 8)
            order = np.lexsort((keys[:, 1], keys[:, 0]))
            return values[order]

        lam = canonical(s.spectrum())
        ev = canonical(np.linalg.eigvals(s.dense_matrix()))
        assert np.allclose(lam, ev, atol=1e-10)

    def test_trace_identity(self):
        s = build_sample(gaussian(), 16, RandomStream(4, 0))
        total = np.sum(s.spectrum())
        expected = 16 * s.scaled_row[0]
        assert abs(total - expected) <= 1e-12 * (1 + abs(expected))

    def test_conjugate_symmetry(self):
        s = build_sample(gaussian(), 12, RandomStream(5, 0))
        lam = s.spectrum()
        for t in range(12):
            assert lam[(12 - t) % 12] == pytest.approx(np.conj(lam[t]), abs=1e-12)

    def test_cache_returns_same_object(self):
        s = build_sample(gaussian(), 8, RandomStream(6, 0))
        assert s.spectrum() is s.spectrum()


class TestTracePowers:
    def test_scalar_cases(self):
        s = sample_from_scaled([0.7])
        assert trace_power_spectral(s, 3) == pytest.approx(0.7**3)
        assert trace_power_direct(s, 1) == pytest.approx(0.7)

    def test_two_by_two_square(self):
        a, b = 0.9, -1.3
        s = sample_from_scaled([a, b])
        expected = 2 * (a**2 + b**2)  # (a+b)^2 + (a-b)^2
        assert trace_power_spectral(s, 2) == pytest.approx(expected)
        assert trace_power_direct(s, 2) == pytest.approx(expected)

    def test_power_one_is_n_x0(self):
        s = build_sample(gaussian(), 10, RandomStream(7, 0))
        assert trace_power_direct(s, 1) == pytest.approx(10 * s.scaled_row[0])

    def test_degree_one_identity(self):
        # Tr(C)/sqrt(n) equals the first raw input exactly
        for r in range(20):
            s = build_sample(uniform_symmetric(), 37, RandomStream(8, r))
            lhs = trace_power_spectral(s, 1) / math.sqrt(37)
            assert abs(lhs - s.raw_inputs[0]) <= 1e-12 * (1 + abs(s.raw_inputs[0]))

    @pytest.mark.parametrize("spec", [gaussian(), rademacher(), uniform_symmetric()],
                             ids=lambda s: s.family)
    def test_route_equivalence(self, spec):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            n = int(rng.integers(2, 17))
            p = int(rng.integers(1, 5))
            s = build_sample(spec, n, RandomStream(10, int(rng.integers(0, 1000))))
            a = trace_power_spectral(s, p)
            b = trace_power_direct(s, p)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))

    def test_budget_refusal(self):
        s = build_sample(gaussian(), 10, RandomStream(11, 0))
        with pytest.raises(BudgetExceededError, match="budget"):
            trace_power_direct(s, 12)
        with pytest.raises(BudgetExceededError, match="999"):
            trace_power_direct(s, 4, budget=999)

    def test_invalid_power(self):
        s = build_sample(gaussian(), 4, RandomStream(11, 0))
        with pytest.raises(ValueError):
            trace_power_spectral(s, 0)

    def test_imaginary_residual_guard(self):
        s = build_sample(gaussian(), 6, RandomStream(12, 0))
        corrupted = s.spectrum().copy() + 1j  # break conjugate symmetry
        object.__setattr__(s, "_spectrum", corrupted)
        with pytest.raises(ImaginaryResidualError):
            trace_power_spectral(s, 3)
        for poly in (POLY_X2, POLY_X2_X3, TestPolynomial((0.0, 0.0, 1.0))):
            with pytest.raises(ImaginaryResidualError):
                trace_polynomial(s, poly)
            with pytest.raises(ImaginaryResidualError):
                gradient_trace_polynomial(s, poly)


class TestTracePolynomial:
    def test_square_two_by_two(self):
        a, b = 0.4, 1.1
        s = sample_from_scaled([a, b])
        assert trace_polynomial(s, POLY_X2) == pytest.approx(2 * (a**2 + b**2))

    def test_scalar_mixed(self):
        s = sample_from_scaled([0.6])
        assert trace_polynomial(s, POLY_X2_X3) == pytest.approx(0.6**2 + 0.6**3)

    def test_dense_oracle_n64(self):
        poly = TestPolynomial((1.0, 0.0, 2.0))  # x^2 + 2x^4
        s = build_sample(gaussian(), 64, RandomStream(13, 0))
        fast = trace_polynomial(s, poly)
        slow = dense_trace_polynomial(s, poly)
        assert abs(fast - slow) <= 1e-8 * max(1.0, abs(slow))

    @pytest.mark.parametrize("seed", range(12))
    def test_dense_oracle_random(self, seed):
        # seeds cycle through the three builtin ensembles, both parities of n
        # and degrees 2..6; interior coefficients of degree k vanish when
        # k + seed is even, so every degree >= 4 case has zero interior terms
        rng = np.random.default_rng(seed)
        spec = (gaussian(), rademacher(), uniform_symmetric())[seed % 3]
        n = 2 * int(rng.integers(1, 32)) + seed % 2
        degree = 2 + seed % 5
        coeffs = rng.normal(size=degree - 1)
        coeffs[(np.arange(2, degree + 1) + seed) % 2 == 0] = 0.0
        coeffs[-1] = rng.choice([-1.0, 1.0]) * (0.5 + rng.random())
        poly = TestPolynomial(tuple(coeffs))
        s = build_sample(spec, n, RandomStream(14, seed))
        fast = trace_polynomial(s, poly)
        slow = dense_trace_polynomial(s, poly)
        assert abs(fast - slow) <= 1e-8 * max(1.0, abs(slow))
        per_term = sum(a * trace_power_spectral(s, k) for k, a in poly.terms())
        assert abs(fast - per_term) <= 1e-12 * max(1.0, abs(per_term))


class TestSpectralNorm:
    def test_scalar(self):
        assert spectral_norm(sample_from_scaled([-2.5])) == pytest.approx(2.5)

    def test_identity(self):
        assert spectral_norm(sample_from_scaled([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_two_by_two(self):
        a, b = 0.3, -1.7
        s = sample_from_scaled([a, b])
        assert spectral_norm(s) == pytest.approx(max(abs(a + b), abs(a - b)))

    def test_matches_dense_operator_norm(self):
        s = build_sample(gaussian(), 11, RandomStream(15, 0))
        dense = np.linalg.norm(s.dense_matrix(), 2)
        assert spectral_norm(s) == pytest.approx(dense, rel=1e-10)


def fd_gradient(sample, poly, step=1e-5):
    n = sample.n
    grad = np.empty(n)
    for k in range(n):
        Xp = sample.raw_inputs.copy()
        Xm = sample.raw_inputs.copy()
        Xp[k] += step
        Xm[k] -= step
        grad[k] = (
            trace_polynomial(sample_from_raw(Xp), poly)
            - trace_polynomial(sample_from_raw(Xm), poly)
        ) / (2 * step)
    return grad


def fd_hessian_of_normalized_statistic(sample, poly, step=1e-5):
    """Hessian oracle for X -> Tr P(C(X)) / n by differencing the gradient."""
    n = sample.n
    H = np.empty((n, n))
    for k in range(n):
        Xp = sample.raw_inputs.copy()
        Xm = sample.raw_inputs.copy()
        Xp[k] += step
        Xm[k] -= step
        gp = gradient_trace_polynomial(sample_from_raw(Xp), poly)
        gm = gradient_trace_polynomial(sample_from_raw(Xm), poly)
        H[:, k] = (gp - gm) / (2 * step) / n
    return H


class TestGradient:
    def test_square_closed_form(self):
        # for P(x) = x^2 the gradient is 2 X[(n-m) mod n]
        s = build_sample(gaussian(), 6, RandomStream(16, 0))
        grad = gradient_trace_polynomial(s, POLY_X2)
        m = np.arange(6)
        expected = 2 * s.raw_inputs[(6 - m) % 6]
        assert np.allclose(grad, expected, atol=1e-12)

    def test_scalar_cube(self):
        s = sample_from_raw([0.8])
        grad = gradient_trace_polynomial(s, TestPolynomial((0.0, 1.0)))
        assert grad[0] == pytest.approx(3 * 0.8**2)

    def test_finite_difference_oracle_n32(self):
        s = build_sample(gaussian(), 32, RandomStream(17, 0))
        grad = gradient_trace_polynomial(s, POLY_X2_X3)
        fd = fd_gradient(s, POLY_X2_X3)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_finite_difference_oracle_random(self, seed):
        rng = np.random.default_rng(seed + 40)
        n = int(rng.integers(2, 129))
        coeffs = tuple(rng.normal(size=rng.integers(1, 5)))
        if coeffs[-1] == 0.0:
            coeffs = coeffs[:-1] + (1.0,)
        poly = TestPolynomial(coeffs)
        s = build_sample(uniform_symmetric(), n, RandomStream(18, seed))
        grad = gradient_trace_polynomial(s, poly)
        fd = fd_gradient(s, poly)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-9)


class TestHessianBound:
    def test_square_is_constant_over_samples(self):
        s = build_sample(gaussian(), 16, RandomStream(19, 0))
        assert hessian_norm_bound(s, POLY_X2) == pytest.approx(2.0 / 16)

    def test_cube_scales_with_norm(self):
        s = build_sample(gaussian(), 8, RandomStream(20, 0))
        rho = spectral_norm(s)
        poly = TestPolynomial((0.0, 1.0))
        assert hessian_norm_bound(s, poly) == pytest.approx(6 * rho / 8)

    def test_majorizes_fd_hessian_mixed_poly(self):
        poly = TestPolynomial((1.0, 0.0, 1.0))  # x^2 + x^4
        s = build_sample(gaussian(), 16, RandomStream(21, 0))
        H = fd_hessian_of_normalized_statistic(s, poly)
        opnorm = np.linalg.norm(H, 2)
        assert opnorm <= hessian_norm_bound(s, poly) * (1 + 1e-8)

    def test_majorant_is_tight_for_pure_square(self):
        # the quadratic case attains the bound exactly
        s = build_sample(rademacher(), 8, RandomStream(22, 0))
        H = fd_hessian_of_normalized_statistic(s, POLY_X2)
        opnorm = np.linalg.norm(H, 2)
        bound = hessian_norm_bound(s, POLY_X2)
        assert opnorm == pytest.approx(bound, rel=1e-9)
        assert opnorm <= bound * (1 + 1e-8)
