"""Circulant-core tests: spectrum conventions, dual trace routes, the
dense-matrix oracle, analytic gradients, and the Hessian norm."""

import math

import numpy as np
import pytest

from circulant_clt import EnsembleSpec, TestPolynomial, circulant
from circulant_clt.circulant import BlockBuffers, half_spectrum
from oracles import (
    ImaginaryResidualError,
    build_sample,
    dense_matrix,
    gradient_trace_polynomial,
    hessian_norm,
    sample_sequence,
    spectrum,
    trace_polynomial,
    trace_power_direct,
    trace_power_spectral,
)

POLY_X2 = TestPolynomial((1.0,))
POLY_X2_X3 = TestPolynomial((1.0, 1.0))
# central differences of the gradient with step 1e-5: truncation and
# rounding error both stay near 1e-10 relative at n <= 32
FD_HESSIAN_REL = 1e-8


def raw_from_scaled(x) -> np.ndarray:
    """Raw inputs X whose scaled first row X / sqrt(n) is x."""
    x = np.asarray(x, dtype=np.float64)
    return x * math.sqrt(len(x))


def draw(spec, n, seed, replica=0) -> np.ndarray:
    return sample_sequence(spec, n, seed, replica)


def spectral_norm(lam) -> np.ndarray:
    """Operator norm max_t |lambda_t| along the last axis: circulant matrices
    are normal."""
    return np.abs(lam).max(axis=-1)


def dense_trace_polynomial(raw, poly: TestPolynomial) -> float:
    """Oracle: explicit matrix powers of the materialized circulant."""
    C = dense_matrix(raw)
    total = 0.0
    power = C.copy()
    for k in range(2, len(poly.dense())):
        power = power @ C
        a = dict(poly.terms()).get(k, 0.0)
        total += a * np.trace(power)
    return float(total)


class TestPolynomialType:
    def test_from_dense_accepts_valid(self):
        poly = TestPolynomial.from_dense([0, 0, 1.0, 2.0])
        assert len(poly.dense()) - 1 == 3
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

    def test_evaluate_and_derivative(self):
        poly = TestPolynomial((2.0, 1.0))  # 2x^2 + x^3
        assert poly.evaluate(2.0) == pytest.approx(16.0)
        assert poly.derivative_values(2.0) == pytest.approx(8 + 12)
        assert poly.second_derivative_values(2.0) == pytest.approx(4 + 12)
        assert POLY_X2.second_derivative_values(-7.3) == 2.0


class TestBuildSample:
    def test_n_one_spectrum_is_the_entry(self):
        lam = build_sample(EnsembleSpec("gaussian"), 1, 1, 0)
        raw = draw(EnsembleSpec("gaussian"), 1, 1)
        assert dense_matrix(raw)[0, 0] == raw[0]
        assert np.allclose(lam, raw)

    def test_rademacher_scaling(self):
        raw = draw(EnsembleSpec("rademacher"), 4, 2)
        assert set(np.abs(dense_matrix(raw)).ravel()) == {0.5}

    def test_deterministic(self):
        a = build_sample(EnsembleSpec("gaussian"), 8, 3, 5)
        b = build_sample(EnsembleSpec("gaussian"), 8, 3, 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", [EnsembleSpec(f) for f in
                                      ("gaussian", "rademacher", "uniform_symmetric")],
                             ids=lambda s: s.family)
    def test_is_spectrum_of_the_draw(self, spec):
        lam = build_sample(spec, 9, 3, 5)
        assert np.array_equal(lam, spectrum(draw(spec, 9, 3, 5)))


class TestSpectrum:
    def test_two_by_two(self):
        lam = spectrum(raw_from_scaled([1.5, -0.25]))
        assert np.allclose(sorted(lam.real), sorted([1.5 - 0.25, 1.5 + 0.25]))
        assert np.allclose(lam.imag, 0.0, atol=1e-15)

    def test_identity_like(self):
        lam = spectrum(raw_from_scaled([1.0, 0.0, 0.0]))
        assert np.allclose(lam, np.ones(3))

    def test_matches_dense_eigenvalues(self):
        raw = draw(EnsembleSpec("uniform_symmetric"), 9, 9)

        def canonical(values):
            # sort on rounded keys so float noise cannot flip tie-breaks
            keys = np.round(np.column_stack([values.real, values.imag]), 8)
            order = np.lexsort((keys[:, 1], keys[:, 0]))
            return values[order]

        lam = canonical(spectrum(raw))
        ev = canonical(np.linalg.eigvals(dense_matrix(raw)))
        assert np.allclose(lam, ev, atol=1e-10)

    def test_trace_identity(self):
        raw = draw(EnsembleSpec("gaussian"), 16, 4)
        total = np.sum(spectrum(raw))
        expected = 16 * raw[0] / math.sqrt(16)
        assert abs(total - expected) <= 1e-12 * (1 + abs(expected))

    def test_conjugate_symmetry(self):
        lam = build_sample(EnsembleSpec("gaussian"), 12, 5, 0)
        for t in range(12):
            assert lam[(12 - t) % 12] == pytest.approx(np.conj(lam[t]), abs=1e-12)

    @pytest.mark.parametrize("spec", [EnsembleSpec(f) for f in
                                      ("gaussian", "rademacher", "uniform_symmetric")],
                             ids=lambda s: s.family)
    @pytest.mark.parametrize("n", [2, 3, 8, 9, 64])
    def test_half_spectrum_is_the_first_half_bin_by_bin(self, spec, n):
        # the block kernel's rfft route keeps numpy's first n/2 + 1 bins as
        # they are: bin t holds the oracle's lambda_((n - t) mod n), the
        # conjugate of lambda_t
        raw = draw(spec, n, 6)
        full = spectrum(raw)
        half = half_spectrum(raw[None], BlockBuffers(1, n))[0]
        assert half.shape == (n // 2 + 1,)
        scale = 1.0 + float(np.max(np.abs(full)))
        t = np.arange(n // 2 + 1)
        assert np.all(np.abs(half - full[(n - t) % n]) <= 1e-12 * scale)

    @pytest.mark.parametrize("spec", [EnsembleSpec(f) for f in
                                      ("gaussian", "rademacher", "uniform_symmetric")],
                             ids=lambda s: s.family)
    @pytest.mark.parametrize("n, split", [(4, (2, 2)), (12, (4, 3)), (20, (5, 4)),
                                          (45, (9, 5)), (64, (8, 8)), (2**15, (256, 128))])
    def test_split_half_spectrum_is_in_k2_k1_order_bin_by_bin(self, spec, n, split,
                                                               monkeypatch):
        # the split route (forced down to small n) keeps
        # lambda_(-(k2 + n2 k1) mod n) at bin k2 * n1 + k1 for 0 <= k2 <= n2/2;
        # with weight 1 on rows 0 and n2/2 (n2 even) and 2 elsewhere, as
        # trace_block weighs them, that covers every eigenvalue once up to
        # conjugation
        monkeypatch.setattr(circulant, "SPLIT_MIN_N", 4)
        raw = draw(spec, n, 6)
        full = spectrum(raw)
        bufs = BlockBuffers(1, n)
        n2, n1 = split
        assert (bufs.n2, bufs.n1) == split
        half = half_spectrum(raw[None], bufs)[0].reshape(n2 // 2 + 1, n1)
        k2, k1 = np.arange(n2 // 2 + 1)[:, None], np.arange(n1)[None, :]
        scale = 1.0 + float(np.max(np.abs(full)))
        held = -(k2 + n2 * k1) % n
        assert np.all(np.abs(half - full[held]) <= 1e-12 * scale)
        weights = np.full((n2 // 2 + 1, n1), 2.0)
        weights[[0, n2 // 2] if n2 % 2 == 0 else [0]] = 1.0
        counts = np.zeros(n)
        np.add.at(counts, held.ravel(), 1.0)
        np.add.at(counts, (-held % n)[weights == 2.0], 1.0)
        assert np.all(counts == 1.0)


class TestTracePowers:
    def test_scalar_cases(self):
        raw = np.array([0.7])
        assert trace_power_spectral(spectrum(raw), 3) == pytest.approx(0.7**3)
        assert trace_power_direct(raw, 1) == pytest.approx(0.7)

    def test_two_by_two_square(self):
        a, b = 0.9, -1.3
        raw = raw_from_scaled([a, b])
        expected = 2 * (a**2 + b**2)  # (a+b)^2 + (a-b)^2
        assert trace_power_spectral(spectrum(raw), 2) == pytest.approx(expected)
        assert trace_power_direct(raw, 2) == pytest.approx(expected)

    def test_power_one_is_n_x0(self):
        raw = draw(EnsembleSpec("gaussian"), 10, 7)
        assert trace_power_direct(raw, 1) == pytest.approx(10 * raw[0] / math.sqrt(10))

    def test_degree_one_identity(self):
        # Tr(C)/sqrt(n) equals the first raw input exactly
        for r in range(20):
            raw = draw(EnsembleSpec("uniform_symmetric"), 37, 8, r)
            lhs = trace_power_spectral(spectrum(raw), 1) / math.sqrt(37)
            assert abs(lhs - raw[0]) <= 1e-12 * (1 + abs(raw[0]))

    @pytest.mark.parametrize("spec", [EnsembleSpec(f) for f in
                                      ("gaussian", "rademacher", "uniform_symmetric")],
                             ids=lambda s: s.family)
    def test_route_equivalence(self, spec):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            n = int(rng.integers(2, 17))
            p = int(rng.integers(1, 5))
            raw = draw(spec, n, 10, int(rng.integers(0, 1000)))
            a = trace_power_spectral(spectrum(raw), p)
            b = trace_power_direct(raw, p)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))

    def test_invalid_power(self):
        lam = build_sample(EnsembleSpec("gaussian"), 4, 11, 0)
        with pytest.raises(ValueError):
            trace_power_spectral(lam, 0)

    def test_imaginary_residual_guard(self):
        lam = build_sample(EnsembleSpec("gaussian"), 6, 12, 0)
        corrupted = lam + 1j  # break conjugate symmetry
        with pytest.raises(ImaginaryResidualError):
            trace_power_spectral(corrupted, 3)
        for poly in (POLY_X2, POLY_X2_X3, TestPolynomial((0.0, 0.0, 1.0))):
            with pytest.raises(ImaginaryResidualError):
                trace_polynomial(corrupted, poly)
            with pytest.raises(ImaginaryResidualError):
                gradient_trace_polynomial(corrupted, poly)


class TestTracePolynomial:
    def test_square_two_by_two(self):
        a, b = 0.4, 1.1
        lam = spectrum(raw_from_scaled([a, b]))
        assert trace_polynomial(lam, POLY_X2) == pytest.approx(2 * (a**2 + b**2))

    def test_scalar_mixed(self):
        lam = spectrum(np.array([0.6]))
        assert trace_polynomial(lam, POLY_X2_X3) == pytest.approx(0.6**2 + 0.6**3)

    def test_dense_oracle_n64(self):
        poly = TestPolynomial((1.0, 0.0, 2.0))  # x^2 + 2x^4
        raw = draw(EnsembleSpec("gaussian"), 64, 13)
        fast = trace_polynomial(spectrum(raw), poly)
        slow = dense_trace_polynomial(raw, poly)
        assert abs(fast - slow) <= 1e-8 * max(1.0, abs(slow))

    @pytest.mark.parametrize("seed", range(12))
    def test_dense_oracle_random(self, seed):
        # seeds cycle through the three builtin ensembles, both parities of n
        # and degrees 2..6; interior coefficients of degree k vanish when
        # k + seed is even, so every degree >= 4 case has zero interior terms
        rng = np.random.default_rng(seed)
        spec = EnsembleSpec(("gaussian", "rademacher", "uniform_symmetric")[seed % 3])
        n = 2 * int(rng.integers(1, 32)) + seed % 2
        degree = 2 + seed % 5
        coeffs = rng.normal(size=degree - 1)
        coeffs[(np.arange(2, degree + 1) + seed) % 2 == 0] = 0.0
        coeffs[-1] = rng.choice([-1.0, 1.0]) * (0.5 + rng.random())
        poly = TestPolynomial(tuple(coeffs))
        raw = draw(spec, n, 14, seed)
        lam = spectrum(raw)
        fast = trace_polynomial(lam, poly)
        slow = dense_trace_polynomial(raw, poly)
        assert abs(fast - slow) <= 1e-8 * max(1.0, abs(slow))
        per_term = sum(a * trace_power_spectral(lam, k) for k, a in poly.terms())
        assert abs(fast - per_term) <= 1e-12 * max(1.0, abs(per_term))


class TestSpectralNorm:
    def test_scalar(self):
        assert spectral_norm(spectrum(np.array([-2.5]))) == pytest.approx(2.5)

    def test_identity(self):
        lam = spectrum(raw_from_scaled([1.0, 0.0, 0.0]))
        assert spectral_norm(lam) == pytest.approx(1.0)

    def test_two_by_two(self):
        a, b = 0.3, -1.7
        lam = spectrum(raw_from_scaled([a, b]))
        assert spectral_norm(lam) == pytest.approx(max(abs(a + b), abs(a - b)))

    def test_matches_dense_operator_norm(self, monkeypatch):
        # so does the half spectrum, one rfft or split (n2 = 4 even, n2 = 9
        # odd): kappa2's max_t relies on it holding every modulus
        for n, split in ((11, (11, 1)), (12, (4, 3)), (45, (9, 5))):
            raw = draw(EnsembleSpec("gaussian"), n, 15)
            dense = np.linalg.norm(dense_matrix(raw), 2)
            assert spectral_norm(spectrum(raw)) == pytest.approx(dense, rel=1e-10)
            half = half_spectrum(raw[None], BlockBuffers(1, n))[0]
            assert spectral_norm(half) == pytest.approx(dense, rel=1e-10)
            with monkeypatch.context() as patch:
                patch.setattr(circulant, "SPLIT_MIN_N", 4)
                bufs = BlockBuffers(1, n)
                assert (bufs.n2, bufs.n1) == split
                half = half_spectrum(raw[None], bufs)[0]
            assert spectral_norm(half) == pytest.approx(dense, rel=1e-10)


def fd_gradient(raw, poly, step=1e-5):
    n = len(raw)
    grad = np.empty(n)
    for k in range(n):
        Xp = raw.copy()
        Xm = raw.copy()
        Xp[k] += step
        Xm[k] -= step
        grad[k] = (
            trace_polynomial(spectrum(Xp), poly) - trace_polynomial(spectrum(Xm), poly)
        ) / (2 * step)
    return grad


def fd_hessian_of_trace(raw, poly, step=1e-5):
    """Hessian oracle for X -> Tr P(C(X)) by differencing the gradient."""
    n = len(raw)
    H = np.empty((n, n))
    for k in range(n):
        Xp = raw.copy()
        Xm = raw.copy()
        Xp[k] += step
        Xm[k] -= step
        gp = gradient_trace_polynomial(spectrum(Xp), poly)
        gm = gradient_trace_polynomial(spectrum(Xm), poly)
        H[:, k] = (gp - gm) / (2 * step)
    return H


class TestGradient:
    def test_square_closed_form(self):
        # for P(x) = x^2 the gradient is 2 X[(n-m) mod n]
        raw = draw(EnsembleSpec("gaussian"), 6, 16)
        grad = gradient_trace_polynomial(spectrum(raw), POLY_X2)
        m = np.arange(6)
        expected = 2 * raw[(6 - m) % 6]
        assert np.allclose(grad, expected, atol=1e-12)

    def test_scalar_cube(self):
        lam = spectrum(np.array([0.8]))
        grad = gradient_trace_polynomial(lam, TestPolynomial((0.0, 1.0)))
        assert grad[0] == pytest.approx(3 * 0.8**2)

    def test_finite_difference_oracle_n32(self):
        raw = draw(EnsembleSpec("gaussian"), 32, 17)
        grad = gradient_trace_polynomial(spectrum(raw), POLY_X2_X3)
        fd = fd_gradient(raw, POLY_X2_X3)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_finite_difference_oracle_random(self, seed):
        rng = np.random.default_rng(seed + 40)
        n = int(rng.integers(2, 129))
        coeffs = tuple(rng.normal(size=rng.integers(1, 5)))
        if coeffs[-1] == 0.0:
            coeffs = coeffs[:-1] + (1.0,)
        poly = TestPolynomial(coeffs)
        raw = draw(EnsembleSpec("uniform_symmetric"), n, 18, seed)
        grad = gradient_trace_polynomial(spectrum(raw), poly)
        fd = fd_gradient(raw, poly)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-9)


class TestHessianBound:
    """max_t |P''(lambda_t)| is the operator norm of the Hessian of g = Tr P(C)
    itself, with no 1/n: the materialized oracle matches finite differences
    of the gradient within their error."""

    def test_square_is_constant_over_samples(self):
        lam = build_sample(EnsembleSpec("gaussian"), 16, 19, 0)
        assert hessian_norm(lam, POLY_X2) == pytest.approx(2.0)

    def test_cube_scales_with_norm(self):
        lam = build_sample(EnsembleSpec("gaussian"), 8, 20, 0)
        rho = spectral_norm(lam)
        poly = TestPolynomial((0.0, 1.0))
        assert hessian_norm(lam, poly) == pytest.approx(6 * rho)

    def test_majorizes_fd_hessian_mixed_poly(self):
        poly = TestPolynomial((1.0, 0.0, 1.0))  # x^2 + x^4
        raw = draw(EnsembleSpec("gaussian"), 16, 21)
        lam = spectrum(raw)
        opnorm = np.linalg.norm(fd_hessian_of_trace(raw, poly), 2)
        exact = hessian_norm(lam, poly)
        assert opnorm == pytest.approx(exact, rel=FD_HESSIAN_REL)
        assert exact == pytest.approx(np.max(np.abs(2 + 12 * lam**2)))

    def test_pure_square_matches_fd_hessian(self):
        raw = draw(EnsembleSpec("rademacher"), 8, 22)
        opnorm = np.linalg.norm(fd_hessian_of_trace(raw, POLY_X2), 2)
        # a quadratic's gradient is linear, so its differences carry rounding alone
        assert opnorm == pytest.approx(hessian_norm(spectrum(raw), POLY_X2), rel=1e-9)
