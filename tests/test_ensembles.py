"""Ensemble tests: standardization, determinism, smoothness constants,
and the subgaussian tail proxy."""

import math

import numpy as np
import pytest

from circulant_clt import (
    EnsembleSpec,
    SmoothnessRequiredError,
    gaussian,
    rademacher,
    uniform_symmetric,
)
from circulant_clt.ensembles import RandomStream, draw_rows
from oracles import sample_sequence, smooth_transform_value

SQRT3 = math.sqrt(3.0)
ALL_FAMILIES = [gaussian(), rademacher(), uniform_symmetric()]
# E X^4 of each standardized law: 3 (normal), 1 (signs), 9/5 (uniform)
FOURTH_MOMENTS = {"gaussian": 3.0, "rademacher": 1.0, "uniform_symmetric": 9.0 / 5.0}
# subgaussian tail proxy sigma: P(|X| > t) <= 2 exp(-t^2 / (2 sigma^2)); a
# bounded mean-zero law qualifies with sigma equal to its sup norm
SUBGAUSSIAN_SIGMA = {"gaussian": 1.0, "rademacher": 1.0, "uniform_symmetric": SQRT3}


class TestSpecConstruction:
    def test_builtin_constants(self):
        g = gaussian()
        assert (g.c1, g.c2) == (1.0, 0.0)

        r = rademacher()
        assert r.c1 is None and r.c2 is None and not r.is_smooth

        u = uniform_symmetric()
        assert u.c1 == pytest.approx(2 * SQRT3 / math.sqrt(2 * math.pi))
        assert u.c2 == pytest.approx(2 * SQRT3 / math.sqrt(2 * math.pi * math.e))

    def test_from_family(self):
        # the family name alone builds the spec; an unknown one is refused
        assert EnsembleSpec("gaussian").family == "gaussian"
        with pytest.raises(ValueError, match="unknown ensemble family 'cauchy'; "
                           "choose from"):
            EnsembleSpec("cauchy")

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown ensemble family 'custom_smooth'; "
                           "choose from"):
            EnsembleSpec("custom_smooth")
        # the family alone defines the law: its constants cannot be overridden
        with pytest.raises(TypeError):
            EnsembleSpec("gaussian", c1=7.0, c2=3.0)


class TestRandomStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomStream(-1, 0)
        with pytest.raises(ValueError):
            RandomStream(2**64, 0)
        with pytest.raises(ValueError):
            RandomStream(0, -1)
        RandomStream(2**64 - 1, 10**9)  # extremes are fine


class TestSampling:
    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_deterministic_given_stream(self, spec):
        a = sample_sequence(spec, 257, RandomStream(11, 4))
        b = sample_sequence(spec, 257, RandomStream(11, 4))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_replicas_are_distinct_substreams(self, spec):
        a = sample_sequence(spec, 64, RandomStream(11, 0))
        b = sample_sequence(spec, 64, RandomStream(11, 1))
        assert not np.array_equal(a, b)

    def test_rademacher_support(self):
        xs = sample_sequence(rademacher(), 4, RandomStream(0, 0))
        assert set(xs) <= {-1.0, 1.0}
        xs = sample_sequence(rademacher(), 4096, RandomStream(1, 0))
        assert set(np.unique(xs)) == {-1.0, 1.0}

    def test_gaussian_standardized_at_scale(self):
        xs = sample_sequence(gaussian(), 10**6, RandomStream(3, 0))
        assert abs(xs.mean()) <= 4 / math.sqrt(10**6)
        assert abs(xs.var() - 1.0) <= 0.01

    def test_uniform_rows_pin_the_stream(self):
        # row i of a block is sqrt(3) * (2U - 1) for the standard uniforms U
        # that replica lo + i's own generator draws
        lo, n = 5, 33
        block = draw_rows(uniform_symmetric(), RandomStream(9, lo), np.empty((4, n)))
        for i, row in enumerate(block):
            u = RandomStream(9, lo + i).generator().random(n)
            assert np.array_equal(row, SQRT3 * (2.0 * u - 1.0))

    def test_uniform_support_and_variance(self):
        xs = sample_sequence(uniform_symmetric(), 10**6, RandomStream(4, 0))
        assert np.all(np.abs(xs) <= SQRT3)
        assert abs(xs.var() - 1.0) <= 0.01

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_standardization_five_sigma(self, spec):
        m = 10**5
        xs = sample_sequence(spec, m, RandomStream(12, 0))
        se_mean = xs.std(ddof=1) / math.sqrt(m)
        assert abs(xs.mean()) <= 5 * max(se_mean, 1e-12)
        mu4 = np.mean((xs - xs.mean()) ** 4)
        se_var = math.sqrt(max(mu4 - xs.var() ** 2, 0.0) / m)
        assert abs(xs.var(ddof=1) - 1.0) <= 5 * max(se_var, 1e-12)
        fourth = xs**4
        se_fourth = fourth.std(ddof=1) / math.sqrt(m)
        assert abs(fourth.mean() - FOURTH_MOMENTS[spec.family]) <= 5 * max(
            se_fourth, 1e-12
        )

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_subgaussian_tail_proxy(self, spec):
        m = 10**6
        xs = np.abs(sample_sequence(spec, m, RandomStream(13, 0)))
        sigma = SUBGAUSSIAN_SIGMA[spec.family]
        for t in (1.0, 2.0, 3.0):
            phat = np.mean(xs > t)
            assert phat <= 2 * math.exp(-(t**2) / (2 * sigma**2)) * 1.05


class TestSmoothTransform:
    def test_gaussian_identity(self):
        z = np.linspace(-10, 10, 101)
        assert np.array_equal(smooth_transform_value(gaussian(), z), z)

    def test_uniform_at_zero_and_range(self):
        u = uniform_symmetric()
        assert smooth_transform_value(u, 0.0) == pytest.approx(0.0)
        z = np.linspace(-10, 10, 2001)
        vals = smooth_transform_value(u, z)
        assert np.all(np.abs(vals) <= SQRT3)
        # odd symmetry of the transform
        assert np.allclose(vals, -smooth_transform_value(u, -z))

    @pytest.mark.parametrize(
        "spec", [gaussian(), uniform_symmetric()], ids=lambda s: s.family
    )
    def test_derivative_bounds_by_finite_differences(self, spec):
        z = np.linspace(-10, 10, 4001)
        h = 1e-5
        up = (
            smooth_transform_value(spec, z + h) - smooth_transform_value(spec, z - h)
        ) / (2 * h)
        upp = (
            smooth_transform_value(spec, z + h)
            - 2 * smooth_transform_value(spec, z)
            + smooth_transform_value(spec, z - h)
        ) / h**2
        assert np.max(np.abs(up)) <= spec.c1 + 1e-6
        assert np.max(np.abs(upp)) <= spec.c2 + 1e-4

    def test_uniform_derivative_peaks_at_zero(self):
        u = uniform_symmetric()
        h = 1e-6
        d0 = (smooth_transform_value(u, h) - smooth_transform_value(u, -h)) / (2 * h)
        assert d0 == pytest.approx(u.c1, rel=1e-6)

    def test_rejects_rademacher(self):
        with pytest.raises(SmoothnessRequiredError):
            smooth_transform_value(rademacher(), 0.0)
