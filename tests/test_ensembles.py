"""Ensemble tests: standardization, determinism, smoothness constants,
and the subgaussian tail proxy."""

import math

import numpy as np
import pytest

from circulant_clt import (
    EnsembleSpec,
    SmoothnessRequiredError,
)
from circulant_clt.ensembles import block_rows, draw_rows, worker_generator
from oracles import documented_generator, sample_sequence, smooth_transform_value

SQRT3 = math.sqrt(3.0)
ALL_FAMILIES = [EnsembleSpec(f) for f in ("gaussian", "rademacher", "uniform_symmetric")]
# E X^4 of each standardized law: 3 (normal), 1 (signs), 9/5 (uniform)
FOURTH_MOMENTS = {"gaussian": 3.0, "rademacher": 1.0, "uniform_symmetric": 9.0 / 5.0}
# subgaussian tail proxy sigma: P(|X| > t) <= 2 exp(-t^2 / (2 sigma^2)); a
# bounded mean-zero law qualifies with sigma equal to its sup norm
SUBGAUSSIAN_SIGMA = {"gaussian": 1.0, "rademacher": 1.0, "uniform_symmetric": SQRT3}


class TestSpecConstruction:
    def test_builtin_constants(self):
        g = EnsembleSpec("gaussian")
        assert (g.c1, g.c2) == (1.0, 0.0)

        r = EnsembleSpec("rademacher")
        assert r.c1 is None and r.c2 is None and not r.is_smooth

        u = EnsembleSpec("uniform_symmetric")
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

    @pytest.mark.parametrize("family", [None, ["gaussian"], b"gaussian"])
    def test_non_string_family_refused_by_name(self, family):
        # a list used to raise "unhashable type", None to be read as 'None'
        with pytest.raises(TypeError, match="^family must be a string, not "):
            EnsembleSpec(family)


class TestRandomStream:
    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    @pytest.mark.parametrize("n", [33, 1000])
    def test_moved_generator_draws_each_block_afresh(self, spec, n):
        # one worker's generator, moved by draw_rows from block to block, out
        # of order and back, draws what the documented generator of each
        # block draws.  A ragged block of 3 rows at n = 33 or 1000 takes 2 or
        # 47 raw Rademacher words, and 99 uniform or normal values at n = 33,
        # so its draw stops inside Philox's 4-word output buffer; the move
        # must empty it
        rows = block_rows(n)
        rng = worker_generator(9)
        for b, k in ((5, rows), (2, 3), (5, rows), (0, 3), (2, rows), (1, 1)):
            moved = draw_rows(spec, rng, b, np.empty((k, n)))
            fresh = draw_rows(spec, documented_generator(9, b, n), b, np.empty((k, n)))
            assert np.array_equal(moved, fresh), (b, k)
            if spec.family == "rademacher" and k == 3:
                assert rng.bit_generator.state["buffer_pos"] < 4


def pinned_blocks(spec, n):
    """Blocks 5 and 6 of a run at size n, seed 9, and block 7 cut to 3 rows,
    each drawn by a fresh worker's generator."""
    rows = block_rows(n)
    return [(b, draw_rows(spec, worker_generator(9), b, np.empty((k, n))))
            for b, k in ((5, rows), (6, rows), (7, 3))]


class TestSampling:
    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_deterministic_given_stream(self, spec):
        a = sample_sequence(spec, 257, 11, 4)
        b = sample_sequence(spec, 257, 11, 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_replicas_are_distinct_substreams(self, spec):
        a = sample_sequence(spec, 64, 11, 0)
        b = sample_sequence(spec, 64, 11, 1)
        assert not np.array_equal(a, b)

    def test_rademacher_support(self):
        xs = sample_sequence(EnsembleSpec("rademacher"), 4, 0, 0)
        assert set(xs) <= {-1.0, 1.0}
        xs = sample_sequence(EnsembleSpec("rademacher"), 4096, 1, 0)
        assert set(np.unique(xs)) == {-1.0, 1.0}

    def test_gaussian_standardized_at_scale(self):
        xs = sample_sequence(EnsembleSpec("gaussian"), 10**6, 3, 0)
        assert abs(xs.mean()) <= 4 / math.sqrt(10**6)
        assert abs(xs.var() - 1.0) <= 0.01

    # BLOCK_VALUES // n is not a power of two at n = 33, 150 and 1000
    # (992, 218 and 32 rows); each block's rows are the leading ones of one
    # call over block_rows(n) * n values of that block's own generator
    PIN_SIZES = (33, 150, 1000)

    def test_uniform_rows_pin_the_stream(self):
        # rows are sqrt(3) * (2U - 1) for the standard uniforms U of random()
        for n in self.PIN_SIZES:
            for b, block in pinned_blocks(EnsembleSpec("uniform_symmetric"), n):
                u = documented_generator(9, b, n).random(block_rows(n) * n)[: block.size]
                assert np.array_equal(block, SQRT3 * (2.0 * u.reshape(block.shape) - 1.0))

    def test_gaussian_rows_pin_the_stream(self):
        for n in self.PIN_SIZES:
            for b, block in pinned_blocks(EnsembleSpec("gaussian"), n):
                z = documented_generator(9, b, n).standard_normal(block_rows(n) * n)
                assert np.array_equal(block, z[: block.size].reshape(block.shape))

    def test_rademacher_rows_pin_the_stream(self):
        # value i of a block is 2B - 1 for bit i % 64 of raw word i // 64,
        # counted from the least significant bit
        for n in self.PIN_SIZES:
            for b, block in pinned_blocks(EnsembleSpec("rademacher"), n):
                words = documented_generator(9, b, n).bit_generator.random_raw(
                    -(-block_rows(n) * n // 64))
                bits = [(int(words[i // 64]) >> (i % 64)) & 1 for i in range(block.size)]
                assert block.ravel().tolist() == [2.0 * bit - 1.0 for bit in bits]

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    @pytest.mark.parametrize("n", [64, 4096])
    def test_sizes_share_no_inputs(self, spec, n):
        # block k at size n and at size 2n are different streams, so the
        # inputs of replicas 0-1 at n are not those of replica 0 at 2n
        pair = np.concatenate([sample_sequence(spec, n, 21, r) for r in (0, 1)])
        assert not np.array_equal(pair, sample_sequence(spec, 2 * n, 21, 0))

    def test_uniform_support_and_variance(self):
        xs = sample_sequence(EnsembleSpec("uniform_symmetric"), 10**6, 4, 0)
        assert np.all(np.abs(xs) <= SQRT3)
        assert abs(xs.var() - 1.0) <= 0.01

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_standardization_five_sigma(self, spec):
        m = 10**5
        xs = sample_sequence(spec, m, 12, 0)
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
        xs = np.abs(sample_sequence(spec, m, 13, 0))
        sigma = SUBGAUSSIAN_SIGMA[spec.family]
        for t in (1.0, 2.0, 3.0):
            phat = np.mean(xs > t)
            assert phat <= 2 * math.exp(-(t**2) / (2 * sigma**2)) * 1.05


class TestSmoothTransform:
    def test_gaussian_identity(self):
        z = np.linspace(-10, 10, 101)
        assert np.array_equal(smooth_transform_value(EnsembleSpec("gaussian"), z), z)

    def test_uniform_at_zero_and_range(self):
        u = EnsembleSpec("uniform_symmetric")
        assert smooth_transform_value(u, 0.0) == pytest.approx(0.0)
        z = np.linspace(-10, 10, 2001)
        vals = smooth_transform_value(u, z)
        assert np.all(np.abs(vals) <= SQRT3)
        # odd symmetry of the transform
        assert np.allclose(vals, -smooth_transform_value(u, -z))

    @pytest.mark.parametrize(
        "spec", [EnsembleSpec("gaussian"), EnsembleSpec("uniform_symmetric")],
        ids=lambda s: s.family
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
        u = EnsembleSpec("uniform_symmetric")
        h = 1e-6
        d0 = (smooth_transform_value(u, h) - smooth_transform_value(u, -h)) / (2 * h)
        assert d0 == pytest.approx(u.c1, rel=1e-6)

    def test_rejects_rademacher(self):
        with pytest.raises(SmoothnessRequiredError):
            smooth_transform_value(EnsembleSpec("rademacher"), 0.0)
