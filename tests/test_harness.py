"""Harness tests: experiment determinism, diagnostics, and the
total-variation bound machinery."""

import math

import numpy as np
import pytest

from circulant_clt import (
    ExperimentConfig,
    SmoothnessRequiredError,
    SteinEstimate,
    TestPolynomial,
    empirical_moments,
    estimate_kappas,
    gaussian,
    norm_scaling_study,
    rademacher,
    run_clt_experiment,
    standardized_moments,
    uniform_symmetric,
)
from circulant_clt import harness
from circulant_clt.harness import ks_distance

POLY_X2 = TestPolynomial((1.0,))
POLY_X2_X3 = TestPolynomial((1.0, 1.0))


def make_config(**overrides) -> ExperimentConfig:
    base = dict(
        n=64,
        m=40,
        poly=POLY_X2,
        ensemble=gaussian(),
        master_seed=101,
        worker_count=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_config(n=1)
        with pytest.raises(ValueError):
            make_config(m=1)
        with pytest.raises(ValueError):
            make_config(worker_count=0)

    def test_degree_one_polynomials_unrepresentable(self):
        # the harness refuses degree-one statistics at the type level:
        # Tr(C)/sqrt(n) is a single input variable, not a CLT statistic
        with pytest.raises(ValueError):
            TestPolynomial.from_dense([0, 1])
        with pytest.raises(ValueError):
            TestPolynomial.from_dense([0, 1, 1])


class TestRunExperiment:
    def test_deterministic_across_worker_counts(self):
        results = [
            run_clt_experiment(make_config(worker_count=w)) for w in (1, 2, 4, 7)
        ]
        for other in results[1:]:
            assert np.array_equal(results[0].w_values, other.w_values)
            assert np.array_equal(results[0].raw_traces, other.raw_traces)
            assert results[0].variance_w == other.variance_w
            assert results[0].standardized_moments == other.standardized_moments
            assert results[0].ks_distance == other.ks_distance

    def test_thread_count_capped_by_cpus(self, monkeypatch):
        # records the pool size and runs the ranges inline: no thread starts
        pool_sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        reference = run_clt_experiment(make_config())
        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        capped = run_clt_experiment(make_config(worker_count=100000))
        assert pool_sizes == [3]
        assert np.array_equal(capped.raw_traces, reference.raw_traces)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        run_clt_experiment(make_config(worker_count=100000))
        assert pool_sizes == [3]  # unknown CPU count: one worker, no pool

    def test_w_is_centered_and_scaled(self):
        summary = run_clt_experiment(make_config())
        w = (summary.raw_traces - summary.raw_traces.mean()) / math.sqrt(64)
        assert np.allclose(summary.w_values, w)
        assert abs(np.mean(summary.w_values)) <= 1e-12

    def test_low_confidence_flag(self):
        assert run_clt_experiment(make_config(m=20)).low_confidence
        assert not run_clt_experiment(make_config(m=40)).low_confidence

    def test_target_variance_from_exact_combinatorics(self):
        summary = run_clt_experiment(make_config(poly=POLY_X2_X3))
        assert summary.target_variance == 8.0

    def test_variance_near_target_at_moderate_scale(self):
        summary = run_clt_experiment(make_config(n=256, m=800, master_seed=7))
        assert abs(summary.variance_w - 2.0) <= 0.3

    @pytest.mark.parametrize("n, expected", [(63, 1.0), (64, 2.0)])
    def test_raw_trace_mean_odd_even(self, n, expected):
        # E Tr C^2 is 1 for odd n, 2 for even n
        summary = run_clt_experiment(make_config(n=n, m=2000, master_seed=17))
        se = summary.raw_traces.std(ddof=1) / math.sqrt(summary.m)
        assert summary.raw_trace_mean == float(summary.raw_traces.mean())
        assert abs(summary.raw_trace_mean - expected) <= 3 * se


class TestKsDistance:
    def test_single_zero_sample(self):
        assert ks_distance([0.0], 1.0) == pytest.approx(0.5)

    def test_normal_draws_are_close(self):
        rng = np.random.Generator(np.random.Philox(123))
        xs = rng.standard_normal(10**4) * math.sqrt(2.0)
        assert ks_distance(xs, 2.0) < 0.02

    def test_far_mass_saturates(self):
        assert ks_distance(np.full(50, 10.0), 1.0) > 0.999

    def test_refusals(self):
        with pytest.raises(ValueError):
            ks_distance([1.0], 0.0)
        with pytest.raises(ValueError):
            ks_distance([1.0], -2.0)
        with pytest.raises(ValueError):
            ks_distance([], 1.0)


class TestMoments:
    def test_constant_samples_have_zero_central_moments(self):
        moments = empirical_moments(np.full(100, 3.3), 6)
        assert np.allclose(moments[1:], 0.0)

    def test_matches_manual_computation(self):
        xs = np.array([1.0, 2.0, 4.0])
        central = empirical_moments(xs, 3)
        mu = xs.mean()
        for k in (1, 2, 3):
            assert central[k - 1] == pytest.approx(np.mean((xs - mu) ** k))

    def test_order_cap(self):
        with pytest.raises(ValueError, match="8"):
            empirical_moments(np.ones(10), 9)
        with pytest.raises(ValueError):
            empirical_moments(np.ones(10), 0)

    def test_standardized_second_moment_is_one(self):
        rng = np.random.Generator(np.random.Philox(5))
        moments = standardized_moments(rng.standard_normal(1000), 4)
        assert moments[1] == pytest.approx(1.0)


class TestSteinMachinery:
    def test_refuses_non_smooth_ensemble(self):
        with pytest.raises(SmoothnessRequiredError, match="u'"):
            estimate_kappas(make_config(ensemble=rademacher()))

    def test_kappa2_exact_for_square(self):
        # m2 is the constant 2|a_2|, so the surrogate is exactly 2/n
        est = estimate_kappas(make_config(m=50))
        assert est.kappa2_hat == pytest.approx(2.0 / 64)

    def test_gaussian_kills_kappa0_term(self):
        est = estimate_kappas(make_config(m=50))
        assert est.c2 == 0.0
        expected = 2 * math.sqrt(5) * est.kappa1_hat * est.kappa2_hat / est.sigma2_hat
        assert est.tv_bound == pytest.approx(expected)

    def test_components_well_posed_for_uniform(self):
        est = estimate_kappas(
            make_config(ensemble=uniform_symmetric(), poly=POLY_X2_X3, n=128, m=60)
        )
        assert est.kappa0_hat > 0 and est.kappa1_hat > 0 and est.kappa2_hat > 0
        assert est.sigma2_hat > 0
        assert 0 < est.tv_bound < math.inf

    def test_deterministic_across_worker_counts(self):
        a = estimate_kappas(make_config(m=30, worker_count=1))
        b = estimate_kappas(make_config(m=30, worker_count=5))
        assert a == b

    def test_kappa_scaling_with_n(self):
        # kappa0 and kappa1 grow like sqrt(n); their sqrt(n)-ratios stay flat
        small = estimate_kappas(make_config(n=64, m=60))
        large = estimate_kappas(make_config(n=256, m=60))
        for field in ("kappa0_hat", "kappa1_hat"):
            r_small = getattr(small, field) / math.sqrt(64)
            r_large = getattr(large, field) / math.sqrt(256)
            assert 0.5 <= r_small / r_large <= 2.0

    def test_estimate_invariant_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            SteinEstimate(
                kappa0_hat=1.0,
                kappa1_hat=1.0,
                kappa2_hat=1.0,
                sigma2_hat=1.0,
                c1=1.0,
                c2=0.0,
                tv_bound=1.0,
            )


class TestNormScaling:
    def test_rademacher_accepted(self):
        rows = norm_scaling_study(rademacher(), [16, 64], trials=5, master_seed=3)
        assert [r.n for r in rows] == [16, 64]
        assert all(r.max_ratio >= r.mean_ratio > 0 for r in rows)

    def test_smallest_size_well_posed(self):
        (row,) = norm_scaling_study(gaussian(), [2], trials=3, master_seed=4)
        assert math.isfinite(row.max_ratio) and row.max_ratio > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            norm_scaling_study(gaussian(), [1], trials=3)
        with pytest.raises(ValueError):
            norm_scaling_study(gaussian(), [16], trials=0)
