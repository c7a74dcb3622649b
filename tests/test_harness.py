"""Harness tests: experiment determinism, diagnostics, and the
total-variation bound machinery."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from circulant_clt import (
    ExperimentConfig,
    SmoothnessRequiredError,
    TestPolynomial,
    estimate_kappas,
    gaussian,
    norm_scaling_study,
    rademacher,
    run_clt_experiment,
    uniform_symmetric,
)
from circulant_clt import harness
from circulant_clt.ensembles import RandomStream
from circulant_clt.harness import ks_distance, standardized_moments
from oracles import dense_matrix, gradient_trace_polynomial, sample_sequence, spectrum

POLY_X2 = TestPolynomial((1.0,))
POLY_X2_X3 = TestPolynomial((1.0, 1.0))


def inline_pool(pool_sizes):
    """A ThreadPoolExecutor stand-in that records its size and maps inline."""

    class InlinePool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return InlinePool


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
        # at n = THREAD_MIN_N, 5 * rows - 1 replicas span 5 blocks and
        # 3 * rows - 1 span 3; the pool records its size and runs inline
        n = harness.THREAD_MIN_N
        rows = harness.block_rows(n)
        pool_sizes = []
        monkeypatch.setattr(harness, "ThreadPoolExecutor", inline_pool(pool_sizes))
        reference = run_clt_experiment(make_config(n=n, m=5 * rows - 1))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        capped = run_clt_experiment(make_config(n=n, m=5 * rows - 1,
                                                worker_count=100000))
        assert pool_sizes == [3]  # capped by the CPUs
        assert np.array_equal(capped.raw_traces, reference.raw_traces)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        run_clt_experiment(make_config(n=n, m=3 * rows - 1, worker_count=100000))
        assert pool_sizes == [3, 3]  # capped by the blocks
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        run_clt_experiment(make_config(n=n, m=5 * rows - 1, worker_count=100000))
        assert pool_sizes == [3, 3]  # unknown CPU count: one worker, no pool

    def test_no_threads_below_thread_min_n(self, monkeypatch):
        pool_sizes = []
        monkeypatch.setattr(harness, "ThreadPoolExecutor", inline_pool(pool_sizes))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        for n in (2, 64, harness.THREAD_MIN_N - 1):
            m = 3 * harness.block_rows(n) - 1
            threaded = make_config(n=n, m=m, worker_count=100000)
            traces = run_clt_experiment(threaded).raw_traces
            assert pool_sizes == []  # three blocks, still run inline
            serial = run_clt_experiment(make_config(n=n, m=m)).raw_traces
            assert np.array_equal(traces, serial)
        n = harness.THREAD_MIN_N
        run_clt_experiment(make_config(n=n, m=3 * harness.block_rows(n) - 1,
                                       worker_count=100000))
        assert pool_sizes == [3]

    @pytest.mark.parametrize("n", [513, 512, 4097, 4096])
    def test_worker_invariance_with_ragged_last_block(self, n, monkeypatch):
        # n=513/512 give blocks of 63/64 rows, n=4097/4096 blocks of 7/8,
        # and m = 3 * rows - 1 makes every last block short; threads stay
        # capped at os.cpu_count()
        m = 3 * harness.block_rows(n) - 1
        assert n >= harness.THREAD_MIN_N
        assert m % harness.block_rows(n) != 0 and m > 2 * harness.block_rows(n)
        configs = [make_config(n=n, m=m, poly=POLY_X2_X3, ensemble=uniform_symmetric(),
                               worker_count=w) for w in (1, 2, 3, 7)]
        threaded = [(run_clt_experiment(c).raw_traces, estimate_kappas(c))
                    for c in configs]
        # the same partitions of the blocks over 1, 2, 3 and 7 workers,
        # run inline so that no thread starts
        monkeypatch.setattr(harness, "ThreadPoolExecutor", inline_pool([]))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        inline = [(run_clt_experiment(c).raw_traces, estimate_kappas(c))
                  for c in configs]
        traces, kappas = threaded[0]
        for other_traces, other_kappas in threaded[1:] + inline:
            assert np.array_equal(other_traces, traces)
            assert other_kappas == kappas

    @pytest.mark.parametrize("spec", [gaussian(), rademacher(), uniform_symmetric()],
                             ids=lambda s: s.family)
    @pytest.mark.parametrize("n, m", [(63, 300), (64, 300), (8191, 40), (8192, 40)])
    def test_block_layout_never_changes_a_result(self, spec, n, m, monkeypatch):
        # 2**13 values make blocks of 128-130 rows at n=63/64 and of one
        # row at n=8191/8192; 2**15 make 256 and 4 rows, 2**17 256 and 16
        config = make_config(n=n, m=m, poly=POLY_X2_X3, ensemble=spec, worker_count=2)
        results, rows, default_min_n = [], set(), harness.THREAD_MIN_N
        for block_values in (2**13, 2**15, 2**17):
            for thread_min_n in (2, default_min_n):
                monkeypatch.setattr(harness, "BLOCK_VALUES", block_values)
                monkeypatch.setattr(harness, "THREAD_MIN_N", thread_min_n)
                rows.add(harness.block_rows(n))
                kappas = estimate_kappas(config) if spec.is_smooth else None
                results.append((run_clt_experiment(config).raw_traces, kappas))
        assert len(rows) > 1  # the layouts differ
        traces, kappas = results[0]
        for other_traces, other_kappas in results[1:]:
            assert np.array_equal(other_traces, traces)
            assert other_kappas == kappas

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

    @pytest.mark.parametrize("spec", [gaussian(), rademacher(), uniform_symmetric()],
                             ids=lambda s: s.family)
    @pytest.mark.parametrize("n", [7, 8])
    def test_replica_r_draw_lands_in_slot_r(self, spec, n):
        config = make_config(n=n, m=6, poly=POLY_X2_X3, ensemble=spec, worker_count=2)
        traces = run_clt_experiment(config).raw_traces
        for r in range(config.m):
            C = dense_matrix(sample_sequence(spec, n, RandomStream(config.master_seed, r)))
            dense = np.trace(C @ C) + np.trace(C @ C @ C)
            assert traces[r] == pytest.approx(dense, rel=1e-10)

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

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_stdlib_normal_cdf(self, seed):
        # an independent Phi, statistics.NormalDist, on seeded samples whose
        # z-scores reach +-38, where one tail of Phi underflows to subnormals
        rng = np.random.Generator(np.random.Philox(seed))
        sigma = float(rng.uniform(0.5, 3.0))
        z = np.concatenate([rng.standard_normal(40), rng.uniform(-38.0, 38.0, 20),
                            [-38.0, 38.0]])
        xs = z * sigma
        cdf = NormalDist(0.0, sigma).cdf
        m = len(xs)
        expected = max(0.0, *(max((i + 1) / m - cdf(x), cdf(x) - i / m)
                              for i, x in enumerate(sorted(xs.tolist()))))
        assert abs(ks_distance(xs, sigma**2) - expected) <= 1e-15

    def test_refusals(self):
        with pytest.raises(ValueError):
            ks_distance([1.0], 0.0)
        with pytest.raises(ValueError):
            ks_distance([1.0], -2.0)
        with pytest.raises(ValueError):
            ks_distance([], 1.0)


class TestMoments:
    def test_constant_samples_have_zero_central_moments(self):
        # the rounded means of 60 copies of 0.1 and 1000 copies of 2.2 miss the value
        for value, m in ((3.3, 100), (0.1, 60), (2.2, 1000)):
            assert standardized_moments(np.full(m, value)).tolist() == [0.0] * 8

    def test_matches_manual_computation(self):
        xs = np.array([1.0, 2.0, 4.0])
        moments = standardized_moments(xs)
        assert len(moments) == 8
        mu = xs.mean()
        sigma = np.sqrt(np.mean((xs - mu) ** 2))
        for k in range(1, 9):
            assert moments[k - 1] == pytest.approx(np.mean((xs - mu) ** k) / sigma**k)

    def test_standardized_second_moment_is_one(self):
        rng = np.random.Generator(np.random.Philox(5))
        moments = standardized_moments(rng.standard_normal(1000))
        assert moments[1] == pytest.approx(1.0)


class TestSteinMachinery:
    def test_refuses_non_smooth_ensemble(self):
        with pytest.raises(SmoothnessRequiredError, match="u'"):
            estimate_kappas(make_config(ensemble=rademacher()))

    def test_kappa2_exact_for_square(self):
        # m2 is the constant 2|a_2|, so the surrogate is exactly 2
        est = estimate_kappas(make_config(m=50))
        assert est.kappa2_hat == pytest.approx(2.0)

    def test_kappa2_majorizes_fd_hessian_of_trace(self):
        # kappa2 must bound (E ||Hess g||^4)^(1/4) for the same g = Tr P(C)
        # whose gradient and variance enter the bound
        config = make_config(n=16, m=8, poly=POLY_X2_X3, master_seed=1)
        step = 1e-5
        norms = []
        for r in range(config.m):
            X = sample_sequence(config.ensemble, 16, RandomStream(1, r))
            H = np.empty((16, 16))
            for k in range(16):
                e = np.zeros(16)
                e[k] = step
                gp = gradient_trace_polynomial(spectrum(X + e), POLY_X2_X3)
                gm = gradient_trace_polynomial(spectrum(X - e), POLY_X2_X3)
                H[:, k] = (gp - gm) / (2 * step)
            norms.append(np.linalg.norm(H, 2))
        floor = float(np.mean(np.array(norms) ** 4)) ** 0.25
        assert estimate_kappas(config).kappa2_hat >= floor

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


class TestNormScaling:
    def test_rademacher_accepted(self):
        rows = norm_scaling_study(rademacher(), [16, 64], trials=5, master_seed=3)
        assert [r.n for r in rows] == [16, 64]
        assert all(r.max_ratio >= r.mean_ratio > 0 for r in rows)

    def test_smallest_size_well_posed(self):
        (row,) = norm_scaling_study(gaussian(), [2], trials=3, master_seed=4)
        assert math.isfinite(row.max_ratio) and row.max_ratio > 0

    def test_rows_are_dense_norms_of_their_streams(self):
        sizes, trials = [7, 8, 16], 4
        rows = norm_scaling_study(uniform_symmetric(), sizes, trials, master_seed=9)
        for i, (n, row) in enumerate(zip(sizes, rows)):
            ratios = [
                np.linalg.norm(dense_matrix(sample_sequence(
                    uniform_symmetric(), n, RandomStream(9, i * trials + t))), 2)
                / math.sqrt(math.log(n))
                for t in range(trials)
            ]
            assert row.max_ratio == pytest.approx(max(ratios), rel=1e-10)
            assert row.mean_ratio == pytest.approx(np.mean(ratios), rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            norm_scaling_study(gaussian(), [1], trials=3)
        with pytest.raises(ValueError):
            norm_scaling_study(gaussian(), [16], trials=0)
