"""Harness tests: experiment determinism, diagnostics, and the
total-variation bound machinery."""

import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from circulant_clt import (
    EnsembleSpec,
    ExperimentConfig,
    SmoothnessRequiredError,
    TestPolynomial,
    estimate_kappas,
    run_clt_experiment,
)
from circulant_clt import harness
from circulant_clt.circulant import trace_block
from circulant_clt.cli import parse_config
from circulant_clt.ensembles import block_rows
from circulant_clt.harness import ks_distance, standardized_moments
from oracles import dense_trace_polynomial, fd_hessian, sample_sequence

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
        ensemble=EnsembleSpec("gaussian"),
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

    def test_seed_range(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError,
                               match="^master_seed must be a 64-bit unsigned integer$"):
                make_config(master_seed=seed)
        for seed in (0, 2**64 - 1):  # the extremes are fine
            assert make_config(master_seed=seed).master_seed == seed

    @pytest.mark.parametrize("field, value", [
        ("n", 64.0), ("m", 100.0), ("master_seed", 1.0), ("worker_count", 2.0),
        ("n", True), ("m", "40"),
    ])
    def test_rejects_non_integer_sizes(self, field, value):
        # a float size would fail late inside numpy, and worker_count 2.0 would run
        with pytest.raises(TypeError, match=f"^{field} must be an integer, not "):
            make_config(**{field: value})

    def test_accepts_numpy_integers(self):
        config = make_config(n=np.int64(64), m=np.int32(40), master_seed=np.uint64(101),
                             worker_count=np.int64(1))
        assert np.array_equal(run_clt_experiment(config).raw_traces,
                              run_clt_experiment(make_config()).raw_traces)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16])
    def test_stores_sizes_as_python_ints(self, dtype):
        # a narrow numpy size used to overflow in the block arithmetic
        # (BLOCK_VALUES // n at int16 is out of bounds)
        config = make_config(n=dtype(100), m=dtype(40), master_seed=dtype(101),
                             worker_count=dtype(1))
        for name in ("n", "m", "master_seed", "worker_count"):
            assert type(getattr(config, name)) is int
        assert np.array_equal(run_clt_experiment(config).raw_traces,
                              run_clt_experiment(make_config(n=100)).raw_traces)

    def test_degree_one_polynomials_unrepresentable(self):
        # the harness refuses degree-one statistics at the type level:
        # Tr(C)/sqrt(n) is a single input variable, not a CLT statistic
        with pytest.raises(ValueError):
            TestPolynomial.from_dense([0, 1])
        with pytest.raises(ValueError):
            TestPolynomial.from_dense([0, 1, 1])


class TestRunExperiment:
    def test_thread_count_capped_by_cpus(self, monkeypatch):
        # at n = 64, 5 * rows - 1 replicas span 5 blocks and 3 * rows - 1
        # span 3; the pool records its size and runs inline
        n = 64
        rows = block_rows(n)
        pool_sizes = []
        monkeypatch.setattr(harness, "ThreadPoolExecutor", inline_pool(pool_sizes))
        reference = run_clt_experiment(make_config(n=n, m=5 * rows - 1))
        assert pool_sizes == [1]  # one worker, still off the main thread
        monkeypatch.setattr(harness, "available_cpus", lambda: 3)
        capped = run_clt_experiment(make_config(n=n, m=5 * rows - 1,
                                                worker_count=100000))
        assert pool_sizes == [1, 3]  # capped by the CPUs
        assert np.array_equal(capped.raw_traces, reference.raw_traces)
        monkeypatch.setattr(harness, "available_cpus", lambda: 8)
        run_clt_experiment(make_config(n=n, m=3 * rows - 1, worker_count=100000))
        assert pool_sizes == [1, 3, 3]  # capped by the blocks

    def test_threads_follow_the_cpu_affinity(self, monkeypatch):
        # a process pinned to one of two CPUs (taskset -c 0) gets one worker
        # by default and a pool of one, whatever worker_count asks for
        pool_sizes = []
        monkeypatch.setattr(harness, "ThreadPoolExecutor", inline_pool(pool_sizes))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert parse_config({"n": 4096, "poly": [0, 0, 1, 1], "m": 64}).worker_count == 1
        n = 64
        run_clt_experiment(make_config(n=n, m=3 * block_rows(n),
                                       worker_count=100000))
        assert pool_sizes == [1]

    @pytest.mark.parametrize("cpu_count, cpus", [(5, 5), (None, 1)])
    def test_cpus_without_affinity(self, monkeypatch, cpu_count, cpus):
        # where the OS reports no affinity set, os.cpu_count() is the bound,
        # and an unknown count gives one CPU
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpu_count)
        assert harness.available_cpus() == cpus

    @pytest.mark.parametrize("worker_count", [1, 2])
    @pytest.mark.parametrize("n", [2, 64, 511, 512, 4096])
    def test_no_block_runs_on_the_main_thread(self, n, worker_count, monkeypatch):
        # on the main thread numpy's FFT scratch is faulted in again on every
        # call, so every block runs on a pool thread, at every n
        on_main, draw_rows = [], harness.draw_rows

        def recording_draw_rows(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            return draw_rows(*args)

        monkeypatch.setattr(harness, "draw_rows", recording_draw_rows)
        config = make_config(n=n, m=2 * block_rows(n) + 1,
                             ensemble=EnsembleSpec("uniform_symmetric"),
                             worker_count=worker_count)
        run_clt_experiment(config)
        estimate_kappas(config)
        assert on_main == [False] * 6  # three blocks for each caller

    @pytest.mark.parametrize("spec", [EnsembleSpec(f) for f in
                                      ("gaussian", "rademacher", "uniform_symmetric")],
                             ids=lambda s: s.family)
    @pytest.mark.parametrize("n", [64, 1000])
    def test_shorter_run_is_a_prefix_of_a_longer_one(self, spec, n):
        # m one short of a block, one past it, and one past two blocks
        rows = block_rows(n)
        ms = (rows - 1, rows + 1, 2 * rows + 1)
        runs = [run_clt_experiment(make_config(n=n, m=m, ensemble=spec, worker_count=2))
                for m in ms]
        for m, run in zip(ms, runs):
            assert np.array_equal(run.raw_traces, runs[-1].raw_traces[:m])

    def test_w_is_centered_and_scaled(self):
        summary = run_clt_experiment(make_config())
        w = (summary.raw_traces - summary.raw_traces.mean()) / math.sqrt(64)
        assert np.allclose(summary.w_values, w)
        assert abs(np.mean(summary.w_values)) <= 1e-12

    def test_target_variance_from_exact_combinatorics(self):
        summary = run_clt_experiment(make_config(poly=POLY_X2_X3))
        assert summary.target_variance == 8.0

    def test_variance_near_target_at_moderate_scale(self):
        summary = run_clt_experiment(make_config(n=256, m=800, master_seed=7))
        assert abs(summary.variance_w - 2.0) <= 0.3

    @pytest.mark.parametrize("spec", [EnsembleSpec(f) for f in
                                      ("gaussian", "rademacher", "uniform_symmetric")],
                             ids=lambda s: s.family)
    @pytest.mark.parametrize("n", [7, 8])
    def test_replica_r_draw_lands_in_slot_r(self, spec, n):
        config = make_config(n=n, m=6, poly=POLY_X2_X3, ensemble=spec, worker_count=2)
        traces = run_clt_experiment(config).raw_traces
        for r in range(config.m):
            raw = sample_sequence(spec, n, config.master_seed, r)
            dense = dense_trace_polynomial(raw, POLY_X2_X3)
            assert traces[r] == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("n, expected", [(63, 1.0), (64, 2.0)])
    def test_raw_trace_mean_odd_even(self, n, expected):
        # E Tr C^2 is 1 for odd n, 2 for even n
        summary = run_clt_experiment(make_config(n=n, m=2000, master_seed=17))
        se = summary.raw_traces.std(ddof=1) / math.sqrt(summary.m)
        assert summary.raw_trace_mean == float(summary.raw_traces.mean())
        assert abs(summary.raw_trace_mean - expected) <= 3 * se


def recording_blocks(monkeypatch):
    """Patch the harness's draw_rows to note, per thread, the block it
    drew last; return the thread-local record."""
    drawn, draw = threading.local(), harness.draw_rows

    def recording_draw(spec, key, block, out):
        drawn.block = block
        return draw(spec, key, block, out)

    monkeypatch.setattr(harness, "draw_rows", recording_draw)
    return drawn


class TestBlockCursor:
    """Blocks go in order to whichever worker asks next."""

    def test_a_slow_block_holds_back_no_other(self, monkeypatch):
        # block 0 waits until the 5 other blocks have run.  Blocks dealt
        # out before the run would queue some behind it on its worker, so
        # the wait could only time out; handed to whichever worker is
        # free, they all run on the other worker
        monkeypatch.setattr(harness, "available_cpus", lambda: 2)
        drawn = recording_blocks(monkeypatch)
        n = 4096
        config = make_config(n=n, m=6 * block_rows(n) - 3, master_seed=11,
                             ensemble=EnsembleSpec("uniform_symmetric"), worker_count=2)
        others_ran, lock, ran = threading.Event(), threading.Lock(), []

        def slow_first_block(lam, poly, bufs):
            if drawn.block == 0:
                assert others_ran.wait(timeout=5), "block 0 waited for blocks behind it"
            else:
                with lock:
                    ran.append(drawn.block)
                    if len(ran) == 5:
                        others_ran.set()
            return trace_block(lam, poly, bufs)

        balanced = harness._replica_blocks(config, slow_first_block)
        assert sorted(ran) == [1, 2, 3, 4, 5]
        one_worker = harness._replica_blocks(replace(config, worker_count=1), trace_block)
        assert np.array_equal(balanced, one_worker)

    def test_cursor_under_constant_thread_switches(self, monkeypatch):
        # 8 workers race for 65 small blocks, the last one ragged, while the
        # interpreter switches threads every microsecond and every line of
        # a worker's loop yields the GIL, so a cursor read apart from its
        # advance would hand some block out twice: every block runs once
        # and the result is one worker's, bit for bit
        def yield_each_line(frame, event, arg):
            time.sleep(0)
            return yield_each_line

        def trace_workers(frame, event, arg):
            return yield_each_line if frame.f_code.co_name == "run_blocks" else None

        monkeypatch.setattr(harness, "available_cpus", lambda: 8)
        drawn = recording_blocks(monkeypatch)
        n = 1024
        config = make_config(n=n, m=64 * block_rows(n) + 5, poly=POLY_X2_X3, master_seed=5,
                             ensemble=EnsembleSpec("rademacher"), worker_count=8)
        ran, lock, results = [], threading.Lock(), []

        def recording_trace(lam, poly, bufs):
            with lock:
                ran.append(drawn.block)
            return trace_block(lam, poly, bufs)

        runner = threading.Thread(daemon=True, target=lambda: results.append(
            harness._replica_blocks(config, recording_trace)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threading.settrace(trace_workers)  # for threads started from here on
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            threading.settrace(None)
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "the pool did not finish within 60 s"
        assert sorted(ran) == list(range(65))
        one_worker = harness._replica_blocks(replace(config, worker_count=1), trace_block)
        assert np.array_equal(results[0], one_worker)


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
            assert standardized_moments(np.full(m, value)).tolist() == [0.0] * 4

    def test_matches_manual_computation(self):
        xs = np.array([1.0, 2.0, 4.0])
        moments = standardized_moments(xs)
        assert len(moments) == 4
        mu = xs.mean()
        sigma = np.sqrt(np.mean((xs - mu) ** 2))
        for k in range(1, 5):
            assert moments[k - 1] == pytest.approx(np.mean((xs - mu) ** k) / sigma**k)

    def test_standardized_second_moment_is_one(self):
        rng = np.random.Generator(np.random.Philox(5))
        moments = standardized_moments(rng.standard_normal(1000))
        assert moments[1] == pytest.approx(1.0)

    def test_memory_is_two_arrays_of_the_samples(self):
        # one centered copy and one array of its squares, 16 bytes per
        # sample, whatever the sample size
        m = 2**20
        xs = np.random.Generator(np.random.Philox(21)).standard_normal(m)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            standardized_moments(xs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 17 * m, f"{peak / m:.1f} bytes per sample"


class TestSteinMachinery:
    def test_refuses_non_smooth_ensemble(self):
        with pytest.raises(SmoothnessRequiredError, match="u'"):
            estimate_kappas(make_config(ensemble=EnsembleSpec("rademacher")))

    def test_kappa2_exact_for_square(self):
        # P'' is the constant 2 a_2, so every Hessian norm is exactly 2
        est = estimate_kappas(make_config(m=50))
        assert est.kappa2_hat == pytest.approx(2.0)

    def test_kappa2_majorizes_fd_hessian_of_trace(self):
        # kappa2 is (E ||Hess g||^4)^(1/4) for the same g = Tr P(C) whose
        # gradient and variance enter the bound, within finite-difference error
        config = make_config(n=16, m=8, poly=POLY_X2_X3, master_seed=1)
        norms = [np.linalg.norm(fd_hessian(sample_sequence(config.ensemble, 16, 1, r),
                                           POLY_X2_X3), 2)
                 for r in range(config.m)]
        fd_kappa2 = float(np.mean(np.array(norms) ** 4)) ** 0.25
        assert estimate_kappas(config).kappa2_hat == pytest.approx(fd_kappa2, rel=1e-8)

    def test_gaussian_kills_kappa0_term(self):
        est = estimate_kappas(make_config(m=50))
        assert est.c2 == 0.0
        expected = 2 * math.sqrt(5) * est.kappa1_hat * est.kappa2_hat / est.sigma2_hat
        assert est.tv_bound == pytest.approx(expected)

    def test_components_well_posed_for_uniform(self):
        est = estimate_kappas(
            make_config(ensemble=EnsembleSpec("uniform_symmetric"), poly=POLY_X2_X3,
                        n=128, m=60)
        )
        assert est.kappa0_hat > 0 and est.kappa1_hat > 0 and est.kappa2_hat > 0
        assert est.sigma2_hat > 0
        assert 0 < est.tv_bound < math.inf

    def test_kappa_scaling_with_n(self):
        # kappa0 and kappa1 grow like sqrt(n); their sqrt(n)-ratios stay flat
        small = estimate_kappas(make_config(n=64, m=60))
        large = estimate_kappas(make_config(n=256, m=60))
        for field in ("kappa0_hat", "kappa1_hat"):
            r_small = getattr(small, field) / math.sqrt(64)
            r_large = getattr(large, field) / math.sqrt(256)
            assert 0.5 <= r_small / r_large <= 2.0
