"""Block replica kernel tests: agreement with the per-replica, dense and
direct-enumeration oracles across block boundaries, on both the one-rfft
and the split (four-step) half spectrum, and the memory held per block.
The oracle comparisons are what catch a wrong Hermitian weight, twiddle or
spectrum convention in the half-spectrum reduction."""

import gc
import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circulant_clt import (
    EnsembleSpec,
    ExperimentConfig,
    TestPolynomial,
    estimate_kappas,
    run_clt_experiment,
)
from circulant_clt import circulant, harness
from circulant_clt.circulant import (
    BlockBuffers,
    four_step,
    gradient_block,
    half_spectrum,
    kappa_block,
    trace_block,
)
from circulant_clt import ensembles
from circulant_clt.ensembles import block_rows
from oracles import (
    build_sample,
    dense_trace_polynomial,
    gradient_trace_polynomial,
    hessian_norm,
    sample_sequence,
    spectral_norm,
    trace_polynomial,
    trace_power_direct,
)

FAMILIES = tuple(EnsembleSpec(f) for f in ("gaussian", "rademacher", "uniform_symmetric"))
POLY_X2_X3 = TestPolynomial((1.0, 1.0))
TOL = 1e-12


def close(fast, slow, scale) -> bool:
    """|fast - slow| within TOL relative to the magnitude the value is a sum of."""
    return abs(fast - slow) <= TOL * scale


polynomials = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=4
).filter(lambda c: abs(c[-1]) > 0.1).map(lambda c: TestPolynomial(tuple(c)))


def trace_scale(lam, poly) -> float:
    """The magnitude Tr P(C) is a sum of, for close()."""
    return 1.0 + float(np.sum(np.abs(poly.evaluate(lam))))


def gradient_error(lam, poly) -> float:
    """The error allowed in each gradient entry: TOL relative to sqrt(n)
    times the largest |P'(lambda_t)|, the magnitude each entry is a sum of."""
    return TOL * (1.0 + math.sqrt(len(lam)) * float(np.max(np.abs(poly.derivative_values(lam)))))


def check_kappa_columns(config, lams, hess_oracle):
    """kappa_block's four columns of replicas 0..m-1 against the oracles on
    their full spectra lams, replica by replica, so an error that cancels in
    the mean shows; then that estimate_kappas takes its kappas from the
    column means, and that those match the oracles' to TOL.
    hess_oracle(lam, poly) is the Hessian norm's oracle."""
    poly = config.poly
    quartic, squared, hess4, traces = harness._replica_blocks(config, kappa_block, width=4)
    oracle = {"quartic": [], "squared": [], "hess4": [], "traces": []}
    for r, lam in enumerate(lams):
        trace = trace_polynomial(lam, poly)
        assert close(traces[r], trace, trace_scale(lam, poly))
        # an error e in each |g_k| moves sum g^4 by at most 4 e sum |g|^3,
        # and (sum g^2)^2 by at most 4 e sum g^2 sum |g|; TOL more for the sums
        g = np.abs(gradient_trace_polynomial(lam, poly))
        e, s2, s4 = gradient_error(lam, poly), np.sum(g**2), np.sum(g**4)
        assert abs(quartic[r] - s4) <= 4 * e * np.sum(g**3) + TOL * s4
        assert abs(squared[r] - s2**2) <= 4 * e * s2 * np.sum(g) + TOL * s2**2
        hess = hess_oracle(lam, poly)
        assert close(hess4[r] ** 0.25, hess, 1.0 + hess)
        for key, value in zip(oracle, (s4, s2**2, hess**4, trace)):
            oracle[key].append(value)
    est = estimate_kappas(config)
    assert (est.kappa0_hat, est.kappa1_hat, est.kappa2_hat, est.sigma2_hat) == (
        math.sqrt(quartic.mean()), float(squared.mean()) ** 0.25,
        float(hess4.mean()) ** 0.25, traces.var(ddof=1))
    assert est.kappa0_hat == pytest.approx(math.sqrt(np.mean(oracle["quartic"])), rel=TOL)
    assert est.kappa1_hat == pytest.approx(np.mean(oracle["squared"]) ** 0.25, rel=TOL)
    assert est.kappa2_hat == pytest.approx(np.mean(oracle["hess4"]) ** 0.25, rel=TOL)
    assert est.sigma2_hat == pytest.approx(np.var(oracle["traces"], ddof=1), rel=TOL)


def check_against_per_replica_oracles(n, poly, spec, seed, rows, m):
    """Every kernel output of replicas 0..m-1, in blocks of `rows`, against
    the per-replica oracles, and the dense oracle on both sides of the first
    block boundary and at the last replica."""
    # the oracles read the same patched block layout
    with mock.patch.object(ensembles, "BLOCK_VALUES", rows * n):
        assert block_rows(n) == rows
        config = ExperimentConfig(n=n, m=m, poly=poly, ensemble=spec, master_seed=seed)
        traces = run_clt_experiment(config).raw_traces
        grads = harness._replica_blocks(
            config, lambda lam, poly, bufs: gradient_block(lam, poly, bufs).T, width=n)
        # kappa2's max_t relies on the half spectrum holding every modulus
        norms = harness._replica_blocks(config, lambda lam, poly, bufs: spectral_norm(lam))[0]
        lams = [build_sample(spec, n, seed, r) for r in range(m)]
        for r, lam in enumerate(lams):
            scale = trace_scale(lam, poly)
            assert close(traces[r], trace_polynomial(lam, poly), scale)
            grad = gradient_trace_polynomial(lam, poly)
            assert np.all(np.abs(grads[:, r] - grad) <= gradient_error(lam, poly))
            assert close(norms[r], spectral_norm(lam), 1.0 + norms[r])
            if r in (0, rows - 1, rows, m - 1):  # both sides of the block boundary
                raw = sample_sequence(spec, n, seed, r)
                assert close(traces[r], dense_trace_polynomial(raw, poly), scale)
        if spec.is_smooth:  # only estimate_kappas reads the Hessian norm
            check_kappa_columns(config, lams, hessian_norm)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 40),
    poly=polynomials,
    family=st.integers(0, 2),
    extra=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
def test_block_kernel_matches_per_replica_oracles(n, poly, family, extra, seed):
    # blocks of 256 rows keep the per-replica loop short; the second block
    # is a short one
    check_against_per_replica_oracles(n, poly, FAMILIES[family], seed, 256, 256 + extra)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 48),
    poly=polynomials,
    family=st.integers(0, 2),
    rows=st.integers(1, 4),
    extra=st.integers(1, 3),
    seed=st.integers(0, 2**64 - 1),
)
@example(n=20, poly=POLY_X2_X3, family=0, rows=3, extra=1, seed=1)  # odd n2 = 5, n1 = 4
@example(n=36, poly=POLY_X2_X3, family=1, rows=2, extra=1, seed=2)  # n2 = n1 = 6
@example(n=45, poly=POLY_X2_X3, family=2, rows=3, extra=2, seed=3)  # odd n2 = 9, n1 = 5
@example(n=31, poly=POLY_X2_X3, family=0, rows=2, extra=1, seed=4)  # prime: n1 = 1
def test_split_kernel_matches_per_replica_oracles(n, poly, family, rows, extra, seed):
    # the split half spectrum forced down to every n the oracles can run,
    # in ragged multi-row blocks: m = 2 * rows + extra replicas
    with mock.patch.object(circulant, "SPLIT_MIN_N", 2):
        check_against_per_replica_oracles(n, poly, FAMILIES[family], seed, rows,
                                          2 * rows + extra)


@pytest.mark.parametrize("n, split", [(2**15, (256, 128)), (98304, (384, 256)),
                                      (32771, (32771, 1))])
def test_kernel_matches_oracles_at_split_sizes(n, split):
    # from SPLIT_MIN_N on, blocks of one replica: n2 = 384 is not a power of
    # two, and the prime 32771 keeps one rfft
    spec, poly, seed, m = EnsembleSpec("gaussian"), TestPolynomial((1.0, 0.5, -0.25)), 23, 2
    bufs = BlockBuffers(1, four_step(n))
    assert (bufs.n2, bufs.n1) == split and block_rows(n) == 1
    config = ExperimentConfig(n=n, m=m, poly=poly, ensemble=spec, master_seed=seed,
                              worker_count=2)
    traces = run_clt_experiment(config).raw_traces
    grads = harness._replica_blocks(
        config, lambda lam, poly, bufs: gradient_block(lam, poly, bufs).T, width=n)
    norms = harness._replica_blocks(config, lambda lam, poly, bufs: spectral_norm(lam))[0]
    lams = [build_sample(spec, n, seed, r) for r in range(m)]
    for r, lam in enumerate(lams):
        assert close(traces[r], trace_polynomial(lam, poly), trace_scale(lam, poly))
        assert close(norms[r], spectral_norm(lam), 1.0 + norms[r])
        grad = gradient_trace_polynomial(lam, poly)
        assert np.all(np.abs(grads[:, r] - grad) <= gradient_error(lam, poly))
    # the exact Hessian norm (Criterion 09), over the full spectrum
    check_kappa_columns(config, lams, lambda lam, poly: np.max(
        np.abs(poly.second_derivative_values(lam))))


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
@pytest.mark.parametrize("n", [150, 700])
def test_replicas_on_both_sides_of_a_block_boundary(spec, n):
    # BLOCK_VALUES // n is not a power of two: blocks of 218 (n=150) and
    # 46 (n=700) rows, the third one short
    rows = block_rows(n)
    m = 2 * rows + 3
    config = ExperimentConfig(n=n, m=m, poly=POLY_X2_X3, ensemble=spec,
                              master_seed=17, worker_count=2)
    traces = run_clt_experiment(config).raw_traces
    for r in (rows - 1, rows, 2 * rows - 1, m - 1):
        lam = build_sample(spec, n, 17, r)
        scale = 1.0 + float(np.sum(np.abs(POLY_X2_X3.evaluate(lam))))
        assert close(traces[r], trace_polynomial(lam, POLY_X2_X3), scale)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    p=st.integers(2, 4),
    family=st.integers(0, 2),
    seed=st.integers(0, 2**64 - 1),
    split=st.booleans(),
)
def test_block_kernel_matches_direct_enumeration(n, p, family, seed, split):
    # Tr(C^p) by the defining index sum, with no FFT, against one block row,
    # on the one-rfft or, forced down to small n, the split half spectrum
    raw = sample_sequence(FAMILIES[family], n, seed, 0)
    power = TestPolynomial((0.0,) * (p - 2) + (1.0,))
    with mock.patch.object(circulant, "SPLIT_MIN_N", 2 if split else circulant.SPLIT_MIN_N):
        bufs = BlockBuffers(1, four_step(n))
    block = trace_block(half_spectrum(raw[None], bufs), power, bufs)[0]
    direct = trace_power_direct(raw, p)
    assert abs(block - direct) <= 1e-10 * max(1.0, abs(block), abs(direct))


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
@pytest.mark.parametrize("n, split, rows", [
    (2, (2, 1), 1), (3, (3, 1), 1), (64, (64, 1), 1), (65, (65, 1), 1),
    (2, (2, 1), 5), (64, (64, 1), 4), (65, (65, 1), 3),
    (36, (6, 6), 1), (36, (6, 6), 3),  # even n2: row n2/2 weighs 1
    (45, (9, 5), 1), (45, (9, 5), 2),  # odd n2
    (2**15, (256, 128), 1),  # SPLIT_MIN_N itself: 16512 bins
])
def test_trace_block_is_the_weighted_sum_bit_for_bit(spec, n, split, rows):
    # trace_block halves the weight-1 bins and doubles the plain sum; as
    # scaling by 2 is exact, that is the sum of the weighted real parts
    # bit for bit, with weight 1 on rows 0 and n2/2 (n2 even), 2 elsewhere
    poly = TestPolynomial((0.5, -1.0, 0.75))
    forced = split[1] > 1 and n < circulant.SPLIT_MIN_N
    with mock.patch.object(circulant, "SPLIT_MIN_N", 2 if forced else circulant.SPLIT_MIN_N):
        bufs = BlockBuffers(rows, four_step(n))
    assert (bufs.n2, bufs.n1) == split
    raw = np.stack([sample_sequence(spec, n, 29, r) for r in range(rows)])
    lam = half_spectrum(raw, bufs)
    w = np.full((bufs.n2 // 2 + 1, bufs.n1), 2.0)
    w[[0, bufs.n2 // 2] if bufs.n2 % 2 == 0 else [0]] = 1.0
    expected = np.multiply(poly.evaluate(lam).real, w.ravel()).sum(axis=1)
    assert trace_block(lam, poly, bufs).tobytes() == expected.tobytes()


def test_block_rows_bound_the_values_per_block():
    for n in (2, 3, 31, 32, 33, 64, 150, 1000, 4096, 8191):
        assert 1 <= block_rows(n) * n <= ensembles.BLOCK_VALUES
    for n in (2, 32, 64, 4096):  # powers of two fill a block exactly
        assert block_rows(n) * n == ensembles.BLOCK_VALUES
    for n in (ensembles.BLOCK_VALUES, ensembles.BLOCK_VALUES + 1, 2**17):
        assert block_rows(n) == 1
    # the benchmark sizes keep their blocks of 512, 8 and 1 rows
    assert [block_rows(n) for n in (64, 4096, 2**17)] == [512, 8, 1]


def traced_peak(kernel, config, threads) -> int:
    """Peak bytes allocated while kernel(config) runs, as tracemalloc sees
    them, over three traced runs: the least at one thread, the largest at
    more.

    Before each, gc.collect() frees what earlier tests left, and one
    untraced run pays numpy's one-time FFT and setup allocations and refills
    the interpreter's free lists, which a full collection empties: objects
    parked there count as allocated, so the peak does not depend on which
    tests ran before.  The least of the peaks leaves out a run pushed up by
    a full collection during it, which empties the free lists again.  With
    more threads the largest is a run where every worker held its arrays at
    once: on a busy machine a worker can start after another has taken
    every block, and that run reads one worker's arrays.
    """
    peaks = []
    for _ in range(3):
        gc.collect()
        kernel(config)
        tracemalloc.start()
        try:
            kernel(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks) if threads == 1 else max(peaks)


@pytest.mark.parametrize("workers", [1, 2])
def test_peak_memory_per_worker_independent_of_m(workers):
    # at n = 2**15 a block is one replica, split 256 x 128.  A worker holds
    # its half spectra and one scratch array (0.5 * n * 16 bytes each),
    # which holds the inputs and then Horner's values; the run holds one
    # twiddle table (0.5) for every worker.  The kappas write the Hessian
    # moduli into the scratch and the gradient over the spent spectra.
    # Measured at one worker: 1.62 (traces) and 1.54 (kappas) times
    # n * 16 bytes; at two, 2.64-2.72 and 2.56-2.57, as the threads
    # interleave.  The bound allows 0.6 per worker and 0.6 for the table
    # and the draw's temporaries, well above that spread (the layout with
    # four arrays per worker read 2.12 at one)
    n = 2**15
    threads = min(workers, harness.available_cpus())
    peaks = {}

    for kernel, family in ((run_clt_experiment, "rademacher"),
                           (estimate_kappas, "uniform_symmetric")):
        def peak(m):
            return traced_peak(kernel, ExperimentConfig(
                n=n, m=m, poly=TestPolynomial((1.0, 1.0, 0.0, 0.5)),
                ensemble=EnsembleSpec(family), master_seed=3, worker_count=workers),
                threads)

        small, large = peaks[kernel] = peak(16), peak(64)
        assert small <= (1.2 * threads + 0.6) * n * 16
        assert large <= (1.2 * threads + 0.6) * n * 16
        if threads == 1:  # only per-replica outputs grow: measured 384 and 1296 bytes
            assert abs(large - small) <= 64 * 8 * 4
    # the gradient takes no array of its own: beyond their (4, m) outputs
    # the kappas hold no more than the traces
    for m, kappas, traces in zip((16, 64), peaks[estimate_kappas],
                                 peaks[run_clt_experiment]):
        assert kappas <= traces + 4 * m * 8


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kernel", [run_clt_experiment, estimate_kappas],
                         ids=lambda f: f.__name__)
def test_peak_memory_of_multi_row_blocks_independent_of_m(kernel, workers):
    # at n = 4096 a block holds 8 replicas and there is no twiddle table; a
    # worker holds one block's half spectra and one scratch array, and the
    # kappas write the gradient over the spent spectra: measured at 1.03-1.04
    # (traces) and 1.03-1.07 (kappas) times BLOCK_VALUES * 16 bytes per worker,
    # bounded at 1.2 (the layout with three arrays per worker read 1.53)
    n = 4096
    assert block_rows(n) == 8
    threads = min(workers, harness.available_cpus())

    def peak(m):
        return traced_peak(kernel, ExperimentConfig(
            n=n, m=m, poly=POLY_X2_X3, ensemble=EnsembleSpec("uniform_symmetric"),
            master_seed=3, worker_count=workers), threads)

    small, large = peak(64), peak(640)
    assert small <= 1.2 * ensembles.BLOCK_VALUES * 16 * threads
    assert large <= 1.2 * ensembles.BLOCK_VALUES * 16 * threads
    if threads == 1:  # only per-replica outputs grow, at most 8 floats each
        assert abs(large - small) <= (640 - 64) * 8 * 8


def test_workers_of_a_run_share_one_twiddle_table(monkeypatch):
    # the split and its table are made once per run, before the workers
    # start: two workers, each with its own buffers, read one table
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    config = ExperimentConfig(n=2**15, m=2, poly=POLY_X2_X3, ensemble=FAMILIES[0],
                              master_seed=5, worker_count=2)
    both_running, seen = threading.Barrier(2, timeout=10), []

    def record(lam, poly, bufs):
        both_running.wait()  # each worker holds its block until the other has one
        seen.append(bufs)
        return trace_block(lam, poly, bufs)

    harness._replica_blocks(config, record)
    first, second = seen
    assert first is not second
    assert first.twiddles is not None and first.twiddles is second.twiddles
