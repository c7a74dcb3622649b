"""Block replica kernel tests: agreement with the per-replica, dense and
direct-enumeration oracles across block boundaries, on both the one-rfft
and the split (four-step) half spectrum, and the memory held per block.
The oracle comparisons are what catch a wrong Hermitian weight, twiddle or
spectrum convention in the half-spectrum reduction."""

import math
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
    gradient_block,
    half_spectrum,
    trace_block,
)
from circulant_clt import ensembles
from circulant_clt.ensembles import block_rows
from oracles import (
    build_sample,
    gradient_trace_polynomial,
    hessian_norm,
    sample_sequence,
    trace_polynomial,
    trace_power_direct,
)
from test_circulant import dense_trace_polynomial

FAMILIES = tuple(EnsembleSpec(f) for f in ("gaussian", "rademacher", "uniform_symmetric"))
POLY_X2_X3 = TestPolynomial((1.0, 1.0))
TOL = 1e-12


def close(fast, slow, scale) -> bool:
    """|fast - slow| within TOL relative to the magnitude the value is a sum of."""
    return abs(fast - slow) <= TOL * scale


polynomials = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=4
).filter(lambda c: abs(c[-1]) > 0.1).map(lambda c: TestPolynomial(tuple(c)))


def max_modulus(lam, bufs):
    """max_t |lambda_t| of each row of half spectra: kappa2's max_t relies on
    the half spectrum holding every modulus."""
    return np.abs(lam).max(axis=-1)


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
            config, lambda lam, bufs: gradient_block(lam, n, poly, bufs).T, width=n)
        norms = harness._replica_blocks(config, max_modulus)[0]
        quartic, squared, hess4, oracle_traces = [], [], [], []
        for r in range(m):
            lam = build_sample(spec, n, seed, r)
            scale = 1.0 + float(np.sum(np.abs(poly.evaluate(lam))))
            oracle = trace_polynomial(lam, poly)
            assert close(traces[r], oracle, scale)
            grad = gradient_trace_polynomial(lam, poly)
            grad_scale = 1.0 + math.sqrt(n) * float(np.max(np.abs(poly.derivative_values(lam))))
            assert np.all(np.abs(grads[:, r] - grad) <= TOL * grad_scale)
            assert close(norms[r], np.max(np.abs(lam)), 1.0 + norms[r])
            if r in (0, rows - 1, rows, m - 1):  # both sides of the block boundary
                raw = sample_sequence(spec, n, seed, r)
                assert close(traces[r], dense_trace_polynomial(raw, poly), scale)
            sq = grad * grad
            quartic.append(np.sum(sq * sq))
            squared.append(np.sum(sq) ** 2)
            if spec.is_smooth:  # only estimate_kappas reads the Hessian norm
                hess4.append(hessian_norm(lam, poly) ** 4)
            oracle_traces.append(oracle)
        if spec.is_smooth:
            est = estimate_kappas(config)
            assert est.kappa0_hat == pytest.approx(math.sqrt(np.mean(quartic)), rel=TOL)
            assert est.kappa1_hat == pytest.approx(np.mean(squared) ** 0.25, rel=TOL)
            assert est.kappa2_hat == pytest.approx(np.mean(hess4) ** 0.25, rel=TOL)
            assert est.sigma2_hat == pytest.approx(np.var(oracle_traces, ddof=1), rel=TOL)


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
    bufs = BlockBuffers(1, n)
    assert (bufs.n2, bufs.n1) == split and block_rows(n) == 1
    config = ExperimentConfig(n=n, m=m, poly=poly, ensemble=spec, master_seed=seed,
                              worker_count=2)
    traces = run_clt_experiment(config).raw_traces
    est = estimate_kappas(config)
    grads = harness._replica_blocks(
        config, lambda lam, bufs: gradient_block(lam, n, poly, bufs).T, width=n)
    norms = harness._replica_blocks(config, max_modulus)[0]
    quartic, squared, hess4 = [], [], []
    for r in range(m):
        lam = build_sample(spec, n, seed, r)
        scale = 1.0 + float(np.sum(np.abs(poly.evaluate(lam))))
        assert close(traces[r], trace_polynomial(lam, poly), scale)
        assert close(norms[r], np.max(np.abs(lam)), 1.0 + norms[r])
        grad = gradient_trace_polynomial(lam, poly)
        grad_scale = 1.0 + math.sqrt(n) * float(np.max(np.abs(poly.derivative_values(lam))))
        assert np.all(np.abs(grads[:, r] - grad) <= TOL * grad_scale)
        sq = grad * grad
        quartic.append(np.sum(sq * sq))
        squared.append(np.sum(sq) ** 2)
        # the exact Hessian norm (Criterion 09), over the full spectrum
        hess4.append(np.max(np.abs(poly.second_derivative_values(lam))) ** 4)
    assert est.kappa0_hat == pytest.approx(math.sqrt(np.mean(quartic)), rel=TOL)
    assert est.kappa1_hat == pytest.approx(np.mean(squared) ** 0.25, rel=TOL)
    assert est.kappa2_hat == pytest.approx(np.mean(hess4) ** 0.25, rel=TOL)
    assert est.sigma2_hat == pytest.approx(np.var(traces, ddof=1), rel=TOL)


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
        bufs = BlockBuffers(1, n)
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
        bufs = BlockBuffers(rows, n)
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


def traced_peak(kernel, config) -> int:
    """Peak bytes allocated while kernel(config) runs, as tracemalloc sees them.

    One untraced run first pays numpy's one-time FFT and setup allocations,
    so the peak does not depend on which tests ran before.
    """
    kernel(config)
    tracemalloc.start()
    try:
        kernel(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_peak_memory_per_worker_independent_of_m(workers):
    # at n = 2**15 a block is one replica, split 256 x 128.  A worker holds
    # its inputs, half spectra, Horner scratch and twiddle factors (47 KB),
    # about 1.6 * n * 16 bytes, plus, for the kappas, the gradient
    # (0.5 * n * 16), which also takes the Hessian moduli, and the conjugate
    # twiddles (47 KB).  Each broadcast twiddle multiply also has numpy's
    # ufunc machinery allocate an iteration buffer of up to np.getbufsize()
    # = 8192 values (114 KB here), freed when it returns.  Measured: 1.84
    # (traces) and 2.43 (kappas) times n * 16 bytes
    n = 2**15
    threads = min(workers, harness.available_cpus())

    for kernel, family in ((run_clt_experiment, "rademacher"),
                           (estimate_kappas, "uniform_symmetric")):
        def peak(m):
            return traced_peak(kernel, ExperimentConfig(
                n=n, m=m, poly=TestPolynomial((1.0, 1.0, 0.0, 0.5)),
                ensemble=EnsembleSpec(family), master_seed=3, worker_count=workers))

        small, large = peak(16), peak(64)
        assert small <= 3 * n * 16 * threads
        assert large <= 3 * n * 16 * threads
        if threads == 1:
            assert abs(large - small) <= 64 * 8 * 4  # only per-replica outputs grow


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kernel", [run_clt_experiment, estimate_kappas],
                         ids=lambda f: f.__name__)
def test_peak_memory_of_multi_row_blocks_independent_of_m(kernel, workers):
    # at n = 4096 a block holds 8 replicas; a worker holds one block's
    # inputs, half spectra and Horner or gradient temporaries, measured at
    # about 1.53 (traces) and 2.03-2.07 (kappas) times BLOCK_VALUES * 16 bytes
    n = 4096
    assert block_rows(n) == 8
    threads = min(workers, harness.available_cpus())

    def peak(m):
        return traced_peak(kernel, ExperimentConfig(
            n=n, m=m, poly=POLY_X2_X3, ensemble=EnsembleSpec("uniform_symmetric"),
            master_seed=3, worker_count=workers))

    small, large = peak(64), peak(640)
    assert small <= 3 * ensembles.BLOCK_VALUES * 16 * threads
    assert large <= 3 * ensembles.BLOCK_VALUES * 16 * threads
    if threads == 1:  # only per-replica outputs grow, at most 8 floats each
        assert abs(large - small) <= (640 - 64) * 8 * 8
