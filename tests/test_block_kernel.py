"""Block replica kernel tests: agreement with the per-replica, dense and
direct-enumeration oracles across block boundaries, the imaginary-residual
check on the self-conjugate bins, and the memory held per block."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_clt import (
    ExperimentConfig,
    ImaginaryResidualError,
    TestPolynomial,
    estimate_kappas,
    gaussian,
    rademacher,
    run_clt_experiment,
    uniform_symmetric,
)
from circulant_clt import harness
from circulant_clt.circulant import (
    BlockBuffers,
    gradient_block,
    half_spectrum,
    trace_block,
)
from circulant_clt.ensembles import RandomStream
from oracles import (
    build_sample,
    gradient_trace_polynomial,
    hessian_norm_bound,
    sample_sequence,
    trace_polynomial,
    trace_power_direct,
)
from test_circulant import dense_trace_polynomial

FAMILIES = (gaussian(), rademacher(), uniform_symmetric())
POLY_X2_X3 = TestPolynomial((1.0, 1.0))
TOL = 1e-12


def close(fast, slow, scale) -> bool:
    """|fast - slow| within TOL relative to the magnitude the value is a sum of."""
    return abs(fast - slow) <= TOL * scale


polynomials = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=4
).filter(lambda c: abs(c[-1]) > 0.1).map(lambda c: TestPolynomial(tuple(c)))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 40),
    poly=polynomials,
    family=st.integers(0, 2),
    extra=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
def test_block_kernel_matches_per_replica_oracles(n, poly, family, extra, seed):
    spec = FAMILIES[family]
    rows = harness.block_rows(n)
    m = rows + extra  # the second block is a short one
    config = ExperimentConfig(n=n, m=m, poly=poly, ensemble=spec, master_seed=seed)
    traces = run_clt_experiment(config).raw_traces
    grads = harness._replica_blocks(
        spec, n, seed, range(m), 1,
        lambda lam, bufs: gradient_block(lam, n, poly, bufs).T, width=n,
    )
    quartic, squared, hess4, oracle_traces = [], [], [], []
    for r in range(m):
        lam = build_sample(spec, n, RandomStream(seed, r))
        scale = 1.0 + float(np.sum(np.abs(poly.evaluate(lam))))
        oracle = trace_polynomial(lam, poly)
        assert close(traces[r], oracle, scale)
        grad = gradient_trace_polynomial(lam, poly)
        grad_scale = 1.0 + math.sqrt(n) * float(np.max(np.abs(poly.derivative_values(lam))))
        assert np.all(np.abs(grads[:, r] - grad) <= TOL * grad_scale)
        if r in (0, rows - 1, rows, m - 1):  # both sides of the block boundary
            raw = sample_sequence(spec, n, RandomStream(seed, r))
            assert close(traces[r], dense_trace_polynomial(raw, poly), scale)
        sq = grad * grad
        quartic.append(np.sum(sq * sq))
        squared.append(np.sum(sq) ** 2)
        hess4.append(hessian_norm_bound(lam, poly) ** 4)
        oracle_traces.append(oracle)
    if spec.is_smooth:
        est = estimate_kappas(config)
        assert est.kappa0_hat == pytest.approx(math.sqrt(np.mean(quartic)), rel=TOL)
        assert est.kappa1_hat == pytest.approx(np.mean(squared) ** 0.25, rel=TOL)
        assert est.kappa2_hat == pytest.approx(np.mean(hess4) ** 0.25, rel=TOL)
        assert est.sigma2_hat == pytest.approx(np.var(oracle_traces, ddof=1), rel=TOL)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    p=st.integers(2, 4),
    family=st.integers(0, 2),
    seed=st.integers(0, 2**64 - 1),
)
def test_block_kernel_matches_direct_enumeration(n, p, family, seed):
    # Tr(C^p) by the defining index sum, with no FFT, against one block row
    raw = sample_sequence(FAMILIES[family], n, RandomStream(seed, 0))
    power = TestPolynomial((0.0,) * (p - 2) + (1.0,))
    block = trace_block(half_spectrum(raw[None]), n, power, BlockBuffers(1, n))[0]
    direct = trace_power_direct(raw, p)
    assert abs(block - direct) <= 1e-10 * max(1.0, abs(block), abs(direct))


def inject_imaginary(monkeypatch, bin_of_n):
    """Add imaginary content to one half-spectrum bin of every block."""
    half_spectrum = harness.half_spectrum

    def corrupted(raw, out=None):
        lam = half_spectrum(raw, out=out)
        lam[:, bin_of_n(raw.shape[-1])] += 1e-3j
        return lam

    monkeypatch.setattr(harness, "half_spectrum", corrupted)


@pytest.mark.parametrize("bin_of_n", [lambda n: 0, lambda n: n // 2],
                         ids=["t=0", "t=n/2"])
def test_imaginary_residual_at_self_conjugate_bins(bin_of_n, monkeypatch):
    config = ExperimentConfig(n=64, m=40, poly=POLY_X2_X3, ensemble=gaussian(),
                              master_seed=5)
    run_clt_experiment(config)
    estimate_kappas(config)
    inject_imaginary(monkeypatch, bin_of_n)
    with pytest.raises(ImaginaryResidualError, match="Tr P"):
        run_clt_experiment(config)
    with pytest.raises(ImaginaryResidualError):
        estimate_kappas(config)


def test_gradient_residual_at_self_conjugate_bins():
    lam = np.fft.rfft(np.ones((2, 8)), axis=1)
    bufs = BlockBuffers(2, 8)
    gradient_block(lam, 8, POLY_X2_X3, bufs)
    for t in (0, 4):
        corrupted = lam.copy()
        corrupted[:, t] += 1e-3j
        with pytest.raises(ImaginaryResidualError, match="derivative"):
            gradient_block(corrupted, 8, POLY_X2_X3, bufs)


def test_block_rows_bound_the_values_per_block():
    for n in (2, 3, 31, 32, 33, 64, 1000, 4096, 8191):
        assert 1 <= harness.block_rows(n) * n <= harness.BLOCK_VALUES
    assert harness.block_rows(2) == harness.MAX_BLOCK_ROWS
    for n in (harness.BLOCK_VALUES, harness.BLOCK_VALUES + 1, 2**17):
        assert harness.block_rows(n) == 1


def traced_peak(kernel, config) -> int:
    """Peak bytes allocated while kernel(config) runs, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        kernel(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_peak_memory_per_worker_independent_of_m(workers):
    # a worker holds one block's inputs, half spectra and Horner temporaries:
    # about 2 * n * 16 bytes at n = 2**15, where a block is one replica
    n = 2**15
    threads = min(workers, os.cpu_count() or 1)

    def peak(m):
        return traced_peak(run_clt_experiment, ExperimentConfig(
            n=n, m=m, poly=TestPolynomial((1.0, 1.0, 0.0, 0.5)), ensemble=rademacher(),
            master_seed=3, worker_count=workers))

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
    # about 1.9 (traces) and 2.5 (kappas) times BLOCK_VALUES * 16 bytes
    n = 4096
    assert harness.block_rows(n) == 8
    threads = min(workers, os.cpu_count() or 1)

    def peak(m):
        return traced_peak(kernel, ExperimentConfig(
            n=n, m=m, poly=POLY_X2_X3, ensemble=uniform_symmetric(), master_seed=3,
            worker_count=workers))

    small, large = peak(64), peak(640)
    assert small <= 3 * harness.BLOCK_VALUES * 16 * threads
    assert large <= 3 * harness.BLOCK_VALUES * 16 * threads
    if threads == 1:  # only per-replica outputs grow, at most 8 floats each
        assert abs(large - small) <= (640 - 64) * 8 * 8
