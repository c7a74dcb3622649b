"""Monte Carlo experiments for the circulant-trace central limit theorem.

The primary experiment draws m independent circulant realizations of size
n, computes the trace statistic T_r = Tr P(C_n) per replica, and studies

    W_r = (T_r - mean(T)) / sqrt(n),

whose law converges to N(0, sigma2) with sigma2 the exact limiting
variance from :mod:`.combinatorics`.  Centering uses the across-replica
sample mean; the induced variance bias is O(1/m).

Alongside the distributional diagnostics (variance, standardized moments,
Kolmogorov-Smirnov distance), the harness assembles the second-order
Poincare / Stein total-variation bound

    d_TV <= 2*sqrt(5) * (c1*c2*kappa0 + c1^3*kappa1*kappa2) / sigma2_hat

from Monte Carlo estimates of the gradient functionals kappa0, kappa1,
the Hessian majorant surrogate for kappa2, and the empirical variance, all
of the one function g(X) = Tr P(C(X)).  The bound requires a smooth
symmetric ensemble.

Replicas run in fixed blocks of consecutive indices, BLOCK_VALUES input
values per block (at least one and at most MAX_BLOCK_ROWS replicas),
whatever the worker count.  A block is drawn row by row, each replica
from the substream named by (master_seed, replica_index); one rfft gives
the block's half spectra, and the statistics are reduced from those.
Each worker allocates its block arrays once (circulant.BlockBuffers) and
every block it runs writes into them.  worker_count is an upper bound:
blocks run on threads only from n = THREAD_MIN_N, below which the
per-row draws hold the GIL and a second thread adds CPU without speed.
Each block writes into its own slots and reductions run in fixed replica
order, so results are bit-identical for any worker_count, BLOCK_VALUES
or THREAD_MIN_N.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circulant import (
    BlockBuffers,
    TestPolynomial,
    gradient_block,
    half_spectrum,
    spectral_norm,
    trace_block,
)
from .combinatorics import limiting_variance
from .ensembles import EnsembleSpec, RandomStream, draw_rows
from .errors import SmoothnessRequiredError

MAX_MOMENT_ORDER = 8
LOW_CONFIDENCE_REPLICAS = 30
# Both layout constants come from a measured sweep of block size, n and
# worker count (see CHANGES.md).  Input values per replica block: with the
# block's spectra and temporaries a worker's arrays peak near 1.3 MB.
BLOCK_VALUES = 2**15
MAX_BLOCK_ROWS = 256
# Smallest n at which a second thread shortened a run.
THREAD_MIN_N = 512


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one reproducible Monte Carlo run."""

    n: int
    m: int
    poly: TestPolynomial
    ensemble: EnsembleSpec
    master_seed: int
    worker_count: int = 1

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.m < 2:
            raise ValueError("need at least 2 replicas")
        if self.worker_count < 1:
            raise ValueError("worker_count must be positive")
        RandomStream(self.master_seed)  # refuses a seed outside [0, 2**64)


@dataclass(frozen=True, eq=False)
class ExperimentSummary:
    """Replica statistics of one experiment."""

    n: int
    m: int
    w_values: np.ndarray
    raw_traces: np.ndarray
    raw_trace_mean: float
    variance_w: float
    standardized_moments: tuple[float, ...]  # orders 1..8
    ks_distance: float
    target_variance: float
    low_confidence: bool
    wall_time_s: float

    def __post_init__(self) -> None:
        if self.variance_w < 0:
            raise ValueError("empirical variance cannot be negative")
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError("KS distance must lie in [0, 1]")


@dataclass(frozen=True)
class SteinEstimate:
    """Components and value of the Stein-method total-variation bound."""

    kappa0_hat: float
    kappa1_hat: float
    kappa2_hat: float
    sigma2_hat: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        if min(self.kappa0_hat, self.kappa1_hat, self.kappa2_hat) < 0:
            raise ValueError("kappa estimates must be nonnegative")
        if self.sigma2_hat <= 0:
            raise ValueError("sigma2_hat must be positive")

    @property
    def tv_bound(self) -> float:
        """2*sqrt(5) * (c1*c2*kappa0 + c1^3*kappa1*kappa2) / sigma2."""
        return 2.0 * math.sqrt(5.0) * (
            self.c1 * self.c2 * self.kappa0_hat
            + self.c1**3 * self.kappa1_hat * self.kappa2_hat
        ) / self.sigma2_hat


def block_rows(n: int) -> int:
    """Replicas per block: BLOCK_VALUES // n, clamped to [1, MAX_BLOCK_ROWS]."""
    return min(max(BLOCK_VALUES // n, 1), MAX_BLOCK_ROWS)


def _replica_blocks(
    spec: EnsembleSpec,
    n: int,
    master_seed: int,
    replicas: range,
    worker_count: int,
    fn: Callable[[np.ndarray, BlockBuffers], np.ndarray],
    width: int = 1,
) -> np.ndarray:
    """Evaluate fn on the half spectra of every block of replicas.

    fn maps a (rows, n//2 + 1) block of half spectra and the worker's
    BlockBuffers, which hold that block, to a (width, rows) array; column
    r - replicas.start of the (width, len(replicas)) result holds replica
    r.  Blocks start every block_rows(n) replicas from replicas.start.
    From n = THREAD_MIN_N the thread count is worker_count capped by the
    block count and the available CPUs; below it the blocks run inline.
    """
    rows = block_rows(n)
    starts = range(replicas.start, replicas.stop, rows)
    out = np.empty((width, len(replicas)))

    def run_blocks(mine: range) -> None:
        bufs = BlockBuffers(min(rows, len(replicas)), n)
        for lo in mine:
            k = min(lo + rows, replicas.stop) - lo
            block = draw_rows(spec, RandomStream(master_seed, lo), bufs.raw[:k])
            lam = half_spectrum(block, out=bufs.lam[:k])
            out[:, lo - replicas.start : lo - replicas.start + k] = fn(lam, bufs)

    workers = 1
    if n >= THREAD_MIN_N:
        workers = min(worker_count, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        run_blocks(starts)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_blocks, [starts[w::workers] for w in range(workers)]))
    return out


def standardized_moments(samples) -> np.ndarray:
    """Central sample moments of orders 1..MAX_MOMENT_ORDER, each scaled by
    sigma^order (population sigma); all zero for constant samples."""
    xs = np.asarray(samples, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("need at least one sample")
    centered = xs - xs.mean()
    orders = range(1, MAX_MOMENT_ORDER + 1)
    central = [float(np.mean(centered**k)) for k in orders]
    sigma = math.sqrt(central[1])
    # a constant sample's rounded mean can miss its value, leaving sigma > 0
    if sigma == 0.0 or xs.min() == xs.max():
        return np.zeros(MAX_MOMENT_ORDER)
    return np.array([central[k - 1] / sigma**k for k in orders])


def ks_distance(samples, variance: float) -> float:
    """One-sample Kolmogorov-Smirnov distance to N(0, variance).

    sup_x |F_m(x) - Phi(x / sigma)| via the order-statistic formula, with
    Phi(z) = erfc(-z / sqrt(2)) / 2 at each of the m points.
    """
    xs = np.asarray(samples, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("need at least one sample")
    if not variance > 0:
        raise ValueError("variance must be positive")
    z = np.sort(xs) / math.sqrt(variance)
    m = xs.size
    cdf = np.fromiter(map(math.erfc, (-z / math.sqrt(2.0)).tolist()), float, m)
    cdf *= 0.5
    grid = np.arange(1, m + 1, dtype=np.float64)
    d_plus = float(np.max(grid / m - cdf))
    d_minus = float(np.max(cdf - (grid - 1) / m))
    return max(d_plus, d_minus, 0.0)


def run_clt_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run the replica experiment and summarize the normalized statistic W."""
    t0 = time.perf_counter()
    traces = _replica_blocks(
        config.ensemble, config.n, config.master_seed, range(config.m),
        config.worker_count,
        lambda lam, bufs: trace_block(lam, config.n, config.poly, bufs),
    )[0]
    t_bar = float(traces.mean())
    w = (traces - t_bar) / math.sqrt(config.n)
    target = float(limiting_variance(config.poly))
    summary = ExperimentSummary(
        n=config.n,
        m=config.m,
        w_values=w,
        raw_traces=traces,
        raw_trace_mean=t_bar,
        variance_w=float(w.var(ddof=1)),
        standardized_moments=tuple(float(v) for v in standardized_moments(w)),
        ks_distance=ks_distance(w, target),
        target_variance=target,
        low_confidence=config.m < LOW_CONFIDENCE_REPLICAS,
        wall_time_s=time.perf_counter() - t0,
    )
    return summary


def _require_smooth_symmetric(spec: EnsembleSpec) -> tuple[float, float]:
    if not spec.is_smooth:
        raise SmoothnessRequiredError(
            f"the total-variation bound requires a symmetric smooth ensemble "
            f"(a law u(Z) of a standard normal with |u'| <= c1, |u''| <= c2); "
            f"{spec.family!r} does not qualify"
        )
    return float(spec.c1), float(spec.c2)


def estimate_kappas(config: ExperimentConfig) -> SteinEstimate:
    """Monte Carlo estimates of the gradient/Hessian functionals.

    kappa0 = (E sum_k |dg/dX_k|^4)^(1/2) and kappa1 = (E ||grad g||^4)^(1/4)
    use the exact analytic gradient of g = Tr P(C).  kappa2 =
    (E ||Hess g||^4)^(1/4) uses the conservative majorant m2(||C||) instead
    of materializing any Hessian: the map from X to the matrix entries is
    an isometry and the entrywise Hessian of Tr P is bounded by m2 of the
    operator norm, so m2(||C||) bounds the operator norm of the Hessian of
    g itself.  sigma2_hat is the empirical variance of g, so all four
    describe the same function.
    """
    c1, c2 = _require_smooth_symmetric(config.ensemble)
    n, poly = config.n, config.poly

    def per_block(lam: np.ndarray, bufs: BlockBuffers) -> tuple[np.ndarray, ...]:
        sq = gradient_block(lam, n, poly, bufs)
        np.square(sq, out=sq)
        squared = sq.sum(axis=1) ** 2
        quartic = np.square(sq, out=sq).sum(axis=1)
        norms = spectral_norm(lam, out=bufs.real[: len(lam)])
        hess = poly.second_derivative_majorant(norms)
        return (
            quartic,
            squared,
            np.broadcast_to(hess**4, len(lam)),
            trace_block(lam, n, poly, bufs),
        )

    quartic, squared, hess4, traces = _replica_blocks(
        config.ensemble, n, config.master_seed, range(config.m),
        config.worker_count, per_block, width=4,
    )
    return SteinEstimate(
        kappa0_hat=math.sqrt(float(quartic.mean())),
        kappa1_hat=float(squared.mean()) ** 0.25,
        kappa2_hat=float(hess4.mean()) ** 0.25,
        sigma2_hat=float(traces.var(ddof=1)),
        c1=c1,
        c2=c2,
    )


@dataclass(frozen=True)
class NormScalingRow:
    n: int
    trials: int
    max_ratio: float
    mean_ratio: float


def norm_scaling_study(
    spec: EnsembleSpec,
    sizes: Sequence[int],
    trials: int,
    master_seed: int = 0,
) -> list[NormScalingRow]:
    """Spectral norm against sqrt(log n): max and mean ratio per size.

    Every builtin ensemble qualifies; smoothness is not needed here.
    """
    if trials < 1:
        raise ValueError("need at least one trial per size")
    RandomStream(master_seed)  # refuses a seed outside [0, 2**64)
    if any(n < 2 for n in sizes):
        raise ValueError("sizes must be at least 2")
    rows = []
    for i, n in enumerate(sizes):
        norms = _replica_blocks(
            spec, n, master_seed, range(i * trials, (i + 1) * trials), 1,
            lambda lam, bufs: spectral_norm(lam, out=bufs.real[: len(lam)]),
        )[0]
        ratios = norms / math.sqrt(math.log(n))
        rows.append(NormScalingRow(n, trials, float(ratios.max()),
                                   float(ratios.mean())))
    return rows
