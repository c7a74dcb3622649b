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

from Monte Carlo estimates of the gradient functionals kappa0 and kappa1,
the Hessian functional kappa2, and the empirical variance, all of the one
function g(X) = Tr P(C(X)).  Each lambda_t is linear in X, so the Hessian
of g is (1/n) sum_t P''(lambda_t) w^(t(j+k)), a circulant times the
reversal, and its operator norm is exactly max_t |P''(lambda_t)|.  The
bound requires a smooth symmetric ensemble.

Replicas run in fixed blocks of ensembles.block_rows(n) consecutive
indices, whatever the worker count.  A block is drawn with one generator
call, from the substream named by (master_seed, block, n); one rfft,
two passes from circulant.SPLIT_MIN_N on, gives the block's half spectra,
and the statistics are reduced from those.  Each worker allocates its
block arrays once (circulant.BlockBuffers) and every block it runs
writes into them.
Blocks run on pool threads at every n, a single one at worker_count 1:
numpy's FFT scratch is faulted in again on every call on the main
thread, and not on a pool thread.  worker_count, the block count and
available_cpus() bound the threads.  The blocks are handed out in order,
one at a time, to whichever worker asks next.  Each worker builds one
generator (ensembles.worker_generator), which ensembles.draw_rows moves
to the start of each block's substream before it draws.  Each block
writes into its own slots and reductions run in fixed replica order, so
results are bit-identical for any worker_count, and a run of m replicas
gives the first m replicas of any longer run.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circulant import (
    BlockBuffers,
    TestPolynomial,
    gradient_block,
    half_spectrum,
    trace_block,
)
from .combinatorics import limiting_variance
from .ensembles import EnsembleSpec, block_rows, draw_rows, worker_generator
from .errors import SmoothnessRequiredError, require_integers

MAX_MOMENT_ORDER = 4


def _require_finite(**values) -> None:
    """Refuse a value, scalar or array, that left the float range, by name."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} is not finite: it left the float range")


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
        for name, value in require_integers(
                n=self.n, m=self.m, master_seed=self.master_seed,
                worker_count=self.worker_count).items():
            object.__setattr__(self, name, value)
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.m < 2:
            raise ValueError("need at least 2 replicas")
        if self.worker_count < 1:
            raise ValueError("worker_count must be positive")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class ExperimentSummary:
    """Replica statistics of one experiment."""

    n: int
    m: int
    w_values: np.ndarray
    raw_traces: np.ndarray
    raw_trace_mean: float
    variance_w: float
    standardized_moments: tuple[float, ...]  # orders 1..4
    ks_distance: float
    target_variance: float
    wall_time_s: float

    def __post_init__(self) -> None:
        _require_finite(**vars(self))
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
        _require_finite(**vars(self))
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


def available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replica_blocks(
    config: ExperimentConfig,
    fn: Callable[[np.ndarray, BlockBuffers], np.ndarray],
    width: int = 1,
) -> np.ndarray:
    """Evaluate fn on the half spectra of replicas 0..m-1, block by block.

    fn maps a (rows, bins) block of half spectra and the worker's
    BlockBuffers, which hold that block, to a (width, rows) array; column
    r of the (width, m) result holds replica r.  Blocks start every
    block_rows(n) replicas and run on a pool of worker_count threads,
    capped by the block count and available_cpus().  The blocks are
    handed out in order, one at a time, to whichever worker asks next.
    Each worker builds one generator, which ensembles.draw_rows moves to
    the start of each block it takes.
    """
    n, m = config.n, config.m
    rows = block_rows(n)
    starts = range(0, m, rows)
    out = np.empty((width, m))
    cursor, cursor_lock = iter(starts), threading.Lock()

    @np.errstate(over="ignore", invalid="ignore")  # the records refuse inf and nan
    def run_blocks(_worker: int) -> None:
        bufs = BlockBuffers(min(rows, m), n)
        rng = worker_generator(config.master_seed)
        while True:
            with cursor_lock:
                lo = next(cursor, None)
            if lo is None:
                return
            k = min(lo + rows, m) - lo
            block = draw_rows(config.ensemble, rng, lo // rows, bufs.raw[:k])
            lam = half_spectrum(block, bufs)
            out[:, lo : lo + k] = fn(lam, bufs)

    workers = min(config.worker_count, len(starts), available_cpus())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_blocks, range(workers)))
    return out


def standardized_moments(samples) -> np.ndarray:
    """Central sample moments of orders 1..MAX_MOMENT_ORDER = 4, each scaled
    by sigma^order (population sigma), so orders 3 and 4 are the skewness
    and kurtosis; all zero for constant samples."""
    xs = np.asarray(samples, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("need at least one sample")
    centered = xs - xs.mean()
    peak = float(np.max(np.abs(centered)))
    # a constant sample's rounded mean can miss its value, leaving peak > 0
    if peak == 0.0 or xs.min() == xs.max():
        return np.zeros(MAX_MOMENT_ORDER)
    # scaled to |x| <= 1 and then to unit variance, so no power overflows
    scaled = centered / peak
    z = scaled / math.sqrt(float(np.mean(scaled**2)))
    # products, not z**3 and z**4, which numpy takes through libm pow
    z2 = z * z
    return np.array([float(np.mean(p)) for p in (z, z2, z2 * z, z2 * z2)])


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


@np.errstate(over="ignore", invalid="ignore")
def run_clt_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run the replica experiment and summarize the normalized statistic W."""
    t0 = time.perf_counter()
    target = float(limiting_variance(config.poly))  # refused before any replica runs
    traces = _replica_blocks(
        config, lambda lam, bufs: trace_block(lam, config.poly, bufs))[0]
    t_bar = float(traces.mean())
    w = (traces - t_bar) / math.sqrt(config.n)
    return ExperimentSummary(
        n=config.n,
        m=config.m,
        w_values=w,
        raw_traces=traces,
        raw_trace_mean=t_bar,
        variance_w=float(w.var(ddof=1)),
        standardized_moments=tuple(float(v) for v in standardized_moments(w)),
        ks_distance=ks_distance(w, target),
        target_variance=target,
        wall_time_s=time.perf_counter() - t0,
    )


def _require_smooth_symmetric(spec: EnsembleSpec) -> tuple[float, float]:
    if not spec.is_smooth:
        raise SmoothnessRequiredError(
            f"the total-variation bound requires a symmetric smooth ensemble "
            f"(a law u(Z) of a standard normal with |u'| <= c1, |u''| <= c2); "
            f"{spec.family!r} does not qualify"
        )
    return float(spec.c1), float(spec.c2)


@np.errstate(over="ignore", invalid="ignore")
def estimate_kappas(config: ExperimentConfig) -> SteinEstimate:
    """Monte Carlo estimates of the gradient/Hessian functionals.

    kappa0 = (E sum_k |dg/dX_k|^4)^(1/2) and kappa1 = (E ||grad g||^4)^(1/4)
    use the exact analytic gradient of g = Tr P(C).  kappa2 =
    (E ||Hess g||^4)^(1/4) uses the exact operator norm of the Hessian,
    materializing none: d^2 g / dX_j dX_k = (1/n) sum_t P''(lambda_t)
    w^(t(j+k)) is a circulant with eigenvalues P''(lambda_t) times the
    reversal permutation, so ||Hess g|| = max_t |P''(lambda_t)|, and the
    half spectrum holds every such modulus.  sigma2_hat is the empirical
    variance of g, so all four describe the same function.
    """
    c1, c2 = _require_smooth_symmetric(config.ensemble)
    n, poly = config.n, config.poly

    def per_block(lam: np.ndarray, bufs: BlockBuffers) -> tuple[np.ndarray, ...]:
        sq = gradient_block(lam, n, poly, bufs)
        np.square(sq, out=sq)
        squared = sq.sum(axis=1) ** 2
        quartic = np.square(sq, out=sq).sum(axis=1)
        # the gradient is read: its first lam.size values take the moduli,
        # one contiguous (rows, bins) block (lam's shape: P'' of a degree-2
        # polynomial is a scalar)
        second = poly.second_derivative_values(lam, out=bufs.vals[: len(lam)])
        moduli = sq.reshape(-1)[: lam.size].reshape(lam.shape)
        hess = np.abs(second, out=moduli).max(axis=1)
        return quartic, squared, hess**4, trace_block(lam, poly, bufs)

    quartic, squared, hess4, traces = _replica_blocks(config, per_block, width=4)
    means = [float(a.mean()) for a in (quartic, squared, hess4)]
    for k, mean in enumerate(means):
        # a zero or subnormal mean has lost digits; the bound is invariant
        # under P -> aP, so a kappa read as 0 would certify a false bound.
        # An infinite or NaN mean has overflowed
        if not sys.float_info.min <= mean <= sys.float_info.max:
            flow, side = (("underflows", "below the smallest normal") if mean < 1
                          else ("overflows", "above the largest"))
            raise ValueError(f"kappa{k}_hat {flow}: its fourth-power mean is {side} float")
    return SteinEstimate(
        kappa0_hat=math.sqrt(means[0]),
        kappa1_hat=means[1] ** 0.25,
        kappa2_hat=means[2] ** 0.25,
        sigma2_hat=float(traces.var(ddof=1)),
        c1=c1,
        c2=c2,
    )
