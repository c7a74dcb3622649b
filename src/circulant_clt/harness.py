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
function g(X) = Tr P(C(X)).  The bound requires a smooth symmetric ensemble.

How the replicas are grouped into blocks, drawn and handed to workers,
so that results are bit-identical for any worker_count, is set out in
:func:`_replica_blocks` and in README "Reproducibility".
"""

from __future__ import annotations

import math
import operator
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
    four_step,
    half_spectrum,
    kappa_block,
    trace_block,
)
from .combinatorics import limiting_variance
from .ensembles import EnsembleSpec, block_rows, draw_rows, stream_key


class SmoothnessRequiredError(ValueError):
    """An operation needed a smooth ensemble (bounded |u'|, |u''|) and got none."""


class ConfigError(ValueError):
    """A configuration document failed validation."""


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
        # each size, count and seed as a Python int; bool and float refused
        for name in ("n", "m", "master_seed", "worker_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, operator.index(value))
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
    fn: Callable[[np.ndarray, TestPolynomial, BlockBuffers], np.ndarray],
    width: int = 1,
) -> np.ndarray:
    """Evaluate fn on the half spectra of replicas 0..m-1, block by block.

    fn maps a (rows, bins) block of half spectra, config.poly and the
    worker's BlockBuffers, which hold that block, to a (width, rows) array;
    column r of the (width, m) result holds replica r.  Blocks start every
    block_rows(n) replicas and run on a pool of worker_count threads,
    capped by the block count and available_cpus().  The blocks are
    handed out in order, one at a time, to whichever worker asks next.
    The split, its twiddle table and the stream key are made once, here,
    for every worker; a worker builds only its buffers.
    """
    n, m = config.n, config.m
    rows = block_rows(n)
    starts = range(0, m, rows)
    split, key = four_step(n), stream_key(config.master_seed)
    out = np.empty((width, m))
    cursor, cursor_lock = iter(starts), threading.Lock()

    @np.errstate(over="ignore", invalid="ignore")  # the records refuse inf and nan
    def run_blocks(_worker: int) -> None:
        bufs = BlockBuffers(min(rows, m), split)
        while True:
            with cursor_lock:
                lo = next(cursor, None)
            if lo is None:
                return
            k = min(lo + rows, m) - lo
            block = draw_rows(config.ensemble, key, lo // rows, bufs.inputs(k))
            lam = half_spectrum(block, bufs)
            out[:, lo : lo + k] = fn(lam, config.poly, bufs)

    workers = min(config.worker_count, len(starts), available_cpus())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_blocks, range(workers)))
    return out


def standardized_moments(samples) -> np.ndarray:
    """Central sample moments of orders 1..4, each scaled by sigma^order
    (population sigma), so orders 3 and 4 are the skewness and kurtosis;
    all zero for constant samples."""
    xs = np.asarray(samples, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("need at least one sample")
    # a constant sample's rounded mean can miss its value, leaving peak > 0
    if xs.min() == xs.max():
        return np.zeros(4)
    # one centered copy, scaled in place to |z| <= 1 and then to unit
    # variance, so no power overflows, and one array of its squares
    z = xs - xs.mean()
    z /= max(z.max(), -z.min())
    z2 = np.square(z)
    z /= math.sqrt(float(z2.mean()))
    np.multiply(z, z, out=z2)
    m1, m2 = z.mean(), z2.mean()
    # products, not z**3 and z**4, which numpy takes through libm pow
    z *= z2
    z2 *= z2
    return np.array([m1, m2, z.mean(), z2.mean()])


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
    # sorted, standardized and mapped to the arguments -z / sqrt(2) of erfc
    # in place; erfc reads them through a memoryview, one float at a time,
    # so no m-long list is built
    z = np.sort(xs)
    z /= math.sqrt(variance)
    np.negative(z, out=z)
    z /= math.sqrt(2.0)
    m = xs.size
    cdf = np.fromiter(map(math.erfc, memoryview(z)), float, m)
    del z
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
    traces = _replica_blocks(config, trace_block)[0]
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


@np.errstate(over="ignore", invalid="ignore")
def estimate_kappas(config: ExperimentConfig) -> SteinEstimate:
    """Monte Carlo estimates of the gradient/Hessian functionals.

    kappa0 = (E sum_k |dg/dX_k|^4)^(1/2) and kappa1 = (E ||grad g||^4)^(1/4)
    use the exact analytic gradient of g = Tr P(C), and kappa2 =
    (E ||Hess g||^4)^(1/4) the exact operator norm of its Hessian
    (circulant.kappa_block).  sigma2_hat is the empirical variance of g, so
    all four describe the same function.
    """
    # reported with the bound, so refused before any replica runs
    _require_finite(sigma2_target_scaled=config.n * float(limiting_variance(config.poly)))
    if not config.ensemble.is_smooth:
        raise SmoothnessRequiredError(
            f"the total-variation bound requires a symmetric smooth ensemble "
            f"(a law u(Z) of a standard normal with |u'| <= c1, |u''| <= c2); "
            f"{config.ensemble.family!r} does not qualify"
        )
    quartic, squared, hess4, traces = _replica_blocks(config, kappa_block, width=4)
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
        c1=config.ensemble.c1,
        c2=config.ensemble.c2,
    )
