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
the majorant surrogate for kappa2, and the empirical variance of the raw
trace.  The bound requires a smooth symmetric ensemble.

Replicas are embarrassingly parallel: each uses the substream named by
(master_seed, replica_index) and writes into its own slot, and reductions
run in fixed replica order, so results are bit-identical for any
worker_count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .circulant import (
    CirculantSample,
    TestPolynomial,
    build_sample,
    gradient_trace_polynomial,
    hessian_norm_bound,
    spectral_norm,
    trace_polynomial,
)
from .combinatorics import limiting_variance
from .ensembles import EnsembleSpec, RandomStream
from .errors import SmoothnessRequiredError

MAX_MOMENT_ORDER = 8
LOW_CONFIDENCE_REPLICAS = 30


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
    tv_bound: float

    def __post_init__(self) -> None:
        if min(self.kappa0_hat, self.kappa1_hat, self.kappa2_hat) < 0:
            raise ValueError("kappa estimates must be nonnegative")
        if self.sigma2_hat <= 0:
            raise ValueError("sigma2_hat must be positive")
        expected = assemble_tv_bound(
            self.c1, self.c2, self.kappa0_hat, self.kappa1_hat,
            self.kappa2_hat, self.sigma2_hat,
        )
        if not math.isclose(self.tv_bound, expected, rel_tol=1e-12):
            raise ValueError("tv_bound inconsistent with its components")


def assemble_tv_bound(
    c1: float, c2: float, kappa0: float, kappa1: float, kappa2: float, sigma2: float
) -> float:
    return 2.0 * math.sqrt(5.0) * (c1 * c2 * kappa0 + c1**3 * kappa1 * kappa2) / sigma2


def _map_replicas(
    config: ExperimentConfig,
    fn: Callable[[CirculantSample], Sequence[float]],
    width: int,
) -> np.ndarray:
    """Evaluate fn on every replica sample, filling rows by replica index.

    Rows are written into disjoint slots and reductions happen later in
    index order, so the result is independent of worker_count.  The thread
    count is capped by the replica count and the available CPUs.
    """
    out = np.empty((config.m, width))

    def run_range(bounds: tuple[int, int]) -> None:
        lo, hi = bounds
        for r in range(lo, hi):
            sample = build_sample(
                config.ensemble, config.n, RandomStream(config.master_seed, r)
            )
            out[r, :] = fn(sample)

    workers = min(config.worker_count, config.m, os.cpu_count() or 1)
    if workers <= 1:
        run_range((0, config.m))
    else:
        step = -(-config.m // workers)
        ranges = [(lo, min(lo + step, config.m)) for lo in range(0, config.m, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_range, ranges))
    return out


def check_max_order(max_order: int) -> None:
    if not 1 <= max_order <= MAX_MOMENT_ORDER:
        raise ValueError(
            f"max_order must lie in [1, {MAX_MOMENT_ORDER}]; higher orders are "
            "too noisy to estimate at Monte Carlo scale"
        )


def empirical_moments(samples, max_order: int) -> np.ndarray:
    """Central sample moments of orders 1..max_order (max_order <= 8)."""
    check_max_order(max_order)
    xs = np.asarray(samples, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("need at least one sample")
    centered = xs - xs.mean()
    return np.array([float(np.mean(centered**k)) for k in range(1, max_order + 1)])


def standardized_moments(samples, max_order: int = MAX_MOMENT_ORDER) -> np.ndarray:
    """Central moments scaled by sigma^order (population sigma)."""
    central = empirical_moments(samples, max_order)
    sigma = math.sqrt(central[1]) if max_order >= 2 else 0.0
    if sigma == 0.0:
        return np.zeros(max_order)
    return np.array([central[k - 1] / sigma**k for k in range(1, max_order + 1)])


def ks_distance(samples, variance: float) -> float:
    """One-sample Kolmogorov-Smirnov distance to N(0, variance).

    sup_x |F_m(x) - Phi(x / sigma)| via the order-statistic formula.
    """
    xs = np.asarray(samples, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("need at least one sample")
    if not variance > 0:
        raise ValueError("variance must be positive")
    z = np.sort(xs) / math.sqrt(variance)
    cdf = ndtr(z)
    m = xs.size
    grid = np.arange(1, m + 1, dtype=np.float64)
    d_plus = float(np.max(grid / m - cdf))
    d_minus = float(np.max(cdf - (grid - 1) / m))
    return max(d_plus, d_minus, 0.0)


def run_clt_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run the replica experiment and summarize the normalized statistic W."""
    t0 = time.perf_counter()
    traces = _map_replicas(
        config, lambda s: (trace_polynomial(s, config.poly),), 1
    )[:, 0]
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
        standardized_moments=tuple(
            float(v) for v in standardized_moments(w, MAX_MOMENT_ORDER)
        ),
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
    use the exact analytic gradient of g = Tr P(C); kappa2 uses the
    conservative majorant surrogate from :func:`hessian_norm_bound` instead
    of materializing any Hessian.  sigma2_hat is the empirical variance of
    the raw (unnormalized) trace.
    """
    c1, c2 = _require_smooth_symmetric(config.ensemble)

    def per_sample(sample: CirculantSample) -> tuple[float, float, float, float]:
        grad = gradient_trace_polynomial(sample, config.poly)
        sq = grad * grad
        return (
            float(np.sum(sq * sq)),
            float(np.sum(sq)) ** 2,
            hessian_norm_bound(sample, config.poly) ** 4,
            trace_polynomial(sample, config.poly),
        )

    rows = _map_replicas(config, per_sample, 4)
    kappa0 = math.sqrt(float(rows[:, 0].mean()))
    kappa1 = float(rows[:, 1].mean()) ** 0.25
    kappa2 = float(rows[:, 2].mean()) ** 0.25
    sigma2 = float(rows[:, 3].var(ddof=1))
    return SteinEstimate(
        kappa0_hat=kappa0,
        kappa1_hat=kappa1,
        kappa2_hat=kappa2,
        sigma2_hat=sigma2,
        c1=c1,
        c2=c2,
        tv_bound=assemble_tv_bound(c1, c2, kappa0, kappa1, kappa2, sigma2),
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
    rows = []
    for i, n in enumerate(sizes):
        if n < 2:
            raise ValueError("sizes must be at least 2")
        ratios = np.empty(trials)
        for t in range(trials):
            stream = RandomStream(master_seed, i * trials + t)
            ratios[t] = spectral_norm(build_sample(spec, n, stream)) / math.sqrt(
                math.log(n)
            )
        rows.append(
            NormScalingRow(
                n=n,
                trials=trials,
                max_ratio=float(ratios.max()),
                mean_ratio=float(ratios.mean()),
            )
        )
    return rows
