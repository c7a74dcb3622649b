"""Test oracles: independent routes to what the package computes.

The package runs one route: a block of replicas drawn by
``ensembles.draw_rows``, one rfft per block and Horner on the half
spectrum.  The routes here recompute the same quantities another way for
the tests to compare against:

* each block's generator built from README's definition, key and counter
  alike, apart from ``ensembles.stream_key`` (:func:`documented_generator`);
* one replica at a time on its full spectrum lambda = n * ifft(X / sqrt(n))
  (:func:`trace_polynomial`, :func:`gradient_trace_polynomial`,
  :func:`hessian_norm`, which materializes the Hessian, and
  :func:`spectral_norm`);
* central differences of the trace and of its gradient
  (:func:`fd_gradient`, :func:`fd_hessian`);
* the defining index sum, with no FFT,

      Tr(C^p) = n * sum x_{i_1} ... x_{i_p}   over i_1 + ... + i_p = 0 (mod n),

  over all n^(p-1) free index tuples (:func:`trace_power_direct`);
* the materialized matrix and its powers (:func:`dense_matrix`,
  :func:`dense_trace_polynomial`);
* the slices of the box {0, ..., n-1}^p by the hyperplanes of coordinate
  sum s*n, which partition the n^(p-1) solutions of
  i_1 + ... + i_p = 0 (mod n): counted exactly by inclusion-exclusion
  (:func:`slice_table`), by enumerating all n^p tuples
  (:func:`count_slice_bruteforce`) and by a subset-sum recursion over
  distinct coordinates (:func:`count_slice_distinct`);
* the Euler-Frobenius density f_p(s), the volume of the section
  {y in [0,1]^p : sum y = s} of the unit cube, to which
  slice(p, s, n) / n^(p-1) converges (:func:`euler_frobenius_density`),
  and the limiting variance with those densities summed rather than set
  to 1 (:func:`limiting_variance_by_densities`);
* the smooth representation u of each smooth family, whose derivatives
  the constants c1 and c2 must bound (:func:`smooth_transform_value`).

They carry no resource or type guards: the tests choose their inputs.
A full-spectrum sum that must be real carries rounding noise in its
imaginary part; :func:`_check_imag` refuses that part above IMAG_TOL
relative to the real part, so a broken spectrum cannot pass as real.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from circulant_clt import SmoothnessRequiredError
from circulant_clt.circulant import TestPolynomial
from circulant_clt.ensembles import (
    UNIFORM_HALF_WIDTH,
    EnsembleSpec,
    block_rows,
    draw_rows,
    stream_key,
)

IMAG_TOL = 1e-8


class ImaginaryResidualError(ArithmeticError):
    """A sum that must be real had an imaginary part above IMAG_TOL."""


def _check_imag(residual, scale, what: str) -> None:
    if residual > IMAG_TOL * (1.0 + scale):
        raise ImaginaryResidualError(
            f"{what} should be real; imaginary residual {residual:.3e} "
            f"exceeds tolerance {IMAG_TOL:.0e}"
        )


def documented_generator(master_seed: int, block: int, n: int) -> np.random.Generator:
    """The generator README gives for block `block` of a run at size n:
    Philox keyed by the master seed, at counter [0, 0, block, n]."""
    key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, block, n]))


def sample_sequence(spec: EnsembleSpec, n: int, master_seed: int, replica: int) -> np.ndarray:
    """The raw inputs of one replica: row replica mod block_rows(n) of its
    block's draw, drawn up to that row alone."""
    block, row = divmod(replica, block_rows(n))
    return draw_rows(spec, stream_key(master_seed), block, np.empty((row + 1, n)))[row]


def smooth_transform_value(spec: EnsembleSpec, z):
    """Evaluate the smooth representation u at z (scalar or array).

    For ``uniform_symmetric``, u(z) = 2*sqrt(3)*(Phi(z) - 1/2) pushes the
    standard normal forward to the uniform law on [-sqrt(3), sqrt(3)];
    Phi(z) = erfc(-z / sqrt(2)) / 2.
    """
    if not spec.is_smooth:
        raise SmoothnessRequiredError(
            f"{spec.family!r} is not representable as a smooth function u of a "
            "standard normal with bounded |u'| <= c1 and |u''| <= c2"
        )
    if spec.family == "gaussian":
        return z
    phi = np.vectorize(lambda v: 0.5 * math.erfc(-v / math.sqrt(2.0)), otypes=[float])
    return 2.0 * UNIFORM_HALF_WIDTH * (phi(z) - 0.5)


def spectrum(raw: np.ndarray) -> np.ndarray:
    """Eigenvalues lambda_t = sum_k x_k w^(t k) of the circulant of raw inputs X."""
    n = len(raw)
    return n * np.fft.ifft(raw / math.sqrt(n))


def build_sample(spec: EnsembleSpec, n: int, master_seed: int, replica: int) -> np.ndarray:
    """Draw one replica's raw inputs from the ensemble and return its spectrum."""
    return spectrum(sample_sequence(spec, n, master_seed, replica))


def dense_matrix(raw: np.ndarray) -> np.ndarray:
    """The full matrix of raw inputs X: entry (i, j) is x[(j - i) mod n]."""
    n = len(raw)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return (raw / math.sqrt(n))[idx]


def dense_trace_polynomial(raw: np.ndarray, poly: TestPolynomial) -> float:
    """Tr P(C) by explicit matrix powers of the materialized circulant."""
    C = dense_matrix(raw)
    total = 0.0
    power = C.copy()
    for k in range(2, len(poly.dense())):
        power = power @ C
        total += dict(poly.terms()).get(k, 0.0) * np.trace(power)
    return float(total)


def _check_real(value: complex, what: str) -> float:
    _check_imag(abs(value.imag), abs(value.real), what)
    return float(value.real)


def trace_power_spectral(lam: np.ndarray, p: int) -> float:
    """Tr(C^p) as the eigenvalue power sum Re(sum_t lambda_t^p)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    return _check_real(complex(np.sum(lam**p)), f"Tr(C^{p})")


def trace_power_direct(raw: np.ndarray, p: int) -> float:
    """Tr(C^p) of the circulant of raw inputs X by the defining index sum
    over all n^(p-1) free index tuples (the last index is fixed mod n)."""
    n = len(raw)
    x = raw / math.sqrt(n)
    if p == 1:
        return n * float(x[0])
    idx = np.arange(n)
    sums = idx.copy()
    prods = x.copy()
    for _ in range(p - 2):
        sums = (sums[:, None] + idx[None, :]).ravel()
        prods = (prods[:, None] * x[None, :]).ravel()
    closing = (-sums) % n
    return n * float(np.sum(prods * x[closing]))


def trace_polynomial(lam: np.ndarray, poly: TestPolynomial) -> float:
    """Tr P(C) = sum_t P(lambda_t) over a full spectrum."""
    return _check_real(complex(np.sum(poly.evaluate(lam))), "Tr P(C)")


def gradient_trace_polynomial(lam: np.ndarray, poly: TestPolynomial) -> np.ndarray:
    """Gradient of X -> Tr P(C(X)) from a full spectrum: P'(C) is circulant
    with first-row symbol d = fft(P'(lambda)) / n, and d/dX_m =
    sqrt(n) * d[(n - m) mod n]."""
    n = len(lam)
    d_row = np.fft.fft(poly.derivative_values(lam)) / n
    _check_imag(np.max(np.abs(d_row.imag)), np.max(np.abs(d_row.real)),
                "derivative symbol")
    m = np.arange(n)
    return math.sqrt(n) * d_row.real[(n - m) % n]


def hessian_norm(lam: np.ndarray, poly: TestPolynomial) -> float:
    """Operator norm of the Hessian of g(X) = Tr P(C(X)) from a full
    spectrum: d lambda_t / dX_j = w^(t j) / sqrt(n), so the materialized
    n x n Hessian is (1/n) sum_t P''(lambda_t) w^(t(j+k)), with P'' summed
    term by term, and its largest singular value is taken."""
    n = len(lam)
    second = sum(k * (k - 1) * a * lam ** (k - 2) for k, a in poly.terms())
    modes = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    hess = (modes * second) @ modes / n
    _check_imag(np.max(np.abs(hess.imag)), np.max(np.abs(hess.real)), "Hessian")
    return float(np.linalg.norm(hess.real, 2))


def spectral_norm(lam: np.ndarray) -> np.ndarray:
    """Operator norm max_t |lambda_t| along the last axis: circulant matrices
    are normal."""
    return np.abs(lam).max(axis=-1)


def _central_differences(raw: np.ndarray, f, step: float) -> np.ndarray:
    """(f(X + step e_k) - f(X - step e_k)) / (2 step) for each k, stacked
    along the last axis."""
    diffs = []
    for k in range(len(raw)):
        e = np.zeros(len(raw))
        e[k] = step
        diffs.append((f(raw + e) - f(raw - e)) / (2 * step))
    return np.stack(diffs, axis=-1)


def fd_gradient(raw: np.ndarray, poly: TestPolynomial, step: float = 1e-5) -> np.ndarray:
    """Gradient of X -> Tr P(C(X)) by central differences of the trace."""
    return _central_differences(
        raw, lambda x: trace_polynomial(spectrum(x), poly), step)


def fd_hessian(raw: np.ndarray, poly: TestPolynomial, step: float = 1e-5) -> np.ndarray:
    """Hessian of X -> Tr P(C(X)) by central differences of the analytic
    gradient: column k differences along X_k."""
    return _central_differences(
        raw, lambda x: gradient_trace_polynomial(spectrum(x), poly), step)


@dataclass(frozen=True)
class LatticeSliceCount:
    """Exact count of one slice together with its normalized density."""

    p: int
    s: int
    n: int
    count: int
    density: Fraction


def euler_frobenius_density(p: int, s: int) -> Fraction:
    """Exact rational f_p(s) = (1/(p-1)!) sum_k (-1)^k C(p,k) (s-k)^(p-1).

    f_p(0) = 0 for p >= 2 and sum_{s=0}^{p-1} f_p(s) = 1 exactly.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if not 0 <= s <= p - 1:
        raise ValueError(f"s={s} out of range [0, {p - 1}]")
    acc = sum((-1) ** k * comb(p, k) * (s - k) ** (p - 1) for k in range(s + 1))
    return Fraction(acc, factorial(p - 1))


def slice_table(p: int, n: int) -> list[LatticeSliceCount]:
    """All p slices of {0..n-1}^p with exact counts and densities; p >= 1.

    With the box binomials b_j = C(j*n + p - 1, p - 1), each taken once,
    inclusion-exclusion over bounded compositions counts slice s as

        sum_{k=0}^{s} (-1)^k C(p, k) b_{s-k};

    for k > s the upper argument is below p - 1, so those terms are 0.
    """
    if p < 1:
        raise ValueError(f"p must be at least 1, not {p}")
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    box = [comb(j * n + p - 1, p - 1) for j in range(p)]
    scale = n ** (p - 1)
    rows = []
    for s in range(p):
        count = sum((-1) ** k * comb(p, k) * box[s - k] for k in range(s + 1))
        rows.append(LatticeSliceCount(p, s, n, count, Fraction(count, scale)))
    return rows


def _slice_histogram(p: int, n: int) -> np.ndarray:
    # one full enumeration of {0..n-1}^p, bucketed by coordinate sum
    sums = np.zeros(1, dtype=np.int64)
    block = np.arange(n, dtype=np.int64)
    for _ in range(p):
        sums = (sums[:, None] + block[None, :]).ravel()
    return np.bincount(sums, minlength=p * (n - 1) + 1)


def count_slice_bruteforce(p: int, s: int, n: int) -> int:
    """Slice count by direct enumeration of all n^p tuples."""
    hist = _slice_histogram(p, n)
    target = s * n
    return int(hist[target]) if target < len(hist) else 0


def count_slice_distinct(p: int, s: int, n: int) -> int:
    """Slice count restricted to tuples with pairwise-distinct coordinates.

    Counts unordered p-subsets of {0..n-1} with sum s*n by an exact
    subset-sum recursion over the values 0..n-1, then multiplies by p!
    for the orderings.
    """
    if p > n:
        return 0
    target = s * n
    # dp[k][t] = number of k-subsets of the values seen so far with sum t
    dp = [[0] * (target + 1) for _ in range(p + 1)]
    dp[0][0] = 1
    for v in range(n):
        for k in range(min(p, v + 1), 0, -1):
            row, prev = dp[k], dp[k - 1]
            for t in range(target, v - 1, -1):
                if prev[t - v]:
                    row[t] += prev[t - v]
    return dp[p][target] * math.factorial(p)


def limiting_variance_by_densities(poly: TestPolynomial) -> Fraction:
    """sum_l a_l^2 * l! * sum_s f_l(s), summing the densities f_l(s)."""
    total = Fraction(0)
    for ell, a in poly.terms():
        inner = sum((euler_frobenius_density(ell, s) for s in range(ell)), Fraction(0))
        total += Fraction(a) ** 2 * math.factorial(ell) * inner
    return total
