"""Test oracles: independent routes to what the package computes.

The package runs one route: a block of replicas drawn by
``ensembles.draw_rows``, one rfft per block and Horner on the half
spectrum.  The routes here recompute the same quantities another way for
the tests to compare against:

* one replica at a time on its full spectrum lambda = n * ifft(X / sqrt(n))
  (:func:`trace_polynomial`, :func:`gradient_trace_polynomial`,
  :func:`hessian_norm`, which materializes the Hessian);
* the defining index sum, with no FFT,

      Tr(C^p) = n * sum x_{i_1} ... x_{i_p}   over i_1 + ... + i_p = 0 (mod n),

  over all n^(p-1) free index tuples (:func:`trace_power_direct`);
* the materialized matrix (:func:`dense_matrix`);
* slice counts by enumerating all n^p tuples (:func:`count_slice_bruteforce`)
  and by a subset-sum recursion over distinct coordinates
  (:func:`count_slice_distinct`);
* the limiting variance with its Euler-Frobenius density sums evaluated
  rather than set to 1 (:func:`limiting_variance_by_densities`);
* the smooth representation u of each smooth family, whose derivatives
  the constants c1 and c2 must bound (:func:`smooth_transform_value`).

They carry no resource or argument guards: the tests choose their inputs.
A full-spectrum sum that must be real carries rounding noise in its
imaginary part; :func:`_check_imag` refuses that part above IMAG_TOL
relative to the real part, so a broken spectrum cannot pass as real.
"""

import math
from fractions import Fraction

import numpy as np

from circulant_clt.circulant import TestPolynomial
from circulant_clt.combinatorics import euler_frobenius_density
from circulant_clt.ensembles import (
    UNIFORM_HALF_WIDTH,
    EnsembleSpec,
    RandomStream,
    block_rows,
    draw_rows,
)
from circulant_clt.errors import SmoothnessRequiredError

IMAG_TOL = 1e-8


class ImaginaryResidualError(ArithmeticError):
    """A sum that must be real had an imaginary part above IMAG_TOL."""


def _check_imag(residual, scale, what: str) -> None:
    if residual > IMAG_TOL * (1.0 + scale):
        raise ImaginaryResidualError(
            f"{what} should be real; imaginary residual {residual:.3e} "
            f"exceeds tolerance {IMAG_TOL:.0e}"
        )


def sample_sequence(spec: EnsembleSpec, n: int, master_seed: int, replica: int) -> np.ndarray:
    """The raw inputs of one replica: row replica mod block_rows(n) of its
    block's draw, drawn up to that row alone."""
    block, row = divmod(replica, block_rows(n))
    rng = RandomStream(master_seed, block).generator(n)
    return draw_rows(spec, rng, np.empty((row + 1, n)))[row]


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
