"""Circulant realizations: spectra, traces, gradients, norm bounds.

A circulant matrix here has entry (i, j) equal to x[(j - i) mod n], where
x = X / sqrt(n) is the scaled first row built from raw inputs X.  A
replica is just its array X.  Its eigenvalues are

    lambda_t = sum_k x_k * w^(t k),   w = exp(2 pi i / n),

computed in O(n log n) by :func:`spectrum` as n * ifft(x).  As x is real,
lambda_(n-t) = conj(lambda_t), so the production route keeps only the
half spectrum 0 <= t <= n/2 of each row of a block of replicas
(:func:`half_spectrum`, one rfft per block) and reduces

    Tr P(C) = sum_t P(lambda_t)

with the Hermitian weights 1 at t = 0 and t = n/2 (n even), 2 elsewhere
(:func:`trace_block`), P evaluated by Horner's rule.  Those two bins are
real by symmetry; the imaginary part the reduction drops there is checked
against IMAG_RESIDUAL_TOL.  The per-replica kernels of a full spectrum
(:func:`trace_polynomial`, :func:`gradient_trace_polynomial`,
:func:`hessian_norm_bound`) are test oracles for the block route, as are
:func:`trace_power_direct` and :func:`dense_matrix`, which take X itself:

    Tr(C^p) = n * sum x_{i_1} ... x_{i_p}   over i_1 + ... + i_p = 0 (mod n),

by explicit enumeration of the n^(p-1) free indices (budget-guarded).

The gradient of X -> Tr P(C(X)) is exact matrix calculus: P'(C) is itself
circulant with first-row symbol d = fft(P'(lambda)) / n, and each X_m
appears in the n positions of one diagonal class, giving

    d/dX_m Tr P(C) = sqrt(n) * d[(n - m) mod n] = sqrt(n) * ifft(P'(lambda))[m],

which :func:`gradient_block` computes as sqrt(n) * irfft of the half spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .ensembles import EnsembleSpec, RandomStream, sample_sequence
from .errors import BudgetExceededError, ImaginaryResidualError

IMAG_RESIDUAL_TOL = 1e-8
DEFAULT_TRACE_BUDGET = 10**8


def _horner(coeffs: Sequence[float], z):
    """sum_j coeffs[j] * z^j by Horner's rule; coefficients from degree 0 up.

    For an array z every step after the first updates one accumulator in
    place; a scalar z gives a scalar.
    """
    *rest, acc = coeffs
    if rest:
        acc = acc * z + rest.pop()
    for a in reversed(rest):
        acc *= z
        acc += a
    return acc


@dataclass(frozen=True)
class TestPolynomial:
    """Real polynomial sum_{k=2}^{d} a_k x^k with no constant or linear term.

    Constant terms shift the trace deterministically and a linear term
    reduces the centered statistic to a single input variable, so both are
    excluded by construction.
    """

    __test__ = False  # not a pytest class, despite the name

    coefficients: tuple[float, ...]  # (a_2, ..., a_d)

    def __post_init__(self) -> None:
        coeffs = tuple(float(a) for a in self.coefficients)
        if len(coeffs) == 0:
            raise ValueError("need at least the degree-2 coefficient")
        if coeffs[-1] == 0.0:
            raise ValueError("leading coefficient a_d must be nonzero")
        if not all(math.isfinite(a) for a in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_dense(cls, dense: Sequence[float]) -> "TestPolynomial":
        """Build from coefficients listed from degree 0 upward.

        Positions 0 and 1 must be present and zero: test polynomials start
        at degree 2.
        """
        dense = [float(a) for a in dense]
        if len(dense) < 3:
            raise ValueError(
                "dense coefficient list must reach degree 2 (at least 3 entries)"
            )
        if dense[0] != 0.0 or dense[1] != 0.0:
            raise ValueError(
                "constant and degree-one coefficients must be zero: test "
                "polynomials contain only terms of degree 2 and higher"
            )
        return cls(tuple(dense[2:]))

    @property
    def degree(self) -> int:
        return len(self.coefficients) + 1

    def terms(self) -> Iterator[tuple[int, float]]:
        """Yield (degree, coefficient) pairs from degree 2 upward."""
        return iter(enumerate(self.coefficients, start=2))

    def dense(self) -> list[float]:
        return [0.0, 0.0, *self.coefficients]

    def evaluate(self, z):
        return _horner(self.dense(), z)

    def derivative_values(self, z):
        return _horner([0.0, *(k * a for k, a in self.terms())], z)

    def second_derivative_majorant(self, z):
        """m2(z) = sum_k k (k-1) |a_k| z^(k-2), nondecreasing for z >= 0."""
        if np.any(np.asarray(z) < 0):
            raise ValueError("the majorant is defined for z >= 0")
        return _horner([k * (k - 1) * abs(a) for k, a in self.terms()], z)


def spectrum(raw: np.ndarray) -> np.ndarray:
    """Eigenvalues lambda_t = sum_k x_k w^(t k) of the circulant of raw inputs X."""
    n = len(raw)
    return n * np.fft.ifft(raw / math.sqrt(n))


def half_spectrum(raw: np.ndarray) -> np.ndarray:
    """lambda_t for 0 <= t <= n/2 of each row of raw inputs X, by one rfft.

    The remaining eigenvalues are the conjugates lambda_(n-t) = conj(lambda_t).
    """
    lam = np.fft.rfft(raw, axis=-1)
    np.conjugate(lam, out=lam)
    lam /= math.sqrt(raw.shape[-1])
    return lam


def build_sample(spec: EnsembleSpec, n: int, stream: RandomStream) -> np.ndarray:
    """Draw one replica's raw inputs from the ensemble and return its spectrum."""
    return spectrum(sample_sequence(spec, n, stream))


def dense_matrix(raw: np.ndarray) -> np.ndarray:
    """Materialize the full matrix of raw inputs X; for small-n oracle checks."""
    n = len(raw)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return (raw / math.sqrt(n))[idx]


def _check_imag(residual, scale, what: str) -> None:
    """Refuse an imaginary residual above IMAG_RESIDUAL_TOL * (1 + scale).

    residual and scale are scalars or arrays of one entry per replica.
    """
    excess = np.asarray(residual) > IMAG_RESIDUAL_TOL * (1.0 + np.asarray(scale))
    if np.any(excess):
        raise ImaginaryResidualError(
            f"{what} should be real; imaginary residual "
            f"{float(np.max(np.asarray(residual)[excess])):.3e} "
            f"exceeds tolerance {IMAG_RESIDUAL_TOL:.0e}"
        )


def _check_real(value: complex, what: str) -> float:
    _check_imag(abs(value.imag), abs(value.real), what)
    return float(value.real)


def _self_conjugate_imag(vals: np.ndarray, n: int) -> np.ndarray:
    """Per row, |Im| summed over the half-spectrum bins t = 0 and t = n/2
    (n even): the imaginary part a Hermitian reduction drops."""
    bins = [0, n // 2] if n % 2 == 0 else [0]
    return np.abs(vals[:, bins].imag).sum(axis=1)


def trace_power_spectral(lam: np.ndarray, p: int) -> float:
    """Tr(C^p) as the eigenvalue power sum Re(sum_t lambda_t^p)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    total = complex(np.sum(lam**p))
    return _check_real(total, f"Tr(C^{p})")


def trace_power_direct(
    raw: np.ndarray, p: int, budget: int = DEFAULT_TRACE_BUDGET
) -> float:
    """Tr(C^p) of the circulant of raw inputs X by the defining index sum.

    Visits all n^(p-1) free index tuples (the last index is determined
    modulo n); refuses when that exceeds the budget.  Exists as an
    FFT-independent cross-check of :func:`trace_power_spectral`.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    n = len(raw)
    tuples = n ** (p - 1)
    if tuples > budget:
        raise BudgetExceededError(
            f"direct trace would visit {n}^{p - 1} = {tuples} tuples, "
            f"exceeding the budget of {budget}"
        )
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
    """Tr P(C) = sum_t P(lambda_t) along the spectral route."""
    return _check_real(complex(np.sum(poly.evaluate(lam))), "Tr P(C)")


def spectral_norm(lam: np.ndarray):
    """Operator norm max_t |lambda_t| along the last axis; circulant matrices
    are normal, and a half spectrum holds every modulus."""
    return np.abs(lam).max(axis=-1)


def gradient_trace_polynomial(lam: np.ndarray, poly: TestPolynomial) -> np.ndarray:
    """Gradient of X -> Tr P(C(X)) with respect to the raw inputs.

    P'(C) is circulant with first-row symbol d = fft(P'(lambda)) / n; the
    chain rule through x = X / sqrt(n) and the n occurrences of each x_m
    give d/dX_m = sqrt(n) * d[(n - m) mod n].
    """
    n = len(lam)
    d_row = np.fft.fft(poly.derivative_values(lam)) / n
    _check_imag(np.max(np.abs(d_row.imag)), np.max(np.abs(d_row.real)),
                "derivative symbol")
    m = np.arange(n)
    return math.sqrt(n) * d_row.real[(n - m) % n]


def hessian_norm_bound(lam: np.ndarray, poly: TestPolynomial) -> float:
    """Majorant m2(||C||) for the Hessian norm of g(X) = Tr P(C(X)).

    The map from X to the matrix entries is an isometry and the entrywise
    Hessian of Tr P is bounded by m2 of the operator norm, so this bounds
    the operator norm of the Hessian of g, the function whose gradient and
    variance the other kappa estimates use.  Serves as the conservative
    kappa_2 surrogate; the dense Hessian is never materialized outside
    small-n tests.
    """
    return float(poly.second_derivative_majorant(spectral_norm(lam)))


def trace_block(lam: np.ndarray, n: int, poly: TestPolynomial) -> np.ndarray:
    """Tr P(C) of each row of half spectra: P(lambda_t) reduced with the
    Hermitian weights 1 at t = 0 and t = n/2 (n even), 2 elsewhere."""
    vals = poly.evaluate(lam)
    weights = np.full(lam.shape[-1], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    traces = (vals.real * weights).sum(axis=1)
    _check_imag(_self_conjugate_imag(vals, n), np.abs(traces), "Tr P(C)")
    return traces


def gradient_block(lam: np.ndarray, n: int, poly: TestPolynomial) -> np.ndarray:
    """Gradient of X -> Tr P(C(X)) for each row of half spectra:
    sqrt(n) * irfft(P'(lambda)), the rows of :func:`gradient_trace_polynomial`."""
    dvals = poly.derivative_values(lam)
    grads = np.fft.irfft(dvals, n=n, axis=-1)
    grads *= math.sqrt(n)
    _check_imag(_self_conjugate_imag(dvals, n) / n,
                np.abs(grads).max(axis=1) / math.sqrt(n), "derivative symbol")
    return grads
