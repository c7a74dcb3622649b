"""Circulant realizations: spectra, traces, gradients, norm bounds.

A circulant matrix here has entry (i, j) equal to x[(j - i) mod n], where
x = X / sqrt(n) is the scaled first row built from raw inputs X.  Its
eigenvalues are

    lambda_t = sum_k x_k * w^(t k),   w = exp(2 pi i / n),

computed in O(n log n) as n * ifft(x).  Because x is real the spectrum is
conjugate-symmetric, so traces of real polynomials are real up to
transform noise; every spectral-route operation checks that residual.

The production statistic is the linear eigenvalue statistic

    Tr P(C) = sum_t P(lambda_t),

with P evaluated once per eigenvalue by Horner's rule.  Traces of single
matrix powers are offered by two independent oracle routes: the
eigenvalue power sum and the defining index sum

    Tr(C^p) = n * sum x_{i_1} ... x_{i_p}   over i_1 + ... + i_p = 0 (mod n),

by explicit enumeration of the n^(p-1) free indices (budget-guarded).

The gradient of X -> Tr P(C(X)) is exact matrix calculus: P'(C) is itself
circulant with first-row symbol d = fft(P'(lambda)) / n, and each X_m
appears in the n positions of one diagonal class, giving

    d/dX_m Tr P(C) = sqrt(n) * d[(n - m) mod n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .ensembles import EnsembleSpec, RandomStream, sample_sequence
from .errors import BudgetExceededError, ImaginaryResidualError

IMAG_RESIDUAL_TOL = 1e-8
DEFAULT_TRACE_BUDGET = 10**8


def _horner(coeffs: Sequence[float], z):
    """sum_j coeffs[j] * z^j by Horner's rule; coefficients from degree 0 up."""
    acc = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        acc = acc * z + a
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

    def second_derivative_majorant(self, z: float) -> float:
        """m2(z) = sum_k k (k-1) |a_k| z^(k-2), nondecreasing for z >= 0."""
        if z < 0:
            raise ValueError("the majorant is defined for z >= 0")
        return float(_horner([k * (k - 1) * abs(a) for k, a in self.terms()], z))


@dataclass(frozen=True)
class CirculantSample:
    """One realization: raw inputs, scaled first row, cached spectrum.

    Immutable after construction; the spectrum cache is single-assignment
    (recomputation under a race yields the identical array, so publication
    is idempotent and thread-safe).
    """

    n: int
    raw_inputs: np.ndarray
    scaled_row: np.ndarray
    _spectrum: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.raw_inputs.shape != (self.n,) or self.scaled_row.shape != (self.n,):
            raise ValueError("input vectors must have length n")
        self.raw_inputs.setflags(write=False)
        self.scaled_row.setflags(write=False)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues lambda_t = sum_k x_k w^(t k), computed once and cached."""
        if self._spectrum is None:
            lam = self.n * np.fft.ifft(self.scaled_row)
            lam.setflags(write=False)
            object.__setattr__(self, "_spectrum", lam)
        return self._spectrum

    def dense_matrix(self) -> np.ndarray:
        """Materialize the full matrix; intended for small-n oracle checks."""
        idx = (np.arange(self.n)[None, :] - np.arange(self.n)[:, None]) % self.n
        return self.scaled_row[idx]


def build_sample(spec: EnsembleSpec, n: int, stream: RandomStream) -> CirculantSample:
    """Draw raw inputs from the ensemble and scale the first row by 1/sqrt(n)."""
    raw = sample_sequence(spec, n, stream)
    return CirculantSample(n=n, raw_inputs=raw, scaled_row=raw / math.sqrt(n))


def _check_real(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_RESIDUAL_TOL * (1.0 + abs(value.real)):
        raise ImaginaryResidualError(
            f"{what} should be real; imaginary residual {value.imag:.3e} "
            f"exceeds tolerance {IMAG_RESIDUAL_TOL:.0e}"
        )
    return float(value.real)


def trace_power_spectral(sample: CirculantSample, p: int) -> float:
    """Tr(C^p) as the eigenvalue power sum Re(sum_t lambda_t^p)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    total = complex(np.sum(sample.spectrum() ** p))
    return _check_real(total, f"Tr(C^{p})")


def trace_power_direct(
    sample: CirculantSample, p: int, budget: int = DEFAULT_TRACE_BUDGET
) -> float:
    """Tr(C^p) by explicit enumeration of the defining index sum.

    Visits all n^(p-1) free index tuples (the last index is determined
    modulo n); refuses when that exceeds the budget.  Exists as an
    FFT-independent cross-check of :func:`trace_power_spectral`.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    n = sample.n
    tuples = n ** (p - 1)
    if tuples > budget:
        raise BudgetExceededError(
            f"direct trace would visit {n}^{p - 1} = {tuples} tuples, "
            f"exceeding the budget of {budget}"
        )
    x = sample.scaled_row
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


def trace_polynomial(sample: CirculantSample, poly: TestPolynomial) -> float:
    """Tr P(C) = sum_t P(lambda_t) along the spectral route."""
    return _check_real(complex(np.sum(poly.evaluate(sample.spectrum()))), "Tr P(C)")


def spectral_norm(sample: CirculantSample) -> float:
    """Operator norm max_t |lambda_t|; circulant matrices are normal."""
    return float(np.max(np.abs(sample.spectrum())))


def gradient_trace_polynomial(
    sample: CirculantSample, poly: TestPolynomial
) -> np.ndarray:
    """Gradient of X -> Tr P(C(X)) with respect to the raw inputs.

    P'(C) is circulant with first-row symbol d = fft(P'(lambda)) / n; the
    chain rule through x = X / sqrt(n) and the n occurrences of each x_m
    give d/dX_m = sqrt(n) * d[(n - m) mod n].
    """
    n = sample.n
    lam = sample.spectrum()
    d_row = np.fft.fft(poly.derivative_values(lam)) / n
    scale = 1.0 + float(np.max(np.abs(d_row.real)))
    residual = float(np.max(np.abs(d_row.imag)))
    if residual > IMAG_RESIDUAL_TOL * scale:
        raise ImaginaryResidualError(
            f"derivative symbol should be real; imaginary residual "
            f"{residual:.3e} exceeds tolerance {IMAG_RESIDUAL_TOL:.0e}"
        )
    m = np.arange(n)
    return math.sqrt(n) * d_row.real[(n - m) % n]


def hessian_norm_bound(sample: CirculantSample, poly: TestPolynomial) -> float:
    """Majorant m2(||C||) / n for the Hessian norm of the normalized statistic.

    Bounds the operator norm of the Hessian of X -> Tr P(C(X)) / n: the map
    from X to the matrix entries is an isometry, the entrywise Hessian of
    Tr P is bounded by m2 of the operator norm, and the 1/n normalization
    passes through.  Used as the conservative kappa_2 surrogate; the dense
    Hessian is never materialized outside small-n tests.
    """
    return poly.second_derivative_majorant(spectral_norm(sample)) / sample.n
