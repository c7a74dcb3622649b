"""Circulant realizations: half spectra, traces, gradients, norms.

A circulant matrix here has entry (i, j) equal to x[(j - i) mod n], where
x = X / sqrt(n) is the scaled first row built from raw inputs X.  A
replica is just its array X.  Its eigenvalues are

    lambda_t = sum_k x_k * w^(t k),   w = exp(2 pi i / n).

As x is real, lambda_(n-t) = conj(lambda_t), so only the half spectrum
0 <= t <= n/2 of each row of a block of replicas is kept
(:func:`half_spectrum`, one rfft per block), and

    Tr P(C) = sum_t P(lambda_t)

is reduced with the Hermitian weights 1 at t = 0 and t = n/2 (n even),
2 elsewhere (:func:`trace_block`), P evaluated by Horner's rule.  Those
two bins are real by symmetry; the imaginary part the reduction drops
there is checked against IMAG_RESIDUAL_TOL.

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

from .errors import ImaginaryResidualError

IMAG_RESIDUAL_TOL = 1e-8


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


def half_spectrum(raw: np.ndarray) -> np.ndarray:
    """lambda_t for 0 <= t <= n/2 of each row of raw inputs X, by one rfft.

    The remaining eigenvalues are the conjugates lambda_(n-t) = conj(lambda_t).
    """
    lam = np.fft.rfft(raw, axis=-1)
    np.conjugate(lam, out=lam)
    lam /= math.sqrt(raw.shape[-1])
    return lam


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


def _self_conjugate_imag(vals: np.ndarray, n: int) -> np.ndarray:
    """Per row, |Im| summed over the half-spectrum bins t = 0 and t = n/2
    (n even): the imaginary part a Hermitian reduction drops."""
    bins = [0, n // 2] if n % 2 == 0 else [0]
    return np.abs(vals[:, bins].imag).sum(axis=1)


def spectral_norm(lam: np.ndarray):
    """Operator norm max_t |lambda_t| along the last axis; circulant matrices
    are normal, and a half spectrum holds every modulus."""
    return np.abs(lam).max(axis=-1)


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
    sqrt(n) * irfft(P'(lambda))."""
    dvals = poly.derivative_values(lam)
    grads = np.fft.irfft(dvals, n=n, axis=-1)
    grads *= math.sqrt(n)
    _check_imag(_self_conjugate_imag(dvals, n) / n,
                np.abs(grads).max(axis=1) / math.sqrt(n), "derivative symbol")
    return grads
