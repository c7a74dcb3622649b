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


def _horner(coeffs: Sequence[float], z, out=None):
    """sum_j coeffs[j] * z^j by Horner's rule; coefficients from degree 0 up.

    For an array z every step updates one accumulator in place: out, an
    array shaped like z, if given, else a new one.  A scalar z gives a
    scalar.
    """
    *rest, acc = coeffs
    if rest:
        acc = np.multiply(acc, z, out=out)
        acc += rest.pop()
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

    def evaluate(self, z, out=None):
        return _horner(self.dense(), z, out)

    def derivative_values(self, z, out=None):
        return _horner([0.0, *(k * a for k, a in self.terms())], z, out)

    def second_derivative_majorant(self, z):
        """m2(z) = sum_k k (k-1) |a_k| z^(k-2), nondecreasing for z >= 0."""
        if np.any(np.asarray(z) < 0):
            raise ValueError("the majorant is defined for z >= 0")
        return _horner([k * (k - 1) * abs(a) for k, a in self.terms()], z)


class BlockBuffers:
    """The arrays one worker reuses for every block of at most `rows`
    replicas of size n: the raw inputs, the half spectra, one complex and
    one real scratch array of the half-spectrum shape, the Hermitian
    weights and, from the first :func:`gradient_block` call, the (rows, n)
    gradient.  A block of k replicas uses the first k rows of each."""

    def __init__(self, rows: int, n: int) -> None:
        half = (rows, n // 2 + 1)
        self.raw = np.empty((rows, n))
        self.lam = np.empty(half, dtype=complex)
        self.vals = np.empty(half, dtype=complex)
        self.real = np.empty(half)
        self.grad = None
        self.weights = np.full(half[1], 2.0)
        self.weights[0] = 1.0
        if n % 2 == 0:
            self.weights[-1] = 1.0


def half_spectrum(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """lambda_t for 0 <= t <= n/2 of each row of raw inputs X, by one rfft
    into out if given.

    The remaining eigenvalues are the conjugates lambda_(n-t) = conj(lambda_t).
    """
    lam = np.fft.rfft(raw, axis=-1, out=out)
    np.conjugate(lam, out=lam)
    # numpy divides a complex array by the real sqrt(n) by multiplying both
    # parts by 1 / sqrt(n); the float view does that without complex arithmetic
    parts = lam.view(np.float64)
    parts *= 1.0 / math.sqrt(raw.shape[-1])
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


def spectral_norm(lam: np.ndarray, out: np.ndarray | None = None):
    """Operator norm max_t |lambda_t| along the last axis; circulant matrices
    are normal, and a half spectrum holds every modulus.  out, if given,
    receives the moduli."""
    return np.abs(lam, out=out).max(axis=-1)


def trace_block(lam: np.ndarray, n: int, poly: TestPolynomial,
                bufs: BlockBuffers) -> np.ndarray:
    """Tr P(C) of each row of half spectra: P(lambda_t) reduced with the
    Hermitian weights 1 at t = 0 and t = n/2 (n even), 2 elsewhere.

    The block's temporaries go to bufs.
    """
    rows = len(lam)
    vals = poly.evaluate(lam, out=bufs.vals[:rows])
    traces = np.multiply(vals.real, bufs.weights, out=bufs.real[:rows]).sum(axis=1)
    _check_imag(_self_conjugate_imag(vals, n), np.abs(traces), "Tr P(C)")
    return traces


def gradient_block(lam: np.ndarray, n: int, poly: TestPolynomial,
                   bufs: BlockBuffers) -> np.ndarray:
    """Gradient of X -> Tr P(C(X)) for each row of half spectra:
    sqrt(n) * irfft(P'(lambda)), written to bufs.grad (see trace_block)."""
    rows = len(lam)
    if bufs.grad is None:
        bufs.grad = np.empty((len(bufs.raw), n))
    dvals = poly.derivative_values(lam, out=bufs.vals[:rows])
    grads = np.fft.irfft(dvals, n=n, axis=-1, out=bufs.grad[:rows])
    grads *= math.sqrt(n)
    # max |g| per row, without an array of moduli
    scale = np.maximum(grads.max(axis=1), -grads.min(axis=1))
    _check_imag(_self_conjugate_imag(dvals, n) / n, scale / math.sqrt(n),
                "derivative symbol")
    return grads
