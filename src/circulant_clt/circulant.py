"""Circulant realizations: half spectra, traces, gradients.

A circulant matrix here has entry (i, j) equal to x[(j - i) mod n], where
x = X / sqrt(n) is the scaled first row built from raw inputs X.  A
replica is just its array X.  Its eigenvalues are

    lambda_t = sum_k x_k * w^(t k),   w = exp(2 pi i / n).

As x is real, lambda_(n-t) = conj(lambda_t), so only a half spectrum of
each row of a block of replicas is kept (:func:`half_spectrum`), and

    Tr P(C) = sum_t P(lambda_t)

is reduced with Hermitian weights (:func:`trace_block`), P evaluated by
Horner's rule.  The bins are left as numpy's forward transform gives
them, sum_k x_k w^(-t k) = lambda_(n-t) at bin t: with real coefficients
Re P, |P''| and |lambda| are the same for conj(lambda).  Below SPLIT_MIN_N
one rfft per block gives 0 <= t <= n/2, weighted 1 at t = 0 and t = n/2
(n even), 2 elsewhere.  From there on, where one rfft outgrows the cache,
Bailey's four-step FFT splits n = n2 * n1, n1 the largest divisor at most
sqrt(n) (1 for a prime n: one rfft): an rfft along n2 of X as an (n2, n1)
array, twiddles w^(-k2 j1), an fft along n1.  Bin (k2, k1) holds
lambda_(-(k2 + n2 k1) mod n) for 0 <= k2 <= n2/2; rows 0 and n2/2 (n2
even) weigh 1, the others 2.  Weight-1 bins pair into conjugates, so the
reduction takes the real part of every bin.

The gradient of X -> Tr P(C(X)) is exact matrix calculus: P'(C) is itself
circulant with first-row symbol d = fft(P'(lambda)) / n, and each X_m
appears in the n positions of one diagonal class, giving

    d/dX_m Tr P(C) = sqrt(n) * d[(n - m) mod n] = sqrt(n) * ifft(P'(lambda))[m],

which :func:`gradient_block` computes from the conjugates of P' of the
bins as an orthonormal irfft (sqrt(n) times the plain one), or split by
the inverse passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

SPLIT_MIN_N = 2**15  # the smallest n where the split pays (measured sweep)


def _horner(coeffs: Sequence[float], z, out=None):
    """sum_j coeffs[j] * z^j by Horner's rule; coefficients from degree 0 up.

    For an array z every step updates one accumulator in place: out, an
    array shaped like z, if given, else a new one.  A zero coefficient
    takes no addition, which can change only the sign of an exact zero.
    A scalar z gives a scalar.
    """
    *rest, acc = coeffs
    if rest:
        acc = np.multiply(acc, z, out=out)
        if a := rest.pop():
            acc += a
    for a in reversed(rest):
        acc *= z
        if a:
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
        # Horner's coefficient lists, from degree 0 up, built once
        object.__setattr__(self, "_dense", (0.0, 0.0, *coeffs))
        object.__setattr__(self, "_derivative",
                           (0.0, *(k * a for k, a in enumerate(coeffs, start=2))))
        object.__setattr__(self, "_second_derivative",
                           tuple(k * (k - 1) * a for k, a in enumerate(coeffs, start=2)))

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

    def terms(self) -> Iterator[tuple[int, float]]:
        """Yield (degree, coefficient) pairs from degree 2 upward."""
        return iter(enumerate(self.coefficients, start=2))

    def dense(self) -> list[float]:
        return list(self._dense)

    def evaluate(self, z, out=None):
        return _horner(self._dense, z, out)

    def derivative_values(self, z, out=None):
        return _horner(self._derivative, z, out)

    def second_derivative_values(self, z, out=None):
        """P''(z); a scalar 2 a_2 for degree 2, whatever z is."""
        return _horner(self._second_derivative, z, out)


class BlockBuffers:
    """The arrays one worker reuses for every block of at most `rows`
    replicas of size n: the raw inputs, the half spectra, one complex
    scratch array of the half-spectrum shape, the split (n2, n1),
    its twiddles (two factors, see _twiddle) and, from the first
    :func:`gradient_block` call, the (rows, n) gradient and the conjugate
    twiddles.  A block of k replicas uses the first k rows of each."""

    def __init__(self, rows: int, n: int) -> None:
        # first, so a size too large to allocate is refused before the
        # search below, which takes up to sqrt(n) steps for a prime n
        self.raw = np.empty((rows, n))
        n1 = 1
        if n >= SPLIT_MIN_N:  # the largest divisor of n at most sqrt(n)
            n1 = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
        self.n2, self.n1 = n2, n1 = n // n1, n1
        half = (rows, (n2 // 2 + 1) * n1)
        self.lam = np.empty(half, dtype=complex)
        self.vals = np.empty(half, dtype=complex)
        self.grad = self.inverse_twiddles = None
        s = math.isqrt(n2 // 2 + 1)  # w^(-k j1) for k = 0, s, 2s, ... and k < s
        self.twiddles = None if n1 == 1 else tuple(
            np.exp(-2j * np.pi / n * (np.outer(ks, np.arange(n1)) % n))
            for ks in (np.arange(0, n2 // 2 + 1, s), np.arange(s)))


def _twiddle(spec: np.ndarray, factors) -> None:
    """Multiply (rows, n2/2 + 1, n1) split spectra in place by the twiddle
    w^(-k2 j1) = factors[0][u, j1] * factors[1][v, j1] at k2 = u s + v:
    two tables of about 2 sqrt(n2/2) n1 values in all, not one of n/2."""
    t1, t2 = factors
    u, r = divmod(spec.shape[1], len(t2))
    body = spec[:, : u * len(t2)].reshape(len(spec), u, len(t2), -1)
    body *= t1[:u, None]
    body *= t2
    spec[:, u * len(t2):] *= t1[u:] * t2[:r]


def half_spectrum(raw: np.ndarray, bufs: BlockBuffers) -> np.ndarray:
    """The half spectra of rows of raw inputs X, in bufs.lam, unconjugated:
    lambda_(n-t) at bin t for 0 <= t <= n/2 by one rfft or, split,
    lambda_(-(k2 + n2 k1) mod n) at bin k2 n1 + k1 for 0 <= k2 <= n2/2 (see
    the module docstring); the other eigenvalues are their conjugates."""
    rows = len(raw)
    lam = bufs.lam[:rows]
    # "ortho" has pocketfft multiply each output part by 1 / sqrt(length)
    if bufs.twiddles is None:
        np.fft.rfft(raw, axis=-1, norm="ortho", out=lam)
    else:
        spec = lam.reshape(rows, -1, bufs.n1)
        np.fft.rfft(raw.reshape(rows, -1, bufs.n1), axis=1, norm="ortho", out=spec)
        _twiddle(spec, bufs.twiddles)
        np.fft.fft(spec, axis=2, norm="ortho", out=spec)
    return lam


def trace_block(lam: np.ndarray, poly: TestPolynomial, bufs: BlockBuffers) -> np.ndarray:
    """Tr P(C) of each row of half spectra: Re P of the bins, with the
    Hermitian weights (see the module docstring) folded into the sum: the
    weight-1 bins are halved in place in bufs.vals and the plain sum doubled.
    Scaling by 2 is exact, so that is the weighted sum bit for bit, unless
    a halved value is subnormal and loses its last bit."""
    rows = len(lam)
    re = poly.evaluate(lam, out=bufs.vals[:rows]).real
    re[:, : bufs.n1] *= 0.5
    if bufs.n2 % 2 == 0:
        re[:, -bufs.n1 :] *= 0.5
    return re.sum(axis=1) * 2.0


def gradient_block(lam: np.ndarray, n: int, poly: TestPolynomial,
                   bufs: BlockBuffers) -> np.ndarray:
    """Gradient of X -> Tr P(C(X)) for each row of half spectra, in natural
    order: P' of the bins, conjugated in place to P'(lambda_t) at bin t,
    then an orthonormal irfft or, split, an orthonormal ifft along n1, the
    conjugate twiddles and an orthonormal irfft along n2; in bufs.grad."""
    rows = len(lam)
    if bufs.grad is None:
        bufs.grad = np.empty((len(bufs.raw), n))
        if bufs.twiddles is not None:
            bufs.inverse_twiddles = tuple(t.conj() for t in bufs.twiddles)
    dvals = poly.derivative_values(lam, out=bufs.vals[:rows])
    np.conjugate(dvals, out=dvals)
    grads = bufs.grad[:rows]
    if bufs.twiddles is None:
        return np.fft.irfft(dvals, n=n, axis=-1, norm="ortho", out=grads)
    spec = dvals.reshape(rows, -1, bufs.n1)
    np.fft.ifft(spec, axis=2, norm="ortho", out=spec)
    _twiddle(spec, bufs.inverse_twiddles)
    np.fft.irfft(spec, n=bufs.n2, axis=1, norm="ortho",
                 out=grads.reshape(rows, bufs.n2, bufs.n1))
    return grads
