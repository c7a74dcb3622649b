"""Circulant realizations: half spectra, traces, gradients, kappa sums.

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
Re P, |P''| and |lambda| are the same for conj(lambda).  One FFT path
serves every n: Bailey's four-step FFT with n = n2 * n1, an rfft along n2
of X as an (n2, n1) array, twiddles w^(-k2 j1) and an fft along n1.  From
SPLIT_MIN_N on, where one rfft outgrows the cache, n1 is the largest
divisor of n at most sqrt(n); below it, and for a prime n, n1 = 1 and the
path is one rfft.  Bin (k2, k1) holds lambda_(-(k2 + n2 k1) mod n) for
0 <= k2 <= n2/2; rows 0 and n2/2 (n2 even) weigh 1, the others 2.
Weight-1 bins pair into conjugates, so the reduction takes the real part
of every bin.

The gradient of X -> Tr P(C(X)) is exact matrix calculus: P'(C) is itself
circulant with first-row symbol d = fft(P'(lambda)) / n, and each X_m
appears in the n positions of one diagonal class, giving

    d/dX_m Tr P(C) = sqrt(n) * d[(n - m) mod n] = sqrt(n) * ifft(P'(lambda))[m],

an orthonormal inverse FFT (sqrt(n) times the plain one).  As
ifft_ortho(conj a) = conj(fft_ortho(a)), :func:`gradient_block` runs the
split passes backwards with the forward twiddle table: an fft along n1 of
P' of the bins, the twiddles, one conjugation, an irfft along n2.

A worker holds two arrays of the half spectra's shape (:class:`BlockBuffers`),
and the split and its twiddle table (:func:`four_step`) are made once per
run for every worker.  The block functions (:func:`trace_block`,
:func:`gradient_block`, :func:`kappa_block`) take the half spectra, the
polynomial and those buffers, and alone decide which array each step writes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# the split runs from here on; forced lower, it measured faster at 2**14
# and tied at 2**13, but no workload has 2**13 < n < 2**15 (ROADMAP)
SPLIT_MIN_N = 2**15


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


def _floats(coeffs: Sequence[float], degree: int) -> list[float]:
    """Coefficients from `degree` up as floats: a string, a bool or a non-real
    is a TypeError, an int or a fraction beyond the float range a ValueError."""
    if isinstance(coeffs, (str, bytes)):
        raise TypeError(f"coefficients must be a sequence of numbers, not {coeffs!r}")
    out = []
    for k, a in enumerate(coeffs, start=degree):
        if isinstance(a, bool) or not isinstance(a, numbers.Real):
            raise TypeError(f"coefficients must be real numbers, not {a!r}")
        try:
            out.append(float(a))
        except OverflowError:
            raise ValueError(f"coefficients leave the float range at degree {k}") from None
    return out


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
        coeffs = tuple(_floats(self.coefficients, 2))
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
        """Build from coefficients listed from degree 0 upward, of which the
        first two must be present and zero."""
        dense = _floats(dense, 0)
        if len(dense) < 3:
            raise ValueError("dense coefficients must reach degree 2 (at least 3 entries)")
        if dense[0] != 0.0 or dense[1] != 0.0:
            raise ValueError("constant and degree-one coefficients must be zero: test "
                             "polynomials contain only terms of degree 2 and higher")
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


def four_step(n: int) -> tuple[int, int, np.ndarray | None]:
    """The split n = n2 * n1 and its twiddles w^(-k2 j1) as an (n2/2 + 1, n1)
    table, None when n1 = 1: built once per run and read by every worker's
    :class:`BlockBuffers`."""
    if n < SPLIT_MIN_N:
        return n, 1, None
    # the table at its largest, first, so a size too large to allocate is
    # refused before the search below, which takes up to sqrt(n) steps for
    # a prime n; n1 <= isqrt(n)
    table = np.empty(n // 2 + math.isqrt(n) + 1, dtype=complex)
    # the largest divisor of n at most sqrt(n)
    n1 = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    if n1 == 1:
        return n, 1, None
    n2 = n // n1
    tw = table[: (n2 // 2 + 1) * n1].reshape(n2 // 2 + 1, n1)
    # k2 j1 <= n/2 needs no reduction mod n
    np.multiply(np.outer(np.arange(n2 // 2 + 1), np.arange(n1)), -2j * np.pi / n, out=tw)
    return n2, n1, np.exp(tw, out=tw)


class BlockBuffers:
    """The two arrays one worker reuses for every block of at most `rows`
    replicas, the half spectra `lam` and one complex scratch array of their
    shape, with the run's :func:`four_step` split (n2, n1) and twiddle table.
    A block of k replicas uses the first k rows of each.  Its raw inputs are
    the first k * n floats of the scratch array (:meth:`inputs`), which
    Horner writes over once :func:`half_spectrum` has read them;
    :func:`gradient_block` writes over the spent half spectra."""

    def __init__(self, rows: int, split: tuple[int, int, np.ndarray | None]) -> None:
        self.n2, self.n1, self.twiddles = split
        half = (rows, (self.n2 // 2 + 1) * self.n1)
        self.lam = np.empty(half, dtype=complex)
        self.scratch = np.empty(half, dtype=complex)

    def inputs(self, rows: int) -> np.ndarray:
        """The raw inputs of a block of `rows` replicas, (rows, n) floats."""
        return _float_rows(self.scratch, rows, self.n2 * self.n1)


def _float_rows(a: np.ndarray, rows: int, n: int) -> np.ndarray:
    """The first rows * n floats of the complex array a, as (rows, n)."""
    return a.reshape(-1).view(float)[: rows * n].reshape(rows, n)


def half_spectrum(raw: np.ndarray, bufs: BlockBuffers) -> np.ndarray:
    """The half spectra of rows of raw inputs X, in bufs.lam, unconjugated:
    an rfft along n2 of X as (n2, n1), then split the twiddles and an fft
    along n1.  Bin k2 n1 + k1 holds lambda_(-(k2 + n2 k1) mod n) for
    0 <= k2 <= n2/2 (see the module docstring)."""
    rows = len(raw)
    lam = bufs.lam[:rows]
    spec = lam.reshape(rows, -1, bufs.n1)
    # "ortho" has pocketfft multiply each output part by 1 / sqrt(length)
    np.fft.rfft(raw.reshape(rows, -1, bufs.n1), axis=1, norm="ortho", out=spec)
    if bufs.n1 > 1:
        spec *= bufs.twiddles
        np.fft.fft(spec, axis=2, norm="ortho", out=spec)
    return lam


def trace_block(lam: np.ndarray, poly: TestPolynomial, bufs: BlockBuffers) -> np.ndarray:
    """Tr P(C) of each row of half spectra: Re P of the bins, with the
    Hermitian weights (see the module docstring) folded into the sum: the
    weight-1 bins are halved in place in bufs.scratch and the plain sum
    doubled.  Scaling by 2 is exact, so that is the weighted sum bit for
    bit, unless a halved value is subnormal and loses its last bit."""
    rows = len(lam)
    re = poly.evaluate(lam, out=bufs.scratch[:rows]).real
    re[:, : bufs.n1] *= 0.5
    if bufs.n2 % 2 == 0:
        re[:, -bufs.n1 :] *= 0.5
    return re.sum(axis=1) * 2.0


def gradient_block(lam: np.ndarray, poly: TestPolynomial,
                   bufs: BlockBuffers) -> np.ndarray:
    """Gradient of X -> Tr P(C(X)) for each row of half spectra, in natural
    order, over the spent half spectra in bufs.lam, read as floats: P' of
    the bins in bufs.scratch, then split an fft along n1 and the twiddles,
    one conjugation, an irfft along n2."""
    rows = len(lam)
    spec = poly.derivative_values(lam, out=bufs.scratch[:rows]).reshape(rows, -1, bufs.n1)
    if bufs.n1 > 1:
        np.fft.fft(spec, axis=2, norm="ortho", out=spec)
        spec *= bufs.twiddles
    np.conjugate(spec, out=spec)
    out = _float_rows(bufs.lam, rows, bufs.n2 * bufs.n1).reshape(rows, -1, bufs.n1)
    return np.fft.irfft(spec, n=bufs.n2, axis=1, norm="ortho", out=out).reshape(rows, -1)


def kappa_block(lam: np.ndarray, poly: TestPolynomial,
                bufs: BlockBuffers) -> tuple[np.ndarray, ...]:
    """The per-replica reductions of the total-variation bound for each row
    of half spectra: sum_k (dg/dX_k)^4, (sum_k (dg/dX_k)^2)^2, ||Hess g||^4
    and the trace g = Tr P(C).  Each lambda_t is linear in X, so the Hessian
    of g is (1/n) sum_t P''(lambda_t) w^(t(j+k)), a circulant with
    eigenvalues P''(lambda_t) times the reversal permutation: its operator
    norm is exactly max_t |P''(lambda_t)|, and the half spectrum holds every
    such modulus."""
    traces = trace_block(lam, poly, bufs)
    # the Hessian moduli over P'' in the scratch array's real part, both
    # read as 1-D: a 2-D abs into .real copies its input (P'' of a
    # degree-2 polynomial is a scalar)
    scratch = bufs.scratch[: len(lam)]
    second = poly.second_derivative_values(lam, out=scratch)
    np.abs(np.reshape(second, -1), out=scratch.real.reshape(-1))
    hess = scratch.real.max(axis=1)
    # the gradient last, over lam, which nothing reads after it
    sq = gradient_block(lam, poly, bufs)
    np.square(sq, out=sq)
    squared = sq.sum(axis=1) ** 2
    quartic = np.square(sq, out=sq).sum(axis=1)
    return quartic, squared, hess**4, traces
