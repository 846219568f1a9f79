"""Multiple zeta values and alternating double series.

``mzv`` evaluates nested sums

    zeta(n_1, ..., n_d) = sum over 0 < k_1 < ... < k_d of prod k_i**(-n_i)

for depth up to three.  The algorithm works from the innermost remainder
outwards: each level's remainder function ``Y_j(m) = sum(l**-n_j * Y_(j+1)(l),
l > m)`` is given an asymptotic expansion in powers of ``1/m`` with exact
rational coefficients (Euler-Maclaurin term by term), the expansions seed
the values at a cutoff ``L``, and a single backward recurrence fills in the
finite part.  No cancellation occurs anywhere; declared bounds follow the
first-omitted-term heuristic and are validated against
:func:`mzv_bruteforce`, an independent truncated nested sum with an
elementary integral tail bound.

``multiphi`` handles the alternating analogue ``sum((-1)**(k+l) k**-m l**-n,
0 < k < l)``: the outer alternating sum is folded into the positive kernel
``beta_n(k) = sum((-1)**(j-1) (k+j)**-n, j >= 1)``, whose seed at the
cutoff is computed by accelerated alternating summation and whose tail
expansion comes from Boole summation (Euler polynomial weights).  The
representation makes the negativity of every ``multiphi`` value manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import mpf

from .errors import DivergentIndex, DomainError, TooLarge
from .eulerfun import zeta
from .numkernel import (
    BigReal,
    accel_alt_sum,
    as_mpf,
    bernoulli,
    check_prec,
    euler_at_zero,
    working_dps,
    _round_cushion,
)

#: Maximum supported depth of an index.
DEPTH_CAP = 3

MzvIndex = tuple[int, ...]


def _check_index(idx: Sequence[int]) -> MzvIndex:
    idx = tuple(idx)
    if not idx:
        raise DomainError("empty index")
    for n in idx:
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"index parts must be integers >= 1, got {idx!r}")
    if len(idx) > DEPTH_CAP:
        raise TooLarge(f"depth {len(idx)} exceeds the supported cap {DEPTH_CAP}")
    if idx[-1] < 2:
        raise DivergentIndex(
            f"index {idx!r} has last part 1; the nested sum diverges")
    return idx


# ---------------------------------------------------------------------------
# Rational asymptotic series in powers of 1/m
# ---------------------------------------------------------------------------


@dataclass
class _TailSeries:
    """Truncated expansion ``sum(c_q * m**-q)`` plus a dropped-mass gauge."""

    coeffs: dict[int, Fraction]
    drop: float

    def shifted(self, a: int) -> "_TailSeries":
        return _TailSeries({q + a: c for q, c in self.coeffs.items()}, self.drop)


def _poch_int(q: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= q + i
    return out


def _power_tail(q: int, qmax: int) -> _TailSeries:
    """Expansion of ``sum(l**-q, l > m)`` for integer ``q >= 2``."""
    if q < 2:
        raise DomainError(f"tail of l**-{q} diverges")
    coeffs: dict[int, Fraction] = {}
    drop = 0.0
    if q - 1 <= qmax:
        coeffs[q - 1] = Fraction(1, q - 1)
    else:
        drop = max(drop, 1.0 / (q - 1))
    if q <= qmax:
        coeffs[q] = Fraction(-1, 2)
    else:
        drop = max(drop, 0.5)
    j = 1
    while True:
        p = q + 2 * j - 1
        c = bernoulli(2 * j) / math.factorial(2 * j) * _poch_int(q, 2 * j - 1)
        if p > qmax:
            drop = max(drop, abs(float(c)))
            break
        coeffs[p] = coeffs.get(p, Fraction(0)) + c
        j += 1
    return _TailSeries(coeffs, drop)


def _series_tail(s: _TailSeries, qmax: int) -> _TailSeries:
    """Expansion of ``sum(S(l), l > m)`` given the expansion ``S``."""
    out: dict[int, Fraction] = {}
    drop = s.drop
    for q, c in s.coeffs.items():
        part = _power_tail(q, qmax)
        for p, d in part.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + c * d
        drop = max(drop, abs(float(c)) * part.drop)
    return _TailSeries(out, drop)


def _series_eval(s: _TailSeries, m: int, qmax: int) -> tuple[mpf, mpf]:
    """Value at ``m`` and a heuristic bound for the truncated part."""
    mv = mpf(m)
    value = mpf(0)
    top = mpf(0)
    for q in sorted(s.coeffs):
        c = s.coeffs[q]
        t = as_mpf(c) * mv ** (-q)
        value += t
        if q >= qmax - 2:
            top = max(top, abs(t))
    dropped = mpf(s.drop) * mv ** (-(qmax + 1)) * m
    return value, 10 * (top + dropped)


# ---------------------------------------------------------------------------
# mzv proper
# ---------------------------------------------------------------------------


def _mzv_once(idx: MzvIndex, prec: int, scale: int) -> BigReal:
    d = len(idx)
    wd = working_dps(prec)
    cutoff = max(40, int(1.3 * wd)) * scale
    qmax = int(wd * math.log(10) / math.log(cutoff)) + 6

    expansions: list[_TailSeries | None] = [None] * (d + 1)
    expansions[d] = _power_tail(idx[-1], qmax)
    for j in range(d - 1, 0, -1):
        expansions[j] = _series_tail(expansions[j + 1].shifted(idx[j - 1]), qmax)

    with mpmath.workdps(wd):
        y: list[mpf] = [mpf(0)] * (d + 1)
        err = mpf(0)
        for j in range(1, d + 1):
            y[j], e = _series_eval(expansions[j], cutoff, qmax)
            err += e
        for m in range(cutoff - 1, -1, -1):
            base = mpf(m + 1)
            for j in range(1, d + 1):
                inner = y[j + 1] if j < d else mpf(1)
                y[j] = y[j] + base ** (-idx[j - 1]) * inner
        value = y[1]
        err += _round_cushion(value, wd) * cutoff * d
        return BigReal(value, err, prec)


def mzv(idx: Sequence[int], prec: int) -> BigReal:
    """Multiple zeta value for an admissible index of depth <= 3.

    The index is written inner-first: ``(n_1, ..., n_d)`` weights the
    smallest summation variable by ``n_1`` and the largest by ``n_d``, and
    admissibility means ``n_d >= 2``.  Inadmissible indices raise
    :class:`DivergentIndex`.
    """
    idx = _check_index(idx)
    check_prec(prec)
    if len(idx) == 1:
        return zeta(idx[0], prec)
    last = None
    for scale in (1, 2, 4):
        last = _mzv_once(idx, prec, scale)
        if last.certified():
            return last
    return last.demand("mzv")


def mzv_bruteforce(idx: Sequence[int], cutoff: int, prec: int = 15) -> BigReal:
    """Truncated nested sum with an explicit elementary tail bound.

    Independent oracle for :func:`mzv`: the nested sum is accumulated
    directly up to ``cutoff`` and the discarded tail is bounded by integral
    comparison, using ``zeta(s) <= 1 + 1/(s-1)`` for inner partial sums
    (or ``1 + log m`` for parts equal to 1).  The returned ``err`` is that
    bound plus rounding, so the value is certified without reference to any
    expansion used by :func:`mzv`.
    """
    idx = _check_index(idx)
    check_prec(prec)
    if not isinstance(cutoff, int) or cutoff < len(idx) + 1:
        raise DomainError(f"cutoff must be an integer > depth, got {cutoff!r}")
    d = len(idx)
    wd = working_dps(prec)
    with mpmath.workdps(wd):
        if d == 1:
            s = idx[0]
            total = mpmath.fsum(mpf(k) ** (-s) for k in range(1, cutoff + 1))
            tail = mpf(cutoff) ** (1 - s) / (s - 1)
        elif d == 2:
            a, b = idx
            h = mpf(0)
            total = mpf(0)
            for l in range(2, cutoff + 1):
                h += mpf(l - 1) ** (-a)
                total += mpf(l) ** (-b) * h
            tail = _log_poly_tail(cutoff, b, 1 if a == 1 else 0) * _inner_cap([a])
        else:
            a, b, c = idx
            # Invariant entering iteration m: h = H_a(m-1), z2 = Z2(a,b; m-1)
            # where Z2(a,b; M) = sum(k**-a l**-b, 0 < k < l <= M).
            h = mpf(1)
            z2 = mpf(0)
            total = mpf(0)
            for m in range(2, cutoff + 1):
                total += mpf(m) ** (-c) * z2
                z2 += mpf(m) ** (-b) * h
                h += mpf(m) ** (-a)
            r = (1 if a == 1 else 0) + (1 if b == 1 else 0)
            tail = _log_poly_tail(cutoff, c, r) * _inner_cap([a, b])
        err = tail + _round_cushion(total, wd) * cutoff
        return BigReal(total, err, prec)


def _inner_cap(parts: Sequence[int]) -> mpf:
    """Product of cutoff-free caps for inner partial sums with parts >= 2."""
    out = mpf(1)
    for s in parts:
        if s >= 2:
            out *= 1 + mpf(1) / (s - 1)
    return out


def _log_poly_tail(cutoff: int, q: int, r: int) -> mpf:
    """Bound ``sum(l**-q (1 + log l)**r, l > cutoff)`` by its integral.

    Uses ``int x**-q (log x)**j dx = j!/(q-1)**(j+1) * x**(1-q) *
    sum(((q-1) log x)**i / i!, i <= j)`` evaluated at the cutoff; ``r`` is
    the number of inner parts equal to 1 (0, 1 or 2).
    """
    if q < 2:
        raise DomainError("tail bound requires outer part >= 2")
    k = mpf(cutoff)
    lk = mpmath.log(k)
    total = mpf(0)
    for j in range(r + 1):
        ij = (math.factorial(j) / mpf(q - 1) ** (j + 1) * k ** (1 - q)
              * mpmath.fsum(((q - 1) * lk) ** i / math.factorial(i) for i in range(j + 1)))
        total += math.comb(r, j) * ij
    return total


# ---------------------------------------------------------------------------
# Alternating double series
# ---------------------------------------------------------------------------


def _beta_series(n: int, qmax: int) -> _TailSeries:
    """Boole expansion of ``beta_n(k)`` in powers of ``1/k``.

    ``beta_n(k) = (1/2) sum(E_i(0)/i! * (-1)**i * poch(n, i) * (k+1)**-(n+i))``
    with each ``(k+1)**-q`` re-expanded binomially around ``1/k``.
    """
    coeffs: dict[int, Fraction] = {}
    drop = 0.0
    i = 0
    while n + i <= qmax:
        e = euler_at_zero(i)
        if e:
            c = Fraction(1, 2) * e / math.factorial(i) * ((-1) ** i) * _poch_int(n, i)
            q = n + i
            # (k+1)**-q = sum((-1)**t * C(q+t-1, t) * k**-(q+t))
            t = 0
            while q + t <= qmax:
                coeffs[q + t] = (coeffs.get(q + t, Fraction(0))
                                 + c * (-1) ** t * math.comb(q + t - 1, t))
                t += 1
            drop = max(drop, abs(float(c)) * math.comb(q + t - 1, t))
        i += 1
    drop = max(drop, 1.0)
    return _TailSeries(coeffs, drop)


def multiphi(idx: Sequence[int], prec: int, cutoff: int | None = None) -> BigReal:
    """Alternating double series ``sum((-1)**(k+l) k**-m l**-n, 0 < k < l)``.

    Swapping summation order gives ``-sum(k**-m * beta_n(k))`` with the
    strictly positive kernel ``beta_n``, so every value is negative.  The
    outer (``l``) variable is handled by alternating machinery: a
    Chebyshev-accelerated seed for ``beta_n`` at the cutoff, an exact
    backward recurrence ``beta(k-1) = k**-n - beta(k)`` below it, and a
    Boole-summation tail expansion above it.

    ``cutoff`` overrides the automatic split point (used by stability
    checks).  With an explicit cutoff the result is returned with its
    honest bound even when that bound exceeds ``10**-prec``; without one
    the usual certification applies.
    """
    idx = tuple(idx)
    if len(idx) != 2:
        raise DomainError(f"multiphi takes a depth-2 index, got {idx!r}")
    m, n = idx
    for part in (m, n):
        if not isinstance(part, int) or part < 1:
            raise DomainError(f"index parts must be integers >= 1, got {idx!r}")
    check_prec(prec)
    wd = working_dps(prec) + 4
    L = cutoff if cutoff is not None else max(40, int(1.4 * wd))
    if not isinstance(L, int) or L < 4:
        raise DomainError(f"cutoff must be an integer >= 4, got {cutoff!r}")
    qmax = int(wd * math.log(10) / math.log(L)) + 6

    seed_prec = min(prec + 6, 100)
    with mpmath.workdps(wd):
        seed = accel_alt_sum(lambda j: mpf(-1) ** (j - 1) * mpf(L + j) ** (-n), seed_prec)
        series = _series_tail(_beta_series(n, qmax).shifted(m), qmax)
        tail, tail_err = _series_eval(series, L, qmax)

        beta = seed.value
        head = mpf(0)
        for k in range(L, 0, -1):
            head += mpf(k) ** (-m) * beta
            beta = mpf(k) ** (-n) - beta
        harmonic_cap = 1 + mpmath.log(L) if m == 1 else _inner_cap([m])
        err = tail_err + seed.err * (1 + harmonic_cap) + _round_cushion(head, wd) * L
        value = -(head + tail)
        out = BigReal(value, err, prec)
        if cutoff is None:
            return out.demand("multiphi")
        return out


# ---------------------------------------------------------------------------
# Derived combinations
# ---------------------------------------------------------------------------


def stuffle_residual(m: int, n: int, prec: int) -> BigReal:
    """Defect of ``zeta(m) zeta(n) = zeta(m,n) + zeta(n,m) + zeta(m+n)``.

    Returns the absolute residual with the combined declared bounds of the
    four constituents; for correct implementations the residual is bounded
    by its own ``err``.
    """
    for part in (m, n):
        if not isinstance(part, int) or part < 2:
            raise DomainError(f"stuffle check requires parts >= 2, got ({m!r}, {n!r})")
    check_prec(prec)
    inner = min(prec + 2, 100)
    lhs = zeta(m, inner) * zeta(n, inner)
    rhs = mzv((m, n), inner) + mzv((n, m), inner) + zeta(m + n, inner)
    resid = abs(lhs - rhs)
    return BigReal(resid.value, resid.err, prec)


def p35_combination(prec: int) -> BigReal:
    """The weight-8 combination ``(2/5)(29 zeta(8) - 12 zeta(3,5)) - 9 zeta(5) zeta(3)``."""
    check_prec(prec)
    inner = min(prec + 4, 100)
    z8 = zeta(8, inner)
    z35 = mzv((3, 5), inner)
    z5 = zeta(5, inner)
    z3 = zeta(3, inner)
    out = Fraction(2, 5) * (29 * z8 - 12 * z35) - 9 * (z5 * z3)
    return BigReal(out.value, out.err, prec).demand("p35_combination")
