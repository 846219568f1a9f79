"""Multiple zeta values and alternating sums of any depth, as iterated integrals.

``mzv`` and ``multiphi`` are words over the letters ``{0, 1, -1}`` of the
iterated-integral engine of :mod:`.numkernel`, whose bound is proved in
that module's docstring; the index to word map is the one place depth
enters.  :func:`mzv_bruteforce` is an independent oracle: a truncated
nested sum with an elementary integral tail bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import mpf
from mpmath.libmp import from_int, mpf_pow_int, round_nearest

from .errors import DivergentIndex, DomainError, TooLarge
from .eulerfun import zeta
from .numkernel import (BRUTEFORCE_STEP_CAP, MAX_PREC, BigReal, check_prec, working_bits, working_dps,
                        _at_one, _new_ball, _up, _word)


def _parts(idx: Sequence[int]) -> tuple[int, ...]:
    idx = tuple(idx)
    if not idx:
        raise DomainError("empty index")
    for n in idx:
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"index parts must be integers >= 1, got {idx!r}")
    return idx


def _admissible(idx: Sequence[int]) -> tuple[int, ...]:
    idx = _parts(idx)
    if idx[-1] < 2:
        raise DivergentIndex(
            f"index {idx!r} has last part 1; the nested sum diverges")
    return idx


def mzv(idx: Sequence[int], prec: int) -> BigReal:
    """Multiple zeta value for an admissible index of any depth.

    The index is written inner-first: ``(n_1, ..., n_d)`` weights the
    smallest summation variable by ``n_1`` and the largest by ``n_d``, and
    admissibility means ``n_d >= 2``.  Inadmissible indices raise
    :class:`DivergentIndex`.  Every depth is one engine call on the word
    ``0**(n_d-1) 1 ... 0**(n_1-1) 1``.  A weight above
    ``numkernel.WEIGHT_CAP`` raises :class:`TooLarge`.
    """
    idx = _admissible(idx)
    check_prec(prec)
    return _at_one(_word(idx[::-1], [1] * len(idx)), prec).demand("mzv")


def mzv_bruteforce(idx: Sequence[int], cutoff: int, prec: int = 15) -> BigReal:
    """Truncated nested sum with an explicit elementary tail bound.

    Independent oracle for :func:`mzv`: the nested sum is accumulated
    directly up to ``cutoff`` as running sums ``S_j(m)`` of the innermost
    ``j`` parts, and the discarded tail is bounded by integral comparison,
    with each inner partial sum capped by ``zeta(s) <= 1 + 1/(s-1)`` (or
    ``1 + log m`` for parts equal to 1); a nested sum of positive terms is
    at most the product of its unnested partial sums.  The sums enclose in
    :class:`~euler_periods.numkernel.BigReal`, each power ``m**-n`` libmp's
    at the working ``b`` bits, within ``|m**-n| 2**(1 - b)`` (``m**n`` at ``b
    + 5`` bits, then one quotient), and ``err`` adds the tail bound, so the
    value is certified without reference to any expansion used by
    :func:`mzv`.  The weight cap of :func:`mzv` applies, and a ``cutoff *
    depth`` past ``numkernel.BRUTEFORCE_STEP_CAP`` raises :class:`TooLarge`.
    """
    idx = _admissible(idx)
    d = len(idx)
    _word(idx, [1] * d)  # raises TooLarge past numkernel.WEIGHT_CAP
    check_prec(prec)
    if not isinstance(cutoff, int) or cutoff <= d:
        raise DomainError(f"cutoff must be an integer > depth, got {cutoff!r}")
    if cutoff * d > BRUTEFORCE_STEP_CAP:
        raise TooLarge(f"cutoff {cutoff} times depth {d} exceeds the supported cap {BRUTEFORCE_STEP_CAP}")
    b = working_bits(prec)
    s = [BigReal(1, 0, prec)] + [BigReal(0, 0, prec)] * d
    for m in range(1, cutoff + 1):
        k = from_int(m)
        for j in range(d, 0, -1):
            t = mpf_pow_int(k, -idx[j - 1], b, round_nearest)
            term = _new_ball(t, *_up(t[1], t[2] + 1 - b), prec)
            s[j] += term * s[j - 1] if j > 1 else term  # s[0] is an exact 1
    with mpmath.workdps(working_dps(prec)):
        caps = math.prod(1 + mpf(1) / (part - 1) for part in idx[:-1] if part >= 2)  # inner sums' caps
        tail = _log_poly_tail(cutoff, idx[-1], idx[:-1].count(1)) * caps
    return BigReal(s[d].value, mpmath.fadd(s[d].err, tail, exact=True), prec)


def _log_poly_tail(cutoff: int, q: int, r: int) -> mpf:
    """Bound ``sum(l**-q (1 + log l)**r, l > cutoff)`` by its integral.

    Uses ``int x**-q (log x)**j dx = j!/(q-1)**(j+1) * x**(1-q) *
    sum(((q-1) log x)**i / i!, i <= j)`` evaluated at the cutoff; ``r`` is
    the number of inner parts equal to 1 and ``q >= 2``.  For ``r <= 2``
    the summand decreases for ``x >= 1``, so the integral bounds the sum.
    For ``r >= 3`` it may first rise, up to ``x = e**(r/q - 1)``; the sum
    then exceeds the integral by at most its largest term, which is at most
    ``e`` times the integral.  :func:`mzv_bruteforce` stays covered,
    because ``(1 + log l)**r`` overstates the nested sum of its ``r`` parts
    equal to 1 by ``r! >= 6 > 1 + e``.
    """
    k = mpf(cutoff)
    lk = mpmath.log(k)
    total = mpf(0)
    for j in range(r + 1):
        ij = (math.factorial(j) / mpf(q - 1) ** (j + 1) * k ** (1 - q)
              * mpmath.fsum(((q - 1) * lk) ** i / math.factorial(i) for i in range(j + 1)))
        total += math.comb(r, j) * ij
    return total


# ---------------------------------------------------------------------------
# Alternating sums
# ---------------------------------------------------------------------------


def multiphi(idx: Sequence[int], prec: int) -> BigReal:
    """All-alternating sum ``sum(prod((-1)**k_i k_i**-n_i), 0 < k_1 < ... < k_d)``.

    The index is inner-first, as for :func:`mzv`, and every part ``>= 1``
    converges.  Depth 2 is ``sum((-1)**(k+l) k**-m l**-n, 0 < k < l)``,
    and depth 1 is ``-phi(n)``.  The sum is ``I_1`` of the word ``0**(n_d-1)
    -1 0**(n_(d-1)-1) 1 0**(n_(d-2)-1) -1 ...``, whose letters alternate
    from -1 outermost, evaluated by the same engine as :func:`mzv`, at the
    plan for ``prec``.  A weight above ``numkernel.WEIGHT_CAP`` raises
    :class:`TooLarge`.
    """
    idx = _parts(idx)
    check_prec(prec)
    return _at_one(_word(idx[::-1], (-1, 1) * len(idx)), prec).demand("multiphi")


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
    inner = min(prec + 2, MAX_PREC)
    lhs = zeta(m, inner) * zeta(n, inner)
    rhs = mzv((m, n), inner) + mzv((n, m), inner) + zeta(m + n, inner)
    resid = abs(lhs - rhs)
    return BigReal(resid.value, resid.err, prec)


def p35_combination(prec: int) -> BigReal:
    """The weight-8 combination ``(2/5)(29 zeta(8) - 12 zeta(3,5)) - 9 zeta(5) zeta(3)``."""
    check_prec(prec)
    inner = min(prec + 4, MAX_PREC)
    z8 = zeta(8, inner)
    z35 = mzv((3, 5), inner)
    z5 = zeta(5, inner)
    z3 = zeta(3, inner)
    out = Fraction(2, 5) * (29 * z8 - 12 * z35) - 9 * (z5 * z3)
    return BigReal(out.value, out.err, prec).demand("p35_combination")
