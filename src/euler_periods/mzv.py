"""Multiple zeta values and alternating double series, as iterated integrals.

Both ``mzv`` and ``multiphi`` are values at 1 of iterated integrals over the
letters ``{0, 1, -1}``.  A *word* is a list of letters, outermost first;
letter 0 stands for ``dt/t`` and a letter ``a != 0`` for ``dt/(a - t)``, and

    I_y(w_1 ... w_n) = integral over y > t_1 > ... > t_n > 0 of
                       omega_(w_1)(t_1) ... omega_(w_n)(t_n).

``zeta(n_1, ..., n_d)`` (inner-first) is ``I_1`` of the word
``0**(n_d-1) 1 ... 0**(n_1-1) 1``, and ``multiphi((m, n))`` is ``I_1`` of
``0**(n-1) -1 0**(m-1) 1``.  The word length is the weight.

The engine is the Hoelder convolution of Borwein, Bradley, Broadhurst and
Lisonek, "Special values of multiple polylogarithms" (arXiv:math/9910045).
The substitution ``t -> 1 - t`` maps letter ``a`` to ``1 - a`` and, for
``a = -1`` only, flips the sign, so splitting the simplex at 1/2 gives

    I_1(w) = sum(sigma_j * I_(1/2)(phi(w_j) ... phi(w_1))
                 * I_(1/2)(w_(j+1) ... w_n), j = 0..n)

with ``phi: 0 -> 1, 1 -> 0, -1 -> 2`` and ``sigma_j = (-1)**(number of -1
among w_1 .. w_j)``.  :func:`_suffix_integrals` gives ``I_(1/2)`` of every
suffix of a word in one pass over the power series ``I_t(suffix) =
sum(c_k t**k)``: letter 0 divides ``c_k`` by ``k``, and letter ``a`` runs
``D_k = (D_(k-1) + c_k)/a``, ``c'_(k+1) = D_k/(k+1)``.  It keeps ``e_k =
c_k 2**-k`` in Python-integer fixed point with ``b`` fraction bits, so the
update reads ``E_k = (E_(k-1) + e_k) // (2a)``, ``e'_(k+1) = E_k // (k+1)``.

The declared bound is a proof, in four steps.

1. Every nonzero letter has ``|a| >= 1``, so every ``|c_k| <= 1``: letter 0
   divides by ``k >= 1``, and letter ``a`` gives ``|D_k| <= k + 1``.  Hence
   a series summed over ``k <= N`` misses at most ``2**-N``, and every
   factor ``|I_(1/2)| <= sum(2**-k, k >= 1) = 1`` (``c_0 = 0`` for a
   nonempty word).
2. Each floor costs at most one unit of ``2**-b``.  If the coefficients
   entering a letter are off by ``u`` units, a letter 0 leaves them off by
   ``u + 1``; for a letter ``a`` the average ``E`` stays within ``u + 2``,
   since ``|2a| >= 2`` does not amplify, and ``e'`` within ``u + 3``.  So
   with ``U`` the sum of 1 per letter 0 and 3 per other letter, every
   factor is off by at most ``alpha = 2**-N + (N + 1) U 2**-b``.
3. The products are summed exactly in units of ``2**-2b``; each is off by
   at most ``alpha (2 + alpha)``, the sum by ``(n + 1)`` times that.
4. Converting the integer sum to an mpf at the working precision ``p``
   bits adds at most ``|value| 2**-p``.

The bound is that count of units, rounded up to an mpf.  The plan comes
a priori from ``prec`` and ``n``, before any term is summed: with ``wd =
working_dps(prec)``, ``T = ceil(wd log2 10) + bitlen(n + 1) + 3``, ``N =
T`` unless a cutoff sets it, and ``b = T + bitlen((N + 1) U)``.  Then
``alpha <= 2**(1-T)``, step 3 stays below ``10**-wd / 2`` and step 4,
for values of modulus below 2, as well.  So the bound sits under the
guard digits like the other evaluators', and callers that scale a value
(``coeff_a3`` takes ``50/3`` of ``multiphi((1, 3))``) keep their margin.
Nothing is retried.  Cost: ``2n`` passes of ``N + 1`` big-integer steps,
linear in the weight.  :data:`WEIGHT_CAP` and :data:`CUTOFF_CAP` bound it.

:func:`mzv_bruteforce` is an independent oracle: a truncated nested sum
with an elementary integral tail bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Sequence

import mpmath
from mpmath import mpf

from .errors import DivergentIndex, DomainError, TooLarge
from .eulerfun import zeta
from .numkernel import MAX_PREC, BigReal, check_prec, working_dps, _round_cushion

#: Maximum supported depth of an index.
DEPTH_CAP = 3

#: Maximum weight (sum of the parts) the iterated-integral engine runs on;
#: cost is linear in it, about 70 ms at the cap and prec 100.
WEIGHT_CAP = 1000

#: Maximum explicit ``multiphi`` cutoff: ``2**-1000`` is far below any
#: ``10**-prec`` the interface accepts.
CUTOFF_CAP = 1000

MzvIndex = tuple[int, ...]

#: Letter ``a`` under ``t -> 1 - t``: the letter ``1 - a`` and the sign.
_REFLECT = {0: (1, 1), 1: (0, 1), -1: (2, -1)}


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
# Iterated integrals at 1/2
# ---------------------------------------------------------------------------


def _word(parts: Sequence[int], letters: Sequence[int]) -> list[int]:
    """``0**(s-1) a`` for each part ``s`` and letter ``a``, outermost first."""
    if sum(parts) > WEIGHT_CAP:
        raise TooLarge(f"weight {sum(parts)} exceeds the supported cap {WEIGHT_CAP}")
    return [x for s, a in zip(parts, letters) for x in [0] * (s - 1) + [a]]


def _suffix_integrals(word: Sequence[int], terms: int, bits: int) -> list[int]:
    """``I_(1/2)`` of ``word[j:]`` for ``j = 0..len(word)``, in units of ``2**-bits``.

    Each is the sum of the series coefficients ``e_0 .. e_terms``; the
    last entry is the empty word, exactly 1.
    """
    e = [1 << bits] + [0] * terms
    out = [e[0]]
    for a in reversed(word):
        if a == 0:
            e = [0] + [x // k for k, x in enumerate(e[1:], 1)]
        else:
            avg, e_next = 0, [0]
            for k in range(terms):
                avg = (avg + e[k]) // (2 * a)
                e_next.append(avg // (k + 1))
            e = e_next
        out.append(sum(e))
    return out[::-1]


def _at_one(word: Sequence[int], prec: int, terms: int | None = None) -> BigReal:
    """``I_1(word)`` by the Hoelder split at 1/2, with the bound of the module docstring.

    ``terms`` is ``N``, the series terms on each side of the split; by
    default the plan that meets ``10**-working_dps(prec)``.
    """
    n = len(word)
    units = sum(3 if a else 1 for a in word)
    planned = math.ceil(working_dps(prec) * math.log2(10)) + (n + 1).bit_length() + 3
    terms = planned if terms is None else terms
    bits = planned + ((terms + 1) * units).bit_length()
    ahead = _suffix_integrals(word, terms, bits)
    behind = _suffix_integrals([_REFLECT[a][0] for a in reversed(word)], terms, bits)[::-1]
    signs = accumulate((_REFLECT[a][1] for a in word), mul, initial=1)
    total = sum(s * x * y for s, x, y in zip(signs, behind, ahead))
    alpha = (1 << max(bits - terms, 0)) + (terms + 1) * units
    err = (n + 1) * alpha * ((2 << bits) + alpha)
    with mpmath.workdps(working_dps(prec)):
        err += (abs(total) >> mpmath.mp.prec) + 1
        shift = max(err.bit_length() - 32, 0)  # 32-bit mantissa, exact as an mpf
        err = mpf((-(-err >> shift), shift - 2 * bits))
        return BigReal(mpf((total, -2 * bits)), err, prec)


# ---------------------------------------------------------------------------
# mzv proper
# ---------------------------------------------------------------------------


def mzv(idx: Sequence[int], prec: int) -> BigReal:
    """Multiple zeta value for an admissible index of depth <= 3.

    The index is written inner-first: ``(n_1, ..., n_d)`` weights the
    smallest summation variable by ``n_1`` and the largest by ``n_d``, and
    admissibility means ``n_d >= 2``.  Inadmissible indices raise
    :class:`DivergentIndex`.  Depth 1 is :func:`zeta`; deeper indices are
    ``I_1`` of the word ``0**(n_d-1) 1 ... 0**(n_1-1) 1`` by the Hoelder
    split of the module docstring, whose bound is proved there.  A weight
    above :data:`WEIGHT_CAP` raises :class:`TooLarge`.
    """
    idx = _check_index(idx)
    check_prec(prec)
    if len(idx) == 1:
        return zeta(idx[0], prec)
    return _at_one(_word(idx[::-1], [1] * len(idx)), prec).demand("mzv")


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


def multiphi(idx: Sequence[int], prec: int, cutoff: int | None = None) -> BigReal:
    """Alternating double series ``sum((-1)**(k+l) k**-m l**-n, 0 < k < l)``.

    The series is ``I_1`` of the word ``0**(n-1) -1 0**(m-1) 1``, evaluated
    by the same Hoelder split at 1/2 as :func:`mzv`, with the bound proved
    in the module docstring.  Only depth 2 is taken.  A weight ``m + n``
    above :data:`WEIGHT_CAP` raises :class:`TooLarge`.

    ``cutoff`` sets ``N``, the number of series terms on each side of the
    split, in place of the plan for ``prec`` (used by stability checks).
    It must be an integer in ``[4, CUTOFF_CAP]``.  With an explicit cutoff
    the result is returned with its honest bound even when that bound
    exceeds ``10**-prec``; without one the usual certification applies.
    """
    idx = tuple(idx)
    if len(idx) != 2:
        raise DomainError(f"multiphi takes a depth-2 index, got {idx!r}")
    m, n = idx
    for part in (m, n):
        if not isinstance(part, int) or part < 1:
            raise DomainError(f"index parts must be integers >= 1, got {idx!r}")
    check_prec(prec)
    if cutoff is not None:
        if not isinstance(cutoff, int) or cutoff < 4:
            raise DomainError(f"cutoff must be an integer >= 4, got {cutoff!r}")
        if cutoff > CUTOFF_CAP:
            raise TooLarge(f"cutoff {cutoff} exceeds the supported cap {CUTOFF_CAP}")
    out = _at_one(_word((n, m), (-1, 1)), prec, cutoff)
    return out.demand("multiphi") if cutoff is None else out


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
