"""Exact rationals, error-carrying reals, and the summation engines.

Everything numerical in this package funnels through this module:

* :func:`bernoulli` produces exact Bernoulli numbers (``B1 = -1/2``
  convention) from the tangent numbers, in ``O(n**2)`` small-integer steps.
* :class:`BigReal` is an arbitrary-precision real paired with an explicit
  absolute error bound and the precision that was requested for it.
* :func:`em_sum` evaluates ``sum(k**-s)`` for rational ``s >= 1``, the
  exact rational the exponent denotes, by partial sum plus integral tail
  plus Bernoulli correction terms (at ``s = 1`` the harmonic sum less ``log
  n``); ``zeta`` at a non-integer ``s`` and ``gamma_const("EM")`` call it.
* :func:`accel_alt_sum` evaluates an alternating series, given its leading
  terms as integer rows in fixed point and optionally a bound on each row's
  input error, by Chebyshev-weighted acceleration, needing O(digits) terms
  instead of exponentially many.  Its integer body :func:`_chebyshev` has
  three users: ``phi``, the outer pass of ``gamma_const("ZETA_SERIES")``,
  and :func:`_zeta_pass`, the one step from ``phi(s)`` to ``zeta(s)`` at an
  integer ``s``.  That step serves ``zeta`` at an integer and
  :func:`zeta_values`, which takes ``zeta(2), ..., zeta(top)`` on one shared
  table of powers, so both give the same integers.
* :func:`_at_one` evaluates the iterated integrals from 0 to 1 whose
  words give multiple zeta values, alternating sums and polylogarithms.

Every engine sizes itself a priori and runs once; a plan that misses
raises :class:`PrecisionNotMet`.  Euler-Maclaurin, whose one caller is
:func:`em_sum`, takes the cheapest split and term count whose closed-form
first omitted term meets its target (:func:`_em_plan`).  Chebyshev takes
``n = ceil((wd - 1 + log10 2) / log10(3 + sqrt(8)))`` terms and the
Cohen-Rodriguez Villegas-Zagier bound ``2 |S| / (3 + sqrt(8))**n``, a
theorem for the moment sequences every caller sums.  No engine caches an
mpf: the Bernoulli ratios ``B_2j/(2j)!`` are cached per index as exact
integer pairs, the integer Chebyshev weights and their absolute sum per
term count, the last 1024 Euler-Maclaurin plans per exact argument tuple,
the last 128 :func:`zeta_values` batches per ``(top, prec)`` as tuples of
integers, and the least prime factors the power rows start from.

Every engine sums in Python-integer fixed point at the binary precision
:func:`working_bits` of ``prec`` plus :data:`GUARD_DIGITS` decimal digits:
the Euler-Maclaurin body :func:`_em_power_sum`, the Chebyshev dot product in
:func:`_chebyshev` and the iterated integrals.  Identical inputs produce
bit-identical outputs.  Each engine is exercised against independent
references in the test suite.

Rounding
--------

This module works at explicit binary precisions only, through
mpmath.libmp, and keeps one rule: :class:`BigReal` encloses, and the
integer engines prove their units.  A rounding counts ``(1 + |v|) 2**(1 -
b)`` at the precision ``b`` it happens at, one count per rounding that
makes ``v`` (as Arb does, arXiv:1611.02831), on the premises that libmp's
``+ - * /`` round correctly and its ``pi``, ``log`` and power are faithful.
Each :class:`BigReal` constructor and ``+ - * /``, :func:`pi_times` and
:func:`log_of` add their counts to the propagated radius in integers and
round the sum upward, so the square of a relative error is in it too.
:func:`faithful` takes any other libmp function as faithful: one count,
plus a slope the caller proves times the radius.

The rows ``floor(2**b k**-s)`` of the Euler-Maclaurin and Chebyshev bodies
need no premise: :func:`_power_rows` computes them as exact integer floors
(one division for an integer ``s``; for ``s = p/q`` an integer ``q``-th
root at a prime ``k``, and at a composite the product of its factors' rows,
checked in integers), and :func:`zeta_values` the same floors by repeated
division, so :func:`em_sum`, :func:`zeta_values` and ``phi`` count proved
units there.
The one exception is an ``s`` whose denominator ``q`` has ``q b`` past
:data:`_ROOT_BITS_CAP` (a binary ``s`` such as a float's, or ``1 +
10**-9``): its rows come from libmp's power, on the premise above, of ``s``
rounded to ``b`` bits, and are counted within 3 units (:func:`_libmp_rows`).

The three engines, :func:`em_sum`, :func:`accel_alt_sum` and the
iterated-integral engine :func:`_at_one`, count their own units in
integers: their bounds are proved in the docstrings of :func:`_em_power_sum`
and :func:`accel_alt_sum` and below.  Each ends in the one shared finish
:func:`_finish`, which rounds the integer total to nearest at ``b =
working_bits(prec)`` bits and adds ``(|total| >> b) + 1`` units for it.
:func:`zeta_values` converts nothing: it hands over its integer sums and
unit bounds at the same ``b``, proved in its docstring, and
``gamma_const("ZETA_SERIES")`` divides them into its Chebyshev rows;
``zeta`` at an integer converts the same pair by :func:`_finish`.

Iterated integrals at 1/2
-------------------------

A word ``w_1 ... w_n`` (outermost first, its length the weight) has letters
0, for ``dt/t``, and rationals ``a`` with ``|a| >= 1``, for ``dt/(a - t)``;
``I_y(w)`` integrates their product over ``y > t_1 > ... > t_n > 0``.
``zeta(n_1, ..., n_d)`` (inner-first) is ``I_1(0**(n_d-1) 1 ... 0**(n_1-1)
1)``, ``multiphi((m, n))`` is ``I_1(0**(n-1) -1 0**(m-1) 1)`` and ``Li_n(z)``
is ``I_1(0**(n-1) (1/z))``.  The engine is the Hoelder convolution of
Borwein, Bradley, Broadhurst and Lisonek (arXiv:math/9910045).  The
substitution ``t -> 1 - t`` maps letter ``a`` to ``phi(a) = 1 - a`` and
flips the sign unless ``a`` is 0 or 1, so, with ``sigma_j`` the product of
the signs of ``w_1 .. w_j``,

    I_1(w) = sum(sigma_j I_(1/2)(phi(w_j)..phi(w_1)) I_(1/2)(w_(j+1)..w_n), j = 0..n).

Each ``phi(a)`` must be 0 or a letter too, ``|1 - a| >= 1``; for ``Li_n(z)``
that means ``z`` in ``[-1, 1/2]`` or ``z = 1``.  :func:`_suffix_integrals`
gives ``I_(1/2)`` of every suffix in one pass over the power series ``I_t =
sum(c_k t**k)``: letter 0 divides ``c_k`` by ``k``, and letter ``a`` runs
``D_k = (D_(k-1) + c_k)/a``, ``c'_(k+1) = D_k/(k+1)``.  In integer fixed
point with ``b`` fraction bits and ``e_k = c_k 2**-k`` that is ``E_k =
(E_(k-1) + e_k) // (2a)`` (for ``a = p/q`` one floor of ``(E_(k-1) + e_k)
q / (2p)``) and ``e'_(k+1) = E_k // (k+1)``.  The declared bound is a proof:

1. Every ``|c_k| <= 1``: letter 0 divides by ``k >= 1``, and a letter with
   ``|a| >= 1`` gives ``|D_k| <= k + 1``.  So a series summed over ``k <=
   N`` misses at most ``2**-N``, and every ``|I_(1/2)| <= sum(2**-k, k >=
   1) = 1`` (``c_0 = 0`` for a nonempty word).
2. Each floor costs at most one unit of ``2**-b``.  If the coefficients
   entering a letter are off by ``u`` units, a letter 0 leaves them off by
   ``u + 1``; for a letter ``a`` the average ``E`` stays within ``u + 2``,
   since ``|2a| >= 2`` does not amplify, and ``e'`` within ``u + 3``.  So
   with ``U`` the sum of 1 per letter 0 and 3 per other letter, every
   factor is off by at most ``alpha = 2**-N + (N + 1) U 2**-b``.
3. The products are summed exactly in units of ``2**-2b``; each is off by
   at most ``alpha (2 + alpha)``, the sum by ``(n + 1)`` times that.
4. Converting the integer sum to an mpf at the working precision ``p``
   bits adds at most ``|value| 2**-p`` (:func:`_finish`).

The bound is that count of units, rounded up to an mpf.  The plan comes a
priori: with ``wd = working_dps(prec)``, ``T = ceil(wd log2 10) + bitlen(n
+ 1) + 3``, ``N = T`` unless the caller sets it, and ``b = T + bitlen((N +
1) U)``.  Then ``alpha <= 2**(1-T)``, and steps 3 and 4 (for values of
modulus below 2) stay below ``10**-wd / 2``, so a caller that scales a
value (``coeff_a3`` takes ``50/3`` of ``multiphi((1, 3))``) keeps its
margin.  Cost: ``2n`` passes of ``N + 1`` big-integer steps, linear in the
weight, which :data:`WEIGHT_CAP` bounds.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import attrgetter, floordiv, mul
from typing import Sequence, Union

import mpmath
from mpmath import mpf
from mpmath.libmp import (dps_to_prec, from_float, from_int, from_man_exp, from_str, fzero, mpf_abs,
                          mpf_add, mpf_div, mpf_eq, mpf_log, mpf_mul, mpf_mul_int, mpf_neg, mpf_pi,
                          mpf_pos, mpf_pow, mpf_shift, mpf_sub, round_floor, to_int, to_str)
from mpmath.libmp import round_nearest as RN

from .errors import DomainError, InputError, PrecisionNotMet, TooLarge

#: Decimal digits carried internally beyond the requested precision.
GUARD_DIGITS = 10

#: Inclusive bounds for the ``prec`` argument accepted throughout.
MIN_PREC = 1
MAX_PREC = 100

ScalarLike = Union[int, Fraction, str, mpf, float]


def working_dps(prec: int) -> int:
    """Internal decimal precision used for a request of ``prec`` digits."""
    return prec + GUARD_DIGITS


@lru_cache(maxsize=None)
def working_bits(prec: int) -> int:
    """``b``, the binary precision mpmath carries at ``working_dps(prec)`` digits."""
    return dps_to_prec(working_dps(prec))


#: Most digits a chain of inner steps adds past :data:`MAX_PREC`: g2's
#: ``assemble`` takes the REGISTRY ``a_3`` at ``prec + 6``, which takes
#: ``a_2`` at ``prec + 12``, whose ``period_map`` takes its atoms at ``prec +
#: 18``.
INNER_DIGITS = 18


class _InnerPrec(int):
    """A precision that :func:`inner_prec` made; only it makes one."""

    __slots__ = ()


def inner_prec(prec: int, digits: int) -> int:
    """``prec + digits``, the precision of an inner step that keeps ``digits`` guard digits.

    A combination of balls that must meet ``10**-prec`` evaluates its parts
    here, at a precision that :func:`check_prec` admits up to
    :data:`MAX_PREC` ``+`` :data:`INNER_DIGITS`, while a plain integer stays
    in the public range.
    """
    return _InnerPrec(prec + digits)


def check_prec(prec: int) -> int:
    """``prec``, if it is an integer in ``[MIN_PREC, MAX_PREC]`` or an :func:`inner_prec` within its top."""
    top = MAX_PREC + INNER_DIGITS if prec.__class__ is _InnerPrec else MAX_PREC
    if isinstance(prec, bool) or not isinstance(prec, int) or not (MIN_PREC <= prec <= top):
        raise DomainError(f"prec must be an integer in [{MIN_PREC}, {top}], got {prec!r}")
    return prec


def as_fraction(x: ScalarLike, what: str = "the number") -> Fraction:
    """The exact rational value of ``x``: strings are decimal, floats and mpf binary.

    The one reader of numbers from outside, the symbol layer's points and
    the registry's components among them.  Past :data:`DIGIT_CAP` digits in
    numerator or denominator it raises :class:`InputError` before the integer
    is built: a string by :func:`check_digits`, an mpf by the bits its
    exponent and mantissa give, any other number against ``10**DIGIT_CAP``.
    """
    if isinstance(x, str):
        check_digits(x, what)
    elif isinstance(x, mpf) and mpmath.isfinite(x):
        _, _, exp, bc = x._mpf_
        if max(bc + exp, 1 - exp) > _CAP.bit_length():  # the numerator's or the denominator's bits
            raise InputError(f"{what} is past the cap {DIGIT_CAP} digits")
        x = Fraction(*mpmath.libmp.to_rational(x._mpf_))
    try:
        q = Fraction(x)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError):
        raise DomainError(f"{what} must be a rational number (like 3, 0.25 or 1/3), got {x!r}") from None
    if max(abs(q.numerator), q.denominator) >= _CAP:
        raise InputError(f"{what} is past the cap {DIGIT_CAP} digits")
    return q


def check_digits(text: str, what: str) -> str:
    """``text``, if the number it writes has at most :data:`DIGIT_CAP` digits.

    The size is the digits before a decimal exponent plus its value
    (``1e5000`` is a 5001-digit integer), or every digit written if they
    alone pass the cap.  So a literal that Python would refuse to convert,
    or that would take long to build, raises :class:`InputError` before
    any work.  :func:`as_fraction` and :meth:`BigReal.exact` apply it to
    every string they read; the CLI and the symbol parser, to name theirs.
    """
    size = sum(c.isdigit() for c in text)
    if size <= DIGIT_CAP:
        head, exponent = re.fullmatch(r"(.*?)(?:[eE][-+]?(\d+))?", text.strip(), re.S).groups()
        size = sum(c.isdigit() for c in head) + int(exponent or 0)
    if size > DIGIT_CAP:
        raise InputError(f"{what} has {size} digits, past the cap {DIGIT_CAP}")
    return text


_CHUNK = 10 ** 1000


def _decimal(n: int) -> str:
    """``str(n)`` for an integer of any size.

    Python refuses ``str`` of an integer past 4300 digits; this converts
    1000 digits at a time, so a symbolic coefficient built by products, or
    a Bernoulli number past index 2100, still prints.
    """
    if n < 0:
        return "-" + _decimal(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(1000))
    return str(n) + "".join(reversed(chunks))


def exact_str(q: int | Fraction) -> str:
    """``str(q)`` for an integer or ``Fraction`` of any size, through :func:`_decimal`."""
    if q.denominator == 1:
        return _decimal(q.numerator)
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


# ---------------------------------------------------------------------------
# Bernoulli numbers and friends
# ---------------------------------------------------------------------------

_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]

#: Brent and Harvey's tangent-number table (arXiv:1108.0286) kept as one
#: column: with ``j = len(column)``, entry ``i`` is their ``T[j]`` after stage
#: ``i + 1``, so the last entry is the tangent number ``T_j``.
_TANGENT_COLUMN: list[int] = []


def _tangent_step(column: list[int]) -> list[int]:
    """The column of ``T_(j+1)`` from that of ``T_j``, ``j = len(column)``.

    Brent and Harvey's stage ``k`` sets ``T[j+1] = (j+1-k) T[j] + (j+3-k)
    T[j+1]`` from the start value ``T[j+1] = j T[j]``; the column holds each
    ``T[j]`` that reads.  ``j + 1`` multiplies by small integers and ``j``
    additions, no division.
    """
    j = len(column)
    if not j:
        return [1]
    acc = j * column[0]
    out = [acc]
    for a, c in zip(range(j - 1, 0, -1), column[1:]):
        acc = a * c + (a + 2) * acc
        out.append(acc)
    out.append(2 * acc)
    return out


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number ``B_n`` with the convention ``B_1 = -1/2``.

    ``B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k - 1))`` from the tangent
    numbers ``T_k`` (Brent and Harvey, arXiv:1108.0286), the odd ones past
    ``B_1`` zero.  Results are cached, and the cache fills index by index
    up to ``n`` only: each new ``T_k`` is one :func:`_tangent_step` of
    ``O(k)`` small-integer steps, so ``B_0 .. B_n`` cost ``O(n**2)`` of
    them in any order of calls: under 1 ms to ``n = 100`` and 0.15 s to
    ``n = 1000``.  Past :data:`BERNOULLI_CAP` raises :class:`TooLarge`
    before any work.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"bernoulli index must be a non-negative integer, got {n!r}")
    if n > BERNOULLI_CAP:
        raise TooLarge(f"bernoulli index {n} exceeds the supported cap {BERNOULLI_CAP}")
    cache, column = _BERNOULLI_CACHE, _TANGENT_COLUMN
    while len(cache) <= n:
        m = len(cache)
        if m % 2:
            cache.append(Fraction(-1, 2) if m == 1 else Fraction(0))
            continue
        column[:] = _tangent_step(column)
        power = 1 << m  # 4**k with k = m/2 = len(column)
        cache.append(Fraction((-1) ** (m // 2 - 1) * m * column[-1], power * (power - 1)))
    return cache[n]


# ---------------------------------------------------------------------------
# BigReal
# ---------------------------------------------------------------------------


class BigReal:
    """An arbitrary-precision real with an absolute error bound: a ball.

    ``value`` approximates some target ``x`` with ``|value - x| <= err``;
    ``prec`` records the decimal precision that was requested when the
    number was produced.  Successful library operations guarantee
    ``err <= 10**-prec``.  ``BigReal(value, err, prec)`` and :meth:`exact`
    take ``prec`` through :func:`check_prec`; the ops keep the least
    ``prec`` of their operands.

    The midpoint is a raw mpf tuple and the radius a Python integer below
    ``2**32`` times a power of 2, as Arb holds its ``mag_t`` (Johansson,
    arXiv:1611.02831).  ``value`` and ``err`` are read-only mpfs built on
    access; ``BigReal(value, err, prec)`` rounds a given bound up into the
    integer form.

    The constructors, ``+ - * /``, :func:`pi_times` and :func:`log_of`
    enclose: when the operands' targets lie in their balls, the exact result
    lies in the result's ball.  Each rounds its midpoint to nearest at the
    explicit binary precision ``b = working_bits(p)`` of the result's ``prec
    = p``, bit for bit as the mpf operators round at an ambient ``b`` bits,
    with one mpmath.libmp call and no mpmath context: ``pi`` times ``k`` and
    a log take two, and a ``Fraction`` or a decimal
    string, read exactly by :func:`as_fraction`, none: its quotient is
    rounded in integers by :func:`_quotient` (a wider numerator goes
    through libmp, a Fraction's rounded first).  The radius is summed in
    integers and rounded upward (:func:`_ball`), from one count ``(1 +
    |v|) 2**(1 - b)`` per rounding that makes the midpoint ``v`` (round to
    nearest errs by at most ``|v| 2**-b``) plus:

    * ``x + y``, ``x - y``: ``e_x + e_y``;
    * ``x y``: ``|x| e_y + |y| e_x + e_x e_y``;
    * ``x / y``: ``(e_x + |x/y| e_y) / (|y| - e_y)``, with ``|x/y|`` at
      most ``|v|`` plus half a unit in its last place.  A divisor whose
      ball holds 0 raises :class:`PrecisionNotMet`, an exact 0
      :class:`DomainError`.

    A value that converts without change has radius 0.  Negation and
    ``abs`` round the midpoint to the value's own working precision and
    keep the radius.  :meth:`certified` compares the radius with
    ``10**-prec`` exactly, in integers.

    Instances are immutable and compare and hash by ``(value, err,
    prec)``.  Cost: 2.5-9 microseconds per op on a shared 2-core x86-64 VM,
    division the most, and 0.28-0.47 of what the radius as a rounded mpf
    cost there (mpmath 1.3.0, pure-Python backend).
    """

    __slots__ = ("_mid", "_man", "_exp", "_prec")

    def __init__(self, value: mpf, err: mpf | int | float, prec: int) -> None:
        sign, man, exp, _ = _raw(err)
        if sign and man:
            raise DomainError("error bound must be non-negative")
        if not man and exp:
            raise DomainError(f"error bound must be finite, got {err!r}")
        self._mid = _raw(value)
        self._man, self._exp = _up(man, exp)
        self._prec = check_prec(prec)

    @property
    def value(self) -> mpf:
        return _make_mpf(self._mid)

    @property
    def err(self) -> mpf:
        """The radius as an exact mpf."""
        return _make_mpf(from_man_exp(self._man, self._exp))

    prec = property(attrgetter("_prec"))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.err, self.prec) == (other.value, other.err, other.prec)

    def __hash__(self) -> int:
        return hash((self.value, self.err, self.prec))

    def __reduce__(self):
        return BigReal, (self.value, self.err, self.prec)

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, x: ScalarLike, prec: int) -> "BigReal":
        """Wrap a value known exactly up to representation rounding.

        A value that converts without change has a zero bound.  For a
        ``Fraction`` ``num/den`` in lowest terms that is decided in
        integers: only a power of 2 ``den`` can give an exact binary
        result ``man 2**exp``, exact iff ``man 2**exp den == num``.  A
        string is an input: :func:`as_fraction` reads its exact rational,
        which rounds once to nearest, so ``"0.5"`` has a zero bound and
        ``"inf"`` raises :class:`DomainError`.
        """
        b = _BITS[check_prec(prec)]
        if isinstance(x, (str, Fraction)):
            # A decimal rounds its exact value once; a Fraction rounds its
            # numerator, then the quotient: two counts.
            is_str = isinstance(x, str)
            num, den = (as_fraction(x, "the decimal") if is_str else x).as_integer_ratio()
            v = _quotient(num, den, b, not is_str)
            if not den & den - 1:
                _, man, exp, _ = v  # v has the sign of num
                if man * den << max(exp, 0) == abs(num) << max(-exp, 0):
                    return _new_ball(v, 0, 0, prec)
            return _ball(v, prec, (1 if is_str else 2) - b)
        if isinstance(x, int):
            raw = from_int(x)
        elif isinstance(x, float):
            raw = from_float(x)
        elif isinstance(x, mpf):
            raw = x._mpf_
        else:
            raise TypeError(f"cannot create a BigReal from {x!r}")
        v = mpf_pos(raw, b, RN)
        return _new_ball(v, 0, 0, prec) if mpf_eq(v, raw) else _ball(v, prec, 1 - b)

    @classmethod
    def from_decimal(cls, text: str, prec: int) -> "BigReal":
        """Read a decimal string as :meth:`exact` does; the bound covers its one rounding."""
        return cls.exact(text.strip(), prec)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = other if isinstance(other, BigReal) else BigReal.exact(other, self._prec)
        p = self._prec if self._prec <= o._prec else o._prec
        b = _BITS[p]
        return _ball(mpf_add(self._mid, o._mid, b, RN), p, 1 - b,
                     ((self._man, self._exp), (o._man, o._exp)))

    __radd__ = __add__

    def __neg__(self) -> "BigReal":
        # Negation rounds the payload to the value's own working precision,
        # as mpf's unary minus does there; the radius is unchanged.
        return _new_ball(mpf_neg(self._mid, _BITS[self._prec], RN), self._man, self._exp, self._prec)

    def __sub__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = other if isinstance(other, BigReal) else BigReal.exact(other, self._prec)
        p = self._prec if self._prec <= o._prec else o._prec
        b = _BITS[p]
        return _ball(mpf_sub(self._mid, o._mid, b, RN), p, 1 - b,
                     ((self._man, self._exp), (o._man, o._exp)))

    def __rsub__(self, other: ScalarLike) -> "BigReal":
        return BigReal.exact(other, self._prec) - self

    def __mul__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = other if isinstance(other, BigReal) else BigReal.exact(other, self._prec)
        p = self._prec if self._prec <= o._prec else o._prec
        b = _BITS[p]
        x, y = self._mid, o._mid
        mx, ex, my, ey = self._man, self._exp, o._man, o._exp
        return _ball(mpf_mul(x, y, b, RN), p, 1 - b,
                     ((x[1] * my, x[2] + ey), (y[1] * mx, y[2] + ex), (mx * my, ex + ey)))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = other if isinstance(other, BigReal) else BigReal.exact(other, self._prec)
        y = o._mid
        if y == fzero:
            raise DomainError("division by zero")
        p = self._prec if self._prec <= o._prec else o._prec
        b = _BITS[p]
        v = mpf_div(self._mid, y, b, RN)
        mx, my = self._man, o._man
        if not (mx or my):
            return _ball(v, p, 1 - b)
        # |y| - e_y rounded down, in units of 2**low, 64 bits below the top of |y|.
        _, yman, yexp, ybc = y
        low = yexp + ybc - 64
        den = yman << yexp - low if yexp >= low else yman >> low - yexp
        if my:
            ey = o._exp
            if ey + my.bit_length() > low + 64:  # e_y >= 2**(low + 64) > |y|
                den = 0
            else:
                den -= my << ey - low if ey >= low else (my >> low - ey) + 1
            if den <= 0:
                raise PrecisionNotMet(f"division by a ball that holds 0: {o!r}")
        # e_x / den + |x/y| e_y / den, each rounded up with at least 31 bits.
        # |x/y| is at most |v| plus half a unit of its last place at b bits,
        # (man 2**(b + 1 - bc) + 1) 2**(exp + bc - b - 1) for v = man 2**exp.
        _, vman, vexp, vbc = v
        ratio = (vman << b + 1 - vbc) + 1 if vman else 0
        return _ball(v, p, 1 - b, ((-((-mx << 96) // den), self._exp - 96 - low),
                                   (-((-ratio * my << 96) // den), vexp + vbc - b - 1 + o._exp - 96 - low)))

    def __rtruediv__(self, other: ScalarLike) -> "BigReal":
        return BigReal.exact(other, self._prec) / self

    def __pow__(self, k: int) -> "BigReal":
        if not isinstance(k, int) or k < 0:
            raise DomainError("BigReal powers must be non-negative integers")
        out = BigReal.exact(1, self._prec)
        for _ in range(k):
            out = out * self
        return out

    def __abs__(self) -> "BigReal":
        return _new_ball(mpf_abs(self._mid, _BITS[self._prec], RN), self._man, self._exp, self._prec)

    # -- queries ------------------------------------------------------

    def certified(self) -> bool:
        """True when the radius is at most ``10**-prec``, decided exactly."""
        return _at_most_ten_to(self._man, self._exp, self._prec)

    def demand(self, what: str = "result") -> "BigReal":
        if not self.certified():
            raise PrecisionNotMet(
                f"{what}: certified bound {bound_text(self.err, 3)} exceeds 1e-{self._prec}")
        return self

    def __repr__(self) -> str:  # debugging aid, not part of the text format
        return (f"BigReal({value_text(self, self._prec + 2)}, "
                f"err<={bound_text(self.err, 3)}, prec={self._prec})")


_new = object.__new__
_make_mpf = mpmath.mp.make_mpf


#: ``working_bits(p)`` and ``10**p`` by ``p``, read by every op, for every
#: ``p`` that :func:`check_prec` admits.
_BITS = tuple(working_bits(p) for p in range(MAX_PREC + INNER_DIGITS + 1))
_TEN_TO = tuple(10 ** p for p in range(MAX_PREC + INNER_DIGITS + 1))


def _raw(x: mpf | int | float) -> tuple:
    """The raw mpf tuple of an mpf, int or float, exactly."""
    if isinstance(x, mpf):
        return x._mpf_
    if isinstance(x, float):
        return from_float(x)
    if isinstance(x, int):
        return from_int(x)
    raise TypeError(f"expected an mpf, int or float, got {x!r}")


def _ball(v: tuple, prec: int, count: int, terms: Sequence[tuple[int, int]] = ()) -> BigReal:
    """A :class:`BigReal` of midpoint ``v`` whose radius rounds up a sum of terms.

    The sum is ``(1 + |v|) 2**count``, the rounding count, plus ``m 2**e``
    for each ``(m, e)`` in ``terms``, integers ``m >= 0``.  It is taken in
    units of ``2**low``, 64 bits below the top of its largest term; each
    term, or the part of one, below ``low`` counts as one unit.  The sum is
    at least ``2**62`` units and at most five are added, so it exceeds the
    exact sum by a relative ``2**-59`` at most, however far apart the terms
    lie, and no integer grows past 64 bits more than the widest term.  It is
    then rounded up to 32 bits, as by :func:`_up`.
    """
    _, vman, vexp, vbc = v
    top = vexp + vbc
    top = count + 1 + (top if top > 0 else 0)  # (1 + |v|) 2**count < 2**top
    for m, e in terms:
        if m:
            t = e + m.bit_length()
            if t > top:
                top = t
    low = top - 64
    d = count - low
    total = 1 << d if d >= 0 else 1
    if vman:
        d += vexp
        total += vman << d if d >= 0 else (vman >> -d) + 1
    for m, e in terms:
        if m:
            d = e - low
            total += m << d if d >= 0 else (m >> -d) + 1
    s = total.bit_length() - 32
    total = -(-total >> s)
    if total >> 32:
        return _new_ball(v, total >> 1, low + s + 1, prec)
    return _new_ball(v, total, low + s, prec)


def _quotient(num: int, den: int, b: int, twice: bool = True) -> tuple:
    """``num / den`` for ``den > 0`` rounded to nearest at ``b`` bits, as a raw mpf.

    The bits of ``mpf(num) / den`` at an ambient ``b`` bits.  A numerator
    wider than ``b`` bits goes through libmp and rounds first, unless
    ``twice`` is false (a decimal's exact value rounds once).  Otherwise the
    floored quotient has ``b + 1`` or ``b + 2`` bits, and rounding it half
    up at ``b`` bits rounds the true quotient to nearest, since no tie can
    occur: a tie has ``b + 1`` bits and ends in 1, and for ``num/den`` in
    lowest terms so would ``num``.
    """
    if num.bit_length() > b:
        return mpf_div(mpf_pos(from_int(num), b, RN) if twice else from_int(num), from_int(den), b, RN)
    sign = num < 0
    if sign:
        num = -num
    elif not num:
        return fzero
    shift = b + 1 + den.bit_length() - num.bit_length()
    q = (num << shift) // den
    extra = q.bit_length() - b
    q = ((q >> extra - 1) + 1) >> 1
    zeros = (q & -q).bit_length() - 1
    q >>= zeros
    return sign, q, extra - shift + zeros, q.bit_length()


def _new_ball(v: tuple, man: int, exp: int, prec: int) -> BigReal:
    """A :class:`BigReal` of midpoint ``v`` and radius ``man 2**exp``, as given."""
    out = _new(BigReal)
    out._mid = v
    out._man = man
    out._exp = exp
    out._prec = prec
    return out


def _at_most_ten_to(n: int, e: int, prec: int) -> bool:
    """``n 2**e <= 10**-prec`` for an integer ``n >= 0``, decided in integers."""
    lhs, k = n * _TEN_TO[prec], -e  # n 10**prec <= 2**k, with no power of 2 built past it
    return not n or k >= 0 and (lhs.bit_length() <= k or lhs == 1 << k)


def _up(n: int, e: int) -> tuple[int, int]:
    """``(m, f)``: ``n 2**e`` for an integer ``n >= 0`` rounded up to ``m < 2**32``."""
    s = n.bit_length() - 32
    if s <= 0:
        return (n, e) if n else (0, 0)
    n = -(-n >> s)
    return (n >> 1, e + s + 1) if n >> 32 else (n, e + s)


def value_text(x: BigReal, digits: int | None = None) -> str:
    """The midpoint of ``x`` as ``nstr`` writes it in ``digits`` digits, rounded to nearest.

    ``digits`` omitted writes a certified value: ``x.prec`` digits, or ``0``
    when ``|v| <= e`` and ``|v| + e <= 10**-prec``, decided exactly, since
    then its digits are rounding noise.
    """
    _, man, exp, _ = v = x._mid
    if digits is None:
        digits, e = x._prec, x._exp
        low = min(exp, e)
        a, b = man << exp - low, x._man << e - low  # |v| and e in units of 2**low
        if a <= b and _at_most_ten_to(a + b, low, digits):
            return "0"
    return to_str(v, digits)


def bound_text(err: mpf, digits: int) -> str:
    """A bound ``err >= 0`` as ``nstr`` writes it in ``digits`` digits, rounded upward.

    The digits are the least ones at or above ``err``, found in integers, so
    a printed bound never understates the declared one.  A bound is a
    result, not an input, so it may pass :data:`DIGIT_CAP` digits.
    """
    _, man, exp, bc = err._mpf_
    if not man:
        return to_str(fzero, digits)
    num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    k = math.floor((bc + exp - 1) * math.log10(2)) - 1  # below log10 of it
    while True:
        shift = digits - 1 - k
        q = -(-num * 10 ** shift // den) if shift >= 0 else -(-num // (den * 10 ** -shift))
        if q < 10 ** digits:
            return to_str(from_str(f"{q}e{-shift}", 64, RN), digits)
        k += 1


def pi_times(k: int, prec: int) -> BigReal:
    """``k * pi`` at the working precision of ``prec``: pi rounds, then the product, exact if ``|k| = 2**j``."""
    b, m = _BITS[prec], abs(k)
    return _ball(mpf_mul_int(mpf_pi(b, RN), k, b, RN), prec, (2 if m & m - 1 else 1) - b)


def log_of(q: int | Fraction, prec: int) -> BigReal:
    """``log q`` for a rational ``q > 0`` at the working precision of ``prec``, with two counts.

    ``q`` rounds as :meth:`BigReal.exact` rounds a ``Fraction``, once or
    twice, which moves the log by at most ``2**(1 - b)``, one count; libmp's
    faithful ``log`` adds one more.  ``log 1`` is an exact 0.
    """
    num, den = q.as_integer_ratio()
    if num <= 0:
        raise DomainError(f"log_of needs q > 0, got {exact_str(q)}")
    if num == den:
        return _new_ball(fzero, 0, 0, prec)
    b = _BITS[prec]
    return _ball(mpf_log(_quotient(num, den, b), b, RN), prec, 2 - b)  # the quotient, then the log


def faithful(f, x: BigReal, slope: int | Fraction) -> BigReal:
    """``f(x)`` for a libmp function ``f(v, b, rnd)`` taken as faithful, at ``b = working_bits(x.prec)``.

    One count at the midpoint, plus ``slope`` times the radius, where the
    caller proves ``|f'| <= slope`` over the ball.
    """
    b, (num, den) = _BITS[x._prec], slope.as_integer_ratio()
    return _ball(f(x._mid, b, RN), x._prec, 1 - b, ((-(-num * x._man << 32) // den, x._exp - 32),))


def _finish(total: int, frac_bits: int, units: int, prec: int) -> BigReal:
    """An engine's integer result as a :class:`BigReal` at ``prec``: its one conversion.

    ``total`` is the value in units of ``2**-frac_bits`` and ``units`` the
    error the engine proved for it, in the same units.  The value rounds to
    nearest at ``b = working_bits(prec)`` bits, which errs by at most
    ``|total| 2**-b`` units, so the radius adds ``(|total| >> b) + 1``, and
    the sum rounds up by :func:`_up`.  Both go through mpmath.libmp at
    explicit precisions, with no mpmath context.
    """
    b = _BITS[prec]
    return _new_ball(from_man_exp(total, -frac_bits, b, RN), *_up(units + (abs(total) >> b) + 1, -frac_bits),
                     prec)


# ---------------------------------------------------------------------------
# Alternating-series acceleration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cvz_weights(n: int) -> tuple[tuple[int, ...], int, int]:
    # Chebyshev weights c_0..c_(n-1), normaliser d = ((3 + sqrt 8)^n +
    # (3 - sqrt 8)^n) / 2 and sum(|c_k|), all integers: d by the Pell
    # recurrence, and every division of the b_k recurrence is exact.
    # |c_k| <= d, and the c_k alternate in sign like the terms they weigh.
    d, d_next = 1, 3
    for _ in range(n):
        d, d_next = d_next, 6 * d_next - d
    b, c = -1, -d
    weights = []
    for k in range(n):
        c = b - c
        weights.append(c)
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return tuple(weights), d, sum(map(abs, weights))


def _iroot(x: int, q: int) -> int:
    """``floor(x**(1/q))`` for integers ``x >= 0`` and ``1 <= q < 2**17``, exactly."""
    if q == 1:
        return x
    if q == 2:
        return math.isqrt(x)
    r = x.bit_length() // q  # about the root's bit length
    if r <= 40:
        # A float guess within a few units, then corrected on exact powers.
        y = int(2 ** (math.log2(x) / q)) if x else 0
        while y ** q > x:
            y -= 1
        while (y + 1) ** q <= x:
            y += 1
        return y
    # The root of the top bits, plus one, shifted back lies above the root by
    # a relative 2**(h + 1 - r) at most; one Newton step from above keeps it
    # at or above the floor (AM-GM) and squares that error to below one unit.
    h = r // 2 - q.bit_length() - 2
    y = (_iroot(x >> q * h, q) + 1) << h
    y = ((q - 1) * y + x // y ** (q - 1)) // q
    return y - 1 if y ** q > x else y


#: Largest ``q * bits`` for which :func:`_power_rows` takes ``k**-(p/q)`` as
#: an exact integer floor: the sweep's ``q <= 12`` at prec 100 is 4428.  At
#: ``q * bits = 8118`` (``s = 45/22``, prec 100) the 143 exact rows take
#: about as long as 143 mpf powers, 2.9 ms (a root per row took 9.6 ms);
#: past the cap each ``q``-th root grows with ``q`` (2-core x86-64 VM,
#: mpmath 1.3.0).
_ROOT_BITS_CAP = 1 << 13

#: ``_LEAST_FACTOR[k]`` is the least prime factor of ``k >= 2``; filled by
#: :func:`_least_factors` on first use, never at import.
_LEAST_FACTOR: list[int] = []


def _least_factors(n: int) -> list[int]:
    """The table of least prime factors, filled past ``n`` by a sieve."""
    table = _LEAST_FACTOR
    if len(table) <= n:
        size = max(n + 1, 2 * len(table), 256)
        table[:] = range(size)
        # Descending, so each multiple keeps the least p that marks it.
        for p in range(math.isqrt(size - 1), 1, -1):
            table[p * p::p] = [p] * len(range(p * p, size, p))
    return table


def _power_rows(s: Fraction, n: int, bits: int) -> tuple[list[int], int]:
    """``(rows, r)``: ``floor(2**bits * k**-s)`` for ``k = 1..n``, ``s = p/q > 0`` rational.

    Each row lies within ``r`` units of ``2**bits k**-s``.  Exact floors,
    ``r = 1``, wherever ``q * bits`` is within :data:`_ROOT_BITS_CAP` or
    ``s > bits``; otherwise the rows are :func:`_libmp_rows`, ``r = 3``.
    The callers read ``r`` and count no cap of their own.  An integer ``s``
    takes one division per row.  Otherwise a prime row ``k`` is the integer
    ``q``-th root of ``(1 << bits q) // k**p`` (:func:`_iroot`), as
    ``floor(y) = floor(floor(y**q)**(1/q))``, and a composite ``k = a c``,
    ``a`` its least prime factor, comes from the rows ``r_a``, ``r_c`` of
    its factors.  With ``X_k = 2**bits k**-s``, so ``2**bits X_k = X_a
    X_c``, and each ``X = r + f``, ``0 <= f < 1``:

    1. ``r_a r_c <= 2**bits X_k < r_a r_c + r_a + r_c + 1``, so the guess
       ``y = (r_a r_c) >> bits`` is at most ``floor(X_k)``, and at least
       ``floor(X_k) - 2`` as ``X_a, X_c < 2**bits``.
    2. If the low ``bits`` bits of ``r_a r_c`` plus ``r_a + r_c`` stay
       below ``2**bits``, the upper end is at most ``2**bits (y + 1)``:
       ``y`` is the floor.  That holds for most rows once ``s > 1``, and
       whenever ``r_c = 0``.
    3. Otherwise ``y`` is raised while ``(y + 1)**q k**p <= 2**(bits q)``,
       an exact check.

    Rows never grow with ``k``, so once a row is 0 the rest are.  Once ``s
    > bits`` every row past the first is 0 and no ``k**p`` is formed, so a
    huge ``s`` costs nothing.

    Cost at prec 100 (143 rows): 34 roots and 108 products, of which 11
    need the check at ``s = 37/11`` and 90 at ``s = 1/2``.  At ``s =
    37/11`` the rows take about 1.1 ms against 3.7 ms for a root per row,
    four fifths of it in the roots (2-core x86-64 VM).
    """
    p, q = s.numerator, s.denominator
    if p > bits * q:  # 2**bits k**-s <= 2**(bits - s) < 1 for k >= 2
        return [1 << bits] + [0] * (n - 1), 1
    if q * bits > _ROOT_BITS_CAP:
        return _libmp_rows(s, range(1, n + 1), bits), 3
    one = 1 << bits * q
    if q == 1:
        return [one // k ** p for k in range(1, n + 1)], 1
    least, mask = _least_factors(n), (1 << bits) - 1
    rows = [1 << bits]
    for k in range(2, n + 1):
        a = least[k]
        if a == k:
            y = _iroot(one // k ** p, q)
        else:
            ra, rc = rows[a - 1], rows[k // a - 1]
            guess = ra * rc
            y = guess >> bits
            if (guess & mask) + ra + rc > mask:
                kp = k ** p
                while (y + 1) ** q * kp <= one:
                    y += 1
        if not y:
            return rows + [0] * (n + 1 - k), 1
        rows.append(y)
    return rows, 1


def _libmp_rows(s: Fraction, ks: Sequence[int], bits: int) -> list[int]:
    """``floor(2**bits k**-s')`` for each ``k``, from libmp's power of ``s`` rounded to ``s'`` at ``bits`` bits.

    Within 3 units of ``2**bits k**-s``: 2 on the premise that the power is
    faithful, and ``|s' - s| <= s 2**-bits`` moves ``2**bits k**-s`` by at
    most ``s log(k) k**-s <= 1/e`` units more.  So :func:`_power_rows`
    returns ``r = 3`` with them, and EULER_PRODUCT counts 3 units a row.
    """
    minus_s = mpf_neg(_quotient(s.numerator, s.denominator, bits))
    return [to_int(mpf_shift(mpf_pow(from_int(k), minus_s, bits, RN), bits), round_floor) for k in ks]


def alt_terms_needed(prec: int) -> int:
    """Leading terms :func:`accel_alt_sum` reads at ``prec``: 32 / 78 / 143 at 15 / 50 / 100."""
    wd = working_dps(check_prec(prec))
    return math.ceil((wd - 1 + math.log10(2)) / math.log10(3 + math.sqrt(8)))


def accel_alt_sum(rows: Sequence[int], prec: int, bounds: Sequence[int] | None = None) -> BigReal:
    """``sum((-1)**(k-1) * a_k, k >= 1)`` to ``prec`` certified digits, from integer rows.

    ``rows[k-1]`` is ``|a_k|`` as a non-negative integer in units of
    ``2**-b``, ``b = working_bits(prec)``, for the first ``n =
    alt_terms_needed(prec)`` terms; rows past ``n`` are not read.
    ``bounds``, if given, holds a non-negative integer ``delta_k`` per row,
    with ``|rows[k-1] - 2**b |a_k|| <= delta_k + 1``; without it every
    ``delta_k`` is 0, as for exact floors.  Precondition: the ``|a_k|`` are
    moments ``integral(t**k dmu(t), 0..1)`` of a positive measure, as
    ``k**-s`` and ``zeta(k+1)/(k+1)`` are, so they decrease and the series
    alternates.  A negative row or bound, or fewer than ``n`` of either,
    raises :class:`DomainError`.

    The estimate is the integer ``E = floor(sum(c_k rows[k]) / d)``, with
    the Chebyshev weights ``c_k`` and normaliser ``d`` of Cohen, Rodriguez
    Villegas and Zagier (Experiment. Math. 9 (2000)), computed with its
    unit count by :func:`_chebyshev`, the integer body :func:`zeta_values`
    shares, and converted once by :func:`_finish`.  The declared bound is a
    proof, in units of ``2**-b``:

    1. For moment sequences one Chebyshev pass over the true terms errs by
       at most ``2 |S| / (3 + sqrt(8))**n``, where ``|S| <= |a_1| <=
       rows[0] + delta_1 + 1`` and ``(3 + sqrt(8))**n >= 2 d - 1``.
    2. Each row lies within its ``delta_k + 1``.  The weights alternate in
       sign like the terms, so the estimate moves by at most ``sum(|c_k|
       (delta_k + 1)) / d``, all of it when every term errs the same way.
    3. The dot product is exact, and the floor division costs one unit.
    4. Converting ``E`` to an mpf of ``b`` bits rounds to nearest, within
       ``|E| 2**-b``: at most ``(|E| >> b) + 1`` units.

    The sum of the units is rounded up to an mpf.  Two consecutive zero
    rows end a finite series, summed exactly as its own best acceleration:
    its ``j`` rows cost a unit each, the tail at most the first zero row's
    ``|a_j| <= delta_j + 1``, and step 4 its units; every ``delta_k`` is
    added, read or not.

    Cost: ``n = ceil((wd - 1 + log10 2) / log10(3 + sqrt(8)))`` rows, ``wd =
    working_dps(prec)``: one integer dot product and one division.  The
    integer weights and ``sum(|c_k|)`` depend only on ``n`` and are cached
    under it: at most 100 entries, about 0.5 MB for all ``prec``.

    Raises :class:`PrecisionNotMet` when the bound cannot be certified.
    """
    n = alt_terms_needed(prec)
    rows = rows[:n]
    checked = [0] * n if bounds is None else bounds[:n]
    if len(rows) < n or len(checked) < n or min(*rows, *checked) < 0:
        raise DomainError(f"accel_alt_sum at prec {prec} reads {n} rows and bounds, "
                          f"non-negative integers; got {len(rows)} and {len(checked)}")
    estimate, units = _chebyshev(rows, n, None if bounds is None else checked)
    return _finish(estimate, working_bits(prec), units, prec).demand("accel_alt_sum")


def _chebyshev(rows: Sequence[int], n: int, bounds: Sequence[int] | None = None) -> tuple[int, int]:
    """``(E, units)``: steps 1-3 of :func:`accel_alt_sum`'s proof, unchecked and unconverted.

    Reads ``rows[:n]``, or up to two zero rows, and ``bounds`` cut to ``n``;
    zero rows are found by a C-level search (``index``), not a Python loop.
    """
    j = -1
    try:
        while True:
            j = rows.index(0, j + 1, n - 1)
            if not rows[j + 1]:
                spread = 0 if bounds is None else sum(bounds)
                return sum(rows[0:j:2]) - sum(rows[1:j:2]), spread + j + 1
    except ValueError:
        pass
    weights, d, size = _cvz_weights(n)
    first = rows[0] + 1
    if bounds is not None:
        first += bounds[0]
        size += sum(map(mul, map(abs, weights), bounds))
    return sum(map(mul, weights, rows)) // d, -(-2 * first // (2 * d - 1)) - (-size // d) + 1


def zeta_values(top: int, prec: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(b, ((total, err), ...))``: ``zeta(s)`` for ``s = 2..top`` in units of ``2**-b``.

    ``b = working_bits(prec)``.  For each ``s``, ``total`` is an integer
    within ``err`` of ``2**b zeta(s)``, and every ``err`` meets ``err
    10**prec <= 2**b``, checked in integers.  No mpf is built: the caller
    scales the integers itself.  Each ``zeta(s)`` is ``phi(s) 2**(s-1) /
    (2**(s-1) - 1)``, with ``phi(s)`` from one Chebyshev pass
    (:func:`_chebyshev`) over ``n = alt_terms_needed(prec)`` rows shared by
    all ``s``.  The bound is a proof, in units of ``2**-b``:

    1. The rows are exact floors.  Row ``m`` for ``s`` is row ``m`` for ``s
       - 1`` floor-divided by ``m``, and ``floor(floor(x) / m) = floor(x /
       m)`` for an integer ``m >= 1``, so from ``floor(2**b / m)`` on it is
       ``floor(2**b / m**s)``, within one unit of the true term.
    2. ``m**-s`` is the moment ``integral(t**(m-1) (-log t)**(s-1) /
       Gamma(s) dt, 0..1)`` of a positive measure, so the
       Cohen-Rodriguez Villegas-Zagier bound of :func:`accel_alt_sum` holds
       for each ``s``: the pass gives ``E`` and ``U`` with ``|E - 2**b
       phi(s)| <= U`` (truncation, the rows' units and the floor of the
       division; a finite series when two rows are 0).
    3. With ``D = 2**(s-1) - 1``, ``2**b zeta(s) = 2**b phi(s) (1 + 1/D)``
       lies within ``U + U/D`` of ``E + E/D``, and the last floor, ``total
       = E + E // D``, moves it by less than one unit more: ``err = U +
       ceil(U/D) + 1``.

    Steps 2 and 3 are :func:`_zeta_pass`, which ``zeta`` at an integer runs
    on the same floors from :func:`_power_rows`, so the two give the same
    ``(total, err)``.  Rows never grow with ``s``, so the batch keeps two
    zero rows and drops the rest.  A bound that misses raises
    :class:`PrecisionNotMet`.

    Cost: ``top - 1`` passes, each ``n`` small floor divisions and one
    integer dot product against the cached weights, fewer once rows are 0;
    no Bernoulli number is formed.  ``(144, 100)`` takes about 3.3 ms on a
    shared 2-core x86-64 VM.  The batch depends on ``(top, prec)`` alone, so
    the last 128 are cached as immutable tuples of integers
    (:func:`_zeta_batch`): the batches that ``gamma_const`` reads at all 100
    ``prec`` hold about 1.5 MB (tracemalloc).
    """
    if not isinstance(top, int) or top < 2:
        raise DomainError(f"zeta_values needs an integer top >= 2, got {top!r}")
    return _zeta_batch(top, check_prec(prec))


@lru_cache(maxsize=128)
def _zeta_batch(top: int, prec: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """:func:`zeta_values` on checked arguments; ``_zeta_batch.__wrapped__`` is the uncached body."""
    n, bits = alt_terms_needed(prec), working_bits(prec)
    one, scale = 1 << bits, 10 ** prec
    rows = [one // m for m in range(1, n + 1)]
    out = []
    for s in range(2, top + 1):
        rows = list(map(floordiv, rows, range(1, n + 1)))
        if not rows[-1]:
            rows = rows[:rows.index(0) + 2]
        total, err = _zeta_pass(rows, s, n, bits)
        if err * scale > one:
            raise PrecisionNotMet(
                f"zeta_values: zeta({s}) bound of {err} units of 2**-{bits} exceeds 1e-{prec}")
        out.append((total, err))
    return bits, tuple(out)


def _zeta_pass(rows: Sequence[int], s: int, n: int, bits: int) -> tuple[int, int]:
    """``(total, err)``: ``2**bits zeta(s)`` for an integer ``s >= 2`` from the rows of ``phi(s)``.

    Steps 2 and 3 of :func:`zeta_values`' proof: one :func:`_chebyshev` pass
    over ``rows``, the floors ``floor(2**bits k**-s)``, gives ``E`` within
    ``U`` units of ``2**bits phi(s)``; with ``D = 2**(s-1) - 1``, ``total =
    E + E // D`` and ``err = U + ceil(U/D) + 1``.  The one step from
    ``phi(s)`` to ``zeta(s)``, shared by :func:`zeta_values` and
    ``eulerfun.zeta`` at an integer.  Once ``s > bits + 2``, ``D`` exceeds
    ``E`` and ``U``, so ``E // D = 0`` and ``ceil(U/D) = 1``, and ``2**(s-1)``
    is not formed: a huge ``s`` costs nothing.
    """
    estimate, units = _chebyshev(rows, n)
    if s > bits + 2:
        return estimate, units + 2
    den = (1 << s - 1) - 1
    return estimate + estimate // den, units - (-units // den) + 1


# ---------------------------------------------------------------------------
# Euler-Maclaurin summation
# ---------------------------------------------------------------------------


_BERNOULLI_RATIOS: list[tuple[int, int]] = [(1, 1)]


def _bernoulli_ratios(terms: int) -> list[tuple[int, int]]:
    """The cache, filled to ``terms``: entry ``j`` is ``B_2j/(2j)!`` as an exact ``(num, den)``."""
    cache = _BERNOULLI_RATIOS
    while len(cache) <= terms:
        ratio = bernoulli(2 * len(cache)) / math.factorial(2 * len(cache))
        cache.append((ratio.numerator, ratio.denominator))
    return cache


def em_sum(s: ScalarLike, prec: int) -> BigReal:
    """Euler-Maclaurin sum of ``k**-s`` for rational ``s >= 1``, planned from ``prec``.

    ``s`` is the exact rational it denotes (:func:`as_fraction`).  The split
    ``n`` and the term count ``J`` are :func:`_em_plan`'s, aimed at a first
    omitted term of ``10**-(wd - 1)``, ``wd = working_dps(prec)``, which with
    the counted units meets ``10**-prec`` with about nine digits to spare.
    The rows ``floor(2**bits k**-s)`` at ``bits = working_bits(prec)`` are
    computed here by :func:`_power_rows`, with the units ``r`` each row may
    be off by, so no caller can pair a bound with a series it does not
    describe: exact floors, one unit off at most, or past the root cap
    rows from libmp's power, within 3 units.  With ``f(k) = k**-s`` this
    sums, in the integer fixed point of :func:`_em_power_sum`::

        sum(f(k), k=1..n) + I(n) - f(n)/2
            + sum(B_2j/(2j)! * poch(s, 2j-1) * n**(1-s-2j), j=1..J)

    with ``I(n)`` the integral tail ``n**(1-s)/(s-1)``, or ``-log(n)`` at
    ``s == 1`` (the regularized companion, whose limit is the constant the
    ``s == 1`` series defines).  The declared bound is what
    :func:`_em_power_sum` proves, ``|correction| + units`` units of
    ``2**-bits`` (the first omitted Bernoulli term and the counted units),
    plus the units of :func:`_finish` for the one conversion to an mpf.

    Cost: ``n`` rows, each one integer division for an integer ``s`` and an
    integer ``q``-th root otherwise, then integer sums and ``J + 1``
    Bernoulli terms of a few exact integer products each.  Only the exact
    ``B_2j/(2j)!`` are cached, per ``j``, as integer pairs: at most 51
    entries (``J <= 50``).  One call; a plan that misses raises
    :class:`PrecisionNotMet` naming its split and term count, and nothing is
    retried.
    """
    check_prec(prec)
    s = as_fraction(s, "s")
    if s < 1:
        raise DomainError("em_sum needs s >= 1; a smaller s does not define a convergent tail")
    n_split, terms = _em_plan(s, working_dps(prec) - 1)
    bits = working_bits(prec)
    rows, r = _power_rows(s, n_split, bits)
    total, correction, units = _em_power_sum(s, rows, r, terms, bits)
    return _finish(total, bits, abs(correction) + units, prec).demand(
        f"em_sum at split {n_split} with {terms} Bernoulli terms")


# |B_2m|/(2m)! = 2 zeta(2m) / (2 pi)^(2m) <= (pi^2/3) / (2 pi)^(2m) for m >= 1.
_LOG10_BERNOULLI_RATIO_BOUND = math.log10(math.pi ** 2 / 3)
_LOG10_2PI = math.log10(2 * math.pi)


def _first_omitted_log10(s: float, n: int, terms: int) -> float:
    # Upper estimate of log10 of the first omitted Euler-Maclaurin term of
    # sum(k**-s) split at n after ``terms`` corrections:
    # |B_2m|/(2m)! * s(s+1)...(s+2m-2) * n**(1-s-2m) with m = terms + 1.
    m = terms + 1
    return (_LOG10_BERNOULLI_RATIO_BOUND - 2 * m * _LOG10_2PI
            + (math.lgamma(s + 2 * m - 1) - math.lgamma(s)) / math.log(10)
            - (s + 2 * m - 1) * math.log10(n))


@lru_cache(maxsize=1024)
def _em_plan(s: int | Fraction, digits: int) -> tuple[int, int]:
    """The cheapest ``(n_split, bernoulli_terms)`` for ``sum(k**-s)``, ``s >= 1``.

    Cheapest at ``n_split + 3 * bernoulli_terms`` among splits from 2 on,
    with the estimated first omitted term at most ``10**-digits``.  A term
    costs 4-20 rows at an integer ``s`` and 0.5-1 at ``s = 7/3``; a weight of
    6 grew every declared bound and slowed ``s = 29/12`` by half.  The plan
    is a function of its exact arguments, so the last 1024 are cached.
    """
    # Past s = 10 * digits every split certifies with no Bernoulli term,
    # and the first omitted term, s * n**(-s-1) / 12, only falls as s
    # grows; so a larger exponent plans as 10 * digits does, and float(s)
    # stays finite.
    s = float(min(s, 10 * digits))
    best_cost, best = math.inf, None
    terms = None
    n = 2
    # The cost is about convex in n: once a split 3 rows past the best
    # saves no term, a larger one saves none either.
    while best is None or n - best[0] <= 3:
        if terms is None:
            # Past about pi*n - s/2 terms the corrections grow again, so
            # below that the estimate falls with every term.
            hi = max(0, int(math.pi * n - s / 2))
            if _first_omitted_log10(s, n, hi) <= -digits:
                lo = 0
                while lo < hi:
                    mid = (lo + hi) // 2
                    if _first_omitted_log10(s, n, mid) <= -digits:
                        hi = mid
                    else:
                        lo = mid + 1
                terms = hi
        else:
            while terms and _first_omitted_log10(s, n, terms - 1) <= -digits:
                terms -= 1
        if terms is not None:
            if n + 3 * terms < best_cost:
                best_cost, best = n + 3 * terms, (n, terms)
            if not terms:
                break
        n += 1
    return best


def _em_power_sum(s: int | Fraction, rows: Sequence[int], r: int, terms: int,
                  bits: int) -> tuple[int, int, int]:
    """``(total, correction, units)``, the integer body of :func:`em_sum`.

    Sums ``k**-s``, ``s = p/q >= 1``, split at ``n = len(rows)`` with ``J =
    terms`` Bernoulli corrections, in integer fixed point with ``bits``
    fraction bits: ``rows[k-1]`` is ``2**bits k**-s`` within ``r`` units,
    as :func:`_power_rows` returns them, 1 for exact floors and 3 past the
    root cap; the count takes at least 2 a row (1 unit of it slack on exact
    floors), and ``r`` below stands for that.  ``total``
    is ``2**bits`` times the value, ``correction`` the first omitted
    Bernoulli term in the same units, and ``units`` counts the error of
    ``total``; :func:`em_sum` declares ``|correction| + units`` units of
    ``2**-bits``.  The count is a proof, in units of ``2**-bits``:

    1. ``f(x) = x**-s`` is completely monotone, so the Euler-Maclaurin
       remainder after ``J`` corrections lies between 0 and the first
       omitted term ``B_2m/(2m)! poch(s, 2m-1) n**(1-s-2m)``, ``m = J + 1``.
    2. The rows are off by at most ``r`` each: ``r n`` units.
    3. ``rows[-1] // 2`` is off by at most half a row's error and half a
       unit for its floor: 2 units.  Two more go to the integral tail: at
       ``s = 1`` the ``-log n``, libmp's at 16 more bits, is faithful, under
       ``|log n| 2**-15 < 1`` unit, and its floor costs one; otherwise they
       cover the floor of ``tail // (p - q)`` and the floor taken of its
       share in step 5.
    4. ``tail = rows[-1] n q`` is ``2**bits q n**(1-s)`` within ``r n q``
       units, ``tail_err``, since the last row is off by ``r`` at most.
       Once ``s >= bits + 2``, with ``shift = p // q - bits - 1``, the
       true last row is ``2**bits n**-s <= 2**(1 - shift)`` and it floors
       to 0, so the tail is within ``tail_err 2**-shift`` (0 at ``n = 1``,
       whose row is exact).
    5. The integral ``q n**(1-s) / (p - q)`` and each Bernoulli term, the
       omitted one too, are ``tail`` times an exact rational ``scale /
       den`` (``1 / (p - q)`` for the integral), so each carries ``tail_err
       |scale| 2**-shift / den`` units of the tail's error.  A Bernoulli
       term adds the floor of that share plus 2, at least the share plus 1
       for its own floor; the integral adds the floor of its share, and
       step 3's 2 units make up the rest.

    Steps 2-5 bound ``|total - 2**bits S_J|`` by ``units``, where ``S_J`` is
    the sum up to the last correction kept; step 5 bounds ``2**bits`` times
    the true first omitted term by ``|correction|`` plus its share of
    ``units``; with step 1 the value is within ``|correction| + units``.

    Cost: one pass over the rows and ``J + 1`` Bernoulli terms of a few
    exact integer products and one floor division each; a term's unit
    division is skipped when bit lengths prove its quotient is 0.
    """
    n = len(rows)
    p, q = s.as_integer_ratio()
    r = max(r, 2)
    tail = rows[-1] * n * q  # q n**(1-s)
    tail_err = r * n * q  # the tail's error, times 2**shift
    shift = max(p // q - bits - 1, 0)
    units = r * n + 4
    if p == q:
        integral = to_int(mpf_neg(mpf_shift(mpf_log(from_int(n), bits + 16, RN), bits)), round_floor)
    else:
        integral = tail // (p - q)
        units += (tail_err >> shift) // (p - q)
    total = sum(rows) + integral - rows[-1] // 2
    poch = p  # q**(2j-1) s(s+1)...(s+2j-2), exact
    npow = 1  # (q n)**(2j)
    qn2 = (q * n) ** 2
    # A unit share tail_err |scale| 2**-shift / den is 0 when its bit length
    # bound, bitlen(tail_err) + bitlen(scale) - shift, is below bitlen(den).
    err_bits = tail_err.bit_length() - shift
    ratios = _bernoulli_ratios(terms + 1)
    for j in range(1, terms + 2):
        npow *= qn2
        num, den = ratios[j]
        scale, den = poch * num, den * npow
        correction = tail * scale // den
        if err_bits + scale.bit_length() >= den.bit_length():
            units += (tail_err * abs(scale) >> shift) // den
        units += 2
        if j > terms:
            break
        total += correction
        poch *= (p + (2 * j - 1) * q) * (p + 2 * j * q)
    return total, correction, units


# ---------------------------------------------------------------------------
# Iterated integrals at 1/2
# ---------------------------------------------------------------------------

#: Maximum weight (word length) the iterated-integral engine runs on; cost
#: is linear in it, about 70 ms at the cap and prec 100.
WEIGHT_CAP = 1000

#: Most terms the coaction of one monomial may have: the product over its
#: atoms of ``n + 1`` for ``Li_m(n; z)``, 2 for an odd ``zeta_m`` and 1
#: otherwise.  The cap admits ``zeta_m(3)*Li_m(1000; 1/2)``, 2002 terms of up
#: to 1000 factors, 12 MB printed in about 2.5 s; the cost of a product of
#: polylogarithms grows about as the cube of their weight.
COACTION_TERM_CAP = 2 * (WEIGHT_CAP + 1)

#: Most terms :func:`~euler_periods.symbolic.coassoc_residual` may form for
#: one monomial, estimated as the product over its atoms of ``C(n + 3, 3)``,
#: about ``n**3 / 6``, for ``Li_m(n; z)``, 3 for an odd ``zeta_m`` and 1
#: otherwise.  A lone ``Li_m(n; z)`` passes the coaction cap with ``n + 1``
#: terms, but its check takes about 1 s at n = 64, 4 s at n = 100 and 51 s
#: at n = 200 (2-core x86-64 VM); the cap admits n = 64 (47905) and three
#: weight-4 polylogarithms (42875).
COASSOC_TERM_CAP = 50_000

#: Largest index :func:`bernoulli` computes.  The tangent numbers cost about
#: ``n**2`` steps on integers of about ``n log n`` bits: B_1000 takes 0.15 s
#: in a fresh process, B_2000 1.2 s and B_2500 1.5-2.2 s (2-core x86-64 VM),
#: where B_600 took 1.1-1.5 s by the ``n**3`` recurrence before them.  Past
#: about n = 2100 the numerator has more digits than Python's ``str(int)``
#: allows, so it prints through :func:`exact_str`.
BERNOULLI_CAP = 2500

#: Most digits of a numerator or denominator read from outside, by
#: :func:`check_digits` and :func:`as_fraction`: well below the 4300 digits
#: past which Python refuses ``int(str)``.  ``_CAP`` is the least past it.
DIGIT_CAP = 1000
_CAP = 10 ** DIGIT_CAP

#: Largest ``cutoff * depth`` :func:`~euler_periods.mzv.mzv_bruteforce` sums;
#: one step costs about 10 us, so about 2 s at the cap and prec 15 (2-core
#: x86-64 VM, mpmath 1.3.0).
BRUTEFORCE_STEP_CAP = 200_000


def _word(parts: Sequence[int], letters: Sequence[int | Fraction]) -> list[int | Fraction]:
    """``0**(s-1) a`` for each part ``s`` and letter ``a``, outermost first."""
    if sum(parts) > WEIGHT_CAP:
        raise TooLarge(f"weight {sum(parts)} exceeds the supported cap {WEIGHT_CAP}")
    return [x for s, a in zip(parts, letters) for x in [0] * (s - 1) + [a]]


def _suffix_integrals(word: Sequence[int | Fraction], terms: int, bits: int) -> list[int]:
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
            q, p2 = a.denominator, 2 * a.numerator
            avg, e_next = 0, [0]
            for k in range(terms):
                avg = (avg + e[k]) * q // p2
                e_next.append(avg // (k + 1))
            e = e_next
        out.append(sum(e))
    return out[::-1]


def _at_one(word: Sequence[int | Fraction], prec: int, terms: int | None = None) -> BigReal:
    """``I_1(word)`` by the Hoelder split at 1/2, with the bound of the module docstring.

    ``terms`` is ``N``, the series terms on each side of the split; by
    default the plan that meets ``10**-working_dps(prec)``, which every
    caller in the package takes.  A smaller ``N`` widens the bound, which
    the returned value carries uncertified.
    """
    n = len(word)
    units = sum(3 if a else 1 for a in word)
    planned = math.ceil(working_dps(prec) * math.log2(10)) + (n + 1).bit_length() + 3
    terms = planned if terms is None else terms
    bits = planned + ((terms + 1) * units).bit_length()
    ahead = _suffix_integrals(word, terms, bits)
    # Under t -> 1 - t letter a becomes 1 - a, and the sign flips unless a is 0 or 1.
    behind = _suffix_integrals([1 - a for a in reversed(word)], terms, bits)[::-1]
    signs = accumulate((1 if a in (0, 1) else -1 for a in word), mul, initial=1)
    total = sum(s * x * y for s, x, y in zip(signs, behind, ahead))
    alpha = (1 << max(bits - terms, 0)) + (terms + 1) * units
    return _finish(total, 2 * bits, (n + 1) * alpha * ((2 << bits) + alpha), prec)
