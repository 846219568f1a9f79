"""Exact rationals, error-carrying reals, and the summation engines.

Everything numerical in this package funnels through this module:

* :func:`bernoulli` produces exact Bernoulli numbers (``B1 = -1/2``
  convention) from the tangent numbers, in ``O(n**2)`` small-integer steps.
* :class:`BigReal` is an arbitrary-precision real paired with an explicit
  absolute error bound and the precision that was requested for it.
* :func:`em_sum` evaluates Euler's constant, the harmonic sum less ``log
  n``, by partial sum plus Bernoulli correction terms; its one caller is
  ``gamma_const("EM")``.
* :func:`accel_alt_sum` evaluates an alternating series, given its leading
  terms as integer rows in fixed point and optionally a bound on each row's
  input error, by Chebyshev-weighted acceleration, needing O(digits) terms
  instead of exponentially many.  Its integer body :func:`_chebyshev` has
  three users: ``phi``, the outer pass of ``gamma_const("ZETA_SERIES")``,
  and :func:`_zeta_pass`, the one step from ``phi(s)`` to ``zeta(s)`` at
  every rational ``s > 1``.  That step serves ``zeta`` and
  :func:`zeta_values`, which takes ``zeta(2), ..., zeta(top)`` on one shared
  table of powers, so both give the same integers at an integer ``s``.
* :func:`_at_one` evaluates the iterated integrals from 0 to 1 whose
  words give multiple zeta values, alternating sums and polylogarithms.

Every engine sizes itself a priori and runs once; a plan that misses
raises :class:`PrecisionNotMet`.  The Chebyshev pass and the iterated
integrals plan by one rule: the fewest terms and fixed-point bits whose
proved bound meets ``T = 2**-MARGIN_BITS 10**-prec``, taken as ``2**-t``
for the fewest such bits ``t`` (:func:`_target_bits`).  Chebyshev takes
the least ``n`` with ``(3 + sqrt(8))**n >= 2**(t + 2)``, by the
Cohen-Rodriguez Villegas-Zagier bound ``2 |S| / (3 + sqrt(8))**n``, a
theorem for the moment sequences every caller sums, and the bits that
the rows' units need past ``t`` (:func:`_alt_plan`); ``zeta`` and
:func:`zeta_values` plan one bit finer for the factor of at most 2 their
last step applies (:func:`_zeta_plan`).  The iterated integrals plan
their terms and bits from ``t`` and the weight.  Euler-Maclaurin, whose
one caller is :func:`em_sum`, keeps its own rule: the cheapest split and
term count whose closed-form first omitted term meets ``10**-(prec +
GUARD_DIGITS - 1)`` (:func:`_em_plan`).  No engine caches an mpf: the
integer Chebyshev weights and their absolute sum are cached per term
count, the Chebyshev plan per target, the Euler-Maclaurin plan per digit
count, the last 128 :func:`zeta_values` batches per ``(top, prec)`` as
tuples of integers, the least prime factors the power rows start from,
and the raw tuples of :func:`_pi` per precision and the last 256 of
:func:`_log`.

Every engine sums in Python-integer fixed point at the bits of its plan:
the Chebyshev dot product in :func:`_chebyshev` and the iterated integrals
at those of ``T``, the Euler-Maclaurin body of :func:`em_sum` at
:func:`working_bits`.  :class:`BigReal` rounds its ops, and
:func:`_finish` each engine's one result, at :func:`working_bits`, the
binary precision of ``prec`` plus :data:`GUARD_DIGITS` decimal digits.
Identical inputs produce bit-identical outputs.  Each engine is exercised
against independent references in the test suite.

Rounding
--------

This module works at explicit binary precisions only and keeps one rule:
:class:`BigReal` encloses, and the integer engines prove their units.  A
rounding counts ``|v| 2**(1 - b)`` at the precision ``b`` it happens at,
one count per rounding that makes ``v``, relative as Arb counts
(arXiv:1611.02831), since a nonzero value never rounds to 0.  ``+ - *
/``, the constructors and :func:`_finish` are correctly rounded: to
nearest, ties to even, in Python integers
(:func:`_round`), each value once.  One integer digit rule,
:func:`_digits`, writes every number as decimal text, exactly: a value
rounded to nearest with ties up, a bound upward, laid out as
mpmath.libmp's ``to_str`` lays out digits.  ``pi`` and ``log`` are
Python integers as well: :func:`_pi` and :func:`_log` sum one atan/atanh
series kernel (:func:`_arc`) and round to nearest by a Ziv loop that
widens its guard bits until the error interval decides the rounding, so
they are correctly rounded, and equal libmp's ``mpf_pi`` and ``mpf_log``
wherever those round correctly.  No libmp premise is left on the value
path, and nothing on it imports mpmath: :func:`faithful`, which the
identity checks alone call, reaches libmp through :func:`_mpmath`.
Each :class:`BigReal` constructor and ``+ - * /``, :func:`pi_times` and
:func:`log_of` add their counts to the propagated radius in integers and
round the sum upward (:func:`_ball`), so the square of a relative error is
in it too.  :func:`log_of` and :func:`faithful` add an absolute ``2**(1 -
b)``, and :func:`faithful` a slope the caller proves times the radius.

Every row ``floor(2**b k**-s)`` of the Euler-Maclaurin and Chebyshev bodies
is an exact floor, at every rational ``s > 0``: :func:`em_sum` takes
``floor(2**b / k)``, :func:`zeta_values` the floors by repeated division,
and :func:`_power_rows` the rest, by one of two routes that return the same
integers (one division for an integer ``s``; for ``s = p/q`` an integer
``q``-th root at a prime ``k``, and at a composite the product of its
factors' rows, checked in integers; past :data:`_ROOT_BITS_CAP`, exp and
log in integers by :func:`_exp_rows`, each floor decided by a Ziv loop).
So :func:`em_sum`, :func:`zeta_values`, ``zeta`` and ``phi`` count one
proved unit a row.

The three engines, :func:`em_sum`, :func:`accel_alt_sum` and the
iterated-integral engine :func:`_at_one`, count their own units in
integers: their bounds are proved in the docstrings of :func:`em_sum` and
:func:`accel_alt_sum` and below.  Each ends in the one shared finish
:func:`_finish`, which rounds the integer total to nearest at ``b =
working_bits(prec)`` bits and adds ``(|total| >> b) + 1`` units for it.
:func:`zeta_values` converts nothing: it hands over its integer sums and
unit bounds at the bits of its plan, proved in its docstring, and
``gamma_const("ZETA_SERIES")`` shifts and divides them into the rows of a
Chebyshev pass a digit finer than ``prec``; ``zeta`` converts the pair of
:func:`_zeta_pass` by :func:`_finish`.

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
that means ``z`` in ``[-1, 1/2]`` or ``z = 1``.  Each side is one pass per
letter over the power series ``I_t = sum(c_k t**k)``, innermost letter
first, from the unit series ``I_t = 1``; the series' sum after each pass is
``I_(1/2)`` of the letters run so far.  Letter 0 divides ``c_k`` by ``k``,
and letter ``a`` runs ``D_k = (D_(k-1) + c_k)/a``, ``c'_(k+1) =
D_k/(k+1)``.  In integer fixed point with ``b`` fraction bits and ``e_k =
c_k 2**-k`` that is ``E_k = (E_(k-1) + e_k) // (2a)`` (for ``a = p/q`` one
floor of ``(E_(k-1) + e_k) q / (2p)``) and ``e'_(k+1) = E_k // (k+1)``.
:func:`_passes` runs them with one integer kernel per letter kind, each
taking these same floors (for letters 1 and 2 a shift by 1 or 2 bits).  The
factors ahead run ``w_n .. w_1`` and those behind ``phi(w_1) .. phi(w_n)``;
the ``c`` leading letters the two share run once, and both sides fork from
there.  Every MZV word shares at least one, since ``w_n = 1 = phi(w_1)``
for an admissible word, and a word equal to its dual, such as that of
``zeta(2, ..., 2)``, shares all ``n``.  The declared bound is a proof:

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
priori, the fewest terms and bits whose bound meets the engines' one target
``2**-t <= 2**-MARGIN_BITS 10**-prec`` (:func:`_target_bits`): with ``P =
t + bitlen(n + 1) + 3``, ``N = P`` unless the caller sets it, and ``b = P +
bitlen((N + 1) U)``.  Then ``alpha <= 2**(1-P)``, and steps 3 and 4 (for
values of modulus below 2) stay below ``2**-(t+1)``; a caller that scales a
value (``coeff_a3`` takes ``50/3`` of ``multiphi((1, 3))``) keeps the
margin of its own :func:`inner_prec`.  Cost: ``2n - c`` passes of ``N +
1`` big-integer steps, linear in the weight, which :data:`WEIGHT_CAP`
bounds.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import attrgetter, floordiv, mul
from typing import TYPE_CHECKING, Sequence, Union

from .errors import DomainError, InputError, PrecisionNotMet, TooLarge

if TYPE_CHECKING:
    from mpmath import mpf

#: Decimal digits past ``prec`` at which :class:`BigReal` rounds its ops:
#: they set :func:`working_bits` and nothing else.  The engines plan from
#: :data:`MARGIN_BITS` instead.
GUARD_DIGITS = 10

#: Bits below ``10**-prec`` that every engine plans for: each asks for the
#: fewest terms and fixed-point bits whose proved bound meets ``T =
#: 2**-MARGIN_BITS 10**-prec``.  At 3, a bound plus half a unit of the
#: ``prec``-th decimal stays within ``10**-prec`` with 3/8 of a unit to spare.
MARGIN_BITS = 3

#: Inclusive bounds for the ``prec`` argument accepted throughout.
MIN_PREC = 1
MAX_PREC = 100

ScalarLike = Union[int, Fraction, str, "mpf", float]


def working_dps(prec: int) -> int:
    """``prec + GUARD_DIGITS``: the decimal digits of :class:`BigReal`'s op rounding at ``prec``."""
    return prec + GUARD_DIGITS


def dps_to_prec(dps: int) -> int:
    """The bits that carry ``dps`` decimal digits, by mpmath's rule: ``round((dps + 1) log2 10)``."""
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


@lru_cache(maxsize=None)
def working_bits(prec: int) -> int:
    """``b``, the binary precision mpmath carries at ``working_dps(prec)`` digits: where :class:`BigReal` rounds."""
    return dps_to_prec(working_dps(prec))


def _target_bits(prec: int) -> int:
    """``t``, the fewest bits with ``2**-t <= T = 2**-MARGIN_BITS 10**-prec``: the one target of every engine plan."""
    return MARGIN_BITS + _TEN_TO[prec].bit_length()


#: Most digits a chain of inner steps adds past :data:`MAX_PREC`: g2's
#: ``assemble`` takes the REGISTRY ``a_3`` at ``prec + 6``, which takes
#: ``a_2`` at ``prec + 12``, whose ``period_map`` takes its atoms at ``prec +
#: 18``.  ``zeta`` near its pole is the other user: it adds the digits of
#: ``1/(s - 1)`` and refuses a ``prec`` they carry past this top.
INNER_DIGITS = 18

#: The highest precision an inner step may run at: :func:`check_prec`'s top
#: for an :func:`inner_prec` value, and where ``zeta`` refuses.
INNER_TOP = MAX_PREC + INNER_DIGITS


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
    top = INNER_TOP if prec.__class__ is _InnerPrec else MAX_PREC
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
    raw = getattr(x, "_mpf_", None)
    if isinstance(x, str):
        check_digits(x, what)
    elif raw is not None and (raw[1] or not raw[2]):  # a finite mpf
        x = _fraction(raw, what)
    try:
        q = Fraction(x)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError):
        raise DomainError(f"{what} must be a rational number (like 3, 0.25 or 1/3), got {x!r}") from None
    if max(abs(q.numerator), q.denominator) >= _CAP:
        raise InputError(f"{what} is past the cap {DIGIT_CAP} digits")
    return q


def _fraction(v: tuple, what: str = "the number") -> Fraction:
    """The exact rational of a finite raw tuple ``(sign, man, exp, bc)``, held to :data:`DIGIT_CAP` digits.

    How the other modules read a ball's midpoint or radius, and how
    :func:`as_fraction` reads an mpf: past the cap in the bits its exponent
    and mantissa give it raises :class:`InputError` before the integer is
    built.
    """
    sign, man, exp, bc = v
    if max(bc + exp, 1 - exp) > _CAP.bit_length():  # the numerator's or the denominator's bits
        raise InputError(f"{what} is past the cap {DIGIT_CAP} digits")
    q = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -q if sign else q


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


class _Record:
    """A result record: equal, hashed and shown by the attributes ``_fields`` names.

    A subclass's ``__init__`` sets them.  This is what the records took from
    ``dataclasses``, whose import loads ``inspect`` and costs a command
    about 5 ms; a record that is not hashable sets ``__hash__ = None``.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


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

    The midpoint is a raw mpf tuple ``(sign, man, exp, bc)`` of Python
    integers and the radius an odd Python integer below ``2**32`` times a
    power of 2, or 0, as Arb holds its ``mag_t`` (Johansson,
    arXiv:1611.02831).  Both shed their trailing zero bits, so a ball has
    one form and equal balls have equal fields.
    ``value`` and ``err`` are read-only mpfs built on access, which imports
    mpmath: a bridge for the tests and the benchmark, which no code in this
    package reads; it reads the raw fields, exactly by :func:`_fraction`.
    ``BigReal(value, err, prec)`` takes a finite mpf, int or float and
    rounds a given bound up into the integer form.

    The constructors, ``+ - * /``, :func:`pi_times` and :func:`log_of`
    enclose: when the operands' targets lie in their balls, the exact result
    lies in the result's ball.  Each rounds its midpoint to nearest at the
    explicit binary precision ``b = working_bits(p)`` of the result's ``prec
    = p``, correctly rounded.  ``+ - * /`` round in integers (:func:`_add`,
    :func:`_mul`, :func:`_div`), as does a ``Fraction`` or a decimal string,
    read exactly by :func:`as_fraction`, through :func:`_quotient`, and
    ``pi`` times ``k`` and a log take the correctly rounded :func:`_pi` and
    :func:`_log`.
    The radius is summed in integers and rounded upward (:func:`_ball`),
    from one count ``|v| 2**(1 - b)`` per rounding that makes the midpoint
    ``v`` (round to nearest errs by at most ``|v| 2**-b``) plus:

    * ``x + y``, ``x - y``: ``e_x + e_y``;
    * ``x y``: ``|x| e_y + |y| e_x + e_x e_y``;
    * ``x / y``: ``(e_x + |x/y| e_y) / (|y| - e_y)``, with ``|x/y|`` at
      most ``|v|`` plus half a unit in its last place.  A divisor whose
      ball holds 0 raises :class:`PrecisionNotMet`, an exact 0
      :class:`DomainError`.

    A value that converts without change has radius 0.  Negation and
    ``abs`` are exact: they keep the midpoint's bits and the radius.
    :meth:`certified` compares the radius with ``10**-prec`` exactly, in
    integers.

    Instances are immutable and compare and hash by their fields.  Cost:
    1.8-3.6 microseconds per op at prec 15 and 2.0-4.1 at prec 100 on a
    shared 2-core x86-64 VM (Python 3.11), division the most.
    """

    __slots__ = ("_mid", "_man", "_exp", "_prec")

    def __init__(self, value: mpf | int | float, err: mpf | int | float, prec: int) -> None:
        sign, man, exp, _ = _raw(err, "error bound")
        if sign:
            raise DomainError("error bound must be non-negative")
        self._mid = _raw(value, "value")
        self._man, self._exp = _up(man, exp)
        self._prec = check_prec(prec)

    @property
    def value(self) -> mpf:
        """The midpoint as an mpf."""
        return _mpmath().mp.make_mpf(self._mid)

    @property
    def err(self) -> mpf:
        """The radius as an exact mpf."""
        return _mpmath().mp.make_mpf(_exact(0, self._man, self._exp))

    prec = property(attrgetter("_prec"))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._mid, self._man, self._exp, self._prec) == (other._mid, other._man, other._exp, other._prec)

    def __hash__(self) -> int:
        return hash((self._mid, self._man, self._exp, self._prec))

    def __reduce__(self):
        return _new_ball, (self._mid, self._man, self._exp, self._prec)

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, x: ScalarLike, prec: int) -> "BigReal":
        """Wrap a value known exactly up to representation rounding.

        A value that converts without change has a zero bound; any other
        rounds once, one count; for a ``Fraction``, :func:`_ratio` decides
        that in integers.  A string is an input: :func:`as_fraction` reads its
        exact rational, which rounds as a Fraction does, so ``"0.5"`` has a
        zero bound and ``"inf"`` raises :class:`DomainError`, as does a
        float or mpf that is not finite.
        """
        b = _BITS[check_prec(prec)]
        if isinstance(x, (str, Fraction)):
            return _ratio(*(as_fraction(x, "the decimal") if isinstance(x, str) else x).as_integer_ratio(), prec)
        raw = _raw(x, "value")
        v = _round(raw[0], raw[1], raw[2], b)
        return _new_ball(v, 0, 0, prec) if v == raw else _ball(v, prec, 1 - b)

    @classmethod
    def from_decimal(cls, text: str, prec: int) -> "BigReal":
        """Read a decimal string as :meth:`exact` does; the bound covers its one rounding."""
        return cls.exact(text.strip(), prec)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = other if isinstance(other, BigReal) else BigReal.exact(other, self._prec)
        p = self._prec if self._prec <= o._prec else o._prec
        b = _BITS[p]
        return _ball(_add(self._mid, o._mid, b), p, 1 - b, ((self._man, self._exp), (o._man, o._exp)))

    __radd__ = __add__

    def __neg__(self) -> "BigReal":
        # Exact, however wide the midpoint: a ball relabelled to a lower prec
        # keeps the bits of its inner step, and a rounding here went uncounted.
        sign, man, exp, bc = self._mid
        return _new_ball((1 - sign, man, exp, bc) if man else self._mid, self._man, self._exp, self._prec)

    def __sub__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = other if isinstance(other, BigReal) else BigReal.exact(other, self._prec)
        p = self._prec if self._prec <= o._prec else o._prec
        b = _BITS[p]
        return _ball(_add(self._mid, o._mid, b, 1), p, 1 - b, ((self._man, self._exp), (o._man, o._exp)))

    def __rsub__(self, other: ScalarLike) -> "BigReal":
        return BigReal.exact(other, self._prec) - self

    def __mul__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = other if isinstance(other, BigReal) else BigReal.exact(other, self._prec)
        p = self._prec if self._prec <= o._prec else o._prec
        b = _BITS[p]
        x, y = self._mid, o._mid
        mx, ex, my, ey = self._man, self._exp, o._man, o._exp
        return _ball(_mul(x, y, b), p, 1 - b,
                     ((x[1] * my, x[2] + ey), (y[1] * mx, y[2] + ex), (mx * my, ex + ey)))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = other if isinstance(other, BigReal) else BigReal.exact(other, self._prec)
        y = o._mid
        if not y[1]:
            raise DomainError("division by zero")
        p = self._prec if self._prec <= o._prec else o._prec
        b = _BITS[p]
        v = _div(self._mid, y, b)
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
                raise PrecisionNotMet(f"division by a ball that holds 0: {value_text(o, o._prec)} ± {bound_text(o, 3)}")
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
        _, man, exp, bc = self._mid
        return _new_ball((0, man, exp, bc), self._man, self._exp, self._prec)

    # -- queries ------------------------------------------------------

    def certified(self) -> bool:
        """True when the radius is at most ``10**-prec``, decided exactly."""
        return _at_most_ten_to(self._man, self._exp, self._prec)

    def holds_zero(self) -> bool:
        """True when the ball holds 0, ``|value| <= err``, decided exactly."""
        _, man, exp, _ = self._mid
        low = min(exp, self._exp)
        return man << exp - low <= self._man << self._exp - low

    def demand(self, what: str = "result") -> "BigReal":
        if not self.certified():
            raise PrecisionNotMet(
                f"{what}: certified bound {bound_text(self, 3)} exceeds 1e-{self._prec}")
        return self

    def __repr__(self) -> str:  # debugging aid, not part of the text format
        return (f"BigReal({value_text(self, self._prec + 2)}, "
                f"err<={bound_text(self, 3)}, prec={self._prec})")


_new = object.__new__


#: ``working_bits(p)`` and ``10**p`` by ``p``, read by every op, for every
#: ``p`` that :func:`check_prec` admits.
_BITS = tuple(working_bits(p) for p in range(INNER_TOP + 1))
_TEN_TO = tuple(10 ** p for p in range(INNER_TOP + 1))

#: The raw tuple of 0, libmp's ``fzero``.
_ZERO = (0, 0, 0, 0)


def _exact(sign: int, man: int, exp: int) -> tuple:
    """``(-1)**sign man 2**exp`` for an integer ``man >= 0`` as a raw tuple, unrounded."""
    if not man:
        return _ZERO
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def _round(sign: int, man: int, exp: int, b: int) -> tuple:
    """``(-1)**sign man 2**exp``, ``man >= 0``, rounded to nearest at ``b`` bits as a raw tuple.

    Correctly rounded: ties go to the even mantissa, and the result sheds
    its trailing zero bits, so equal values have equal tuples.
    """
    n = man.bit_length() - b
    if n > 0:
        t = man >> n - 1  # b + 1 bits: the last is the half
        man = (t >> 1) + 1 if t & 1 and (t & 2 or man & (1 << n - 1) - 1) else t >> 1
        exp += n
    if not man & 1:
        if not man:
            return _ZERO
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
    return sign, man, exp, man.bit_length()


def _add(s: tuple, t: tuple, b: int, sub: int = 0) -> tuple:
    """``s + t``, or ``s - t`` for ``sub = 1``, of raw tuples, correctly rounded at ``b`` bits.

    The sum is exact, then rounded once by :func:`_round`, except where an
    operand's exponent lies more than 100 bits below the other's and its
    magnitude below ``2**low``, for ``low`` at least 1 bit under the larger
    operand's last bit and ``b + 3`` under its top: it then counts as one
    sticky bit at ``low``, so no integer grows with the gap.  That rounds
    alike: the sum and the sticky one lie strictly between the same two
    even multiples of ``2**low``, and every rounding boundary is one.
    """
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    tsign ^= sub
    if not sman:
        return _round(tsign, tman, texp, b)
    if not tman:
        return _round(ssign, sman, sexp, b)
    if sexp < texp:  # s has the larger exponent from here on
        ssign, sman, sexp, sbc, tsign, tman, texp, tbc = tsign, tman, texp, tbc, ssign, sman, sexp, sbc
    if sexp - texp > 100:
        n = b + 3 - sbc if sbc < b + 2 else 1  # s << n has its last bit at low = sexp - n
        if tbc + texp <= sexp - n:
            return _round(ssign, (sman << n) + (1 if ssign == tsign else -1), sexp - n, b)
    sman <<= sexp - texp
    if ssign == tsign:
        return _round(ssign, sman + tman, texp, b)
    man = sman - tman
    return _round(ssign, man, texp, b) if man >= 0 else _round(tsign, -man, texp, b)


def _mul(s: tuple, t: tuple, b: int) -> tuple:
    """``s t`` of raw tuples, exact, then correctly rounded at ``b`` bits."""
    return _round(s[0] ^ t[0], s[1] * t[1], s[2] + t[2], b)


def _div(s: tuple, t: tuple, b: int) -> tuple:
    """``s / t`` of raw tuples, ``t`` nonzero, correctly rounded at ``b`` bits.

    The floored quotient keeps at least ``b + 4`` bits, and a nonzero
    remainder is one sticky bit past them, so the one rounding is correct.
    """
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    sign = ssign ^ tsign
    if tman == 1:
        return _round(sign, sman, sexp - texp, b)
    extra = b - sbc + tbc + 5
    if extra < 5:
        extra = 5
    quot, rem = divmod(sman << extra, tman)
    if rem:
        return _round(sign, (quot << 1) + 1, sexp - texp - extra - 1, b)
    return _round(sign, quot, sexp - texp - extra, b)


def _raw(x: mpf | int | float, what: str) -> tuple:
    """The raw tuple of a finite mpf, int or float, exactly; mpmath is not imported for it."""
    if isinstance(x, int):
        return _exact(1 if x < 0 else 0, abs(x), 0)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"{what} must be finite, got {x!r}")
        m, e = math.frexp(x)
        return _exact(1 if m < 0 else 0, int(abs(m) * (1 << 53)), e - 53)
    raw = getattr(x, "_mpf_", None)
    if raw is None:
        raise TypeError(f"cannot create a BigReal from {x!r}")
    if not raw[1] and raw[2]:
        raise DomainError(f"{what} must be finite, got {x!r}")
    return raw


def _ball(v: tuple, prec: int, count: int, terms: Sequence[tuple[int, int]] = ()) -> BigReal:
    """A :class:`BigReal` of midpoint ``v`` whose radius rounds up a sum of terms.

    The sum is ``|v| 2**count``, the rounding count, plus ``m 2**e`` for
    each ``(m, e)`` in ``terms``, integers ``m >= 0``; an absolute count is
    a term.  A sum of 0 is a radius of 0; any other is taken in
    units of ``2**low``, 64 bits below the top of its largest term; each
    term, or the part of one, below ``low`` counts as one unit.  The sum is
    at least ``2**62`` units and at most five are added, so it exceeds the
    exact sum by a relative ``2**-59`` at most, however far apart the terms
    lie, and no integer grows past 64 bits more than the widest term.  It is
    then rounded up to an odd integer below ``2**32``, as by :func:`_up`.
    """
    _, vman, vexp, vbc = v
    vexp += count
    top = vexp + vbc if vman else None  # |v| 2**count < 2**top
    for m, e in terms:
        if m:
            t = e + m.bit_length()
            if top is None or t > top:
                top = t
    if top is None:
        return _new_ball(v, 0, 0, prec)
    low = top - 64
    d = vexp - low
    total = vman << d if d >= 0 else -(-vman >> -d)
    for m, e in terms:
        if m:
            d = e - low
            total += m << d if d >= 0 else (m >> -d) + 1
    s = total.bit_length() - 32  # _up inline: its call cost a fifth of a + at prec 15
    total = -(-total >> s)
    zeros = (total & -total).bit_length() - 1
    return _new_ball(v, total >> zeros, low + s + zeros, prec)


def _quotient(num: int, den: int, b: int) -> tuple:
    """``num / den`` for ``den > 0``, correctly rounded at ``b`` bits, as a raw tuple.

    A numerator wider than ``b`` bits goes through :func:`_div`.  Otherwise
    the floored quotient has ``b + 1`` or ``b + 2`` bits, and rounding it
    half up at ``b`` bits rounds the true quotient to nearest, since no tie
    can occur: a tie has ``b + 1`` bits and ends in 1, and for
    ``num/den`` in lowest terms so would ``num``.
    """
    sign = 1 if num < 0 else 0
    if sign:
        num = -num
    elif not num:
        return _ZERO
    if num.bit_length() > b:
        return _div(_exact(sign, num, 0), _exact(0, den, 0), b)
    shift = b + 1 + den.bit_length() - num.bit_length()
    q = (num << shift) // den
    extra = q.bit_length() - b
    q = ((q >> extra - 1) + 1) >> 1
    zeros = (q & -q).bit_length() - 1
    q >>= zeros
    return sign, q, extra - shift + zeros, q.bit_length()


def _ratio(num: int, den: int, prec: int) -> BigReal:
    """``num/den`` in lowest terms, ``den > 0``, as a ball at a checked ``prec``.

    :meth:`BigReal.exact` takes a Fraction here, and ``mzv_bruteforce`` its
    terms ``1, m**n``, with no Fraction built.  Only a power of 2 ``den`` can
    give an exact binary result ``man 2**exp``, exact iff ``man 2**exp den
    == num``; any other rounds once, one count.
    """
    b = _BITS[prec]
    v = _quotient(num, den, b)
    if not den & den - 1:
        _, man, exp, _ = v  # v has the sign of num
        if man * den << max(exp, 0) == abs(num) << max(-exp, 0):
            return _new_ball(v, 0, 0, prec)
    return _ball(v, prec, 1 - b)


def _new_ball(v: tuple, man: int, exp: int, prec: int) -> BigReal:
    """A :class:`BigReal` of midpoint ``v`` and radius ``man 2**exp``, as given."""
    out = _new(BigReal)
    out._mid = v
    out._man = man
    out._exp = exp
    out._prec = prec
    return out


def _relabel(x: BigReal, prec: int) -> BigReal:
    """``x`` with its midpoint and radius as they are, labelled ``prec``: an inner step's ball handed out."""
    return _new_ball(x._mid, x._man, x._exp, check_prec(prec))


def _radius(x: BigReal) -> Fraction:
    """The radius of ``x`` as an exact rational, read by :func:`_fraction`."""
    return _fraction((0, x._man, x._exp, x._man.bit_length()), "a radius")


def _widen(x: BigReal, extra: Fraction) -> BigReal:
    """``x`` with ``extra >= 0``, an exact rational, added to its radius.

    The sum is rounded up by :func:`_up` as the constructor rounds a given
    bound: a sum with a power-of-2 denominator is taken exactly, and any
    other is first rounded up to 33 or more bits.
    """
    num, den = (_radius(x) + extra).as_integer_ratio()
    shift = den.bit_length() - 1
    if den == 1 << shift:
        man, exp = num, -shift
    else:
        exp = num.bit_length() - den.bit_length() - 33
        man = -((-num << max(-exp, 0)) // (den << max(exp, 0)))
    return _new_ball(x._mid, *_up(man, exp), x._prec)


def _float(v: tuple) -> float:
    """The float nearest the raw tuple ``v``, rounded to 53 bits by :func:`_round` as an mpf's ``float`` is."""
    sign, man, exp, _ = _round(v[0], v[1], v[2], 53)
    return math.ldexp(-man if sign else man, exp)


def _at_most_ten_to(n: int, e: int, prec: int) -> bool:
    """``n 2**e <= 10**-prec`` for an integer ``n >= 0``, decided in integers."""
    lhs, k = n * _TEN_TO[prec], -e  # n 10**prec <= 2**k, with no power of 2 built past it
    return not n or k >= 0 and (lhs.bit_length() <= k or lhs == 1 << k)


def _up(n: int, e: int) -> tuple[int, int]:
    """``(m, f)``: ``n 2**e`` for an integer ``n >= 0`` rounded up to ``m 2**f``, ``m < 2**32`` odd, or ``(0, 0)``.

    The one form of a radius: equal values give equal pairs.
    """
    if not n:
        return 0, 0
    s = n.bit_length() - 32
    if s > 0:
        n = -(-n >> s)
        e += s
    zeros = (n & -n).bit_length() - 1
    return n >> zeros, e + zeros


def value_text(x: BigReal, digits: int | None = None) -> str:
    """The midpoint of ``x`` in ``digits`` significant digits, correctly rounded: to nearest, ties up.

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
    return _decimal_text(v, digits)


def bound_text(x: BigReal, digits: int) -> str:
    """The radius of ``x`` in ``digits`` significant digits, rounded upward.

    The least digits at or above the radius, by :func:`_digits`, so a
    printed bound never understates the declared one.  A bound is a result,
    not an input, so it may pass :data:`DIGIT_CAP` digits.
    """
    man, exp = x._man, x._exp
    if not man:
        return "0.0"
    num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    return _layout("", *_digits(num, den, digits, up=True), digits)


def _decimal_text(v: tuple, dps: int) -> str:
    """A raw tuple ``v`` in ``dps >= 1`` significant digits, correctly rounded by :func:`_digits`, laid out by :func:`_layout`."""
    sign, man, exp, _ = v
    if not man:
        return "0.0"
    num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    return _layout("-" if sign else "", *_digits(num, den, dps), dps)


def _digits(num: int, den: int, n: int, up: bool = False) -> tuple[str, int]:
    """``(d, e)``: a rational ``num/den > 0`` as the ``n`` digits ``d`` of ``d.dd 10**e``, exactly, in integers.

    Rounded to nearest with ties up, or upward for ``up``: the one rule by
    which a binary number becomes decimal text.  The float logs place ``e``
    within 1, and the loop settles it on the integer quotient.
    """
    e, low, high = math.floor(math.log10(num) - math.log10(den)), 10 ** (n - 1), 10 ** n
    while True:
        shift = n - 1 - e
        top, bottom = (num * 10 ** shift, den) if shift >= 0 else (num, den * 10 ** -shift)
        d, r = divmod(top, bottom)
        if low <= d < high:
            break
        e += 1 if d >= high else -1
    if r and (up or 2 * r >= bottom):
        d += 1
        if d == high:  # carried through nines: 9.9996 -> 10.00
            d, e = low, e + 1
    return _decimal(d), e


def _layout(sign: str, digits: str, exponent: int, dps: int) -> str:
    """``sign d.ddd e exponent`` as libmp's ``to_str`` lays out ``dps`` digits, trailing zeros stripped.

    Fixed point when ``min(-(dps // 3), -5) < exponent < dps``, otherwise
    ``e+n`` or ``e-n``; ``1.0`` keeps one zero.
    """
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if not exponent:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"


def pi_times(k: int, prec: int) -> BigReal:
    """``k pi`` at the working precision of ``prec``: a count for :func:`_pi`, one for the product unless ``|k| = 2**j``."""
    b, m = _BITS[check_prec(prec)], abs(k)
    return _ball(_mul(_pi(b), _exact(1 if k < 0 else 0, m, 0), b), prec, (2 if m & m - 1 else 1) - b)


def log_of(q: int | Fraction, prec: int) -> BigReal:
    """``log q`` for a rational ``q > 0`` at the working precision of ``prec``: one count and an absolute term.

    ``q`` rounds once, as :meth:`BigReal.exact` rounds a ``Fraction``,
    which moves the log by at most ``2**(1 - b)`` whatever its size; the
    correctly rounded :func:`_log` counts one.  ``log 1`` is an exact 0.
    """
    check_prec(prec)
    num, den = q.as_integer_ratio()
    if num <= 0:
        raise DomainError(f"log_of needs q > 0, got {exact_str(q)}")
    if num == den:
        return _new_ball(_ZERO, 0, 0, prec)
    b = _BITS[prec]
    return _ball(_log(_quotient(num, den, b), b), prec, 1 - b, ((1, 1 - b),))


# ---------------------------------------------------------------------------
# pi, log and exp in integers
# ---------------------------------------------------------------------------


def _arc(t: int, y: int, w: int, hyperbolic: bool) -> tuple[int, int]:
    """``(S, units)``: ``atanh x``, or ``atan x``, in units of ``2**-w``, for ``0 <= x <= 1/2``.

    The one series kernel under :func:`_pi`, :func:`_log` and the rows of
    :func:`_exp_rows`.  The caller gives ``t = floor(2**w x)`` and ``y`` with
    ``0 <= 2**w x**2 - y <= 2``: ``floor(2**w / m**2)`` for ``x = 1/m``, or
    ``t**2 >> w``, since ``x**2 - (t 2**-w)**2 <= 2x 2**-w``.  The powers run
    ``t_(j+1) = (t_j y) >> w``, the terms ``t_j // (2j + 1)``, summed
    (``atanh``) or alternating (``atan``) until a power is 0.  ``units = 4 N
    + 4`` for ``N`` terms is a proof, with ``T_j = 2**w x**(2j+1)``:

    1. ``t_j <= T_j``, and ``d_j = T_j - t_j`` has ``d_0 < 1`` and ``d_(j+1)
       <= x**2 d_j + t_j 2**(1-w) + 1 < d_j / 4 + 2``, as ``t_j < 2**(w-1)``:
       every ``d_j < 8/3``.
    2. Each term is below ``T_j / (2j + 1)`` by less than ``d_j + 1 < 4``.
    3. Once ``t_N = 0``, ``T_N = d_N < 8/3``, and the tail ``sum(T_j / (2j +
       1), j >= N)`` is below ``T_N / (1 - x**2) < 4``.
    """
    terms, k = [], 1
    while t:
        terms.append(t // k)
        t = t * y >> w
        k += 2
    total = sum(terms) if hyperbolic else sum(terms[0::2]) - sum(terms[1::2])
    return total, 4 * len(terms) + 4


def _atan_inverse(m: int, w: int, hyperbolic: bool = True) -> tuple[int, int]:
    """``atanh(1/m)``, or ``atan(1/m)``, for an integer ``m >= 2`` by :func:`_arc`."""
    return _arc((1 << w) // m, (1 << w) // (m * m), w, hyperbolic)


def _decided(total: int, units: int, w: int, b: int) -> tuple | None:
    """The raw tuple, rounded to nearest at ``b`` bits, of every value within ``units`` of ``total 2**-w``.

    ``None`` when the ends of that interval round apart, or it holds 0.
    Rounding to nearest is monotone, so equal ends decide every value
    between them: the test of a Ziv loop.
    """
    lo, hi = total - units, total + units
    if lo > 0:
        v = _round(0, lo, -w, b)
        return v if v == _round(0, hi, -w, b) else None
    if hi < 0:
        v = _round(1, -hi, -w, b)
        return v if v == _round(1, -lo, -w, b) else None
    return None


@lru_cache(maxsize=None)
def _pi(b: int) -> tuple:
    """``pi`` rounded to nearest at ``b`` bits, as a raw tuple: libmp's ``mpf_pi`` where it rounds correctly.

    Machin's ``16 atan(1/5) - 4 atan(1/239)`` by :func:`_arc` at ``b + g``
    bits, within 16 and 4 times their units, and :func:`_decided` rounds it;
    ``pi`` is irrational, so doubling ``g`` from 20 until the rounding is
    decided ends.  Cached per ``b``: about 0.1 ms at prec 100 the first time.
    """
    g = 20
    while True:
        w = b + g
        five, five_units = _atan_inverse(5, w, False)
        big, big_units = _atan_inverse(239, w, False)
        v = _decided(16 * five - 4 * big, 16 * five_units + 4 * big_units, w, b)
        if v:
            return v
        g *= 2


@lru_cache(maxsize=64)
def _ln2(w: int) -> tuple[int, int]:
    """``(L, units)``: ``log 2 = 2 atanh(1/3)`` in units of ``2**-w``, cached per ``w``."""
    total, units = _atan_inverse(3, w)
    return 2 * total, 2 * units


def _log_fixed(num: int, den: int, w: int) -> tuple[int, int]:
    """``(L, units)``: ``log(num/den)`` for integers ``num, den > 0`` in units of ``2**-w``.

    ``num/den = 2**e m`` with ``m`` in ``[1/sqrt 2, sqrt 2]``, and ``log m = 2
    atanh(x)`` for ``x = (m - 1)/(m + 1)``, ``|x| < 0.172``: :func:`_arc` on
    ``t = floor(2**w |x|)`` and ``t**2 >> w``, within twice its units, plus
    ``e`` times :func:`_ln2`, within ``|e|`` times its units.
    """
    e = num.bit_length() - den.bit_length()
    if e > 0:
        den <<= e
    elif e < 0:
        num <<= -e
    if 2 * num * num < den * den:
        num <<= 1
        e -= 1
    elif num * num > 2 * den * den:
        den <<= 1
        e += 1
    x = num - den
    t = (abs(x) << w) // (num + den)
    total, units = _arc(t, t * t >> w, w, True)
    total, units = (2 * total if x >= 0 else -2 * total), 2 * units
    if e:
        ln2, ln2_units = _ln2(w)
        total, units = total + e * ln2, units + abs(e) * ln2_units
    return total, units


@lru_cache(maxsize=256)
def _log(v: tuple, b: int) -> tuple:
    """``log v`` for a raw tuple ``v > 0`` rounded to nearest at ``b`` bits: libmp's where it rounds correctly.

    ``log 1`` is an exact 0; a quotient near 1 may round to it.  Otherwise
    :func:`_log_fixed` at ``w = b + g + lost`` fraction bits, with ``lost``
    the bits by which ``|log v| >= 2 |v - 1| / (v + 1)`` falls below 1, and
    :func:`_decided` rounds it; the log of a rational other than 1 is
    irrational, so doubling ``g`` from ``20`` plus the bits of ``v``'s
    exponent until the rounding is decided ends.  Cost at prec 100: about
    23 microseconds, where libmp took 9 (2-core x86-64 VM); the last 256
    are cached, among them :func:`em_sum`'s ``log n`` per prec.
    """
    _, man, exp, bc = v
    if v == (0, 1, 0, 1):
        return _ZERO
    num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    lost = (num + den).bit_length() - abs(num - den).bit_length()
    g = 20 + abs(exp + bc).bit_length()
    while True:
        w = b + g + lost
        out = _decided(*_log_fixed(num, den, w), w, b)
        if out:
            return out
        g *= 2


def _exp_fixed(y: int, w: int) -> tuple[int, int]:
    """``(E, units)``: ``2**w exp(-y 2**-w)`` for an integer ``y >= 0``, within ``units``.

    With ``h = max(bitlen(y) - w, 0) + 12`` halvings, ``z = y 2**-(w + h)
    < 2**-12`` is exactly ``Z 2**-W``, ``Z = 16 y``, at ``W = w + h + 4``
    bits.  The Taylor powers run ``t_i = ((t_(i-1) Z) >> W) // i`` from ``t_0
    = 2**W``, alternating, until one is 0, and the sum is squared ``h``
    times, ``X -> X**2 >> W``.  The count is a proof, in units of ``2**-W``:

    1. Each ``t_i`` is below ``2**W z**i / i!`` by ``d_i <= d_(i-1) z + 2 <
       2.001``, and the first omitted term is ``d_N``, so the ``N``-term sum
       is within ``D_0 = 2 N + 3`` of ``2**W exp(-z)``.
    2. A square of ``X = 2**W u + delta``, ``0 < u <= 1``, ``|delta| <= D``,
       is ``2**W u**2 + 2 u delta + delta**2 2**-W`` before its floor: within
       ``2 D + 2`` while ``D <= 2**(W/2)``, which holds as ``2**h (D_0 + 2)``
       bounds every ``D`` and ``h + bitlen(D_0 + 2) <= W/2`` at every
       ``w >= 64`` and ``y < 2**(w + 16)``, as in :func:`_exp_rows`.
    3. The shift back to ``w`` bits costs one unit more.

    So ``units = ((2**h (D_0 + 2)) >> (h + 4)) + 2``.
    """
    h = max(y.bit_length() - w, 0) + 12
    wide = w + h + 4  # W
    z = y << 4
    t, i, terms = 1 << wide, 0, []
    while t:
        terms.append(t)
        i += 1
        t = (t * z >> wide) // i
    x = sum(terms[0::2]) - sum(terms[1::2])
    for _ in range(h):
        x = x * x >> wide
    return x >> h + 4, (2 * len(terms) + 5 >> 4) + 2


def faithful(name: str, x: BigReal, slope: int | Fraction, shift: int = 0) -> BigReal:
    """``2**shift f(x 2**-shift)`` for libmp's ``mpf_<name>``, or :func:`_log` for ``"log"``, taken as faithful.

    ``f`` runs on the midpoint at ``b = working_bits(x.prec)``, to nearest;
    its result ``v`` is a premise counted ``(1 + |v|) 2**(1 - b)``, plus
    ``slope`` times the radius, where the caller proves ``|g'| <= slope``
    over the ball for ``g(y) = 2**shift f(y 2**-shift)``.
    """
    b, (num, den) = _BITS[x._prec], slope.as_integer_ratio()
    u = _exact(x._mid[0], x._mid[1], x._mid[2] - shift)
    if name == "log":
        v = _log(u, b)
    else:
        libmp = _mpmath().libmp
        v = getattr(libmp, "mpf_" + name)(u, b, libmp.round_nearest)
    return _ball(_exact(v[0], v[1], v[2] + shift), x._prec, 1 - b,
                 ((1, 1 - b), (-(-num * x._man << 32) // den, x._exp - 32)))


def _mpmath():
    """``mpmath``, imported on the first call: the package's one import of it, off the value path."""
    import mpmath
    return mpmath


def _finish(total: int, frac_bits: int, units: int, prec: int) -> BigReal:
    """An engine's integer result as a :class:`BigReal` at ``prec``: its one conversion.

    ``total`` is the value in units of ``2**-frac_bits`` and ``units`` the
    error the engine proved for it, in the same units.  The value rounds to
    nearest at ``b = working_bits(prec)`` bits by :func:`_round`, which
    errs by at most ``|total| 2**-b`` units, so the radius adds ``(|total|
    >> b) + 1``, and the sum rounds up by :func:`_up`.  Both are integer
    steps.
    """
    b = _BITS[prec]
    v = _round(1, -total, -frac_bits, b) if total < 0 else _round(0, total, -frac_bits, b)
    return _new_ball(v, *_up(units + (abs(total) >> b) + 1, -frac_bits), prec)


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


#: Largest ``q * bits`` for which :func:`_power_rows` takes ``k**-(p/q)``
#: by integer roots; past it the rows are :func:`_exp_rows`'s, the same
#: integers, so the cap moves cost and never a value.  Its value is kept
#: from when libmp's power took the rows past it; it is not a measured
#: crossover.  The planned row bits at prec 100 are 344 for ``phi`` and 345
#: for ``zeta`` at an integer, 348 at a non-integer ``s`` (a digit higher),
#: so no benchmark workload has ``q * bits`` above 4176 (``q <= 12``), and
#: ``s = 45/23`` (8004 for ``zeta``) is the last ``q`` under the cap, ``49/24``
#: the first past it.  Scratch timings at the old 369 bits on a 2-core
#: x86-64 VM put the crossover near 4400 at prec 100: the exp and log rows
#: cost about 1.2 ms for the 143 rows whatever ``q`` is, while the roots
#: took 1.3 ms at ``q * bits = 4428`` (``s = 13/12``) and 2.6 ms at 8118
#: (``s = 45/22``).  Under it the roots win: on 40 exponents drawn as the
#: sweep draws them they took 0.04 / 0.14 / 0.38 ms against 0.14 / 0.44 /
#: 1.19 ms at prec 15, 50 and 100.
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


def _power_rows(s: Fraction, n: int, bits: int) -> list[int]:
    """``floor(2**bits * k**-s)`` for ``k = 1..n``, ``s = p/q > 0`` rational: exact floors at every ``s``.

    Two routes return the same integers, and :data:`_ROOT_BITS_CAP` picks
    one: past it, ``q * bits`` above the cap, the rows are
    :func:`_exp_rows`'s.  Within it, an integer ``s`` takes one division
    per row.  Otherwise a prime row ``k`` is the integer ``q``-th root of
    ``(1 << bits q) // k**p`` (:func:`_iroot`), as ``floor(y) =
    floor(floor(y**q)**(1/q))``, and a composite ``k = a c``, ``a`` its least
    prime factor, comes from the rows ``r_a``, ``r_c`` of its factors.  With
    ``X_k = 2**bits k**-s``, so ``2**bits X_k = X_a X_c``, and each ``X = r +
    f``, ``0 <= f < 1``:

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
    huge ``s`` costs nothing.  Each row is within one unit of ``2**bits
    k**-s``, so the callers, ``phi``, ``zeta`` and the divisor row
    ``_power_rows(s, 2, bits + g)`` of :func:`_zeta_pass`, count the one
    unit :func:`accel_alt_sum` allows a row.

    Cost for 143 rows at 369 bits: 34 roots and 108 products, of which 11
    need the check at ``s = 37/11`` and 90 at ``s = 1/2``.  At ``s =
    37/11`` the rows take about 1.1 ms against 3.7 ms for a root per row,
    four fifths of it in the roots (2-core x86-64 VM).
    """
    p, q = s.numerator, s.denominator
    if p > bits * q:  # 2**bits k**-s <= 2**(bits - s) < 1 for k >= 2
        return [1 << bits] + [0] * (n - 1)
    if q * bits > _ROOT_BITS_CAP:
        return _exp_rows(s, n, bits)
    one = 1 << bits * q
    if q == 1:
        return [one // k ** p for k in range(1, n + 1)]
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
            return rows + [0] * (n + 1 - k)
        rows.append(y)
    return rows


def _exp_rows(s: Fraction, n: int, bits: int) -> list[int]:
    """``floor(2**bits * k**-s)`` for ``k = 1..n`` and a rational ``0 < s <= bits``, by exp and log in integers.

    The route of :func:`_power_rows` past :data:`_ROOT_BITS_CAP`, where a
    ``q``-th root grows with ``q``; under it the two routes agree bit for
    bit.  At ``w = bits + g`` fraction bits each row ``k`` is a guarded
    value ``R_k`` within ``U_k`` units of ``2**w k**-s``, as Arb builds
    powers (Johansson, arXiv:1410.7176):

    1. ``log k = log(k - 1) + 2 atanh(1/(2k - 1))`` at a prime ``k``
       (:func:`_atan_inverse`, ``log 2`` from ``log 1 = 0``), and the sum of
       its factors' logs at a composite, each within the sum of the units.
    2. At a prime, ``y = floor(p log k / q)`` is within ``p U / q + 1`` of
       ``2**w s log k``, and :func:`_exp_fixed` gives ``R_k`` within its
       units of ``2**w exp(-y 2**-w)``; ``exp(-x)`` moves by at most ``dx``
       for ``x >= 0``, so ``U_k`` adds ``p U / q + 2``.
    3. At a composite ``k = a c``, ``R_k = (R_a R_c) >> w``: as the true
       values are at most ``2**w``, the product is within ``2**w (U_a + U_c)
       + U_a U_c`` of theirs, so ``U_k = U_a + U_c + (U_a U_c >> w) + 2``
       with the floor.
    4. At ``k = 2**j`` with ``q | j`` the value is exact, ``2**(w - j p/q)``
       (below 1 it counts one unit): the only ``k`` whose row can be an
       integer, as ``2**bits k**-s`` is rational only where ``k`` is a
       ``q``-th power and an integer only where that is a power of 2.

    Each row is ``floor((R_k - U_k) 2**-g)`` when that equals
    ``floor((R_k + U_k) 2**-g)``.  Where it does not, a row within 1 of a
    power of 2 is decided by bounds: at ``k = 2**j`` with ``j s = J + f``,
    ``0 < f < 1``, the value is ``2**(bits - J - f)``, at most 1 below
    ``2**(bits - J)`` when ``2**(bits - J) f <= 1``, as ``1 - 2**-f < f``,
    and at most 1 above ``2**(bits - J - 1)`` when ``2**(bits - J - 1) (1 -
    f) <= 1``, as ``2**x - 1 < x`` on ``(0, 1)``; at any ``k`` it is at most
    1 below ``2**bits`` when ``2**bits s bitlen(k) <= 1``, as ``1 - k**-s <
    s log k``.  Those are the rows of an ``s`` near ``J/j`` or near 0, which
    would take about ``log2(1/f)`` guard bits.  Any other value is not an
    integer, so doubling ``g`` from ``48`` plus the bits of ``s`` until each
    floor is decided ends.  Rows never grow with ``k``, so once one is 0 the
    rest are.  Cost for 146 rows of ``s = 101/100`` at 375 bits: about half the
    time of libmp's powers, 1.1 against 1.9 ms (2-core x86-64 VM).
    """
    p, q = s.numerator, s.denominator
    least = _least_factors(n)
    g = 48 + (p // q).bit_length()
    while True:
        w = bits + g
        logs, guarded, rows = [(0, 0), (0, 0)], [(1 << w, 0)], [1 << bits]
        for k in range(2, n + 1):
            a = least[k]
            if a == k:
                (lk, uk), (atanh, units) = logs[k - 1], _atan_inverse(2 * k - 1, w)
                lk, uk = lk + 2 * atanh, uk + 2 * units
            else:
                (la, ua), (lc, uc) = logs[a], logs[k // a]
                lk, uk = la + lc, ua + uc
            logs.append((lk, uk))
            j = k.bit_length() - 1
            whole, part = divmod(j * p, q) if k == 1 << j else (0, p * k.bit_length())
            if k == 1 << j and not part:
                value, units = (1 << w - whole, 0) if whole <= w else (0, 1)
            elif a == k:
                value, units = _exp_fixed(p * lk // q, w)
                units += p * uk // q + 2
            else:
                (va, ua), (vc, uc) = guarded[a - 1], guarded[k // a - 1]
                value, units = va * vc >> w, ua + uc + (ua * uc >> w) + 2
            guarded.append((value, units))
            floor = value + units >> g
            if floor != max(value - units, 0) >> g:
                top = bits - whole
                if top >= 0 and part << top <= q:  # just below 2**top
                    floor = (1 << top) - 1
                elif k == 1 << j and top > 0 and q - part << top - 1 <= q:  # just above 2**(top - 1)
                    floor = 1 << top - 1
                else:
                    break
            if not floor:
                return rows + [0] * (n + 1 - k)
            rows.append(floor)
        else:
            return rows
        g *= 2


@lru_cache(maxsize=None)
def _alt_plan(t: int) -> tuple[int, int]:
    """``(n, b)``: the fewest Chebyshev terms and fraction bits whose bound meets ``2**-t``.

    For rows that are exact floors of a series with ``|a_1| <= 1``, by the
    count of :func:`accel_alt_sum`: ``n`` is the least with ``2 d - 1 >=
    2**(t + 2)``, so the truncation costs under ``2**(b - t - 1) + 2``
    units, and ``b = t + 1 + bitlen(R)`` with ``R = ceil(sum(|c_k|) / d) +
    8``, so the rows, the floor and the finish, ``R - 6`` units more, leave
    the bound below ``2**(b - t) - 5`` units: ``2**-t`` with 5 units to
    spare for a caller's last floors (:func:`_zeta_pass`).
    """
    n, d, d_next = 0, 1, 3
    while 2 * d - 1 < 1 << t + 2:
        n, d, d_next = n + 1, d_next, 6 * d_next - d
    _, d, size = _cvz_weights(n)
    return n, t + 1 + (8 - (-size // d)).bit_length()


def alt_terms_needed(prec: int) -> int:
    """Leading terms :func:`accel_alt_sum` reads at ``prec``: 22 / 68 / 133 at 15 / 50 / 100."""
    return _alt_plan(_target_bits(check_prec(prec)))[0]


def alt_bits(prec: int) -> int:
    """``b``: :func:`accel_alt_sum` reads its rows at ``prec`` in units of ``2**-b``; 59 / 177 / 344 at 15 / 50 / 100."""
    return _alt_plan(_target_bits(check_prec(prec)))[1]


def accel_alt_sum(rows: Sequence[int], prec: int, bounds: Sequence[int] | None = None) -> BigReal:
    """``sum((-1)**(k-1) * a_k, k >= 1)`` to ``prec`` certified digits, from integer rows.

    ``rows[k-1]`` is ``|a_k|`` as a non-negative integer in units of
    ``2**-b``, ``b = alt_bits(prec)``, for the first ``n =
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
    4. Converting ``E`` to an mpf at ``working_bits(prec)`` bits rounds to
       nearest, within ``|E| 2**-working_bits(prec)``: at most ``(|E| >>
       working_bits(prec)) + 1`` units.

    The sum of the units is rounded up to an mpf.  Two consecutive zero
    rows end a finite series, summed exactly as its own best acceleration:
    its ``j`` rows cost a unit each, the tail at most the first zero row's
    ``|a_j| <= delta_j + 1``, and step 4 its units; every ``delta_k`` is
    added, read or not.

    The plan ``(n, b)`` is :func:`_alt_plan`'s at ``t =`` :func:`_target_bits`
    ``(prec)``: the fewest terms and bits whose bound meets ``T =
    2**-MARGIN_BITS 10**-prec`` for exact rows and ``|a_1| <= 1``, as
    ``phi``'s are.  Rows with bounds, or a larger ``|a_1|``, widen the
    bound past ``T``, and past ``10**-prec`` raise.

    Cost: ``n`` rows, one integer dot product and one division.  The
    integer weights and ``sum(|c_k|)`` depend only on ``n`` and are cached
    under it: at most 100 entries, about 0.5 MB for all ``prec``.

    Raises :class:`PrecisionNotMet` when the bound cannot be certified.
    """
    n, b = _alt_plan(_target_bits(check_prec(prec)))
    rows = rows[:n]
    checked = [0] * n if bounds is None else bounds[:n]
    if len(rows) < n or len(checked) < n or min(*rows, *checked) < 0:
        raise DomainError(f"accel_alt_sum at prec {prec} reads {n} rows and bounds, "
                          f"non-negative integers; got {len(rows)} and {len(checked)}")
    estimate, units = _chebyshev(rows, n, None if bounds is None else checked)
    return _finish(estimate, b, units, prec).demand("accel_alt_sum")


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

    ``(n, b)`` is :func:`_zeta_plan`'s, the plan of ``zeta`` at an integer.
    For each ``s``, ``total`` is an integer within ``err`` of ``2**b
    zeta(s)``, and every ``err`` meets ``T = 2**-MARGIN_BITS 10**-prec``,
    ``err 10**prec 2**MARGIN_BITS <= 2**b``, checked in integers.  No mpf is
    built: the caller scales the integers itself.  Each ``zeta(s)`` is
    ``phi(s) 2**(s-1) / (2**(s-1) - 1)``, with ``phi(s)`` from one Chebyshev
    pass (:func:`_chebyshev`) over ``n`` rows shared by all ``s``.  The
    bound is a proof, in units of ``2**-b``:

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
    no Bernoulli number is formed.  ``(136, 101)``, the batch of
    ``gamma_const(100, "ZETA_SERIES")``, takes about 3.2 ms on a shared
    2-core x86-64 VM.  The batch depends on ``(top, prec)`` alone, so
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
    n, bits = _zeta_plan(prec)
    one, scale = 1 << bits, _TEN_TO[prec] << MARGIN_BITS
    rows = [one // m for m in range(1, n + 1)]
    out = []
    for s in range(2, top + 1):
        rows = list(map(floordiv, rows, range(1, n + 1)))
        if not rows[-1]:
            rows = rows[:rows.index(0) + 2]
        total, err = _zeta_pass(rows, s, n, bits)
        if err * scale > one:
            raise PrecisionNotMet(
                f"zeta_values: zeta({s}) bound of {err} units of 2**-{bits} exceeds 2**-{MARGIN_BITS} 1e-{prec}")
        out.append((total, err))
    return bits, tuple(out)


def _zeta_plan(prec: int) -> tuple[int, int]:
    """``(n, b)`` of a :func:`_zeta_pass` at ``prec``: the Chebyshev plan one bit past ``T``.

    The pass multiplies ``phi(s)``'s bound by ``2**(s-1) / (2**(s-1) - 1)``,
    at most 2 from ``s = 2`` on and below ``2 / (s - 1)`` under it, where
    ``zeta`` runs at a ``prec`` that many digits higher.  So one bit more
    than :func:`_alt_plan` gives ``phi`` meets ``T`` for ``zeta``; the last
    floors take the 5 units the plan spares.
    """
    return _alt_plan(_target_bits(prec) + 1)


def _zeta_pass(rows: Sequence[int], s: int | Fraction, n: int, bits: int) -> tuple[int, int]:
    """``(total, err)``: ``2**bits zeta(s)`` for a rational ``s > 1`` from the rows of ``phi(s)``.

    ``rows`` are :func:`_power_rows`'s exact floors.  One :func:`_chebyshev`
    pass over them gives ``E`` within ``U`` units of ``2**bits phi(s)``,
    ``phi(s) = (1 - 2**(1-s)) zeta(s)``.  The divisor comes from row 2 of
    ``_power_rows(s, 2, bits + g)``, with ``g = 64 + 2 ceil(log2(1/(s -
    1)))`` guard bits (64 from ``s = 2`` on), so that it keeps its relative
    precision near the pole.  With ``t`` twice that row, within ``e = 2`` of
    ``T = 2**(bits + g) 2**(1-s)``, ``e = 0`` at an integer ``s``, where the
    row is an exact power of 2, and ``D = 2**(bits + g) - t``, within ``e``
    of ``2**(bits + g) - T``, the bound is a proof in units of ``2**-bits``:

    1. ``2**bits zeta(s) = P 2**(bits + g) / (2**(bits + g) - T)`` for ``P =
       2**bits phi(s)``, and ``|P - E| <= U``.
    2. ``(P - E) 2**(bits + g) / (2**(bits + g) - T)`` is at most ``U (D +
       t) / (D - e) = U + U (t + e) / (D - e)``.
    3. ``E 2**(bits + g)`` over the true divisor and over ``D`` differ by at
       most ``(E + U) 2**(bits + g) e / (D (D - e))``.
    4. ``total = E + E t // D``, the floor of ``E 2**(bits + g) / D``, is one
       unit below it at most.

    So ``err = U + ceil(U (t + e) / (D - e)) + ceil((E + U) 2**(bits + g) e /
    (D (D - e))) + 1``.  At an integer ``s`` it is ``E + E // (2**(s-1) - 1)``
    with ``err = U + ceil(U / (2**(s-1) - 1)) + 1``, the step of
    :func:`zeta_values`, which ``zeta`` at an integer shares bit for bit.
    Once ``s > bits + 2`` the divisor moves ``2**bits zeta(s)`` by less than
    a unit, so ``total = E`` within ``U + 2``, and no divisor row is formed:
    a huge ``s`` costs nothing.
    """
    estimate, units = _chebyshev(rows, n)
    if s > bits + 2:
        return estimate, units + 2
    a, c = (s - 1).as_integer_ratio()
    top = bits + 64 + 2 * ((c - 1) // a).bit_length()  # ceil(log2(c/a)), 0 for c <= a
    t, e = 2 * _power_rows(s, 2, top)[1], (0 if c == 1 else 2)
    den = (1 << top) - t
    low = den - e  # the divisor's lower end
    err = units - (-units * (t + e) // low) - ((-(estimate + units) * e << top) // (den * low)) + 1
    return estimate + estimate * t // den, err


# ---------------------------------------------------------------------------
# Euler-Maclaurin summation
# ---------------------------------------------------------------------------


def em_sum(prec: int) -> BigReal:
    """Euler's constant by Euler-Maclaurin on the harmonic sum, planned from ``prec``.

    The split ``n`` and the term count ``J`` are :func:`_em_plan`'s, aimed
    at a first omitted term of ``10**-(wd - 1)``, ``wd = working_dps(prec)``,
    which with the counted units meets ``10**-prec`` with about nine digits
    to spare.  In integer fixed point with ``b = working_bits(prec)``
    fraction bits, from the rows ``floor(2**b / k)``, this sums::

        sum(1/k, k=1..n) - log(n) - 1/(2 n) + sum(B_2j / (2j n**(2j)), j=1..J)

    the regularized companion of the harmonic series, whose limit is Euler's
    constant.  The declared bound is ``|correction| + units`` units of
    ``2**-b``, with ``correction`` the first omitted Bernoulli term, plus
    the units of :func:`_finish` for the one conversion to an mpf.  The
    count is a proof:

    1. ``f(x) = 1/x`` is completely monotone, so the Euler-Maclaurin
       remainder after ``J`` corrections lies between 0 and the first
       omitted term ``B_2m / (2m n**(2m))``, ``m = J + 1``.
    2. Each row is off by less than one unit; the count takes 2 a row, ``2
       n`` units.
    3. ``rows[-1] // 2`` is off by at most half a row's error and half a
       unit for its floor: 2 units.  Two more go to ``-log n``: :func:`_log`
       at 16 more bits rounds correctly, within ``|log n| 2**-16 < 1`` unit,
       and its floor costs one.
    4. ``tail = rows[-1] n`` is ``2**b`` within ``tail_err = 2 n`` units,
       and each Bernoulli term, the omitted one too, is ``tail`` times the
       exact rational ``B_2j / (2j n**(2j))``: it carries the floor of that
       multiple of ``tail_err`` plus 2 units, at least the share plus 1 for
       its own floor.  A share is skipped when bit lengths prove its floor 0.

    Steps 2-4 bound the distance of ``total`` from ``2**b`` times the sum up
    to the last correction kept; step 4 bounds ``2**b`` times the true first
    omitted term by ``|correction|`` plus its share; with step 1 the value
    is within ``|correction| + units``.

    Cost: ``n`` rows of one integer division each, then ``J + 1`` Bernoulli
    terms of a few exact integer products and one floor division each; the
    Bernoulli numbers are :func:`bernoulli`'s cache.  One call; a plan that
    misses raises :class:`PrecisionNotMet` naming its split and term count,
    and nothing is retried.
    """
    check_prec(prec)
    n, terms = _em_plan(working_dps(prec) - 1)
    bits = working_bits(prec)
    one = 1 << bits
    rows = [one // k for k in range(1, n + 1)]
    tail, tail_err = rows[-1] * n, 2 * n  # 2**bits, within 2 n units
    _, man, exp, _ = _log(_exact(0, n, 0), bits + 16)
    log_n = -man << exp + bits if exp + bits >= 0 else -man >> -exp - bits  # floor(-2**bits log n)
    total = sum(rows) + log_n - rows[-1] // 2
    units = 2 * n + 4
    npow, err_bits = 1, tail_err.bit_length()
    for j in range(1, terms + 2):
        npow *= n * n
        num, den = bernoulli(2 * j).as_integer_ratio()
        den *= 2 * j * npow
        correction = tail * num // den
        if err_bits + num.bit_length() >= den.bit_length():
            units += tail_err * abs(num) // den
        units += 2
        if j > terms:
            break
        total += correction
    return _finish(total, bits, abs(correction) + units, prec).demand(
        f"em_sum at split {n} with {terms} Bernoulli terms")


# |B_2m|/(2m)! = 2 zeta(2m) / (2 pi)^(2m) <= (pi^2/3) / (2 pi)^(2m) for m >= 1.
_LOG10_BERNOULLI_RATIO_BOUND = math.log10(math.pi ** 2 / 3)
_LOG10_2PI = math.log10(2 * math.pi)


def _first_omitted_log10(n: int, terms: int) -> float:
    # Upper estimate of log10 of the first omitted Euler-Maclaurin term of
    # the harmonic sum split at n after ``terms`` corrections:
    # |B_2m|/(2m)! * (2m-1)! * n**(-2m) with m = terms + 1.
    m = terms + 1
    return (_LOG10_BERNOULLI_RATIO_BOUND - 2 * m * _LOG10_2PI
            + math.lgamma(2 * m) / math.log(10) - 2 * m * math.log10(n))


@lru_cache(maxsize=None)
def _em_plan(digits: int) -> tuple[int, int]:
    """The cheapest ``(n_split, bernoulli_terms)`` for the harmonic sum.

    Cheapest at ``n_split + 3 * bernoulli_terms`` among splits from 2 on,
    with the estimated first omitted term at most ``10**-digits``.  A weight
    of 6 grew every declared bound.  The plan is a function of ``digits``
    alone, so each is cached.
    """
    best_cost, best = math.inf, None
    terms = None
    n = 2
    # The cost is about convex in n: once a split 3 rows past the best
    # saves no term, a larger one saves none either.
    while best is None or n - best[0] <= 3:
        if terms is None:
            # Past about pi*n - 1/2 terms the corrections grow again, so
            # below that the estimate falls with every term.
            hi = max(0, int(math.pi * n - 0.5))
            if _first_omitted_log10(n, hi) <= -digits:
                lo = 0
                while lo < hi:
                    mid = (lo + hi) // 2
                    if _first_omitted_log10(n, mid) <= -digits:
                        hi = mid
                    else:
                        lo = mid + 1
                terms = hi
        else:
            while terms and _first_omitted_log10(n, terms - 1) <= -digits:
                terms -= 1
        if terms is not None:
            if n + 3 * terms < best_cost:
                best_cost, best = n + 3 * terms, (n, terms)
            if not terms:
                break
        n += 1
    return best


# ---------------------------------------------------------------------------
# Iterated integrals at 1/2
# ---------------------------------------------------------------------------

#: Maximum weight (word length) the iterated-integral engine runs on; cost
#: is linear in it.  At the cap and prec 100 ``Li_1000(1/2)`` and ``multiphi``
#: at weight 1000, whose two sides share one pass or none, take 50-70 ms, and
#: ``zeta(2, ..., 2)``, whose sides share every pass, 22-28 ms (2-core x86-64
#: VM).
WEIGHT_CAP = 1000

#: Most terms the coaction of one monomial may have: the product over its
#: atoms of ``n + 1`` for ``Li_m(n; z)``, 2 for an odd ``zeta_m`` and 1
#: otherwise.  The Hopf coproduct of a unipotent monomial is held to the same
#: cap, counting ``n + 1`` for ``Li_u(n; z)`` and ``k + 1`` for the ``k``-th
#: power of ``ln_u`` or ``zeta_u``.  The cap admits ``zeta_m(3)*Li_m(1000;
#: 1/2)``, 2002 terms of up to 1000 factors, 12 MB printed in about 0.65 s
#: for the whole ``coact`` command (2-core x86-64 VM); the cost of a product
#: of polylogarithms grows about as the cube of their weight.
COACTION_TERM_CAP = 2 * (WEIGHT_CAP + 1)

#: Most terms :func:`~euler_periods.symbolic.coassoc_residual` may form for
#: one monomial, estimated as the product over its atoms of ``C(n + 3, 3)``,
#: about ``n**3 / 6``, for ``Li_m(n; z)``, 4 for an odd ``zeta_m`` and 1
#: otherwise.  An odd ``zeta_m`` forms 3 terms, but it lengthens every key:
#: counted as 3, the time per estimated term grew about 1.3-fold with each
#: one (0.67, 0.78, 1.02, 1.34 and 1.63 us for 0 to 4 of them beside one
#: ``Li_m(n; 1/2)``, 7.6 us for ten alone), so it counts 4.  The cap is priced
#: at about 1 s for the costliest shape, a lone ``Li_m(n; z)``, whose keys are
#: longest (2-core x86-64 VM): ``Li_m(206; 1/2)`` (1499784) takes 0.8-1.45 s
#: and 73 MB of peak memory, ``zeta_m(3)*Li_m(129; 1/2)`` (1498640) 0.8-1.2 s,
#: ``zeta_m(3)*zeta_m(5)*zeta_m(7)*Li_m(50; 1/2)`` (1499264) 0.65-1.1 s, ten
#: distinct odd ``zeta_m`` (1048576) 0.5-0.8 s, ``Li_m(17; 1/2)*Li_m(17;
#: 1/3)`` (1299600) 0.45-0.75 s, ``Li_m(12; 1/2)*Li_m(12; 1/3)`` (207025)
#: 0.15 s.
COASSOC_TERM_CAP = 1_500_000

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
#: one step costs about 5-10 us up to weight 200, so 1-2 s at the cap, but
#: forms ``m**n`` exactly, so at weight 1000 the cap takes 11 s at prec 15
#: and 13 s at prec 100 (2-core x86-64 VM).
BRUTEFORCE_STEP_CAP = 200_000


def _word(parts: Sequence[int], letters: Sequence[int | Fraction]) -> list[int | Fraction]:
    """``0**(s-1) a`` for each part ``s`` and letter ``a``, outermost first."""
    if sum(parts) > WEIGHT_CAP:
        raise TooLarge(f"weight {sum(parts)} exceeds the supported cap {WEIGHT_CAP}")
    return [x for s, a in zip(parts, letters) for x in [0] * (s - 1) + [a]]


def _passes(letters: Sequence[int | Fraction], e: list[int], sums: list[int]) -> list[int]:
    """Run one pass per letter over the series coefficients ``e``; append each new sum to ``sums``.

    ``e`` holds ``e_0 .. e_N`` in units of ``2**-bits`` and is not changed;
    the coefficients after the last letter are returned.  Each letter kind
    has its own integer kernel, and every kernel takes the floors of the
    module docstring: letter 0 divides in one C-level map; a letter ``a =
    p/q`` averages by ``(E + e_k) q // (2p)``, which for ``q = 1`` drops the
    ``* q`` and for ``2p`` a positive power of two ``2**s`` (letters 1 and
    2) is the shift ``(E + e_k) >> s``, the same floor.
    """
    ks = range(1, len(e))
    for a in letters:
        if a == 0:
            e = [0, *map(floordiv, e[1:], ks)]
        else:
            q, p2 = a.denominator, 2 * a.numerator
            avg = 0
            if q == 1 and p2 > 0 and not p2 & (p2 - 1):
                s = p2.bit_length() - 1
                avgs = [avg := (avg + x) >> s for x in e[:-1]]
            elif q == 1:
                avgs = [avg := (avg + x) // p2 for x in e[:-1]]
            else:
                avgs = [avg := (avg + x) * q // p2 for x in e[:-1]]
            e = [0, *map(floordiv, avgs, ks)]
        sums.append(sum(e))
    return e


def _at_one(word: Sequence[int | Fraction], prec: int, terms: int | None = None) -> BigReal:
    """``I_1(word)`` by the Hoelder split at 1/2, with the bound of the module docstring.

    ``terms`` is ``N``, the series terms on each side of the split; by
    default the plan that meets ``T = 2**-MARGIN_BITS 10**-prec``, which
    every caller in the package takes.  A smaller ``N`` widens the bound,
    which the returned value carries uncertified.
    """
    n = len(word)
    units = sum(3 if a else 1 for a in word)
    planned = _target_bits(prec) + (n + 1).bit_length() + 3
    terms = planned if terms is None else terms
    bits = planned + ((terms + 1) * units).bit_length()
    # ahead[i] is I_(1/2) of the last i letters and behind[i] of phi(w_1)..phi(w_i):
    # under t -> 1 - t letter a becomes 1 - a, and the sign flips unless a is 0 or 1.
    # The two sides run their common leading letters once and fork from there.
    first, second = word[::-1], [1 - a for a in word]
    shared = 0
    while shared < n and first[shared] == second[shared]:
        shared += 1
    ahead = [1 << bits]
    e = _passes(first[:shared], [1 << bits] + [0] * terms, ahead)
    behind = ahead[:]
    _passes(first[shared:], e, ahead)
    _passes(second[shared:], e, behind)
    signs = accumulate((1 if a in (0, 1) else -1 for a in word), mul, initial=1)
    total = sum(map(mul, map(mul, signs, behind), reversed(ahead)))
    alpha = (1 << max(bits - terms, 0)) + (terms + 1) * units
    return _finish(total, 2 * bits, (n + 1) * alpha * ((2 << bits) + alpha), prec)
