"""Exact rationals, error-carrying reals, and the summation engines.

Everything numerical in this package funnels through this module:

* :func:`bernoulli` produces exact Bernoulli numbers (``B1 = -1/2``
  convention) from the tangent numbers, in ``O(n**2)`` small-integer steps.
* :class:`BigReal` is an arbitrary-precision real paired with an explicit
  absolute error bound and the precision that was requested for it.
* :func:`em_sum` evaluates ``sum(k**-s)`` for rational ``s >= 1``, the
  exact rational the exponent denotes, by partial sum plus integral tail
  plus Bernoulli correction terms (at ``s = 1`` the harmonic sum less ``log
  n``).
* :func:`accel_alt_sum` evaluates an alternating series, given its leading
  terms as integer rows in fixed point and optionally a bound on each row's
  input error, by Chebyshev-weighted acceleration, needing O(digits) terms
  instead of exponentially many.  Its integer body :func:`_chebyshev` has
  three users: ``phi``, the outer pass of ``gamma_const("ZETA_SERIES")``,
  and :func:`zeta_values`, which takes ``zeta(2), ..., zeta(top)`` from
  ``phi(s)`` on one shared table of powers.
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
term count, and the last 1024 Euler-Maclaurin plans per exact argument
tuple.

Every engine sums in Python-integer fixed point at the binary precision
:func:`working_bits` of ``prec`` plus :data:`GUARD_DIGITS` decimal digits:
the Euler-Maclaurin body :func:`_em_power_sum`, the Chebyshev dot product in
:func:`_chebyshev` and the iterated integrals.  Identical inputs produce
bit-identical outputs.  Each engine is exercised against independent
references in the test suite.

Rounding
--------

The declared bound is the truncation bound plus the rounding the code
performs, counted, not an interval enclosure.  One rule counts it, in binary
units of the precision ``p`` the rounding happens at (as Arb does,
arXiv:1611.02831): :func:`_rounding_at` ``(v, p, count) = count (1 + |v|)
2**(1 - p)`` on raw mpf tuples, one count per rounding that makes ``v``;
:func:`_rounding` ``(v, count)`` is the same rule at the ambient ``p =
mp.prec``, for the sites that compute in an mpmath context.  The
premises: mpmath's ``+ - * /`` and decimal parsing round correctly, within half a count, and each elementary or special
function (``log``, ``cos``, ``cot``, ``gamma``, powers, ``pi``) is faithful,
within one count, unless its site states more.  A floor to ``2**-b`` with
``b = p`` errs by under one unit of ``2**-b``, less than the one count of
``_rounding(0, 1)``.  The counts are first order; the square of a relative
error of ``2**-p`` stays far below the slack of the counts.

The rows ``floor(2**b k**-s)`` of the Euler-Maclaurin and Chebyshev bodies
need no premise: :func:`_power_rows` computes them as exact integer floors
(one division for an integer ``s``, an integer ``q``-th root for ``s =
p/q``), and :func:`zeta_values` the same floors by repeated division, so
:func:`em_sum`, :func:`zeta_values` and ``phi`` count proved units there.
The one exception is an ``s`` whose denominator ``q`` has ``q b`` past
:data:`_ROOT_BITS_CAP` (a binary ``s`` such as a float's, or ``1 +
10**-9``): its rows come from mpmath's power, on the premise above.

The three engines, :func:`em_sum`, :func:`accel_alt_sum` and the
iterated-integral engine :func:`_at_one`, count their own units in
integers: their bounds are proved in the docstrings of :func:`_em_power_sum`
and :func:`accel_alt_sum` and below.  Each ends in the one shared finish
:func:`_finish`, which rounds the integer total to nearest at ``b =
working_bits(prec)`` bits and adds ``(|total| >> b) + 1`` units for it.
:func:`zeta_values` converts nothing: it hands over its integer sums and
unit bounds at the same ``b``, proved in its docstring, and
``gamma_const("ZETA_SERIES")`` divides them into its Chebyshev rows.  The counted sites, each with its count and premises beside
the call:

* the :class:`BigReal` constructors and ``+ - * /``, and :func:`pi_times`:
  each rounds once (a ``Fraction`` and ``pi`` times ``k`` twice) at the
  explicit ``working_bits(p)`` of its result, through mpmath.libmp with no
  context switch, and counts that with :func:`_rounding_at` at the same
  ``p``: the same premise and the same count as in an mpmath context;
* in :mod:`.eulerfun`, the ``Li_n`` series of DILOG_REFLECTION, ``polylog``
  at ``n = 1`` and in the reflection window, and the four identity residuals;
* :func:`~euler_periods.mzv.mzv_bruteforce`, whose count grows with the depth;
* :func:`~euler_periods.g2.invert_alpha`.

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
from operator import floordiv, mul
from typing import Sequence, Union

import mpmath
from mpmath import mpf
from mpmath.libmp import (dps_to_prec, fone, from_float, from_int, from_man_exp, from_str, fzero,
                          mpf_abs, mpf_add, mpf_div, mpf_eq, mpf_le, mpf_mul, mpf_mul_int, mpf_neg,
                          mpf_pi, mpf_pos, mpf_pow_int, mpf_shift, mpf_sub)
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


def check_prec(prec: int) -> int:
    if not isinstance(prec, int) or not (MIN_PREC <= prec <= MAX_PREC):
        raise DomainError(f"prec must be an integer in [{MIN_PREC}, {MAX_PREC}], got {prec!r}")
    return prec


def as_mpf(x: ScalarLike) -> mpf:
    """Convert to mpf under the ambient precision.  Strings are decimal."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def as_fraction(x: ScalarLike, what: str = "the number") -> Fraction:
    """The exact rational value of ``x``: strings are decimal, floats and mpf binary.

    The one reader of numbers from outside.  Past :data:`DIGIT_CAP` digits
    in numerator or denominator it raises :class:`InputError` before the
    integer is built: a string by :func:`check_digits`, an mpf by the bits
    its exponent and mantissa give, any other number against ``10**DIGIT_CAP``.
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
        raise DomainError(f"expected a finite rational number, got {x!r}") from None
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
    """An arbitrary-precision real with an absolute error bound.

    ``value`` approximates some target ``x`` with ``|value - x| <= err``;
    ``prec`` records the decimal precision that was requested when the
    number was produced.  Successful library operations guarantee
    ``err <= 10**-prec``.  Arithmetic propagates bounds first-order and
    adds one count of :func:`_rounding_at` for its one rounding; it never
    tightens them.

    Instances are immutable and compare and hash by ``(value, err,
    prec)``.  The constructors and ``+ - * / neg abs`` call mpmath.libmp on
    the raw mpf tuples at the explicit binary precision ``b =
    working_bits(p)`` of the result's ``prec = p``, rounding to nearest: the
    ambient mpmath context is neither read nor changed.  Every step is the
    one the mpf operators would take inside ``workdps(working_dps(p))``,
    in the same order, so each value and bound keeps its bits.  Cost: a few
    microseconds per op, nearly all of it in mpmath.libmp.
    """

    __slots__ = ("value", "err", "prec")

    value: mpf
    err: mpf
    prec: int

    def __init__(self, value: mpf, err: mpf, prec: int) -> None:
        if err < 0:
            raise DomainError("error bound must be non-negative")
        _set_value(self, value)
        _set_err(self, err)
        _set_prec(self, prec)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

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
        ``Fraction`` ``num/den`` that is decided in integers: the result
        ``man 2**exp`` is exact iff ``man 2**exp den == num``.  A decimal
        string is an input, held to :func:`check_digits`.
        """
        b = working_bits(check_prec(prec))
        if isinstance(x, Fraction):
            # A Fraction rounds its numerator, then the quotient: two roundings.
            num, den = x.numerator, x.denominator
            v = mpf_div(mpf_pos(from_int(num), b, RN), from_int(den), b, RN)
            _, man, exp, _ = v  # v has the sign of num
            exact = man * den << max(exp, 0) == abs(num) << max(-exp, 0)
            count = _TWO
        elif isinstance(x, str):
            v = from_str(check_digits(x, "the decimal"), b, RN)
            exact, count = False, fone  # decimal parsing rounds once
        else:
            if isinstance(x, int):
                raw = from_int(x)
            elif isinstance(x, float):
                raw = from_float(x)
            elif isinstance(x, mpf):
                raw = x._mpf_
            else:
                raise TypeError(f"cannot create a BigReal from {x!r}")
            v = mpf_pos(raw, b, RN)
            exact, count = mpf_eq(v, raw), fone
        return _wrap(v, fzero if exact else _rounding_at(v, b, count), prec)

    @classmethod
    def from_decimal(cls, text: str, prec: int) -> "BigReal":
        """Parse a decimal string; the bound covers conversion rounding."""
        return cls.exact(text.strip(), prec)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other: ScalarLike | "BigReal") -> "BigReal":
        if isinstance(other, BigReal):
            return other
        return BigReal.exact(other, self.prec)

    def __add__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        b = working_bits(p)
        v = mpf_add(self.value._mpf_, o.value._mpf_, b, RN)
        return _wrap(v, _sum(b, self.err._mpf_, o.err._mpf_, _rounding_at(v, b)), p)

    __radd__ = __add__

    def __neg__(self) -> "BigReal":
        # Negation rounds the payload to the value's own working precision,
        # as mpf's unary minus does there; the bound is unchanged.
        return _wrap(mpf_neg(self.value._mpf_, working_bits(self.prec), RN),
                     self.err._mpf_, self.prec)

    def __sub__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        b = working_bits(p)
        v = mpf_sub(self.value._mpf_, o.value._mpf_, b, RN)
        return _wrap(v, _sum(b, self.err._mpf_, o.err._mpf_, _rounding_at(v, b)), p)

    def __rsub__(self, other: ScalarLike) -> "BigReal":
        return self._coerce(other) - self

    def __mul__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        b = working_bits(p)
        x, ex, y, ey = self.value._mpf_, self.err._mpf_, o.value._mpf_, o.err._mpf_
        v = mpf_mul(x, y, b, RN)
        # |x| ey + |y| ex + ex ey + one count, each product and sum rounded.
        e = _sum(b, mpf_mul(mpf_abs(x, b, RN), ey, b, RN), mpf_mul(mpf_abs(y, b, RN), ex, b, RN),
                 mpf_mul(ex, ey, b, RN), _rounding_at(v, b))
        return _wrap(v, e, p)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike | "BigReal") -> "BigReal":
        o = self._coerce(other)
        y = o.value._mpf_
        if y == fzero:
            raise DomainError("division by zero")
        p = min(self.prec, o.prec)
        b = working_bits(p)
        v = mpf_div(self.value._mpf_, y, b, RN)
        denom = mpf_abs(y, b, RN)
        # ex / |y| + (|v| ey) / |y| + one count, each step rounded.
        e = _sum(b, mpf_div(self.err._mpf_, denom, b, RN),
                 mpf_div(mpf_mul(mpf_abs(v, b, RN), o.err._mpf_, b, RN), denom, b, RN),
                 _rounding_at(v, b))
        return _wrap(v, e, p)

    def __rtruediv__(self, other: ScalarLike) -> "BigReal":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "BigReal":
        if not isinstance(k, int) or k < 0:
            raise DomainError("BigReal powers must be non-negative integers")
        out = BigReal.exact(1, self.prec)
        for _ in range(k):
            out = out * self
        return out

    def __abs__(self) -> "BigReal":
        return _wrap(mpf_abs(self.value._mpf_, working_bits(self.prec), RN),
                     self.err._mpf_, self.prec)

    # -- queries ------------------------------------------------------

    def certified(self) -> bool:
        """True when the bound meets the requested precision."""
        return mpf_le(self.err._mpf_, _limit(self.prec))

    def demand(self, what: str = "result") -> "BigReal":
        if not self.certified():
            raise PrecisionNotMet(
                f"{what}: certified bound {mpmath.nstr(self.err, 3)} exceeds 1e-{self.prec}")
        return self

    def __repr__(self) -> str:  # debugging aid, not part of the text format
        return (f"BigReal({mpmath.nstr(self.value, self.prec + 2)}, "
                f"err<={mpmath.nstr(self.err, 3)}, prec={self.prec})")


_set_value, _set_err, _set_prec = (BigReal.__dict__[name].__set__ for name in BigReal.__slots__)
_new = object.__new__
_make_mpf = mpmath.mp.make_mpf
_TWO = from_int(2)


def _wrap(value: tuple, err: tuple, prec: int) -> BigReal:
    """A :class:`BigReal` from raw mpf tuples, with no conversion or check."""
    out = _new(BigReal)
    _set_value(out, _make_mpf(value))
    _set_err(out, _make_mpf(err))
    _set_prec(out, prec)
    return out


def _sum(bits: int, first: tuple, *rest: tuple) -> tuple:
    """Raw mpfs added left to right, each sum rounded to nearest at ``bits``."""
    for term in rest:
        first = mpf_add(first, term, bits, RN)
    return first


@lru_cache(maxsize=None)
def _limit(prec: int) -> tuple:
    """Raw ``10**-prec`` at ``working_bits(prec)``, the bound :meth:`BigReal.certified` meets."""
    return mpf_pow_int(from_int(10), -prec, working_bits(prec), RN)


def _rounding_at(v: tuple, bits: int, count: tuple = fone) -> tuple:
    """Raw ``count (1 + |v|) 2**(1 - bits)`` for a raw mpf ``v``: the one counted rule.

    ``|v|``, the sum and the product round to nearest at ``bits``, as the
    mpf operators do at that precision; ``count`` is a raw mpf.
    """
    t = mpf_add(mpf_abs(v, bits, RN), fone, bits, RN)
    return mpf_shift(t if count == fone else mpf_mul(count, t, bits, RN), 1 - bits)


def _rounding(v: mpf, count: int | float | Fraction | mpf) -> mpf:
    """``count (1 + |v|) 2**(1 - mp.prec)``: ``count`` roundings that make ``v``.

    One count covers one faithful rounding of ``v`` at the ambient binary
    precision, and one unit of ``2**-mp.prec`` absolute; the module
    docstring gives the premises and the counted sites.  :func:`_rounding_at`
    at ``mp.prec``, with ``v`` and ``count`` converted as mpf's operators
    convert them.
    """
    convert = mpmath.mp.convert
    return _make_mpf(_rounding_at(convert(v)._mpf_, mpmath.mp.prec, convert(count)._mpf_))


def pi_times(k: int, prec: int) -> BigReal:
    """``k * pi`` at the working precision of ``prec``, with its two roundings."""
    b = working_bits(prec)
    v = mpf_mul_int(mpf_pi(b, RN), k, b, RN)
    return _wrap(v, _rounding_at(v, b, _TWO), prec)  # pi, then the product


def _finish(total: int, frac_bits: int, units: int, prec: int) -> BigReal:
    """An engine's integer result as a :class:`BigReal` at ``prec``: its one conversion.

    ``total`` is the value in units of ``2**-frac_bits`` and ``units`` the
    error the engine proved for it, in the same units.  The value rounds to
    nearest at ``b = working_bits(prec)`` bits, which errs by at most
    ``|total| 2**-b`` units, so the bound adds ``(|total| >> b) + 1``; the
    sum is rounded up to a 32-bit mantissa.  Both go through mpmath.libmp
    at explicit precisions, with no mpmath context.
    """
    b = working_bits(prec)
    units += (abs(total) >> b) + 1
    shift = max(units.bit_length() - 32, 0)
    return _wrap(from_man_exp(total, -frac_bits, b, RN),
                 from_man_exp(-(-units >> shift), shift - frac_bits), prec)


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


def _fixed(x: mpf, bits: int) -> int:
    """``floor(|x| * 2**bits)`` for a finite mpf ``x``."""
    _, man, exp, _ = x._mpf_
    return man << (exp + bits) if exp + bits >= 0 else man >> -(exp + bits)


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
#: an exact integer root: the sweep's ``q <= 12`` at prec 100 is 4428; at the
#: cap a row costs about twice an mpf power (2-core x86-64 VM, mpmath 1.3.0).
_ROOT_BITS_CAP = 1 << 13


def _power_rows(s: Fraction, n: int, bits: int) -> list[int]:
    """``floor(2**bits * k**-s)`` for ``k = 1..n``, ``s = p/q > 0`` rational.

    Exact floors, each within one unit of ``2**-bits``: as ``floor(y) =
    floor(floor(y**q)**(1/q))``, a row is the integer ``q``-th root of ``(1
    << bits q) // k**p`` (:func:`_iroot`), one division for an integer
    ``s``.  Once ``s > bits`` every row past the first is 0 and no ``k**p``
    is formed, so a huge ``s`` costs nothing.  Past :data:`_ROOT_BITS_CAP`
    for ``q * bits`` row ``k`` is ``_fixed(mpf(k) ** -s, bits)`` at ``bits``
    bits instead, within 2 units on the premise that mpmath's power is
    faithful: its ``2**(1 - bits)`` relative is a unit once ``k >= 2``, and
    the floor one more.
    """
    p, q = s.numerator, s.denominator
    if p > bits * q:  # 2**bits k**-s <= 2**(bits - s) < 1 for k >= 2
        return [1 << bits] + [0] * (n - 1)
    if q * bits > _ROOT_BITS_CAP:
        with mpmath.workprec(bits):
            sv = as_mpf(s)
            return [_fixed(mpf(k) ** -sv, bits) for k in range(1, n + 1)]
    one = 1 << bits * q
    return [_iroot(one // k ** p, q) for k in range(1, n + 1)]


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


def zeta_values(top: int, prec: int) -> tuple[int, list[tuple[int, int]]]:
    """``(b, [(total, err), ...])``: ``zeta(s)`` for ``s = 2..top`` in units of ``2**-b``.

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

    Rows never grow with ``s``, so the batch keeps two zero rows and drops
    the rest.  A bound that misses raises :class:`PrecisionNotMet`.

    Cost: ``top - 1`` passes, each ``n`` small floor divisions and one
    integer dot product against the cached weights, fewer once rows are 0;
    no Bernoulli number is formed.  ``(144, 100)`` takes about 4-5 ms on a
    shared 2-core x86-64 VM.  Nothing is cached but the weights.
    """
    if not isinstance(top, int) or top < 2:
        raise DomainError(f"zeta_values needs an integer top >= 2, got {top!r}")
    n, bits = alt_terms_needed(prec), working_bits(prec)
    one, scale = 1 << bits, 10 ** prec
    rows = [one // m for m in range(1, n + 1)]
    out = []
    for s in range(2, top + 1):
        rows = list(map(floordiv, rows, range(1, n + 1)))
        if not rows[-1]:
            rows = rows[:rows.index(0) + 2]
        estimate, units = _chebyshev(rows, n)
        den = (1 << s - 1) - 1
        err = units - (-units // den) + 1
        if err * scale > one:
            raise PrecisionNotMet(
                f"zeta_values: zeta({s}) bound of {err} units of 2**-{bits} exceeds 1e-{prec}")
        out.append((estimate + estimate // den, err))
    return bits, out


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
    computed here by :func:`_power_rows`, so no caller can pair a bound with
    a series it does not describe.  The rows are exact floors, one unit off
    at most, for every ``s = p/q`` with ``q * bits`` within
    :data:`_ROOT_BITS_CAP` (every integer ``s``, and every ``s > bits``);
    past the cap a row comes from ``mpf(k) ** -s``, within 2 units on the
    premise that mpmath's power is faithful.  With ``f(k) = k**-s`` this
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
    total, correction, units = _em_power_sum(s, _power_rows(s, n_split, bits), terms, bits)
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


def _em_power_sum(s: int | Fraction, rows: Sequence[int], terms: int,
                  bits: int) -> tuple[int, int, int]:
    """``(total, correction, units)``, the integer body of :func:`em_sum`.

    Sums ``k**-s``, ``s = p/q >= 1``, split at ``n = len(rows)`` with ``J =
    terms`` Bernoulli corrections, in integer fixed point with ``bits``
    fraction bits: ``rows[k-1]`` is ``2**bits k**-s`` within 2 units (1 for
    the exact floors of :func:`_power_rows`, 2 past the root cap on
    mpmath's premise).  ``total`` is ``2**bits`` times the value,
    ``correction`` the first omitted Bernoulli term in the same units, and
    ``units`` counts the error of ``total``; :func:`em_sum` declares
    ``|correction| + units`` units of ``2**-bits``.  The count is a proof,
    in units of ``2**-bits``:

    1. ``f(x) = x**-s`` is completely monotone, so the Euler-Maclaurin
       remainder after ``J`` corrections lies between 0 and the first
       omitted term ``B_2m/(2m)! poch(s, 2m-1) n**(1-s-2m)``, ``m = J + 1``.
    2. The rows are off by at most 2 each: ``2 n`` units.
    3. ``rows[-1] // 2`` is off by at most 1 for half a row's error and 1
       for its floor: 2 units.  Two more go to the integral tail: at ``s =
       1`` the ``-log n``, computed at 16 more bits, is faithful, under
       ``|log n| 2**-15 < 1`` unit, and its floor costs one; otherwise they
       cover the floor of ``tail // (p - q)`` and the floor taken of its
       share in step 5.
    4. ``tail = rows[-1] n q`` is ``2**bits q n**(1-s)`` within ``2 n q``
       units, ``tail_err``, since the last row is off by 2 at most.  Once
       ``s >= bits + 2``, with ``shift = p // q - bits - 1``, the true last
       row is ``2**bits n**-s <= 2**(1 - shift)`` and it floors to 0, so
       the tail is within ``tail_err 2**-shift`` (0 at ``n = 1``, whose row
       is exact).
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
    The rows' own 1 of the 2 in step 2 is slack for exact floors.

    Cost: one pass over the rows and ``J + 1`` Bernoulli terms of a few
    exact integer products and one floor division each; a term's unit
    division is skipped when bit lengths prove its quotient is 0.
    """
    n = len(rows)
    p, q = s.as_integer_ratio()
    tail = rows[-1] * n * q  # q n**(1-s)
    tail_err = 2 * n * q  # the tail's error, times 2**shift
    shift = max(p // q - bits - 1, 0)
    units = 2 * n + 4
    if p == q:
        with mpmath.workprec(bits + 16):
            integral = int(mpmath.floor(-mpmath.ldexp(mpmath.log(n), bits)))
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
