"""Kernel tests: exact rationals, BigReal propagation, the two summers."""

import __future__
import copy
import dataclasses
import inspect
import math
import os
import pickle
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import mul
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf
from mpmath.libmp import from_int, from_rational, fzero, round_nearest

from euler_periods import eulerfun, numkernel
from euler_periods.errors import DomainError, InputError, PrecisionNotMet, TooLarge
from euler_periods.eulerfun import zeta, zeta_even_closed
from euler_periods.numkernel import (
    BERNOULLI_CAP,
    DIGIT_CAP,
    MAX_PREC,
    MIN_PREC,
    BigReal,
    accel_alt_sum,
    alt_bits,
    alt_terms_needed,
    as_fraction,
    bernoulli,
    bound_text,
    check_digits,
    check_prec,
    em_sum,
    pi_times,
    value_text,
    working_bits,
    working_dps,
    zeta_values,
    _at_one,
    _finish,
    _word,
)
from test_integer_ops import oracle_text
from test_symbolic import read_digits


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

BERNOULLI_TABLE = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


@pytest.mark.parametrize("n,expected", sorted(BERNOULLI_TABLE.items()))
def test_bernoulli_table(n, expected):
    assert bernoulli(n) == expected


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 21])
def test_bernoulli_odd_zero(n):
    assert bernoulli(n) == 0


def test_bernoulli_sign_convention():
    # The recurrence convention, not the B_1 = +1/2 one.
    assert bernoulli(1) == Fraction(-1, 2)


def bernoulli_by_recurrence(n: int) -> list[Fraction]:
    """``B_0 .. B_n`` by ``sum(C(m+1, k) B_k, k <= m) == 0``: the construction before the tangent numbers."""
    cache = [Fraction(1)]
    while len(cache) <= n:
        m = len(cache)
        acc = Fraction(0)
        for k, bk in enumerate(cache):
            if bk:
                acc += math.comb(m + 1, k) * bk
        cache.append(-acc / (m + 1))
    return cache


def test_bernoulli_recurrence_closes():
    # sum(C(n+1, k) B_k, k=0..n) == 0 for n >= 1 is the defining relation.
    for n in range(1, 20):
        acc = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert acc == 0


def test_bernoulli_equals_the_recurrence():
    assert [bernoulli(n) for n in range(301)] == bernoulli_by_recurrence(300)


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def test_bernoulli_satisfies_von_staudt_clausen_up_to_the_cap():
    # B_n + sum(1/p for primes p with (p - 1) | n) is an integer for even n >= 2,
    # an oracle independent of both constructions.
    for n in range(2, BERNOULLI_CAP + 1, 2):
        primes = [d + 1 for d in range(1, n + 1) if n % d == 0 and is_prime(d + 1)]
        assert (bernoulli(n) + sum(Fraction(1, p) for p in primes)).denominator == 1, n


def test_bernoulli_fills_index_by_index_in_quadratic_steps(monkeypatch):
    monkeypatch.setattr(numkernel, "_BERNOULLI_CACHE", [Fraction(1)])
    monkeypatch.setattr(numkernel, "_TANGENT_COLUMN", [])
    extended = []  # the length of each column extended
    step = numkernel._tangent_step
    monkeypatch.setattr(numkernel, "_tangent_step",
                        lambda column: extended.append(len(column)) or step(column))
    bernoulli(4)
    assert len(numkernel._BERNOULLI_CACHE) == 5 and extended == [0, 1]  # B_4, no further
    for j in range(3, 101):  # one B_2j at a time, as the Euler-Maclaurin terms ask
        bernoulli(2 * j)
    for n in range(200, -1, -1):  # every index again, backwards: all cached
        bernoulli(n)
    # T_k extends the column of T_(k-1) once, in k small-integer multiply-adds:
    # 100 * 101 / 2 of them for B_0 .. B_200.
    assert extended == list(range(100))
    assert numkernel._BERNOULLI_CACHE == bernoulli_by_recurrence(200)


@pytest.mark.parametrize("bad", [-1, 2.0, "3", None])
def test_bernoulli_rejects_bad_index(bad):
    with pytest.raises(DomainError):
        bernoulli(bad)


def test_bernoulli_past_the_cap_is_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(numkernel, "_BERNOULLI_CACHE", [Fraction(1)])
    monkeypatch.setattr(numkernel, "_TANGENT_COLUMN", [])
    with pytest.raises(TooLarge, match=f"cap {BERNOULLI_CAP}"):
        bernoulli(BERNOULLI_CAP + 1)
    assert numkernel._BERNOULLI_CACHE == [Fraction(1)] and numkernel._TANGENT_COLUMN == []


@pytest.mark.parametrize("q", [0, -7, 10 ** 999, -(10 ** 4500) - 1, Fraction(-691, 2730),
                               Fraction(10 ** 5000 + 1, 3 * 10 ** 4400 + 7)],
                         ids=["0", "-7", "1e999", "-1e4500-1", "B12", "huge-fraction"])
def test_exact_str_writes_any_size(q):
    sign, num, _, den = re.fullmatch(r"(-?)(\d+)(/(\d+))?", numkernel.exact_str(q)).groups()
    assert num == "0" or num[0] != "0"
    assert Fraction(int(sign + "1") * read_digits(num), read_digits(den or "1")) == q


@pytest.mark.parametrize("text,size", [("1" * 1001, 1001), ("1/" + "0" * 999, 1000),
                                       ("1e1000", 1001), ("-0.5E-999", 1001), ("1e" + "9" * 2000, 2001)])
def test_check_digits_counts_digits_and_exponent(text, size):
    if size > DIGIT_CAP:
        with pytest.raises(InputError, match=f"has {size} digits"):
            check_digits(text, "x")
    else:
        assert check_digits(text, "x") == text


# 10**DIGIT_CAP has 3322 bits: 63 * 2**3316 has as many and passes it, 3 * 2**3320 does not.
WITHIN_CAP = [10 ** DIGIT_CAP - 1, Fraction(-1, 10 ** DIGIT_CAP - 1), "9" * DIGIT_CAP, "1e-999",
              mpf(2) ** 3321, mpf(2) ** -3321, mpf(3) * 2 ** 3320]
PAST_CAP = [10 ** DIGIT_CAP, Fraction(1, 10 ** DIGIT_CAP), "1e1000", "1/" + "3" * 1001,
            mpf(2) ** 3322, mpf(2) ** -3322, mpf(63) * 2 ** 3316, mpf("1e-1000000000000")]


@pytest.mark.parametrize("x", WITHIN_CAP, ids=["10**1000-1", "-1/(10**1000-1)", "9*1000", "1e-999",
                                             "mpf 2**3321", "mpf 2**-3321", "mpf 3*2**3320"])
def test_as_fraction_reads_a_number_within_the_digit_cap_exactly(x):
    q = as_fraction(x)
    expected = Fraction(*mpmath.libmp.to_rational(x._mpf_)) if isinstance(x, mpf) else Fraction(x)
    assert q == expected


@pytest.mark.parametrize("x", PAST_CAP, ids=["10**1000", "1/10**1000", "1e1000", "1/3*1001", "mpf 2**3322",
                                           "mpf 2**-3322", "mpf 63*2**3316", "mpf 1e-10**12"])
def test_as_fraction_refuses_a_number_past_the_digit_cap_before_building_it(x):
    with pytest.raises(InputError, match=f"^x .*past the cap {DIGIT_CAP}"):
        as_fraction(x, "x")


def test_a_decimal_bigreal_is_held_to_the_digit_cap():
    x = BigReal.from_decimal("9" * DIGIT_CAP, 15)
    with mpmath.workdps(1010):
        assert abs(x.value - (mpf(10) ** DIGIT_CAP - 1)) <= x.err
    for text in ("1" * (DIGIT_CAP + 1), "1e-100000000", " 1e5000 "):
        with pytest.raises(InputError, match=f"digits, past the cap {DIGIT_CAP}"):
            BigReal.from_decimal(text, 15)


# ---------------------------------------------------------------------------
# prec plumbing
# ---------------------------------------------------------------------------


def test_check_prec_accepts_range_ends():
    assert check_prec(1) == 1
    assert check_prec(100) == 100


@pytest.mark.parametrize("bad", [0, 101, -5, 2.5, "15", None, True])
def test_check_prec_rejects(bad):
    with pytest.raises(DomainError):
        check_prec(bad)


@pytest.mark.parametrize("bad", [-1, 0, True, 1.5, 101])
def test_a_ball_is_made_at_a_checked_prec_only(bad):
    # BigReal(v, 0, -1) used to run at the top table entry and call itself
    # certified at prec -1; a plain 101 or 500 ran on, or ended in IndexError.
    with pytest.raises(DomainError):
        BigReal(mpf(1), 0, bad)
    with pytest.raises(DomainError):
        BigReal.exact(1, bad)


@pytest.mark.parametrize("bad", [-1, 0, True, 1.5, 101, 500])
def test_pi_times_and_log_of_take_a_checked_prec_only(bad):
    # pi_times(1, -1) used to return a ball at prec -1 that called itself
    # certified, and log_of(3, 500) ended in IndexError.
    with pytest.raises(DomainError):
        pi_times(1, bad)
    with pytest.raises(DomainError):
        numkernel.log_of(3, bad)
    with pytest.raises(DomainError):
        numkernel.log_of(1, bad)  # log 1 is an exact 0, at a checked prec too


def test_pi_times_and_log_of_run_at_the_inner_top():
    top = numkernel.inner_prec(MAX_PREC, numkernel.INNER_DIGITS)
    for x in (pi_times(3, top), numkernel.log_of(3, top), numkernel.log_of(1, top)):
        assert x.prec == top and x.certified()
    with mpmath.workdps(200):
        assert abs(pi_times(3, top).value - 3 * mpmath.pi) <= pi_times(3, top).err
        assert abs(numkernel.log_of(3, top).value - mpmath.log(3)) <= numkernel.log_of(3, top).err
    with pytest.raises(DomainError):
        pi_times(1, numkernel.inner_prec(top, 1))


def test_negation_and_abs_keep_a_midpoint_wider_than_the_prec():
    # A ball relabelled from an inner prec keeps its inner midpoint; rounding
    # it to the outer prec's bits would move it by more than the radius.
    with mpmath.workdps(60):
        wide = BigReal(mpf(10) ** 12 + mpf(1) / 3, 0, 15)
    assert wide.value._mpf_[3] > numkernel.working_bits(15)
    assert (-wide).value == mpmath.fneg(wide.value, exact=True) and abs(-wide).value == wide.value
    assert (-wide).err == abs(-wide).err == 0 and (-wide).prec == 15


def test_an_inner_prec_passes_check_prec_up_to_its_top():
    top = numkernel.inner_prec(MAX_PREC, numkernel.INNER_DIGITS)
    assert check_prec(top) == top == MAX_PREC + numkernel.INNER_DIGITS
    assert check_prec(numkernel.inner_prec(1, 5)) == 6
    with pytest.raises(DomainError):
        check_prec(numkernel.inner_prec(top, 1))
    with pytest.raises(DomainError):
        check_prec(MAX_PREC + 1)
    x = BigReal(mpf(1) / 3, 0, top) * 3
    assert x.prec == top and x.certified()
    assert BigReal.exact(Fraction(1, 3), numkernel.inner_prec(MAX_PREC, 5)).prec == 105
    assert numkernel.working_bits(top) == numkernel._BITS[-1]


def test_working_dps_adds_guard_digits():
    assert working_dps(15) == 25
    assert working_dps(1) == 11


# ---------------------------------------------------------------------------
# BigReal
# ---------------------------------------------------------------------------


def test_exact_integer_has_zero_error():
    x = BigReal.exact(7, 15)
    assert x.err == 0
    assert x.value == 7
    assert x.prec == 15


@pytest.mark.parametrize("x", [10 ** 40 + 1, -(3 ** 100), Fraction(10 ** 40 + 1, 3), 0.1])
def test_exact_bound_covers_what_rounds(x):
    # An integer or float wider than the working precision rounds too.
    b = BigReal.exact(x, 1)
    exact = as_fraction(b.value)
    assert abs(exact - Fraction(x)) <= as_fraction(b.err)
    assert (b.err == 0) == (exact == Fraction(x))


def test_exact_fraction_bound_covers_rounding():
    x = BigReal.exact(Fraction(1, 3), 20)
    with mpmath.workdps(working_dps(20)):
        assert abs(x.value - mpf(1) / 3) <= x.err
    assert x.certified()


@pytest.mark.parametrize("prec", [1, 5, 15, 20, 30])
def test_exact_reciprocal_bound_covers_it(prec):
    # 1/d rounds for every odd d; the bound covers it, in exact rationals.
    for d in range(3, 40, 2):
        x = BigReal.exact(Fraction(1, d), prec)
        assert abs(as_fraction(x.value) - Fraction(1, d)) <= as_fraction(x.err), d
        assert x.err > 0, d


def test_from_decimal_parses_and_bounds():
    x = BigReal.from_decimal("2.718281828459045", 15)
    with mpmath.workdps(25):
        assert abs(x.value - mpf("2.718281828459045")) <= x.err
    assert x.certified()


@pytest.mark.parametrize("prec", [MIN_PREC, 15, MAX_PREC])
def test_from_decimal_reads_the_exact_rational(prec):
    # A decimal that converts exactly has radius 0; one that does not keeps one count.
    for text in ("0.5", "-0.375", "1e3", "1/4", "0"):
        x = BigReal.from_decimal(text, prec)
        assert x.err == 0 and as_fraction(x.value) == Fraction(text), text
    for text in ("0.1", "1e-12"):  # a rounding counts relative to its value: a small one holds no 0
        x = BigReal.from_decimal(text, prec)
        assert 0 < as_fraction(x.err) and abs(as_fraction(x.value) - Fraction(text)) <= as_fraction(x.err)
        assert not x.holds_zero()
    for text in ("inf", "-inf", "nan", "abc", ""):
        with pytest.raises(DomainError):
            BigReal.from_decimal(text, prec)


def test_negative_error_bound_rejected():
    with pytest.raises(DomainError):
        BigReal(mpf(1), mpf(-1e-20), 15)


def test_addition_propagates_bounds():
    a = BigReal(mpf(1), mpf("1e-18"), 15)
    b = BigReal(mpf(2), mpf("2e-18"), 15)
    c = a + b
    assert c.value == 3
    assert c.err >= a.err + b.err
    assert c.prec == 15


def test_mixed_operand_coercion():
    a = BigReal.exact(Fraction(1, 4), 20)
    assert (a + 1).value == mpf("1.25")
    assert (a * 4).value == 1
    assert (1 - a).value == mpf("0.75")
    assert (1 / (a * 4)).value == 1


def test_min_prec_wins_in_arithmetic():
    a = BigReal.exact(1, 30)
    b = BigReal.exact(1, 10)
    assert (a + b).prec == 10
    assert (a * b).prec == 10


def test_negation_and_abs_preserve_value_and_bound():
    """Unary ops must not round the payload at ambient precision."""
    x = BigReal.exact(Fraction(1, 7), 60)
    with mpmath.workdps(working_dps(60)):
        n = -x
        a = abs(-x)
        assert n.value == -x.value
        assert a.value == x.value
        assert n.err == x.err
        assert a.err == x.err


def test_high_precision_value_survives_low_ambient_context():
    x = BigReal.exact(Fraction(1, 7), 60)
    with mpmath.workdps(5):
        y = -(-x)
    with mpmath.workdps(working_dps(60)):
        assert y.value == x.value


def test_multiplication_error_bound_first_order():
    a = BigReal(mpf(3), mpf("1e-10"), 15)
    b = BigReal(mpf(5), mpf("1e-10"), 15)
    c = a * b
    assert c.value == 15
    assert c.err >= 3 * b.err + 5 * a.err


def test_division_by_zero_raises():
    a = BigReal.exact(1, 15)
    z = BigReal.exact(0, 15)
    with pytest.raises(DomainError):
        a / z


def test_division_by_a_ball_that_holds_zero_is_written_as_value_and_bound():
    # The message shows the divisor by the value and bound writers, not a repr.
    y = BigReal(mpf("3e-20"), mpf("4e-20"), 15)
    with pytest.raises(PrecisionNotMet) as exc:
        BigReal.exact(1, 15) / y
    assert str(exc.value) == "division by a ball that holds 0: 3.0e-20 ± 4.01e-20"
    assert "BigReal(" not in str(exc.value)


def test_power_matches_repeated_product():
    x = BigReal.exact(Fraction(2, 3), 25)
    assert (x ** 3).value == (x * x * x).value
    assert (x ** 0).value == 1


def test_power_rejects_negative_exponent():
    with pytest.raises(DomainError):
        BigReal.exact(2, 15) ** -1


def test_demand_raises_on_loose_bound():
    x = BigReal(mpf(1), mpf("1e-3"), 15)
    assert not x.certified()
    with pytest.raises(PrecisionNotMet) as exc:
        x.demand("unit test")
    assert "unit test" in str(exc.value)
    assert "1e-15" in str(exc.value)


def test_demand_passes_through_certified_value():
    x = BigReal(mpf(1), mpf("1e-16"), 15)
    assert x.demand() is x


def test_repr_is_deterministic():
    a = BigReal.exact(Fraction(22, 7), 30)
    b = BigReal.exact(Fraction(22, 7), 30)
    assert repr(a) == repr(b)


def test_random_walk_error_bound_is_honest():
    """Do a seeded chain of ops; the declared bound must cover the defect
    relative to an exact Fraction shadow computation."""
    rng = random.Random(42)
    prec = 30
    shadow = Fraction(1)
    x = BigReal.exact(1, prec)
    for _ in range(40):
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        op = rng.choice("+-*")
        if op == "+":
            shadow += q
            x = x + BigReal.exact(q, prec)
        elif op == "-":
            shadow -= q
            x = x - BigReal.exact(q, prec)
        else:
            shadow *= q
            x = x * BigReal.exact(q, prec)
    with mpmath.workdps(working_dps(prec) + 20):
        true = mpf(shadow.numerator) / shadow.denominator
        assert abs(x.value - true) <= x.err


def test_bigreal_is_immutable_and_compares_by_fields():
    a = BigReal.exact(Fraction(1, 3), 20)
    b = BigReal.exact(Fraction(1, 3), 20)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != BigReal.exact(Fraction(1, 3), 21)
    assert a != BigReal(a.value, a.err + 1, 20)
    assert a != (a.value, a.err, a.prec)
    for name in ("value", "err", "prec", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


# ---------------------------------------------------------------------------
# BigReal against the mpf-radius reference: the same values, enclosing bounds
# ---------------------------------------------------------------------------


def ref_rounding(v, count):
    """``count |v| 2**(1 - mp.prec)``: ``count`` roundings of an mpf ``v``, first order."""
    return mpmath.ldexp(count * abs(v), 1 - mpmath.mp.prec)


def _mp(x) -> mpf:
    """``x`` as an mpf at the ambient precision; a Fraction rounds once, by libmp's ``from_rational``."""
    if isinstance(x, Fraction):
        return mpmath.mp.make_mpf(from_rational(x.numerator, x.denominator, mpmath.mp.prec, round_nearest))
    return mpf(x)


@dataclasses.dataclass(frozen=True)
class RefReal:
    """BigReal on mpf operators, one ``workdps(working_dps(p))`` block per rounding op.

    A sum is taken exactly, then rounded once: mpf ``+`` takes an operand
    far below a wider one as a sticky bit and can misround.  Negation and
    ``abs`` round nothing, as BigReal's do not.
    """

    value: mpf
    err: mpf
    prec: int

    def __post_init__(self):
        if self.err < 0:
            raise DomainError("error bound must be non-negative")

    @classmethod
    def exact(cls, x, prec):
        check_prec(prec)
        with mpmath.workdps(working_dps(prec)):
            v = _mp(x)
            # A Fraction or a decimal is exact when its rounded value is, as rationals.
            exact = as_fraction(v) == as_fraction(x) if isinstance(x, (str, Fraction)) else v == x
            if exact:
                return cls(v, mpf(0), prec)
            return cls(v, ref_rounding(v, 1), prec)

    @classmethod
    def from_decimal(cls, text, prec):
        return cls.exact(text.strip(), prec)

    def _coerce(self, other):
        return other if isinstance(other, RefReal) else RefReal.exact(other, self.prec)

    def __add__(self, other):
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        with mpmath.workdps(working_dps(p)):
            v = +mpmath.fadd(self.value, o.value, exact=True)
            return RefReal(v, self.err + o.err + ref_rounding(v, 1), p)

    __radd__ = __add__

    def __neg__(self):
        return RefReal(mpmath.fneg(self.value, exact=True), self.err, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        with mpmath.workdps(working_dps(p)):
            v = +mpmath.fsub(self.value, o.value, exact=True)
            return RefReal(v, self.err + o.err + ref_rounding(v, 1), p)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        with mpmath.workdps(working_dps(p)):
            v = self.value * o.value
            e = (abs(self.value) * o.err + abs(o.value) * self.err
                 + self.err * o.err + ref_rounding(v, 1))
            return RefReal(v, e, p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.value == 0:
            raise DomainError("division by zero")
        p = min(self.prec, o.prec)
        with mpmath.workdps(working_dps(p)):
            v = self.value / o.value
            denom = abs(o.value)
            e = self.err / denom + abs(v) * o.err / denom + ref_rounding(v, 1)
            return RefReal(v, e, p)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        out = RefReal.exact(1, self.prec)
        for _ in range(k):
            out = out * self
        return out

    def __abs__(self):
        return -self if self.value < 0 else self

    def certified(self):
        with mpmath.workdps(working_dps(self.prec)):
            return bool(self.err <= mpf(10) ** (-self.prec))


def rational(x) -> Fraction:
    """The exact value of an mpf, however wide."""
    return Fraction(*mpmath.libmp.to_rational(x._mpf_))


def dyadic(man: int, exp: int) -> mpf:
    """``man 2**exp`` as an mpf, exactly."""
    return mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(man, exp))


#: Most a declared bound may exceed the mpf-radius reference's, but for the
#: enclosure term of a division.
GROWTH = 1 + Fraction(1, 2 ** 20)

OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def counts(v, prec, n=1) -> Fraction:
    """``n`` counts of rounding ``v``, exactly: ``n |v| 2**(1 - b)``."""
    return n * abs(rational(v)) / 2 ** (working_bits(prec) - 1)


def first_order(sym, left, right, v, prec) -> Fraction:
    """The reference's bound for ``left sym right = v``, summed exactly on the new operands."""
    x, ex, y, ey = rational(left.value), rational(left.err), rational(right.value), rational(right.err)
    if sym in "+-":
        spread = ex + ey
    elif sym == "*":
        spread = abs(x) * ey + abs(y) * ex + ex * ey
    else:
        spread = (ex + abs(rational(v)) * ey) / abs(y)
    return spread + counts(v, prec)


def agree(sym, left, right, ref_left, ref_right):
    """``left sym right`` keeps the reference's value bits, and its bound lies
    between the reference's bound summed exactly and ``GROWTH`` times the
    reference's bound (for a division, times ``|y| / (|y| - e_y)``)."""
    op = OPS[sym]
    try:
        want = op(ref_left, ref_right)
    except (DomainError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            op(left, right)
        return
    ball = left if isinstance(left, BigReal) else right
    x, y = (BigReal.exact(z, ball.prec) if not isinstance(z, BigReal) else z for z in (left, right))
    try:
        got = op(left, right)
    except PrecisionNotMet:
        assert sym == "/" and rational(y.err) * (1 + Fraction(1, 2 ** 60)) >= abs(rational(y.value))
        return
    assert (got.value._mpf_, got.prec) == (want.value._mpf_, want.prec)
    err = rational(got.err)
    assert err >= first_order(sym, x, y, got.value, got.prec)
    limit = rational(want.err) * GROWTH
    if sym == "/":
        size = abs(rational(y.value))
        limit = limit * size / (size - rational(y.err))
    assert err <= limit


def agree_exact(make, ref, x, prec):
    """A constructor keeps the reference's value bits; a zero bound stays zero, and
    any other lies between its one count, exactly, and ``GROWTH`` times the reference's."""
    try:
        want = ref(x, prec)
    except (DomainError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            make(x, prec)
        return
    got = make(x, prec)
    assert (got.value._mpf_, got.prec) == (want.value._mpf_, want.prec)
    if want.err == 0:
        assert got.err == 0
    else:
        err = rational(got.err)
        assert counts(got.value, prec) <= err <= rational(want.err) * GROWTH


def seeded_scalars(rng, n):
    """Operands of every kind: wide ints, Fractions, decimals, floats, zero, wide mpfs."""
    out = [0, 1, -1, 7, 0.0, 0.1, -2.5, Fraction(1, 3), Fraction(-22, 7), "0.1", "-1e-30"]
    for _ in range(n):
        kind = rng.randrange(6)
        sign = rng.choice((1, -1))
        if kind == 0:
            out.append(sign * rng.getrandbits(rng.randint(1, 500)))
        elif kind == 1:
            out.append(Fraction(sign * rng.getrandbits(rng.randint(1, 400)),
                                rng.getrandbits(rng.randint(1, 400)) + 1))
        elif kind == 2:
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 60)))
            out.append(f"{'-' if sign < 0 else ''}{digits[:1]}.{digits[1:]}e{rng.randint(-50, 50)}")
        elif kind == 3:
            out.append(sign * rng.random() * 10.0 ** rng.randint(-30, 30))
        elif kind == 4:
            with mpmath.workprec(rng.randint(60, 800)):  # above the working precision
                out.append(mpf(sign * rng.getrandbits(300)) / rng.getrandbits(200) + 1)
        else:
            out.append(sign * rng.randint(0, 1000))
    return out


def wide_pair(rng, x, prec):
    """A BigReal and its reference with a value and a bound wider than ``prec`` carries."""
    with mpmath.workprec(rng.randint(50, 800)):
        value = _mp(x) if not isinstance(x, str) else mpf(x)
        err = mpf(rng.getrandbits(200)) / 2 ** rng.randint(190, 560) if rng.random() < 0.8 else mpf(0)
    return BigReal(value, err, prec), RefReal(value, err, prec)


def test_bigreal_constructors_keep_the_reference_values_and_cover_its_bounds():
    rng = random.Random(2017)
    scalars = seeded_scalars(rng, 300)
    for prec in range(MIN_PREC, MAX_PREC + 1):
        for x in scalars:
            agree_exact(BigReal.exact, RefReal.exact, x, prec)
            if isinstance(x, str):
                agree_exact(BigReal.from_decimal, RefReal.from_decimal, f"  {x}\n", prec)


def test_bigreal_ops_keep_the_reference_values_and_cover_its_bounds():
    rng = random.Random(1707)
    scalars = seeded_scalars(rng, 200)
    for _ in range(3000):
        p, q = rng.randint(MIN_PREC, MAX_PREC), rng.randint(MIN_PREC, MAX_PREC)
        x, y = rng.choice(scalars), rng.choice(scalars)
        if rng.random() < 0.5:
            a, ra = BigReal.exact(x, p), RefReal.exact(x, p)
            b, rb = BigReal.exact(y, q), RefReal.exact(y, q)
        else:
            (a, ra), (b, rb) = wide_pair(rng, x, p), wide_pair(rng, y, q)
        z = rng.choice(scalars)
        for sym in OPS:
            agree(sym, a, b, ra, rb)
            agree(sym, a, z, ra, z)
            agree(sym, z, a, z, ra)
        for new, ref, source in ((-a, -ra, a), (abs(b), abs(rb), b)):
            assert new.value._mpf_ == ref.value._mpf_ and new.err == source.err
        cube, ref = a ** 3, ra ** 3
        assert cube.value._mpf_ == ref.value._mpf_
        assert rational(cube.err) <= rational(ref.err) * GROWTH


def random_ball(rng, prec):
    """A BigReal of random dyadic midpoint and radius, and the ends and midpoint of its ball.

    The midpoint has up to twice the working bits; the radius is 0, or
    relative to it, or absolute, so that some balls hold 0.
    """
    bits = working_bits(prec)
    width = rng.randint(1, 2 * bits)
    exp = rng.randint(-60, 60) - width
    value = dyadic(rng.choice((1, -1)) * rng.getrandbits(width), exp)
    kind = rng.random()
    if kind < 0.2:
        err = mpf(0)
    elif kind < 0.85:
        err = dyadic(rng.getrandbits(rng.randint(1, 40)), exp + width - rng.randint(40, 3 * bits + 40))
    else:
        err = dyadic(rng.getrandbits(rng.randint(1, 40)), rng.randint(-3 * bits, 60))
    c, r = rational(value), rational(err)
    return BigReal(value, err, prec), (c - r, c, c + r)


def assert_ops_enclose(left, right):
    """Each of ``+ - * /`` on two balls holds its exact result at every pair of their points."""
    (a, xs), (b, ys) = left, right
    for sym, op in OPS.items():
        try:
            r = op(a, b)
        except DomainError:
            assert sym == "/" and ys[1] == 0
            continue
        except PrecisionNotMet:
            assert sym == "/" and min(map(abs, (ys[0], ys[2]))) <= abs(ys[1]) / 2 ** 60 or ys[0] * ys[2] <= 0
            continue
        mid, rad = rational(r.value), rational(r.err)
        for x in xs:
            for y in ys:
                assert abs(op(x, y) - mid) <= rad, (sym, x, y)


@pytest.mark.parametrize("prec", [1, 15, 50, 100])
def test_bigreal_arithmetic_encloses(prec):
    # Every op, exact and pi_times: the exact result at the ends and the
    # midpoints of the operands' balls lies in the result's ball.
    rng = random.Random(prec)
    with mpmath.workprec(2000):
        pi = rational(+mpmath.pi)
    for _ in range(300):
        assert_ops_enclose(random_ball(rng, prec), random_ball(rng, prec))
        q = Fraction(rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 400)),
                     rng.getrandbits(rng.randint(1, 400)) + 1)
        decimal = f"{rng.getrandbits(rng.randint(1, 200))}e{rng.randint(-60, 60)}"
        for x in (q, float(q), decimal, int(q)):
            r = BigReal.exact(x, prec)
            assert abs(Fraction(x) - rational(r.value)) <= rational(r.err)
        k = rng.randint(-10 ** 6, 10 ** 6)
        r = pi_times(k, prec)
        for end in (k * pi - Fraction(1, 2 ** 1990), k * pi + Fraction(1, 2 ** 1990)):
            assert abs(end - rational(r.value)) <= rational(r.err)


@pytest.mark.parametrize("prec", [1, 15, 100])
def test_bigreal_arithmetic_encloses_terms_far_apart(prec):
    # Values and radii thousands of bits apart: the terms below the window
    # of the radius sum count a unit each.
    balls = []
    for vexp, eexp in ((6000, -6000), (-6000, 6000), (-9000, -3000), (0, -9000), (3, 0)):
        for man in (1, 3, 2 ** 200 + 1):
            value, err = dyadic(man, vexp), dyadic(5, eexp)
            c, r = rational(value), rational(err)
            balls.append((BigReal(value, err, prec), (c - r, c, c + r)))
    for left in balls:
        for right in balls:
            assert_ops_enclose(left, right)


def test_certified_is_exact_at_the_limit():
    # The 32-bit radii next to 10**-prec, one radius unit apart, on both sides.
    for prec in range(MIN_PREC, MAX_PREC + 1):
        limit = Fraction(1, 10 ** prec)
        exp = math.floor(math.log2(limit)) - 31
        man = math.floor(limit / Fraction(2) ** exp)
        assert 2 ** 31 <= man < 2 ** 32
        for m, ok in ((man - 1, True), (man, True), (man + 1, False)):
            x = BigReal(mpf(1), dyadic(m, exp), prec)
            assert rational(x.err) == m * Fraction(2) ** exp
            assert (rational(x.err) <= limit) is ok
            assert x.certified() is ok
    # Radii of 1 and more, held with exponents from 0 up.
    for err in (mpf(1), mpf(2), mpf(2) ** 40, mpf(10) ** 1971):
        for prec in (MIN_PREC, 15, MAX_PREC):
            x = BigReal(mpf(1), err, prec)
            assert x.certified() is False
            with pytest.raises(PrecisionNotMet, match="exceeds"):
                x.demand()


def test_demand_writes_its_bound_rounded_up():
    x = BigReal(mpf(1), mpf("1.0004e-15"), 15)
    with pytest.raises(PrecisionNotMet, match=r"^unit test: certified bound 1\.01e-15 exceeds 1e-15$"):
        x.demand("unit test")
    with pytest.raises(PrecisionNotMet, match=r"certified bound 1\.0e\+13 exceeds 1e-15$"):
        BigReal(mpf(1), mpf(10) ** 13, 15).demand()
    rng = random.Random(3)
    for _ in range(2000):
        man, exp = rng.getrandbits(rng.randint(1, 200)) | 1, rng.randint(-7000, 7000)
        for digits in (2, 3):
            text = bound_text(numkernel._new_ball(numkernel._ZERO, man, exp, 15), digits)
            shown, true = Fraction(text), man * Fraction(2) ** exp
            step = Fraction(10) ** (Decimal(text).adjusted() - digits + 1)
            assert shown - step < true <= shown, (man, exp, text)
    assert bound_text(BigReal(1, 0, 15), 2) == "0.0"


@pytest.mark.parametrize("prec", [MIN_PREC, 2, 15, 50, MAX_PREC])
def test_value_text_zero_rule_is_exact_on_the_ball(prec):
    # The certified line writes 0 iff |v| <= e and |v| + e <= 10**-prec, taken
    # exactly: balls one radius unit either side of |v| = e, and of |v| + e =
    # 10**-prec, against a Fraction oracle.  Otherwise it writes the midpoint
    # correctly rounded, against Python's decimal.
    limit = Fraction(1, 10 ** prec)
    exp = math.floor(math.log2(limit)) - 32
    top = math.floor(limit / Fraction(2) ** exp)  # the most units of 2**exp that |v| + e may hold
    e = top // 2 + 1
    quarter = top // 4
    assert 2 ** 30 <= quarter < e < 2 ** 32  # radii the ball holds exactly
    cases = [
        (top - e, e, True), (top + 1 - e, e, False),  # |v| + e at 10**-prec, and one unit past it
        (quarter - 1, quarter, True), (quarter, quarter, True), (quarter + 1, quarter, False),  # |v| = e
        (0, quarter, True), (0, 0, True),
    ]
    for v, r, expected in cases:
        for sign in (1, -1):
            x = BigReal(dyadic(sign * v, exp), dyadic(r, exp), prec)
            mid, rad = abs(rational(x.value)), rational(x.err)
            assert rad == r * Fraction(2) ** exp
            assert (mid <= rad and mid + rad <= limit) is expected
            assert (value_text(x) == "0") is expected, (v, r)
            if not expected:
                assert value_text(x) == oracle_text(x._mid, prec)
            assert value_text(x, prec) == oracle_text(x._mid, prec)


def test_value_text_writes_the_midpoint_correctly_rounded():
    rng = random.Random(11)
    for _ in range(500):
        man, exp = rng.getrandbits(rng.randint(1, 400)) * rng.choice((1, -1)), rng.randint(-1500, 1500)
        x = BigReal(dyadic(man, exp), mpf(2) ** -20, 15)
        for digits in (1, 3, 15, 60):
            assert value_text(x, digits) == oracle_text(x._mid, digits)
    assert value_text(BigReal(mpf(0), 0, 15), 3) == "0.0"
    assert value_text(BigReal(mpf(0), 0, 15)) == "0"


def test_rounding_matches_the_mpf_reference_and_pi_times_keeps_its_bits():
    # pi rounds, then the product, which is exact when |k| is a power of 2.
    rng = random.Random(31)
    for prec in range(MIN_PREC, MAX_PREC + 1):
        k = rng.randint(-50, 50)
        n = 2 if abs(k) & abs(k) - 1 else 1
        with mpmath.workdps(working_dps(prec)):
            v = k * mpmath.pi
            want = ref_rounding(v, n)
        x = pi_times(k, prec)
        assert (x.value._mpf_, x.prec) == (v._mpf_, prec)
        assert counts(v, prec, n) <= rational(x.err) <= rational(want) * GROWTH


# ---------------------------------------------------------------------------
# Alternating-series acceleration
# ---------------------------------------------------------------------------


def unit_rows(prec: int, magnitude) -> list[int]:
    """``floor(2**b magnitude(k))`` for the rows accel_alt_sum reads at ``prec``, ``b = alt_bits(prec)``."""
    bits = alt_bits(prec)
    return [math.floor(magnitude(k) * 2 ** bits) for k in range(1, alt_terms_needed(prec) + 1)]


def test_working_bits_is_the_precision_of_the_working_digits():
    for prec in range(1, 101):
        with mpmath.workdps(working_dps(prec)):
            assert working_bits(prec) == mpmath.mp.prec, prec


def test_accel_alt_ln2():
    prec = 30
    x = accel_alt_sum(unit_rows(prec, lambda k: Fraction(1, k)), prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(x.value - mpmath.log(2)) <= mpf(10) ** (-prec)
    assert x.certified()


def test_accel_alt_pi_over_4():
    prec = 25
    x = accel_alt_sum(unit_rows(prec, lambda k: Fraction(1, 2 * k - 1)), prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(x.value - mpmath.pi / 4) <= mpf(10) ** (-prec)


def test_accel_alt_finite_series_short_circuit():
    # Rows vanish identically after k = 2; the sum is exact.
    x = accel_alt_sum(unit_rows(20, lambda k: {1: 1, 2: Fraction(1, 2)}.get(k, 0)), 20)
    assert x.value == mpf("0.5")
    assert x.certified()


def test_accel_alt_rejects_a_negative_row_or_bound():
    rows = unit_rows(15, lambda k: Fraction(1, k))
    with pytest.raises(DomainError):
        accel_alt_sum(rows[:4] + [-rows[4]] + rows[5:], 15)
    with pytest.raises(DomainError):
        accel_alt_sum(rows, 15, [0] * 4 + [-1] + [0] * (len(rows) - 5))


def test_accel_alt_rejects_too_few_rows_or_bounds():
    rows = unit_rows(15, lambda k: Fraction(1, k))
    with pytest.raises(DomainError, match="reads 22 rows"):
        accel_alt_sum(rows[:-1], 15)
    with pytest.raises(DomainError, match="reads 22 rows"):
        accel_alt_sum(rows, 15, [0] * (len(rows) - 1))


def test_accel_alt_reads_only_the_first_n_rows():
    rows = unit_rows(15, lambda k: Fraction(1, k))
    assert repr(accel_alt_sum(rows + [-1], 15, [0] * len(rows) + [-1])) == repr(accel_alt_sum(rows, 15))


def test_accel_alt_bit_identical_reruns():
    rows = unit_rows(40, lambda k: Fraction(1, k))
    a = accel_alt_sum(rows, 40)
    b = accel_alt_sum(list(rows), 40)
    assert repr(a) == repr(b)


def eta2(k: int) -> Fraction:
    return Fraction(1, k * k)


@pytest.mark.parametrize("prec", [1, 15, 100])
def test_accel_alt_zero_bounds_keep_every_bit(prec):
    # Bounds of zero add exactly nothing: the value and the error match the
    # call without bounds bit for bit.
    rows = unit_rows(prec, eta2)
    a = accel_alt_sum(rows, prec)
    b = accel_alt_sum(rows, prec, [0] * len(rows))
    assert (a.value._mpf_, a.err._mpf_) == (b.value._mpf_, b.err._mpf_)


def test_accel_alt_bound_covers_worst_case_input_error():
    # The Chebyshev weights alternate in sign like the terms, so one shift
    # of every signed term by +delta units moves the estimate by sum(|c_k|)
    # * delta / d, the most rows within delta of the true ones can move it.
    # At 59 bits a delta of 10 units, 1.7e-17, is as much as a certified
    # bound at prec 15 leaves room for.
    prec, delta = 15, 10
    exact = unit_rows(prec, eta2)
    shifted = [r + delta if k % 2 == 0 else r - delta for k, r in enumerate(exact)]
    blind = accel_alt_sum(shifted, prec)
    aware = accel_alt_sum(shifted, prec, [delta] * len(exact))
    exact = accel_alt_sum(exact, prec)
    assert blind.value == aware.value
    with mpmath.workdps(working_dps(prec)):
        true = mpmath.pi ** 2 / 12
        assert abs(exact.value - true) <= exact.err
        assert abs(aware.value - true) <= aware.err
        assert abs(blind.value - true) > blind.err
    assert aware.certified()


def test_accel_alt_finite_series_adds_every_bound():
    # 1 - 1/2, each row read delta units high in its term's sign and said to
    # be off by that much at every k: the finite sum's bound adds all n
    # bounds, not only the two nonzero rows'.
    prec, delta = 20, 10
    rows = unit_rows(prec, lambda k: {1: 1, 2: Fraction(1, 2)}.get(k, 0))
    rows[0] += delta
    rows[1] -= delta
    blind = accel_alt_sum(rows, prec)
    aware = accel_alt_sum(rows, prec, [delta] * len(rows))
    assert blind.value == aware.value
    unit = mpf(2) ** -alt_bits(prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(blind.value - mpf("0.5")) > blind.err
        assert abs(aware.value - mpf("0.5")) <= aware.err
        assert aware.err >= blind.err + len(rows) * delta * unit
    assert aware.certified()


def test_chebyshev_weights_are_the_exact_recurrence():
    # d = ((3 + sqrt 8)^n + (3 - sqrt 8)^n) / 2 by the binomial theorem, and
    # the b_k and c_k of Cohen, Rodriguez Villegas and Zagier in Fractions:
    # every division exact, every weight the cached integer.
    for n in sorted({alt_terms_needed(p) for p in range(1, 101)}):
        weights, d, size = numkernel._cvz_weights(n)
        assert size == sum(map(abs, weights))
        assert d == sum(math.comb(n, k) * 3 ** (n - k) * 8 ** (k // 2) for k in range(0, n + 1, 2))
        b, c = Fraction(-1), Fraction(-d)
        for k in range(n):
            c = b - c
            assert c == weights[k], (n, k)
            b = b * (k + n) * (k - n) / (Fraction(2 * k + 1, 2) * (k + 1))
            assert b.denominator == 1, (n, k)


# ---------------------------------------------------------------------------
# The shared finish
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prec", [1, 15, 100])
def test_finish_rounds_to_nearest_and_adds_its_units(prec):
    # err is units + (|total| >> b) + 1 in units of 2**-frac_bits, rounded
    # up to 32 bits, and the value is within the conversion's share of it.
    rng = random.Random(prec)
    b = working_bits(prec)
    for _ in range(200):
        frac_bits = rng.choice([b, 2 * b + 7])
        total = rng.choice([-1, 1]) * rng.getrandbits(rng.randint(1, frac_bits + 8))
        units = rng.getrandbits(rng.randint(1, 80))
        x = numkernel._finish(total, frac_bits, units, prec)
        exact = Fraction(total, 1 << frac_bits)
        count = units + (abs(total) >> b) + 1
        err = as_fraction(x.err)
        assert x.prec == prec
        assert count <= err * (1 << frac_bits) <= count * (1 + Fraction(1, 1 << 31))
        assert abs(as_fraction(x.value) - exact) <= Fraction((abs(total) >> b) + 1, 1 << frac_bits)
        assert x.value == mpmath.ldexp(mpmath.mpf(total, prec=b), -frac_bits)


def test_engines_finish_in_no_mpmath_context(monkeypatch):
    # The one shared finish rounds in integers: with mpmath unimportable the
    # Chebyshev and iterated-integral engines still run, and so do em_sum,
    # whose log n is an integer log, pi_times and log_of.
    rows = {prec: unit_rows(prec, eta2) for prec in (1, 15, 100)}
    numkernel._log.cache_clear()
    numkernel._pi.cache_clear()
    block_mpmath(monkeypatch)
    for prec in (1, 15, 100):
        for x in (accel_alt_sum(rows[prec], prec), numkernel._at_one([0, 1], prec), em_sum(prec),
                  pi_times(3, prec), numkernel.log_of(Fraction(2, 3), prec)):
            assert x.prec == prec and x.certified()


# ---------------------------------------------------------------------------
# Zeta at the integers, in one batch
# ---------------------------------------------------------------------------


def assert_zeta_values_cover(batch: tuple, prec: int) -> None:
    bits, values = batch
    assert bits == numkernel._zeta_plan(prec)[1]
    with mpmath.workdps(max(130, prec + 40)):
        for s, (total, err) in enumerate(values, start=2):
            assert type(total) is int and type(err) is int and err >= 0, s
            assert err * 10 ** prec << numkernel.MARGIN_BITS <= 2 ** bits, s
            assert abs(total - mpmath.ldexp(mpmath.zeta(s), bits)) <= err, s
            if s % 2 == 0:
                r = zeta_even_closed(s // 2)
                closed = mpf(r.numerator) / r.denominator * mpmath.pi ** s
                assert abs(total - mpmath.ldexp(closed, bits)) <= err, s


@pytest.mark.parametrize("prec", [1, 50, 100])
def test_zeta_values_match_mpmath_and_even_closed_forms(prec):
    # The batch Euler's constant by the zeta series takes, a digit past this prec.
    inner = numkernel.inner_prec(prec, 1)
    top = alt_terms_needed(inner) + 1
    batch = zeta_values(top, inner)
    assert len(batch[1]) == top - 1
    assert_zeta_values_cover(batch, inner)


def test_zeta_values_raise_when_the_pass_is_too_short(monkeypatch):
    # Two Chebyshev terms cannot certify thirty digits of zeta(2).
    # The uncached body, so a batch cached at (5, 30) cannot stand in for it.
    plan = numkernel._zeta_plan
    monkeypatch.setattr(numkernel, "_zeta_plan", lambda prec: (2, plan(prec)[1]))
    with pytest.raises(PrecisionNotMet, match="zeta\\(2\\) bound of .* exceeds 2\\*\\*-3 1e-30"):
        numkernel._zeta_batch.__wrapped__(5, 30)


def block_mpmath(monkeypatch) -> None:
    """Make every import of mpmath or its modules fail until the test ends."""
    for name in [name for name in sys.modules if name.split(".")[0] == "mpmath"]:
        monkeypatch.setitem(sys.modules, name, None)


def test_zeta_values_build_no_mpf(monkeypatch):
    # The batch is integers end to end: it reaches neither mpmath nor mpf.
    block_mpmath(monkeypatch)
    bits, values = numkernel._zeta_batch.__wrapped__(40, 27)
    assert all(type(total) is int and type(err) is int for total, err in values)


def test_zeta_values_are_cached_immutable_and_bounded():
    batch = zeta_values(12, 20)
    assert zeta_values(12, 20) is batch
    assert batch == numkernel._zeta_batch.__wrapped__(12, 20)
    bits, values = batch
    assert type(values) is tuple and all(type(pair) is tuple for pair in values)
    with pytest.raises(TypeError):
        values[0] = (0, 0)
    bound = numkernel._zeta_batch.cache_parameters()["maxsize"]
    for top in range(2, bound + 12):
        zeta_values(top, 1)
    assert numkernel._zeta_batch.cache_info().currsize <= bound


def test_a_warm_gamma_by_the_zeta_series_reads_no_new_batch():
    eulerfun.gamma_const(100, "ZETA_SERIES")
    before = numkernel._zeta_batch.cache_info()
    eulerfun.gamma_const(100, "ZETA_SERIES")
    after = numkernel._zeta_batch.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def reference_zeta_batch(top: int, prec: int) -> tuple[tuple[int, int], ...]:
    """``(total, err)`` for ``s = 2..top``, each from its own rows and a plain loop.

    The rows are ``_power_rows(s, n, b)``; the estimate is the integer
    Chebyshev sum of ``accel_alt_sum``'s proof, or the exact finite sum
    before the first two zero rows, and its units those of the proof.  The
    total scales the estimate by ``2**(s-1) / (2**(s-1) - 1)`` in one floor.
    """
    n, bits = numkernel._zeta_plan(prec)
    weights, d, _ = numkernel._cvz_weights(n)
    out = []
    for s in range(2, top + 1):
        rows = numkernel._power_rows(Fraction(s), n, bits)
        ends = [j for j in range(n - 1) if rows[j] == rows[j + 1] == 0]
        if ends:
            j = ends[0]
            estimate = sum((-1) ** k * r for k, r in enumerate(rows[:j]))
            units = j + 1
        else:
            estimate = sum(c * r for c, r in zip(weights, rows)) // d
            units = (math.ceil(Fraction(2 * (rows[0] + 1), 2 * d - 1))
                     + math.ceil(Fraction(sum(abs(c) for c in weights), d)) + 1)
        den = 2 ** (s - 1) - 1
        out.append((estimate * 2 ** (s - 1) // den, units + math.ceil(Fraction(units, den)) + 1))
    return tuple(out)


def test_zeta_batch_for_gamma_is_the_chebyshev_pass_bit_for_bit(monkeypatch):
    # At every prec gamma runs its pass a digit higher.  Each batch entry
    # there is the reference's, and gamma's rows and bounds are its totals
    # over s 2**shift, floored, and its bounds over s 2**shift, rounded up,
    # for the shift from the batch's bits to the pass's.
    seen = []
    accel = eulerfun.accel_alt_sum
    monkeypatch.setattr(eulerfun, "accel_alt_sum",
                        lambda rows, prec, bounds: seen.append((rows, prec, bounds)) or accel(rows, prec, bounds))
    for prec in range(MIN_PREC, MAX_PREC + 1):
        inner = numkernel.inner_prec(prec, 1)
        top = alt_terms_needed(inner) + 1
        reference = reference_zeta_batch(top, inner)
        bits = numkernel._zeta_plan(inner)[1]
        assert zeta_values(top, inner) == (bits, reference), prec
        shift = bits - alt_bits(inner)
        seen.clear()
        assert eulerfun.gamma_const(prec, "ZETA_SERIES").prec == prec
        (rows, at, bounds), = seen
        assert at == inner and shift > 0, prec
        assert rows == [total // (s << shift) for s, (total, _) in enumerate(reference, 2)], prec
        assert bounds == [math.ceil(Fraction(err, s << shift)) for s, (_, err) in enumerate(reference, 2)], prec


@pytest.mark.parametrize("top,prec", [(1, 30), (2.0, 30), (5, 0), (5, 30.5), (5, MAX_PREC + 1)])
def test_zeta_values_validate_arguments(top, prec):
    with pytest.raises(DomainError):
        zeta_values(top, prec)


# ---------------------------------------------------------------------------
# Euler-Maclaurin summation
# ---------------------------------------------------------------------------


def planned(prec: int) -> tuple[int, int]:
    """The ``(n_split, bernoulli_terms)`` that ``em_sum(prec)`` runs."""
    return numkernel._em_plan(working_dps(prec) - 1)


def fix_plan(monkeypatch, n_split: int, terms: int) -> None:
    """Make ``em_sum`` run ``n_split`` rows and ``terms`` Bernoulli terms whatever its plan."""
    monkeypatch.setattr(numkernel, "_em_plan", lambda *args: (n_split, terms))


def test_zeta3_matches_reference():
    prec = 30
    x = zeta(3, prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(x.value - mpmath.zeta(3)) <= mpf(10) ** (-prec)


def test_em_sum_regularized_harmonic_gives_eulers_constant():
    """The harmonic sum less log(n); the limit is Euler's constant."""
    prec = 25
    x = em_sum(prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(x.value - mpmath.euler) <= mpf(10) ** (-prec)


@pytest.mark.parametrize("s", [float("inf"), float("nan"), mpmath.inf, "abc", None], ids=repr)
def test_zeta_rejects_an_exponent_that_is_no_number(s):
    with pytest.raises(DomainError):
        zeta(s, 15)


def test_em_sum_takes_no_exponent():
    # em_sum is the harmonic sum of Euler's constant alone: it reads no exponent.
    with pytest.raises(TypeError):
        em_sum("0.5", 15)


def test_em_sum_insufficient_split_raises_precision_not_met(monkeypatch):
    # Two terms at split 3 cannot certify thirty digits; the message names the plan.
    fix_plan(monkeypatch, 3, 2)
    with pytest.raises(PrecisionNotMet, match="em_sum at split 3 with 2 Bernoulli terms"):
        em_sum(30)


def em_sum_reference(s, n_split: int, bernoulli_terms: int, prec: int) -> tuple[mpf, mpf]:
    """Euler-Maclaurin for ``k**-s`` with the textbook O(J**2) tail.

    Every correction term builds its Pochhammer product afresh from 1 and
    converts ``B_2j/(2j)!`` anew; returns ``(value, err)``.  At ``s = 1`` it
    is the oracle of ``em_sum``'s harmonic body, elsewhere of ``zeta``.
    """
    wd = working_dps(prec)
    with mpmath.workdps(wd):
        sv = _mp(s)
        n = mpf(n_split)
        partial = mpmath.fsum(mpf(k) ** (-sv) for k in range(1, n_split + 1))
        integral = -mpmath.log(n) if sv == 1 else n ** (1 - sv) / (sv - 1)
        value = partial + integral - n ** (-sv) / 2

        def correction(j: int) -> mpf:
            poch = mpf(1)
            for i in range(2 * j - 1):
                poch *= sv + i
            ratio = bernoulli(2 * j) / math.factorial(2 * j)
            return mpf(ratio.numerator) / ratio.denominator * poch * n ** (1 - sv - 2 * j)

        for j in range(1, bernoulli_terms + 1):
            value += correction(j)
        cushion = (1 + abs(value)) * mpf(10) ** (-(wd - 2))
        err = abs(correction(bernoulli_terms + 1)) + cushion * (n_split + bernoulli_terms)
        return value, err


def assert_agrees_with_textbook_tail(x, s, n_split: int, terms: int, prec: int) -> None:
    # Both routes certify, agree within the sum of their bounds, and x covers
    # mpmath at 130 digits.
    value, err = em_sum_reference(s, n_split, terms, prec)
    assert err <= mpf(10) ** -prec and x.certified()
    with mpmath.workdps(130):
        assert abs(x.value - value) <= x.err + err
        q = Fraction(s)
        true = mpmath.euler if q == 1 else mpmath.zeta(mpf(q.numerator) / q.denominator)
        assert abs(x.value - true) <= x.err


@pytest.mark.parametrize("prec", [1, 15, 50, 100])
@pytest.mark.parametrize("s", [1, 2, Fraction(5, 2), Fraction(7, 3), 3, 40, 163], ids=str)
def test_em_sum_and_zeta_agree_with_textbook_tail(s, prec):
    # em_sum is checked at its own plan; zeta, which plans no split, against
    # a fixed one that meets 10**-100 in the reference for every s here.
    if s == 1:
        assert_agrees_with_textbook_tail(em_sum(prec), s, *planned(prec), prec)
    else:
        assert_agrees_with_textbook_tail(zeta(s, prec), s, 80, 60, prec)


@pytest.mark.parametrize("terms", [0, 1, 2])
def test_em_sum_agrees_with_textbook_tail_with_few_terms(terms, monkeypatch):
    # At split 20 the first omitted term is 2e-4, 5e-8 and 6e-11: prec 3 certifies.
    fix_plan(monkeypatch, 20, terms)
    assert_agrees_with_textbook_tail(em_sum(3), 1, 20, terms, 3)


@pytest.mark.parametrize("prec", [1, 15, 100])
@pytest.mark.parametrize("s", [Fraction(5, 2), "2.5", mpf("2.5"), Fraction(7, 3), "1.7"],
                         ids=repr)
def test_zeta_takes_any_scalar_exponent_with_the_bits_of_its_rational(s, prec):
    z = zeta(s, prec)
    x = zeta(as_fraction(s), prec)
    assert (x.value._mpf_, x.err._mpf_) == (z.value._mpf_, z.err._mpf_)


@pytest.mark.parametrize("prec", [1, 15, 100])
def test_zeta_at_an_integer_agrees_with_the_iterated_integral_route(prec):
    # zeta(3) is the phi pass, so the engine's word 0 0 1 is an independent route to it.
    x, z = numkernel._at_one(numkernel._word((3,), (1,)), prec), zeta(3, prec)
    assert x.certified() and z.certified()
    with mpmath.workdps(130):
        assert abs(z.value - mpmath.zeta(3)) <= z.err
        assert abs(x.value - z.value) <= x.err + z.err


def test_pi_times_by_one_and_two_encloses_at_every_prec():
    # Doubling is exact, so pi_times(1, .) and pi_times(2, .) count one rounding, not two.
    with mpmath.workprec(2000):
        pi = rational(+mpmath.pi)
    for prec in range(MIN_PREC, MAX_PREC + 1):
        for k in (1, 2):
            x = pi_times(k, prec)
            assert abs(k * pi - rational(x.value)) + Fraction(k, 2 ** 1990) <= rational(x.err), (k, prec)
            assert rational(x.err) <= counts(x.value, prec) * GROWTH, (k, prec)


@pytest.mark.parametrize("prec", [1, 15, 100])
@pytest.mark.parametrize("k", [1, 2, -3])
def test_pi_times_covers_k_pi(k, prec):
    x = pi_times(k, prec)
    assert x.prec == prec and x.certified()
    with mpmath.workdps(working_dps(prec) + 20):
        assert abs(x.value - k * mpmath.pi) <= x.err


# ---------------------------------------------------------------------------
# Exact power rows
# ---------------------------------------------------------------------------

#: The binary precisions of prec 1, 15, 50 and 100.
ROW_BITS = [40, 86, 203, 369]


def scaled_powers(s: Fraction, n: int, bits: int) -> list[mpf]:
    """``2**bits k**-s`` for ``k = 1..n`` from mpmath at ``2 bits + 200`` bits."""
    with mpmath.workprec(2 * bits + 200):
        sv = mpf(s.numerator) / s.denominator
        return [mpmath.ldexp(mpf(k) ** -sv, bits) for k in range(1, n + 1)]


def oracle_rows(s: Fraction, n: int, bits: int) -> list[int]:
    """``floor(2**bits k**-s)`` from :func:`scaled_powers`.

    A value within ``2**-100`` of an integer ``m`` (``8**-(4/3) = 2**-4``) is
    an exact power or a near tie; there ``m**q k**p <= 2**(bits q)`` decides.
    """
    p, q = s.numerator, s.denominator
    out = []
    with mpmath.workprec(2 * bits + 200):
        for k, v in enumerate(scaled_powers(s, n, bits), start=1):
            m = int(mpmath.nint(v))
            if abs(v - m) < mpf(2) ** -100:
                out.append(m if m ** q * k ** p <= 1 << bits * q else m - 1)
            else:
                out.append(int(mpmath.floor(v)))
    return out


ROW_EXPONENTS = ([Fraction(s) for s in (1, 2, 3, 7, 40)]
                 + [Fraction(p, q) for q in range(2, 13) for p in (1, q + 1, 3 * q - 1, 8 * q - 1)
                    if math.gcd(p, q) == 1])


@pytest.mark.parametrize("bits", ROW_BITS)
def test_power_rows_are_exact_floors(bits):
    # Integer s, s = 1 and every q <= 12: one division, isqrt or integer Newton.
    for s in ROW_EXPONENTS:
        assert numkernel._power_rows(s, 60, bits) == oracle_rows(s, 60, bits), s


@pytest.mark.parametrize("bits", ROW_BITS)
def test_power_rows_past_bits_are_zero_without_forming_the_power(bits):
    for s in (Fraction(bits + 1), Fraction(2 * bits + 3, 2), Fraction(bits + 2), Fraction(10 ** 400)):
        assert numkernel._power_rows(s, 20, bits) == [1 << bits] + [0] * 19, s
    for s in (Fraction(bits), Fraction(2 * bits - 1, 2)):  # just below: row 2 is 1 or 0, exactly
        assert numkernel._power_rows(s, 20, bits) == oracle_rows(s, 20, bits), s


def root_rows(s: Fraction, n: int, bits: int) -> list[int]:
    """Each row by its own integer root, ``_iroot((1 << bits q) // k**p, q)``."""
    p, q = s.numerator, s.denominator
    return [numkernel._iroot((1 << bits * q) // k ** p, q) for k in range(1, n + 1)]


#: Exponents whose composite rows start from their factors' rows: q up to
#: 22, so q * 369 = 8118 at the cap; s < 1, where the guess is furthest
#: below the floor; and s = bits/6, whose row 64 is exactly 1 and rows past
#: it 0, and s = bits/6 + 1/12, whose rows reach 0 before row 64.
FACTOR_EXPONENTS = [Fraction(p, q) for q in (2, 3, 5, 7, 11, 12, 17, 21, 22)
                    for p in (1, q - 1, q + 1, 3 * q - 1) if math.gcd(p, q) == 1]


@pytest.mark.parametrize("bits", ROW_BITS)
def test_power_rows_from_factors_are_the_floors_of_each_row(bits):
    exponents = FACTOR_EXPONENTS + [Fraction(bits, 6), Fraction(2 * bits + 1, 12)]
    for s in exponents:
        assert s.denominator * bits <= numkernel._ROOT_BITS_CAP
        rows = numkernel._power_rows(s, 143, bits)
        assert rows == root_rows(s, 143, bits) == oracle_rows(s, 143, bits), s
    assert numkernel._power_rows(Fraction(bits, 6), 143, bits)[63:65] == [1, 0]
    assert numkernel._power_rows(Fraction(2 * bits + 1, 12), 143, bits)[63] == 0


@pytest.mark.parametrize("bits", ROW_BITS)
def test_power_rows_are_exact_at_composite_exact_powers(bits):
    # k**s is an integer here, so the row is 2**bits // k**s and the upward
    # check meets equality wherever k**s is a power of 2.
    for s, ks in [(Fraction(3, 2), (4, 9, 36, 100)), (Fraction(4, 3), (8, 27, 64, 125))]:
        rows = numkernel._power_rows(s, 143, bits)
        assert rows == root_rows(s, 143, bits), s
        for k in ks:
            power = round(k ** float(s))
            assert power ** s.denominator == k ** s.numerator
            assert rows[k - 1] == (1 << bits) // power, (s, k)


def test_power_rows_past_the_root_cap_are_exact_floors():
    # q * bits past the cap: the exp and log rows of _exp_rows, the floors of
    # mpmath's powers at 2 bits + 200 bits, one unit a row as under the cap.
    # No row past the first is an integer, nor within 2**-100 of one.
    for s, bits in [(Fraction(2 ** 70 + 3, 2 ** 71), 86), (1 + Fraction(1, 10 ** 9), 369),
                    (Fraction(45, 31), 369), (Fraction(101, 100), 375), (Fraction(45, 23), 369)]:
        assert s.denominator * bits > numkernel._ROOT_BITS_CAP
        powers = scaled_powers(s, 146, bits)
        with mpmath.workprec(2 * bits + 200):
            assert all(abs(v - mpmath.nint(v)) > mpf(2) ** -100 for v in powers[1:]), s
            assert numkernel._power_rows(s, 146, bits) == [int(mpmath.floor(v)) for v in powers], s


@pytest.mark.parametrize("bits", [37, 86, 202, 369])
def test_libmp_rows_lie_within_the_three_counted_units(bits):
    # Each row is within 3 units of 2**bits k**-s: 2 for libmp's power on its
    # premise and up to 1/e for s rounded to bits bits.  EULER_PRODUCT's own
    # route, which shares no row code with zeta, counts 3.
    ks = list(range(1, 144)) + [p for p in range(144, 1000) if all(p % d for d in range(2, 32))]
    for s in (Fraction(45, 23), 1 + Fraction(1, 10 ** 9), Fraction(2 ** 70 + 3, 2 ** 71), Fraction(1, 3),
              Fraction(7, 3), Fraction(20)):
        rows = eulerfun._libmp_rows(s, ks, bits)
        with mpmath.workprec(4 * bits):
            sv = mpf(s.numerator) / s.denominator
            assert all(abs(r - mpmath.ldexp(mpf(k) ** -sv, bits)) <= 3 for r, k in zip(rows, ks)), s


@pytest.mark.parametrize("bits", [40, 369])
def test_rows_within_one_of_a_power_of_2_are_decided_by_bounds(bits, monkeypatch):
    # s within 10**-999 of 0 or of J/j puts rows within 10**-990 of a power
    # of 2, below or above it, where the guard bits would have to reach about
    # 3300; the bounds decide them, and the first guard bits the rest.
    widths = []
    exp_fixed = numkernel._exp_fixed
    monkeypatch.setattr(numkernel, "_exp_fixed", lambda y, w: widths.append(w) or exp_fixed(y, w))
    tiny = Fraction(1, 10 ** 999)
    for s in (tiny, 1 - tiny, 2 + tiny, Fraction(1, 3) + tiny, Fraction(2, 3) - tiny):
        rows = numkernel._power_rows(s, 40, bits)
        with mpmath.workprec(bits + 3600):
            sv = mpf(s.numerator) / s.denominator
            assert rows == [int(mpmath.floor(mpmath.ldexp(mpf(k) ** -sv, bits))) for k in range(1, 41)], s
    assert bits + 48 <= min(widths) and max(widths) <= bits + 50


def test_the_two_row_routes_agree_bit_for_bit_under_the_cap():
    # _exp_rows, the route past the cap, called where the roots run: just
    # under the cap, at the exact powers k = 2**j with q | j, and at random
    # s with q <= 12 at every prec.
    s, bits = Fraction(45, 22), working_bits(100)
    assert s.denominator * bits <= numkernel._ROOT_BITS_CAP
    assert numkernel._exp_rows(s, 143, bits) == numkernel._power_rows(s, 143, bits)
    for s in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(4, 3), Fraction(5, 4)):
        assert numkernel._exp_rows(s, 143, bits) == numkernel._power_rows(s, 143, bits), s
    rng = random.Random(37)
    for prec in range(1, 101):
        bits, n = working_bits(prec), alt_terms_needed(prec)
        for _ in range(2):
            q = rng.randint(1, 12)
            s = Fraction(rng.randint(1, 8 * q), q)
            assert numkernel._exp_rows(s, n, bits) == numkernel._power_rows(s, n, bits), (s, prec)


@pytest.mark.parametrize("bits", [37, 86, 202, 369])
def test_em_sum_floors_the_log_the_mpmath_context_gave(bits, monkeypatch):
    # The integral tail is floor(-2**bits log n), from libmp's log at bits +
    # 16: with no Bernoulli term the total em_sum finishes is the rows, less
    # half the last, plus it.
    finished = []
    monkeypatch.setattr(numkernel, "working_bits", lambda prec: bits)
    monkeypatch.setattr(numkernel, "_finish", lambda total, *args: finished.append(total) or BigReal(mpf(0), 0, 15))
    for n in range(2, 200):
        fix_plan(monkeypatch, n, 0)
        em_sum(15)
        rows = [(1 << bits) // k for k in range(1, n + 1)]
        with mpmath.workprec(bits + 16):
            integral = int(mpmath.floor(-mpmath.ldexp(mpmath.log(n), bits)))
        assert finished.pop() == sum(rows) - rows[-1] // 2 + integral, n


# ---------------------------------------------------------------------------
# pi and log in integers
# ---------------------------------------------------------------------------

#: Every ``working_bits(p)`` an op may round at, inner precisions included.
EVERY_BITS = sorted({working_bits(p) for p in range(1, numkernel.INNER_TOP + 1)})

#: Inputs ``(v, b)`` where libmp's ``mpf_log`` is not correctly rounded; :func:`_log`
#: differs from it there alone.  None among the inputs the package feeds it.
LIBMP_LOG_MISROUNDED: list = []


def within_half_a_unit(v: tuple, ref: mpf, b: int) -> bool:
    """``v``, rounded at ``b`` bits, within half a unit of ``ref``, give or take ``ref``'s 130 digits."""
    sign, man, exp, bc = v
    half = Fraction(2) ** (exp + bc - b - 1)
    return abs(numkernel._fraction(v) - Fraction(*mpmath.libmp.to_rational(ref._mpf_))) <= half * Fraction(9, 8)


def log_inputs() -> list[tuple[tuple, int]]:
    """``(v, b)`` for the logs the package takes, and random ones, at every precision.

    em_sum's ``log n`` at ``working_bits(p) + 16``; at every ``b``, every prime
    to 200, each ``log`` of the n = 2 window points of ``bits.json`` and random
    rationals with parts of at most 40 bits.
    """
    inputs = [(numkernel._exact(0, numkernel._em_plan(working_dps(p) - 1)[0], 0), working_bits(p) + 16)
              for p in range(MIN_PREC, MAX_PREC + 1)]
    rng = random.Random(20)
    rationals = [Fraction(k) for k in range(2, 201) if all(k % d for d in range(2, k))]
    rationals += [Fraction(3, 4), Fraction(1, 4), Fraction(99, 100), Fraction(1, 100)]
    rationals += [Fraction(rng.randint(1, 2 ** 40), rng.randint(1, 2 ** 40)) for _ in range(24)]
    for b in EVERY_BITS:
        inputs += [(numkernel._quotient(*q.as_integer_ratio(), b), b) for q in rationals if q != 1]
    return inputs


def test_pi_is_libmps_and_correctly_rounded_at_every_precision():
    for b in EVERY_BITS:
        v = numkernel._pi(b)
        assert v == mpmath.libmp.mpf_pi(b, round_nearest), b
        with mpmath.workdps(130):
            assert within_half_a_unit(v, +mpmath.pi, b), b


def test_log_is_libmps_where_libmp_rounds_correctly_and_correctly_rounded_everywhere():
    misrounded = []
    for v, b in log_inputs():
        got = numkernel._log(v, b)
        with mpmath.workdps(130):
            assert within_half_a_unit(got, mpmath.log(mpmath.mp.make_mpf(v)), b), (v, b)
        if got != mpmath.libmp.mpf_log(v, b, round_nearest):
            misrounded.append((v, b))
    assert misrounded == LIBMP_LOG_MISROUNDED


def test_log_of_one_and_of_a_quotient_that_rounds_to_one_is_an_exact_zero():
    # 1 - 10**-30 rounds to 1 at prec 2 to 11: its log is 0, as libmp's.
    for prec in (2, 11):
        v = numkernel._quotient(10 ** 30 - 1, 10 ** 30, working_bits(prec))
        assert v == (0, 1, 0, 1) and numkernel._log(v, working_bits(prec)) == fzero
        assert numkernel.log_of(1 - Fraction(1, 10 ** 30), prec).value == 0


def test_log_near_one_keeps_its_relative_precision():
    # 1 + 2**-200 at 400 bits: log is about 2**-200, rounded at the full 400 bits.
    for v in ((0, 2 ** 200 + 1, -200, 201), (0, 2 ** 200 - 1, -200, 200)):
        got = numkernel._log(v, 400)
        assert got == mpmath.libmp.mpf_log(v, 400, round_nearest)
        with mpmath.workprec(1200):
            assert within_half_a_unit(got, mpmath.log(mpmath.mp.make_mpf(v)), 400)


def test_log_rounds_correctly_where_libmp_does_not():
    # log(1 + 129 2**-58) lies 5e-8 of a unit from a tie at 183 bits: libmp
    # rounds it the wrong way, and _log, whose Ziv loop widens until it
    # decides, does not.
    v, b = (0, 2 ** 58 + 129, -58, 59), 183
    got = numkernel._log(v, b)
    assert got != mpmath.libmp.mpf_log(v, b, round_nearest)
    with mpmath.workprec(2000):
        ref = mpmath.log(mpmath.mp.make_mpf(v))
    sign, man, exp, bc = got
    error = numkernel._fraction(got) - Fraction(*mpmath.libmp.to_rational(ref._mpf_))
    assert 0 < error / Fraction(2) ** (exp + bc - b) < Fraction(1, 2)


def test_decided_rounds_an_interval_only_when_its_ends_agree():
    b, w = 10, 30
    one = 1 << w
    assert numkernel._decided(one + (3 << 18), 5, w, b) == numkernel._round(0, one + (3 << 18), -w, b)
    assert numkernel._decided(-one - (3 << 18), 5, w, b) == numkernel._round(1, one + (3 << 18), -w, b)
    tie = one + (1 << w - b)  # halfway between 1 and the next b-bit number
    assert numkernel._decided(tie, 1, w, b) is None
    assert numkernel._decided(3, 3, w, b) is None and numkernel._decided(-2, 5, w, b) is None


def test_each_ziv_loop_widens_until_it_decides(monkeypatch):
    # Each integer kernel declares its units too wide at the first guard
    # bits: pi, log and the rows past the root cap widen and keep their bits.
    b, bits, s = working_bits(50), working_bits(100), Fraction(101, 100)
    want = (mpmath.libmp.mpf_pi(b, round_nearest), mpmath.libmp.mpf_log(from_int(7), b, round_nearest),
            numkernel._exp_rows(s, 143, bits))
    numkernel._pi.cache_clear()
    numkernel._log.cache_clear()
    widened = []

    def wide(name, guards):
        kernel = getattr(numkernel, name)

        def call(*args):
            total, units = kernel(*args)
            w = args[2 if name == "_arc" else -1]
            widened.append((name, w < guards))
            return total, units << guards if w < guards else units
        monkeypatch.setattr(numkernel, name, call)

    wide("_arc", b + 40)
    assert numkernel._pi(b) == want[0]
    wide("_log_fixed", b + 40)
    assert numkernel._log(from_int(7), b) == want[1]
    wide("_exp_fixed", bits + 64)
    assert numkernel._exp_rows(s, 143, bits) == want[2]
    for name in ("_arc", "_log_fixed", "_exp_fixed"):
        assert {(name, True), (name, False)} <= set(widened), name
    numkernel._pi.cache_clear()
    numkernel._log.cache_clear()


def test_integer_root_is_exact():
    rng = random.Random(14)
    for _ in range(400):
        q = rng.randint(1, 40)
        x = rng.getrandbits(rng.randint(1, 3000))
        for v in (x, x ** q, max(x ** q - 1, 0)):
            y = numkernel._iroot(v, q)
            assert y ** q <= v < (y + 1) ** q, (v, q)


# ---------------------------------------------------------------------------
# Caches hold exact integers and fractions, which no precision can change
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def bits_in_fresh_interpreter(calls: list[str]) -> str:
    """Bits of the last of ``calls``, each run in order in a new interpreter."""
    code = ("from fractions import Fraction\n"
            "from euler_periods.eulerfun import gamma_const, phi, zeta\n"
            "from euler_periods.numkernel import zeta_values\n"
            "from euler_periods.g2 import coeff_a3\n"
            + "".join(f"x = {call}\n" for call in calls)
            + "print((x.value._mpf_, x.err._mpf_))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout


@pytest.mark.parametrize("warm,call", [
    # The Chebyshev weights are cached per term count, 40 and 32 here.
    ("phi(Fraction(5, 2), 21)", "phi(Fraction(5, 2), 15)"),
    ("gamma_const(21, 'ZETA_SERIES')", "gamma_const(15, 'ZETA_SERIES')"),
    ("gamma_const(50, 'ZETA_SERIES')", "gamma_const(100, 'ZETA_SERIES')"),
    # The zeta batch is cached per (top, prec): another top, another prec.
    ("zeta_values(100, 100)", "gamma_const(100, 'ZETA_SERIES')"),
    ("zeta_values(144, 50)", "gamma_const(100, 'ZETA_SERIES')"),
    # Both precisions use the exact B_2j/(2j)! for j = 1..6.
    ("zeta(Fraction(7, 3), 15)", "zeta(Fraction(7, 3), 21)"),
    # The Euler-Maclaurin plan is cached per exact argument tuple, the g-2
    # bracket expressions once per process.
    ("zeta(Fraction(7, 3), 15)", "zeta(Fraction(7, 3), 15)"),
    ("coeff_a3('AS_PRINTED', 50)", "coeff_a3('AS_PRINTED', 15)"),
])
def test_cached_weights_do_not_leak_across_precisions(warm, call):
    assert bits_in_fresh_interpreter([warm, call]) == bits_in_fresh_interpreter([call])


# ---------------------------------------------------------------------------
# The iterated-integral engine against the one-pass-per-side reference
# ---------------------------------------------------------------------------


def ref_suffix_integrals(word, terms: int, bits: int) -> list[int]:
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


def ref_at_one(word, prec: int, terms: int | None = None) -> BigReal:
    """The engine as it ran each side in full, every letter by one general loop."""
    n = len(word)
    units = sum(3 if a else 1 for a in word)
    planned = numkernel._target_bits(prec) + (n + 1).bit_length() + 3
    terms = planned if terms is None else terms
    bits = planned + ((terms + 1) * units).bit_length()
    ahead = ref_suffix_integrals(word, terms, bits)
    # Under t -> 1 - t letter a becomes 1 - a, and the sign flips unless a is 0 or 1.
    behind = ref_suffix_integrals([1 - a for a in reversed(word)], terms, bits)[::-1]
    signs = accumulate((1 if a in (0, 1) else -1 for a in word), mul, initial=1)
    total = sum(s * x * y for s, x, y in zip(signs, behind, ahead))
    alpha = (1 << max(bits - terms, 0)) + (terms + 1) * units
    return _finish(total, 2 * bits, (n + 1) * alpha * ((2 << bits) + alpha), prec)


#: Words over every letter kind: 0; 1 and 2, which shift; the other integers
#: -1, 3 and -2; and 1/z with a denominator, 7/2, -7/2, 4/3 and 5/2 (z = 2/7,
#: -2/7, 3/4, 2/5), whose images 1 - a are -5/2, 9/2, -1/3 and -3/2.
ENGINE_WORDS = [
    [0, 1], _word((3, 2), (1, 1)), _word((4, 1, 1), (1, 1, 1)), _word((2, 1, 1, 3), (1,) * 4),
    _word((3, 1, 3, 1), (1,) * 4), _word((3, 1), (-1, 1)), _word((2, 3), (-1, 1)), [-1, 1],
    [0, 0, 2], [0, -2], [0, 0, 3], [0, 2, 0, -1, 1], [0, Fraction(7, 2)],
    [0, 0, Fraction(-7, 2)], [0, Fraction(4, 3)], [0, 0, Fraction(5, 2)], [3, 0, -2, 0, 1],
]
ENGINE_TERMS = [None, 0, 1, 12, 64, 128]
ENGINE_PRECS = [1, 15, 50, 100]


def shared_passes(word) -> int:
    """How many leading letters the two sides of the split have in common."""
    first, second = word[::-1], [1 - a for a in word]
    return next((j for j, (x, y) in enumerate(zip(first, second)) if x != y), len(word))


@cache
def ref_fields(word: tuple, prec: int, terms: int | None) -> tuple:
    x = ref_at_one(list(word), prec, terms)
    return x._mid, x._man, x._exp, x._prec


def mismatches(at_one=_at_one) -> list[tuple]:
    """The (word, prec, terms) of the grid on which ``at_one`` differs from the reference in any bit."""
    out = []
    for prec in ENGINE_PRECS:
        for word in ENGINE_WORDS:
            for terms in ENGINE_TERMS:
                x = at_one(word, prec, terms)
                if (x._mid, x._man, x._exp, x._prec) != ref_fields(tuple(word), prec, terms):
                    out.append((word, prec, terms))
    return out


def mutant(name: str, old: str, new: str):
    """numkernel's function ``name`` compiled with ``old`` in its source replaced by ``new``."""
    source = inspect.getsource(getattr(numkernel, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(numkernel))
    code = compile(source.replace(old, new), numkernel.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[name]


def test_the_engine_words_cover_every_letter_kind_and_shared_prefix():
    letters = {a for word in ENGINE_WORDS for a in word}
    assert {0, 1, 2, -1, 3, -2} <= letters
    assert {a.denominator > 1 for a in letters if a > 0} == {True, False}
    assert any(a.denominator > 1 for a in letters if a < 0)
    shares = {(shared_passes(w), len(w)) for w in ENGINE_WORDS}
    assert {0, 1} <= {c for c, _ in shares}
    assert any(1 < c < n for c, n in shares) and any(c == n for c, n in shares)


def test_iterated_integrals_match_the_reference_bit_for_bit():
    assert mismatches() == []


def test_the_reference_catches_a_shift_for_a_negative_letter(monkeypatch):
    # -1 and -2 are powers of two in size, but floor division by -2p is no shift.
    shifted = mutant("_passes", "q == 1 and p2 > 0 and not p2 & (p2 - 1)", "q == 1 and not abs(p2) & (abs(p2) - 1)")
    monkeypatch.setattr(numkernel, "_passes", shifted)
    wrong = {tuple(word) for word, _, _ in mismatches()}
    assert wrong == {tuple(word) for word in ENGINE_WORDS if {-1, -2} & {*word, *(1 - a for a in word)}}


def test_the_reference_catches_a_shared_prefix_run_one_letter_too_far():
    too_far = mutant("_at_one", "    ahead = [1 << bits]\n", "    shared = min(shared + 1, n)\n    ahead = [1 << bits]\n")
    wrong = {tuple(word) for word, _, _ in mismatches(too_far)}
    assert wrong == {tuple(word) for word in ENGINE_WORDS if shared_passes(word) < len(word)}
