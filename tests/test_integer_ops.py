"""The integer rounding of numkernel against exact rationals, and its decimal writer against Python's decimal.

``BigReal``'s ``+ - * /``, its constructors and ``_finish`` round in Python
integers, correctly: each result is its exact rational rounded to nearest,
ties to even, at every working precision the kernel admits, wide operands
and exponent gaps included.  The oracle here is exact rational arithmetic,
not libmp.  ``value_text``, ``bound_text`` and the argument echo of the
evaluators print through one integer digit rule: a value correctly rounded
to nearest with ties up, a bound the least decimal at or above it, each
checked against Python's ``decimal`` module, an exact route apart from the
integers.  The layout, where the point goes and when an exponent is
written, stays libmp's ``to_str``'s.
"""

import math
import os
import random
import subprocess
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_HALF_UP, Context, Decimal, Inexact
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import libmp
from mpmath.libmp import round_nearest as RN

from euler_periods import numkernel
from euler_periods.errors import DomainError
from euler_periods.numkernel import INNER_TOP, BigReal, bound_text, value_text, working_bits, working_dps

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every binary precision an op rounds at, from prec 1 to the inner top.
BITS = sorted({working_bits(p) for p in range(1, INNER_TOP + 1)})


def test_working_bits_is_dps_to_prec_of_the_working_digits():
    for p in range(1, INNER_TOP + 1):
        assert working_bits(p) == libmp.dps_to_prec(working_dps(p)), p
    for dps in range(0, 2000):
        assert numkernel.dps_to_prec(dps) == libmp.dps_to_prec(dps), dps


def raw(sign: int, man: int, exp: int) -> tuple:
    """The raw tuple of ``(-1)**sign man 2**exp``, trailing zero bits shed, exactly."""
    if not man:
        return 0, 0, 0, 0
    while not man & 1:
        man >>= 1
        exp += 1
    return sign, man, exp, man.bit_length()


def value(v: tuple) -> Fraction:
    """The exact rational of a raw tuple."""
    sign, man, exp, _ = v
    q = man * Fraction(2) ** exp
    return -q if sign else q


def nearest(q: Fraction, b: int) -> tuple:
    """``q`` rounded to nearest at ``b`` bits, ties to even, as a raw tuple: the oracle."""
    if not q:
        return 0, 0, 0, 0
    sign, q = int(q < 0), abs(q)
    exp = q.numerator.bit_length() - q.denominator.bit_length() - b
    while q >= Fraction(2) ** (exp + b):
        exp += 1
    while q < Fraction(2) ** (exp + b - 1):
        exp -= 1
    scaled = q / Fraction(2) ** exp  # in [2**(b - 1), 2**b)
    man, rest = divmod(scaled.numerator, scaled.denominator)
    if 2 * rest > scaled.denominator or 2 * rest == scaled.denominator and man & 1:
        man += 1
    return raw(sign, man, exp)


def test_the_oracle_rounds_half_to_even():
    assert nearest(Fraction(5, 2), 2) == raw(0, 1, 1)  # 2.5 -> 2
    assert nearest(Fraction(-7, 2), 2) == raw(1, 1, 2)  # -3.5 -> -4
    assert nearest(Fraction(11, 4), 2) == raw(0, 3, 0)  # 2.75 -> 3
    assert nearest(Fraction(1, 3), 4) == raw(0, 11, -5)  # 0.0101|01.. -> 0.01011
    assert nearest(Fraction(0), 9) == (0, 0, 0, 0)


def operand_pairs(rng: random.Random, b: int):
    """Pairs ``(s, t)`` of raw tuples that reach every branch of the integer add, mul and div."""
    def rand(bits: int | None = None, exp: int | None = None) -> tuple:
        bits = rng.randint(1, 2 * b + 10) if bits is None else bits
        exp = rng.randint(-3 * b, 3 * b) if exp is None else exp
        return raw(rng.getrandbits(1), rng.getrandbits(bits) | 1 << bits - 1, exp)

    for _ in range(40):  # random operands, as wide as a relabelled midpoint
        yield rand(), rand()
    for _ in range(20):  # exponent gaps past 100 bits, both ways round
        s = rand()
        t = rand(exp=s[2] - rng.randint(101, 3 * b + 300))
        yield s, t
        yield t, s
    for _ in range(10):  # near the gap's edges
        s = rand(bits=rng.randint(1, b + 8))
        t = rand(bits=rng.randint(1, b + 8), exp=s[2] - rng.randint(95, 110))
        yield s, t
    for _ in range(20):  # past the gap, with the smaller operand's top at the sticky bit or a bit either side
        s = rand(bits=rng.randint(1, 2 * b + 10))
        low = s[2] - max(1, b + 3 - s[3])
        top = low + rng.randint(-2, 2)
        texp = min(s[2] - rng.randint(101, 140), top - 1)
        t = rand(bits=top - texp, exp=texp)
        yield s, t
        yield t, s
    # A midpoint 20 bits wider than b, just below a half unit, and a wide
    # operand 101 bits below it worth 2**14 of its last bits: the exact sum
    # rounds up, so the smaller operand is not a sticky bit.
    s = raw(0, (1 << b - 1 | 5) << 20 | (1 << 19) - 1, 0)
    yield s, raw(0, (1 << 115) + 1, -101)
    yield raw(0, (1 << 115) + 1, -101), s
    for _ in range(5):  # exact cancellation
        s = rand()
        yield s, s
        yield s, (1 - s[0],) + s[1:]
    for _ in range(10):  # half-even ties of a sum: b bits plus a half unit, odd and even
        man = rng.getrandbits(b - 1) | 1 << b - 1
        exp = rng.randint(-b, b)
        half = raw(0, 1, exp - 1)
        yield raw(0, man, exp), half
        yield raw(1, man | 1, exp), raw(1, 1, exp - 1)
    for _ in range(5):  # products with b + 1 or b + 2 bits, some of them ties
        k = rng.randint(1, b + 1)
        yield rand(bits=k), rand(bits=b + 2 - k)
    zero = (0, 0, 0, 0)
    for s in (rand(), rand(bits=1), raw(1, 1, 0)):  # zeros and signs
        yield s, zero
        yield zero, s
    yield zero, zero


def test_integer_ops_are_correctly_rounded_at_every_working_precision():
    rng = random.Random(35)
    for b in BITS:
        for s, t in operand_pairs(rng, b):
            x, y = value(s), value(t)
            assert numkernel._add(s, t, b) == nearest(x + y, b), (s, t, b)
            assert numkernel._add(s, t, b, 1) == nearest(x - y, b), (s, t, b)
            assert numkernel._mul(s, t, b) == nearest(x * y, b), (s, t, b)
            if y:
                assert numkernel._div(s, t, b) == nearest(x / y, b), (s, t, b)
            for v in (s, t):
                assert numkernel._round(v[0], v[1], v[2], b) == nearest(value(v), b), (v, b)


def test_a_wide_midpoint_and_an_operand_past_the_gap_round_correctly():
    # The sum is 2**19 + 3 units of 2**21 less 2**-101 of one, just above a
    # half unit of 2**20: libmp's mpf_add, which takes the smaller operand as a
    # sticky bit, gives 524293 2**20.
    s = raw(0, (1 << 19 | 5) << 20 | (1 << 19) - 1, 0)
    t = raw(0, (1 << 115) + 1, -101)
    assert numkernel._add(s, t, 20) == numkernel._add(t, s, 20) == raw(0, 262147, 21)


def test_quotient_is_the_correctly_rounded_rational_at_every_working_precision():
    # Narrow numerators take the integer path, wide ones go through _div once;
    # 41 and 400 bits lie between and past the working precisions.
    rng = random.Random(38)
    for b in sorted({*BITS, 41, 400}):
        for _ in range(100):
            num = rng.choice((1, -1)) * rng.getrandbits(rng.randint(0, 3 * b))
            kind = rng.random()
            den = (1 << rng.randint(0, 60) if kind < 0.2 else rng.randint(1, 20) if kind < 0.3
                   else rng.getrandbits(rng.randint(1, 400)) + 1)
            num, den = Fraction(num, den).as_integer_ratio()
            assert numkernel._quotient(num, den, b) == nearest(Fraction(num, den), b), (num, den, b)


def test_round_and_exact_against_exact_rationals():
    rng = random.Random(350)
    for b in BITS:
        for _ in range(60):
            man = rng.getrandbits(rng.randint(0, 3 * b)) << rng.choice((0, 0, rng.randint(1, 40)))
            if rng.random() < 0.2:  # a tie at b bits: b + 1 bits ending in 1
                man = (rng.getrandbits(b) | 1 << b) << 1 | 1
            sign, exp = rng.getrandbits(1), rng.randint(-4 * b, 4 * b)
            assert numkernel._round(sign, man, exp, b) == nearest(value((sign, man, exp, 0)), b), (man, exp, b)
            assert numkernel._exact(sign, man, exp) == raw(sign, man, exp), (man, exp)
    for n in (0, 1, -1, 2, -6, 10 ** 40, -(2 ** 200)):
        assert numkernel._exact(int(n < 0), abs(n), 0) == raw(int(n < 0), abs(n), 0)


def test_the_ops_keep_int_signs():
    # A sign is the int 0 or 1, as libmp's, never a bool, so the raw tuples
    # dump and compare as libmp's do.
    x = BigReal.exact(Fraction(-1, 3), 15)
    for y in (x, -x, x + x, x - 1, x * x, x / 3, BigReal.exact(-7, 15), BigReal.exact("-0.1", 15), abs(x)):
        assert type(y._mid[0]) is int


def test_non_finite_values_are_refused_in_integers():
    # An infinite or nan float or mpf used to become a ball with libmp's
    # special tuple as its midpoint; the integer form has no such tuple.
    for x in (float("inf"), float("-inf"), float("nan"), mpmath.inf, mpmath.nan):
        with pytest.raises(DomainError, match="must be finite"):
            BigReal.exact(x, 15)
        with pytest.raises(DomainError, match="must be finite"):
            BigReal(x, 0, 15)
        with pytest.raises(DomainError, match="must be finite"):
            BigReal(1, x, 15)
    with pytest.raises(TypeError):
        BigReal.exact(1j, 15)


# ---------------------------------------------------------------------------
# The decimal writer
# ---------------------------------------------------------------------------


def oracle_text(v: tuple, dps: int, rounding: str = ROUND_HALF_UP) -> str:
    """The raw tuple ``v`` rounded once to ``dps`` digits by Python's decimal, laid out by ``_layout``.

    The value is built at a precision wide enough to hold it exactly, which
    the Inexact trap checks, and ``plus`` rounds it once: half up (away
    from 0 on a tie) for a value, ceiling for a bound.
    """
    sign, man, exp, _ = v
    wide = Context(prec=man.bit_length() + abs(exp) + 10, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    exact = wide.multiply(Decimal(-man if sign else man), wide.power(2, exp))
    d = Context(prec=dps, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN).plus(exact)
    if not d:
        return "0.0"
    return numkernel._layout("-" if d < 0 else "", "".join(map(str, d.as_tuple().digits)), d.adjusted(), dps)


def test_writer_rounds_random_midpoints_to_nearest():
    rng = random.Random(3500)
    for _ in range(4000):
        man = rng.getrandbits(rng.randint(1, 400)) | 1
        v = raw(rng.getrandbits(1), man, rng.randint(-700, 400))
        dps = rng.randint(1, 120)
        assert numkernel._decimal_text(v, dps) == oracle_text(v, dps), (v, dps)


def near(text: str) -> list[tuple]:
    """Raw tuples at a decimal and a few units of 2**-300 relative to either side of it."""
    v = libmp.from_str(text, 400, RN)
    out = [v]
    for ulps in (1, 7, 2 ** 40):
        delta = libmp.mpf_shift(libmp.mpf_abs(v), -300)
        delta = libmp.mpf_mul_int(delta, ulps, 400, RN)
        out += [libmp.mpf_add(v, delta, 400, RN), libmp.mpf_sub(v, delta, 400, RN)]
    return out


def test_writer_carries_through_nines_and_keeps_both_layout_boundaries():
    # The layout pin: exact rounding and libmp's to_str agree on these values.
    nines = libmp.from_str("9.9996", 200, RN)
    assert numkernel._decimal_text(nines, 4) == libmp.to_str(nines, 4) == "10.0"
    for dps in range(1, 121):
        low = min(-(dps // 3), -5)
        for text in (f"1e{dps - 1}", f"1e{dps}", f"9.{'9' * dps}e{dps - 1}", f"1e{low}", f"1e{low + 1}",
                     f"9.{'9' * dps}5e{low}", f"-5e{low}", f"0.{'9' * (dps + 2)}", "1", "-1"):
            for v in near(text):
                assert numkernel._decimal_text(v, dps) == libmp.to_str(v, dps), (text, dps)


def test_writer_zero_and_the_far_exponents():
    assert numkernel._decimal_text(libmp.fzero, 15) == "0.0"
    for exp in (3400, 3600, -3600, -3700, 10 ** 6):
        for dps in (1, 15, 50):
            v = raw(1, 123456789, exp)
            assert numkernel._decimal_text(v, dps) == oracle_text(v, dps), (exp, dps)


def around(q: Fraction, bits: int) -> set[tuple]:
    """The raw tuples of ``bits`` bits just below and just above ``q > 0``: one tuple if ``q`` is one."""
    exp = q.numerator.bit_length() - q.denominator.bit_length() - bits
    scaled = q / Fraction(2) ** exp
    return {raw(0, math.floor(scaled), exp), raw(0, math.ceil(scaled), exp)}


def test_writer_rounds_near_decimal_ties_to_nearest_at_every_digit_count():
    # At each dps, ties k.5 10**e with k of dps digits, near 1 and past
    # 3500 bits either way, and the dyadics of a few widths either side of
    # them, some wider than the (dps + 3) log2(10) + 10 bits that libmp's
    # to_str truncates to before it rounds: it writes a value just above a
    # tie as if below, and the test must reach such values.
    rng, libmp_wrong = random.Random(120), 0
    for dps in range(1, 121):
        bitprec = int((dps + 3) * math.log2(10)) + 10
        for e in (rng.randint(-30, 30), 1100, -1100):
            k = rng.randrange(10 ** (dps - 1), 10 ** dps)
            tie = (2 * k + 1) * Fraction(10) ** (e - dps + 1) / 2
            for bits in (bitprec - 8, bitprec + 8, bitprec + 64, 4 * bitprec):
                for v in around(tie, bits):
                    for w in (v, (1,) + v[1:]):
                        text = numkernel._decimal_text(w, dps)
                        assert text == oracle_text(w, dps), (w, dps)
                        libmp_wrong += text != libmp.to_str(w, dps)
    assert libmp_wrong


def test_writer_rounds_the_tie_libmp_truncates_away():
    # 1717986919 2**-36 = 0.0250000000087...: 0.03 to nearest at one digit.
    # libmp's to_str truncates it to 23 bits first, below the tie, and
    # writes 0.02.
    v = raw(0, 1717986919, -36)
    assert numkernel._decimal_text(v, 1) == oracle_text(v, 1) == "0.03"
    assert value_text(numkernel._new_ball(v, 0, 0, 1)) == "0.03"
    assert libmp.to_str(v, 1) == "0.02"


def test_value_text_is_the_writer_on_the_midpoint():
    rng = random.Random(36)
    for _ in range(300):
        prec = rng.randint(1, 100)
        x = BigReal.exact(Fraction(rng.getrandbits(200) - 2 ** 199, rng.getrandbits(150) + 1), prec)
        digits = rng.randint(1, prec + 2)
        assert value_text(x, digits) == oracle_text(x._mid, digits)


def test_bound_text_writes_the_least_decimal_at_or_above():
    rng = random.Random(37)
    for _ in range(3000):
        man, exp = rng.getrandbits(rng.randint(1, 64)) | 1, rng.randint(-520, 200)
        digits = rng.randint(1, 5)
        text = bound_text(numkernel._new_ball(numkernel._ZERO, man, exp, 15), digits)
        assert text == oracle_text(raw(0, man, exp), digits, ROUND_CEILING), (man, exp, digits)


def test_bound_text_rounds_up_near_decimals_at_every_digit_count():
    # At each digit count, decimals k 10**e with k of that many digits, near
    # 1 and past 3500 bits either way, and the radii of a few widths either
    # side of them: a radius's own 32 bits and wider.
    rng = random.Random(121)
    for digits in range(1, 121):
        for e in (rng.randint(-30, 30), 1100, -1100):
            k = rng.randrange(10 ** (digits - 1), 10 ** digits)
            at = k * Fraction(10) ** (e - digits + 1)
            for bits in (32, int(digits * math.log2(10)) + 8, 4 * digits + 100):
                for v in around(at, bits):
                    text = bound_text(numkernel._new_ball(numkernel._ZERO, v[1], v[2], 15), digits)
                    assert text == oracle_text(v, digits, ROUND_CEILING), (v, digits)


def test_far_exponents_print_without_mpmath():
    # A value and a radius past 3500 bits print in integers: a fresh
    # interpreter that writes them loads no mpmath module.
    code = ("import sys\n"
            "from euler_periods.numkernel import _ZERO, BigReal, _new_ball, bound_text, value_text\n"
            "print(value_text(BigReal.exact(3 ** 4000, 15)))\n"
            "print(bound_text(_new_ball(_ZERO, 3, -3700, 15), 3))\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'mpmath'))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True, timeout=120).stdout.splitlines()
    assert out == [oracle_text(BigReal.exact(3 ** 4000, 15)._mid, 15),
                   oracle_text(raw(0, 3, -3700), 3, ROUND_CEILING), "[]"]


# ---------------------------------------------------------------------------
# Relabelling and equality on the raw fields
# ---------------------------------------------------------------------------


def test_relabel_keeps_the_fields_and_checks_the_prec():
    x = BigReal.exact(Fraction(1, 3), numkernel.inner_prec(15, 6)) * 3
    y = numkernel._relabel(x, 15)
    assert (y._mid, y._man, y._exp, y.prec) == (x._mid, x._man, x._exp, 15)
    assert y == BigReal(x.value, x.err, 15)
    with pytest.raises(DomainError):
        numkernel._relabel(x, 101)


def test_equal_radii_written_apart_compare_and_hash_equal():
    v = BigReal.exact(Fraction(2, 3), 15)._mid
    a, b = (numkernel._new_ball(v, *numkernel._up(m, e), 15) for m, e in ((6, -60), (3, -59)))
    assert (a._man, a._exp) == (b._man, b._exp) == (3, -59)
    assert a == b and hash(a) == hash(b)
    assert a != numkernel._new_ball(v, *numkernel._up(7, -60), 15)


def canonical(x: BigReal) -> bool:
    """The radius is an odd integer below ``2**32`` times a power of 2, or ``(0, 0)``."""
    return x._man & 1 and x._man < 1 << 32 or (x._man, x._exp) == (0, 0)


def test_a_radius_written_two_ways_gives_one_ball_under_every_op():
    # Radius (m, e) and (m 2**k, e - k): the same ball, so the same fields
    # after + - * / by the same operand.  Before the radius had one form, a
    # term that fits _ball's window exactly in one and not in the other form
    # added a unit to one of them.
    rng = random.Random(91)
    for _ in range(2000):
        prec = rng.randint(1, 100)
        b = working_bits(prec)
        v = raw(rng.getrandbits(1), rng.getrandbits(rng.randint(1, b)) | 1, rng.randint(-b, b))
        # Radii below 2**40 units 41 or more bits under the midpoints' last bits, so no ball holds 0.
        m, e, k = rng.getrandbits(rng.randint(1, 40)) | 1, v[2] - rng.randint(41, 3 * b), rng.randint(1, 40)
        x = numkernel._new_ball(v, *numkernel._up(m, e), prec)
        x2 = numkernel._new_ball(v, *numkernel._up(m << k, e - k), prec)
        assert (x._mid, x._man, x._exp) == (x2._mid, x2._man, x2._exp) and canonical(x)
        w = raw(0, rng.getrandbits(rng.randint(1, 2 * b)) | 1, rng.randint(-b, b))
        ey = numkernel._up(rng.getrandbits(rng.randint(0, 40)), w[2] - rng.randint(41, 3 * b))
        y = numkernel._new_ball(w, *ey, prec)
        for z, z2 in ((x + y, x2 + y), (x - y, x2 - y), (x * y, x2 * y), (x / y, x2 / y), (y / x, y / x2)):
            assert (z._mid, z._man, z._exp) == (z2._mid, z2._man, z2._exp) and canonical(z), (x, y)
