"""The integer rounding and the decimal writer of numkernel, against mpmath.libmp.

``BigReal``'s ``+ - * /``, its constructors and ``_finish`` round in Python
integers, and ``value_text``, ``bound_text`` and the argument echo of the
evaluators print through one integer writer.  Both must give libmp's bits
and bytes, at every working precision the kernel admits.
"""

import random
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp
from mpmath.libmp import round_nearest as RN

from euler_periods import numkernel
from euler_periods.errors import DomainError
from euler_periods.numkernel import INNER_TOP, BigReal, bound_text, value_text, working_bits, working_dps

#: Every binary precision an op rounds at, from prec 1 to the inner top.
BITS = sorted({working_bits(p) for p in range(1, INNER_TOP + 1)})


def test_working_bits_is_dps_to_prec_of_the_working_digits():
    for p in range(1, INNER_TOP + 1):
        assert working_bits(p) == libmp.dps_to_prec(working_dps(p)), p
    for dps in range(0, 2000):
        assert numkernel.dps_to_prec(dps) == libmp.dps_to_prec(dps), dps


def raw(sign: int, man: int, exp: int) -> tuple:
    """The exact raw tuple of ``(-1)**sign man 2**exp``, by libmp."""
    return libmp.from_man_exp(-man if sign else man, exp)


def operand_pairs(rng: random.Random, b: int):
    """Pairs ``(s, t)`` of raw tuples that reach every branch of libmp's add, mul and div."""
    def rand(bits: int | None = None, exp: int | None = None) -> tuple:
        bits = rng.randint(1, 2 * b + 10) if bits is None else bits
        exp = rng.randint(-3 * b, 3 * b) if exp is None else exp
        return raw(rng.getrandbits(1), rng.getrandbits(bits) | 1 << bits - 1, exp)

    for _ in range(40):  # random operands, as wide as a relabelled midpoint
        yield rand(), rand()
    for _ in range(20):  # exponent gaps past 100 bits: libmp's sticky-bit path, both ways round
        s = rand()
        t = rand(exp=s[2] - rng.randint(101, 3 * b + 300))
        yield s, t
        yield t, s
    for _ in range(10):  # near the gap's edges, where the sticky bit starts
        s = rand(bits=rng.randint(1, b + 8))
        t = rand(bits=rng.randint(1, b + 8), exp=s[2] - rng.randint(95, 110))
        yield s, t
    # A midpoint 20 bits wider than b, just below a half unit, and a wide
    # operand 101 bits below it worth 2**14 of its last bits: the exact sum
    # rounds up, libmp's sticky bit down.  So the sticky bit must be kept.
    s = raw(0, (1 << b - 1 | 5) << 20 | (1 << 19) - 1, 0)
    yield s, raw(0, (1 << 115) + 1, -101)
    yield raw(0, (1 << 115) + 1, -101), s
    for _ in range(5):  # exact cancellation
        s = rand()
        yield s, s
        yield s, libmp.mpf_neg(s)
    for _ in range(10):  # half-even ties of a sum: b bits plus a half unit, odd and even
        man = rng.getrandbits(b - 1) | 1 << b - 1
        exp = rng.randint(-b, b)
        half = raw(0, 1, exp - 1)
        yield raw(0, man, exp), half
        yield raw(1, man | 1, exp), raw(1, 1, exp - 1)
    for _ in range(5):  # products with b + 1 or b + 2 bits, some of them ties
        k = rng.randint(1, b + 1)
        yield rand(bits=k), rand(bits=b + 2 - k)
    zero = libmp.fzero
    for s in (rand(), rand(bits=1), raw(1, 1, 0)):  # zeros and signs
        yield s, zero
        yield zero, s
    yield zero, zero


def test_integer_ops_round_as_libmp_at_every_working_precision():
    rng = random.Random(35)
    for b in BITS:
        for s, t in operand_pairs(rng, b):
            assert numkernel._add(s, t, b) == libmp.mpf_add(s, t, b, RN), (s, t, b)
            assert numkernel._add(s, t, b, 1) == libmp.mpf_sub(s, t, b, RN), (s, t, b)
            assert numkernel._mul(s, t, b) == libmp.mpf_mul(s, t, b, RN), (s, t, b)
            if t[1]:
                assert numkernel._div(s, t, b) == libmp.mpf_div(s, t, b, RN), (s, t, b)
            for x in (s, t):
                assert numkernel._round(x[0], x[1], x[2], b) == libmp.mpf_pos(x, b, RN), (x, b)


def test_round_and_exact_are_from_man_exp_with_and_without_precision():
    rng = random.Random(350)
    for b in BITS:
        for _ in range(60):
            man = rng.getrandbits(rng.randint(0, 3 * b)) << rng.choice((0, 0, rng.randint(1, 40)))
            if rng.random() < 0.2:  # a tie at b bits: b + 1 bits ending in 1
                man = (rng.getrandbits(b) | 1 << b) << 1 | 1
            sign, exp = rng.getrandbits(1), rng.randint(-4 * b, 4 * b)
            signed = -man if sign else man
            assert numkernel._round(sign, man, exp, b) == libmp.from_man_exp(signed, exp, b, RN), (man, exp, b)
            assert numkernel._exact(sign, man, exp) == libmp.from_man_exp(signed, exp), (man, exp)
    for n in (0, 1, -1, 2, -6, 10 ** 40, -(2 ** 200)):
        assert numkernel._exact(int(n < 0), abs(n), 0) == libmp.from_int(n)


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


def test_writer_prints_as_libmp_to_str_on_random_midpoints():
    rng = random.Random(3500)
    for _ in range(4000):
        man = rng.getrandbits(rng.randint(1, 400)) | 1
        v = raw(rng.getrandbits(1), man, rng.randint(-700, 400))
        dps = rng.randint(1, 120)
        assert numkernel._decimal_text(v, dps) == libmp.to_str(v, dps), (v, dps)


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
    nines = libmp.from_str("9.9996", 200, RN)
    assert numkernel._decimal_text(nines, 4) == libmp.to_str(nines, 4) == "10.0"
    for dps in range(1, 121):
        low = min(-(dps // 3), -5)
        for text in (f"1e{dps - 1}", f"1e{dps}", f"9.{'9' * dps}e{dps - 1}", f"1e{low}", f"1e{low + 1}",
                     f"9.{'9' * dps}5e{low}", f"-5e{low}", f"0.{'9' * (dps + 2)}", "1", "-1"):
            for v in near(text):
                assert numkernel._decimal_text(v, dps) == libmp.to_str(v, dps), (text, dps)


def test_writer_zero_and_the_far_exponents():
    assert numkernel._decimal_text(libmp.fzero, 15) == libmp.to_str(libmp.fzero, 15) == "0.0"
    for exp in (3400, 3600, -3600, -3700, 10 ** 6):
        for dps in (1, 15, 50):
            v = raw(1, 123456789, exp)
            assert numkernel._decimal_text(v, dps) == libmp.to_str(v, dps), (exp, dps)


def test_value_text_is_the_writer_on_the_midpoint():
    rng = random.Random(36)
    for _ in range(300):
        prec = rng.randint(1, 100)
        x = BigReal.exact(Fraction(rng.getrandbits(200) - 2 ** 199, rng.getrandbits(150) + 1), prec)
        digits = rng.randint(1, prec + 2)
        assert value_text(x, digits) == libmp.to_str(x._mid, digits)


def least_decimal_at_or_above(err: Fraction, digits: int) -> Decimal:
    """The least decimal of ``digits`` significant digits at or above a dyadic ``err > 0``, by Python's decimal."""
    exact = Context(prec=2000).divide(Decimal(err.numerator), Decimal(err.denominator))  # exact for these
    return Context(prec=digits, rounding=ROUND_CEILING).plus(exact)


def test_bound_text_writes_what_the_libmp_route_wrote():
    # The route before the integer writer: the least decimal at or above the
    # bound, read back through libmp at 64 bits and written by to_str.
    rng = random.Random(37)
    for _ in range(3000):
        man, exp = rng.getrandbits(rng.randint(1, 64)) | 1, rng.randint(-520, 200)
        digits = rng.randint(1, 5)
        q = least_decimal_at_or_above(Fraction(man) * Fraction(2) ** exp, digits)
        old = libmp.to_str(libmp.from_str(str(q), 64, RN), digits)
        assert bound_text(numkernel._new_ball(numkernel._ZERO, man, exp, 15), digits) == old, (man, exp, digits)


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
    a, b = numkernel._new_ball(v, 6, -60, 15), numkernel._new_ball(v, 3, -59, 15)
    assert a == b and hash(a) == hash(b)
    assert a != numkernel._new_ball(v, 7, -60, 15)
