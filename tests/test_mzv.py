"""Nested and alternating double sums against independent routes.

Closed forms used as oracles: zeta(1,2) = zeta(3) and zeta(1,1,2) = zeta(4)
(the classical telescoping identities), zeta(2,2) = pi^4/120 and
zeta(2,2,2) = pi^6/5040 (elementary symmetric functions of 1/k^2), and
zeta(1,3) = pi^4/360.  At every prec from 1 to 100 the evaluators must
also certify and cover zeta(1,1,3) = 2 zeta(5) - zeta(2) zeta(3),
zeta({4}^3) = 2^7 pi^12/14! and the weight-2 and weight-4 alternating
closed forms, computed by mpmath at 130 digits.  The alternating double
series is cross-checked with mpmath's Lerch transcendent.  The package's
polylog(4, 1/2) is a word of the same iterated-integral engine as multiphi,
so for multiphi(1,3) the independent route is the closed form above, with
Li4(1/2) from mpmath; the check against the package's polylog is one of
consistency.  Indices are written inner-first: the last part weights the
largest summation variable.
"""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from euler_periods.errors import DivergentIndex, DomainError, TooLarge
from euler_periods.eulerfun import polylog, zeta
from euler_periods.mzv import (
    CUTOFF_CAP,
    mzv,
    mzv_bruteforce,
    multiphi,
    p35_combination,
    stuffle_residual,
)
from euler_periods.numkernel import WEIGHT_CAP, _at_one, working_dps


def assert_close(x, ref, prec, slack=1):
    with mpmath.workdps(working_dps(x.prec) + 5):
        assert abs(x.value - ref) <= slack * mpf(10) ** (-prec)


# ---------------------------------------------------------------------------
# mzv values
# ---------------------------------------------------------------------------


def test_singleton_is_zeta():
    prec = 25
    x = mzv((3,), prec)
    with mpmath.workdps(working_dps(prec)):
        assert_close(x, mpmath.zeta(3), prec)


def test_euler_sum_formula():
    # zeta(1,2) = zeta(3): the inner harmonic weight telescopes.
    prec = 25
    x = mzv((1, 2), prec)
    with mpmath.workdps(working_dps(prec)):
        assert_close(x, mpmath.zeta(3), prec)


def test_depth3_telescoping():
    # zeta(1,1,2) = zeta(4).
    prec = 20
    x = mzv((1, 1, 2), prec)
    with mpmath.workdps(working_dps(prec)):
        assert_close(x, mpmath.zeta(4), prec)


def test_double_twos():
    prec = 25
    x = mzv((2, 2), prec)
    with mpmath.workdps(working_dps(prec)):
        assert_close(x, mpmath.pi ** 4 / 120, prec)


def test_one_three():
    prec = 25
    x = mzv((1, 3), prec)
    with mpmath.workdps(working_dps(prec)):
        assert_close(x, mpmath.pi ** 4 / 360, prec)


def test_triple_twos():
    prec = 20
    x = mzv((2, 2, 2), prec)
    with mpmath.workdps(working_dps(prec)):
        assert_close(x, mpmath.pi ** 6 / 5040, prec)


@pytest.mark.parametrize("idx", [(2, 3), (3, 2), (1, 4), (2, 6), (3, 5), (1, 2, 2), (2, 1, 3)])
def test_mzv_agrees_with_bruteforce(idx):
    prec = 15
    fast = mzv(idx, prec)
    slow = mzv_bruteforce(idx, 4000, prec)
    with mpmath.workdps(working_dps(prec) + 5):
        assert abs(fast.value - slow.value) <= fast.err + slow.err
    assert fast.certified()


def test_bruteforce_tail_bound_is_honest():
    # Tighten the cutoff; the certified interval must still contain the value.
    prec = 15
    ref = mzv((2, 3), 25)
    for cutoff in (60, 300, 2000):
        rough = mzv_bruteforce((2, 3), cutoff, prec)
        with mpmath.workdps(working_dps(prec) + 15):
            assert abs(rough.value - ref.value) <= rough.err + ref.err


def test_mzv_deterministic():
    assert repr(mzv((2, 3), 20)) == repr(mzv((2, 3), 20))


@pytest.mark.parametrize("idx", [(1,), (2, 1), (1, 1), (3, 2, 1)])
def test_trailing_one_diverges(idx):
    with pytest.raises(DivergentIndex):
        mzv(idx, 15)


def test_depth_cap():
    with pytest.raises(TooLarge):
        mzv((2, 2, 2, 2), 15)


@pytest.mark.parametrize("idx", [(), (0, 2), (-1, 2), (2.0, 3)])
def test_malformed_index(idx):
    with pytest.raises(DomainError):
        mzv(idx, 15)


def test_bruteforce_cutoff_validation():
    with pytest.raises(DomainError):
        mzv_bruteforce((2, 3), 2, 15)
    with pytest.raises(DomainError):
        mzv_bruteforce((2, 3), "many", 15)


# ---------------------------------------------------------------------------
# stuffle relation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_stuffle_residual_within_bound(m, n):
    r = stuffle_residual(m, n, 15)
    assert r.value <= r.err
    assert float(r.value) < 1e-14


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (0, 3), (2, 2.0)])
def test_stuffle_requires_parts_at_least_two(m, n):
    with pytest.raises(DomainError):
        stuffle_residual(m, n, 15)


# ---------------------------------------------------------------------------
# multiphi
# ---------------------------------------------------------------------------


def lerch_reference(m, n, dps=35):
    """Fold the inner alternating tail into Hurwitz zeta differences.

    sum((-1)**(k+l) k**-m l**-n, 0 < k < l)
        = -sum(k**-m * B(k), k >= 1)  with
    B(k) = sum((-1)**(j-1) (k+j)**-n, j >= 1)
         = 2**-n * (zeta(n, (k+1)/2) - zeta(n, (k+2)/2)),
    a sum of strictly negative terms with k**-(m+n) decay.  For n = 1 the
    Hurwitz difference is taken in digamma form.
    """
    with mpmath.workdps(dps):
        def term(k):
            a = mpmath.mpf(int(k) + 1)
            if n == 1:
                b = (mpmath.digamma((a + 1) / 2) - mpmath.digamma(a / 2)) / 2
            else:
                b = mpmath.mpf(2) ** (-n) * (mpmath.zeta(n, a / 2)
                                             - mpmath.zeta(n, (a + 1) / 2))
            return -b / mpmath.mpf(int(k)) ** m
        return mpmath.nsum(term, [1, mpmath.inf])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiphi_negative_and_matches_lerch_route(m, n):
    prec = 15
    x = multiphi((m, n), prec)
    assert x.value < 0
    assert x.certified()
    ref = lerch_reference(m, n)
    with mpmath.workdps(working_dps(prec) + 10):
        assert abs(x.value - ref) <= mpf(10) ** (-13)


def test_multiphi_pinned_value():
    x = multiphi((1, 3), 15)
    with mpmath.workdps(30):
        assert abs(x.value - mpf("-0.117875999650509")) < mpf("1e-14")


def test_multiphi_stable_under_cutoff_growth():
    a = multiphi((2, 2), 15, cutoff=64)
    b = multiphi((2, 2), 15, cutoff=128)
    with mpmath.workdps(40):
        assert abs(a.value - b.value) <= mpf("1e-8")


def test_multiphi_explicit_cutoff_reports_honest_bound():
    """A starved cutoff must widen err rather than raise or lie."""
    x = multiphi((1, 3), 15, cutoff=12)
    assert not x.certified()
    tight = multiphi((1, 3), 15)
    with mpmath.workdps(40):
        assert abs(x.value - tight.value) <= x.err + tight.err


@pytest.mark.parametrize("idx", [(2,), (1, 2, 3), (0, 2), (1, "3")])
def test_multiphi_index_validation(idx):
    with pytest.raises(DomainError):
        multiphi(idx, 15)


@pytest.mark.parametrize("cutoff", [3, -1, 12.0])
def test_multiphi_cutoff_validation(cutoff):
    with pytest.raises(DomainError):
        multiphi((1, 2), 15, cutoff=cutoff)


def test_multiphi_cutoff_cap():
    assert multiphi((1, 3), 15, cutoff=CUTOFF_CAP).certified()
    with pytest.raises(TooLarge):
        multiphi((1, 3), 15, cutoff=CUTOFF_CAP + 1)


def test_weight_cap():
    assert mzv((2, WEIGHT_CAP - 2), 15).certified()
    for idx in [(2, WEIGHT_CAP - 1), (2, 10 ** 8), (1, 1, WEIGHT_CAP)]:
        with pytest.raises(TooLarge):
            mzv(idx, 15)
    with pytest.raises(TooLarge):
        multiphi((1, WEIGHT_CAP), 15)


# ---------------------------------------------------------------------------
# Closed forms at every precision
# ---------------------------------------------------------------------------


def _closed_forms():
    with mpmath.workdps(130):
        z, pi, ln2 = mpmath.zeta, mpmath.pi, mpmath.log(2)
        return [
            (mzv, (1, 2), z(3)),
            (mzv, (2, 2), (z(2) ** 2 - z(4)) / 2),
            (mzv, (1, 1, 3), 2 * z(5) - z(2) * z(3)),
            (mzv, (2, 2, 2), pi ** 6 / 5040),
            (mzv, (4, 4, 4), 2 ** 7 * pi ** 12 / mpmath.factorial(14)),
            (multiphi, (1, 1), (ln2 ** 2 - z(2)) / 2),
            (multiphi, (1, 3), (-2 * mpmath.polylog(4, mpf(1) / 2) - ln2 ** 4 / 12
                                + pi ** 2 * ln2 ** 2 / 12 + pi ** 4 / 180)),
        ]


CLOSED_FORMS = _closed_forms()


@pytest.mark.parametrize("f,idx,ref", CLOSED_FORMS,
                         ids=[f"{f.__name__}{idx}" for f, idx, _ in CLOSED_FORMS])
def test_closed_forms_certify_and_cover_at_every_prec(f, idx, ref):
    for prec in range(1, 101):
        x = f(idx, prec)
        assert x.certified(), prec
        with mpmath.workdps(130):
            assert abs(x.value - ref) <= x.err, prec


@pytest.mark.parametrize("prec", [15, 50, 100])
def test_multiphi_one_three_matches_the_polylog_route(prec):
    # -2 Li4(1/2) - ln^4 2/12 + pi^2 ln^2 2/12 + pi^4/180, with
    # ln 2 = Li1(1/2), pi^2 = 6 zeta(2) and pi^4 = 90 zeta(4).
    half = Fraction(1, 2)
    ln2 = polylog(1, half, prec)
    ref = (polylog(4, half, prec) * -2 - ln2 ** 4 / 12
           + zeta(2, prec) * ln2 ** 2 / 2 + zeta(4, prec) / 2)
    x = multiphi((1, 3), prec)
    with mpmath.workdps(working_dps(prec) + 10):
        assert abs(x.value - ref.value) <= x.err + ref.err


@pytest.mark.parametrize("n", [2, 3, 7])
def test_engine_depth_one_agrees_with_zeta(n):
    # The Hoelder split of the word 0**(n-1) 1 against the Euler-Maclaurin route.
    for prec in range(1, 101, 9):
        x = _at_one([0] * (n - 1) + [1], prec)
        ref = zeta(n, prec)
        with mpmath.workdps(working_dps(prec) + 10):
            assert abs(x.value - ref.value) <= x.err + ref.err
        assert x.certified()


# ---------------------------------------------------------------------------
# weight-8 combination
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prec", [1, 14, 50, 80])
def test_derived_combinations_report_the_callers_prec(prec):
    # Both work at a few digits more inside, and must not hand that back.
    assert p35_combination(prec).prec == prec
    assert stuffle_residual(2, 3, prec).prec == prec


def test_p35_combination_value():
    x = p35_combination(14)
    with mpmath.workdps(40):
        assert abs(x.value - mpf("0.24828500623806")) <= mpf("2e-14")
    assert x.certified()
