"""Nested and alternating sums of any depth against independent routes.

Closed forms used as oracles: zeta(1,2) = zeta(3) and zeta(1,1,2) = zeta(4)
(the classical telescoping identities), zeta(2,2) = pi^4/120 and
zeta(2,2,2) = pi^6/5040 (elementary symmetric functions of 1/k^2), and
zeta(1,3) = pi^4/360.  At every prec from 1 to 100 the evaluators must
also certify and cover zeta(1,1,3) = 2 zeta(5) - zeta(2) zeta(3),
zeta(1,1,1,2) = zeta(5), zeta({4}^3) = 2^7 pi^12/14! and the weight-2 and
weight-4 alternating closed forms, computed by mpmath at 130 digits.  The alternating double
series is cross-checked with mpmath's Lerch transcendent.  The package's
polylog(4, 1/2) is a word of the same iterated-integral engine as multiphi,
so for multiphi(1,3) the independent route is the closed form above, with
Li4(1/2) from mpmath; the check against the package's polylog is one of
consistency.  Indices are written inner-first: the last part weights the
largest summation variable.

At every depth, against routes outside the engine: the sum theorem (the
zeta values of the admissible indices of weight w and depth d sum to
zeta(w), Granville 1997) against the Euler-Maclaurin zeta; the families
zeta({2}^n) = pi^(2n)/(2n+1)! and zeta({1,3}^n) = 2 pi^(4n)/(4n+2)!
(Borwein, Bradley, Broadhurst and Lisonek, arXiv:math/9812020) and
Zagier's zeta({2}^a, 3, {2}^b) (Ann. of Math. 175 (2012) 977) against
mpmath; the all-alternating sums of parts 1, the elementary symmetric
functions of (-1)^k/k, by Newton's identities from mpmath's power sums.
Duality and the quasi-shuffle product (Hoffman, J. Algebra 194 (1997)) use
the engine on both sides with different words, so they check its
arithmetic and word convention.
"""

import math
import sys
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from mpmath import mpf

from euler_periods.errors import DivergentIndex, DomainError, TooLarge
from euler_periods.eulerfun import phi, polylog, zeta
from euler_periods.mzv import (
    _log_poly_tail,
    mzv,
    mzv_bruteforce,
    multiphi,
    p35_combination,
    stuffle_residual,
)
from euler_periods.numkernel import (BRUTEFORCE_STEP_CAP, MAX_PREC, MIN_PREC, WEIGHT_CAP, BigReal,
                                     working_dps, zeta_values, _at_one, _finish, _word)
from test_numkernel import ref_rounding


def assert_close(x, ref, prec, slack=1):
    with mpmath.workdps(working_dps(x.prec) + 5):
        assert abs(x.value - ref) <= slack * mpf(10) ** (-prec)


# ---------------------------------------------------------------------------
# mzv values
# ---------------------------------------------------------------------------


def test_singleton_is_zeta():
    # mzv((3,)) is zeta(3)'s bits; the engine on its word 0 0 1 is checked on its own.
    prec = 25
    x, engine = mzv((3,), prec), _at_one([0, 0, 1], prec)
    assert engine.certified()
    with mpmath.workdps(130):
        assert abs(engine.value - mpmath.zeta(3)) <= engine.err
        assert abs(x.value - mpmath.zeta(3)) <= x.err


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


@pytest.mark.parametrize("idx", [(2, 3), (3, 2), (1, 4), (2, 6), (3, 5), (1, 2, 2), (2, 1, 3),
                                 (1, 2, 2, 3), (2, 2, 2, 2), (1, 1, 1, 1, 2), (2, 1, 2, 1, 3)])
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


@pytest.mark.parametrize("cutoff", [9, 10, 12, 16, 40])
def test_bruteforce_tail_bound_covers_while_the_summand_rises(cutoff):
    # With seven parts equal to 1, k**-2 (1 + log k)**7 rises up to k = e**2.5.
    idx = (1,) * 7 + (2,)
    rough = mzv_bruteforce(idx, cutoff, 15)
    with mpmath.workdps(40):
        assert abs(rough.value - mpmath.zeta(9)) <= rough.err


def reference_bruteforce(idx, cutoff, prec):
    """The nested sum of :func:`mzv_bruteforce` as it was before BigReal: mpf running sums.

    Summed in an mpmath context at the working precision, with the
    first-order count of :func:`ref_rounding` in place of an enclosure.
    """
    d = len(idx)
    with mpmath.workdps(working_dps(prec)):
        s = [mpf(1)] + [mpf(0)] * d
        for m in range(1, cutoff + 1):
            for j in range(d, 0, -1):
                s[j] += mpf(m) ** -idx[j - 1] * s[j - 1]
        caps = mpf(1)
        for part in idx[:-1]:
            if part >= 2:
                caps *= 1 + mpf(1) / (part - 1)
        log_k = Fraction(math.log(cutoff)) + Fraction(1, 10 ** 9)  # at or above log(cutoff)
        tail = _log_poly_tail(cutoff, idx[-1], idx[:-1].count(1), log_k)
        tail = mpf(tail.numerator) / tail.denominator * caps
        # Each level adds (cutoff + 3) 2**-prec relative: d (cutoff + 3) / 2 counts.
        return BigReal(s[d], tail + ref_rounding(s[d], d * (cutoff + 3) / 2), prec)


#: Indices with closed forms, each with a cutoff that keeps the sweep quick.
BRUTEFORCE_CLOSED = [((7,), 20, lambda: mpmath.zeta(7)), ((1, 2), 40, lambda: mpmath.zeta(3)),
                     ((2, 2), 30, lambda: mpmath.pi ** 4 / 120), ((1, 3), 30, lambda: mpmath.pi ** 4 / 360),
                     ((1, 1, 2), 20, lambda: mpmath.zeta(4))]


@pytest.mark.parametrize("idx, cutoff, closed", BRUTEFORCE_CLOSED, ids=[str(c[0]) for c in BRUTEFORCE_CLOSED])
def test_bruteforce_keeps_the_value_bits_of_its_mpf_sums(idx, cutoff, closed):
    # The BigReal sums round as the mpf ones did, so only the bound moves; it covers the closed form.
    with mpmath.workdps(130):
        ref = closed()
    for prec in range(1, 101):
        x, old = mzv_bruteforce(idx, cutoff, prec), reference_bruteforce(idx, cutoff, prec)
        assert x.value._mpf_ == old.value._mpf_, prec
        with mpmath.workdps(130):
            assert abs(x.value - ref) <= x.err, prec


def test_mzv_deterministic():
    assert repr(mzv((2, 3), 20)) == repr(mzv((2, 3), 20))


@pytest.mark.parametrize("idx", [(1,), (2, 1), (1, 1), (3, 2, 1)])
def test_trailing_one_diverges(idx):
    with pytest.raises(DivergentIndex):
        mzv(idx, 15)


@pytest.mark.parametrize("idx", [(), (0, 2), (-1, 2), (2.0, 3)])
def test_malformed_index(idx):
    with pytest.raises(DomainError):
        mzv(idx, 15)


def test_bruteforce_cutoff_validation():
    with pytest.raises(DomainError):
        mzv_bruteforce((2, 3), 2, 15)
    with pytest.raises(DomainError):
        mzv_bruteforce((2, 3), "many", 15)


def test_bruteforce_refuses_a_huge_cutoff_before_summing(monkeypatch):
    # A step costs about 10 us: 10**9 steps would run for hours.  Each step
    # makes its term's ball, so none may be made before the refusal.
    def no_term(*args):
        raise AssertionError("summed before refusing")

    monkeypatch.setattr(sys.modules["euler_periods.mzv"], "_ratio", no_term)
    for idx, cutoff in [((2, 3), 10 ** 9), ((2, 3), BRUTEFORCE_STEP_CAP // 2 + 1),
                        ((1, 1, 1, 1, 2), BRUTEFORCE_STEP_CAP // 5 + 1)]:
        with pytest.raises(TooLarge, match="cutoff"):
            mzv_bruteforce(idx, cutoff, 15)


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


def alternating_reference(idx, n=2000, dps=40):
    """The all-alternating nested sum by running sums to ``n`` and ``n + 1`` terms, averaged.

    Averaging cancels the leading alternating tail term.  For the indices
    tested the rest falls eightfold or more per doubling of ``n`` and is
    below 3e-11 at the default ``n``; an inner part 1 with a last part
    below 3 converges far slower.
    """
    with mpmath.workdps(dps):
        s = [mpf(1)] + [mpf(0)] * len(idx)
        for m in range(1, n + 2):
            last = s[-1]
            for j in range(len(idx), 0, -1):
                s[j] += (-1) ** m * mpf(m) ** -idx[j - 1] * s[j - 1]
        return (last + s[-1]) / 2


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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_multiphi_depth_one_is_minus_phi(n):
    # multiphi((n,)) is -phi(n)'s bits; the engine word 0**(n-1) -1 and mpmath are other routes.
    for prec in (1, 15, 50, 100):
        x, engine = multiphi((n,), prec), _at_one(_word((n,), (-1,)), prec)
        assert x.certified() and engine.certified()
        with mpmath.workdps(130):
            assert abs(x.value - engine.value) <= x.err + engine.err
            assert abs(x.value + mpmath.altzeta(n)) <= x.err
            assert abs(engine.value + mpmath.altzeta(n)) <= engine.err


@pytest.mark.parametrize("idx", [(1, 2, 3), (2, 1, 3), (2, 2, 2), (1, 1, 1, 3)])
def test_multiphi_depth3_and_4_match_running_sums(idx):
    x = multiphi(idx, 15)
    assert x.certified()
    with mpmath.workdps(40):
        assert abs(x.value - alternating_reference(idx)) <= mpf("1e-10")


def test_multiphi_pinned_value():
    x = multiphi((1, 3), 15)
    with mpmath.workdps(30):
        assert abs(x.value - mpf("-0.117875999650509")) < mpf("1e-14")


def multiphi_word(idx) -> list:
    """The engine word of ``multiphi(idx)``, letters alternating from -1 outermost."""
    return _word(idx[::-1], (-1, 1) * len(idx))


def test_multiphi_stable_under_term_growth():
    a = _at_one(multiphi_word((2, 2)), 15, 64)
    b = _at_one(multiphi_word((2, 2)), 15, 128)
    with mpmath.workdps(40):
        assert abs(a.value - b.value) <= mpf("1e-8")


def test_multiphi_word_with_few_terms_reports_honest_bound():
    """Starved of series terms, the engine widens err rather than raise or lie."""
    x = _at_one(multiphi_word((1, 3)), 15, 12)
    assert not x.certified()
    tight = multiphi((1, 3), 15)
    assert _at_one(multiphi_word((1, 3)), 15) == tight
    with mpmath.workdps(40):
        assert abs(x.value - tight.value) <= x.err + tight.err


@pytest.mark.parametrize("idx", [(), (0, 2), (1, "3")])
def test_multiphi_index_validation(idx):
    with pytest.raises(DomainError):
        multiphi(idx, 15)


def test_weight_cap():
    assert mzv((2, WEIGHT_CAP - 2), 15).certified()
    for idx in [(2, WEIGHT_CAP - 1), (2, 10 ** 8), (1, 1, WEIGHT_CAP)]:
        with pytest.raises(TooLarge):
            mzv(idx, 15)
    with pytest.raises(TooLarge):
        multiphi((1, WEIGHT_CAP), 15)
    # Depth 1 calls zeta and phi, which have no weight, after the same check.
    assert mzv((WEIGHT_CAP,), 15) == zeta(WEIGHT_CAP, 15)
    assert multiphi((WEIGHT_CAP,), 15) == -phi(WEIGHT_CAP, 15)
    for depth_one in (mzv, multiphi):
        with pytest.raises(TooLarge, match=f"weight {WEIGHT_CAP + 1} exceeds"):
            depth_one((WEIGHT_CAP + 1,), 15)
    with pytest.raises(TooLarge):
        mzv_bruteforce((2, WEIGHT_CAP - 1), 10, 15)


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
            (mzv, (1, 1, 1, 2), z(5)),
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


# ---------------------------------------------------------------------------
# Exact oracles at every depth
# ---------------------------------------------------------------------------


def compositions(w, d):
    """Every index of weight ``w`` and depth ``d``."""
    for cuts in combinations(range(1, w), d - 1):
        ends = (0,) + cuts + (w,)
        yield tuple(b - a for a, b in zip(ends, ends[1:]))


@pytest.mark.parametrize("prec", [1, 15, 50, 100])
def test_sum_theorem(prec):
    # Over the admissible indices of weight w and depth d, the zeta values sum to zeta(w).
    for w in range(2, 13):
        ref = zeta(w, prec)
        for d in range(1, w):
            xs = [mzv(idx, prec) for idx in compositions(w, d) if idx[-1] >= 2]
            with mpmath.workdps(working_dps(prec) + 10):
                total = mpmath.fsum(x.value for x in xs)
                bound = mpmath.fsum(x.err for x in xs) + ref.err
                assert abs(total - ref.value) <= bound, (w, d)


def _families():
    with mpmath.workdps(130):
        pi, fact = mpmath.pi, mpmath.factorial
        return ([((2,) * n, pi ** (2 * n) / fact(2 * n + 1)) for n in range(1, 9)]
                + [((1, 3) * n, 2 * pi ** (4 * n) / fact(4 * n + 2)) for n in range(1, 5)])


FAMILIES = _families()


@pytest.mark.parametrize("idx,ref", FAMILIES, ids=[str(idx) for idx, _ in FAMILIES])
def test_closed_form_families(idx, ref):
    for prec in (1, 15, 50, 100):
        x = mzv(idx, prec)
        assert x.certified(), prec
        with mpmath.workdps(130):
            assert abs(x.value - ref) <= x.err, prec


def zagier(a, b):
    """zeta({2}^a, 3, {2}^b), inner-first, by Zagier's formula in zeta(odd) and pi."""
    with mpmath.workdps(130):
        k = a + b + 1
        h = lambda m: mpmath.pi ** (2 * m) / mpmath.factorial(2 * m + 1)
        return 2 * mpmath.fsum(
            (-1) ** r * (mpmath.binomial(2 * r, 2 * a + 2)
                         - (1 - mpf(2) ** (-2 * r)) * mpmath.binomial(2 * r, 2 * b + 1))
            * h(k - r) * mpmath.zeta(2 * r + 1) for r in range(1, k + 1))


@pytest.mark.parametrize("a,b", [(1, 0), (0, 1), (3, 0), (1, 2), (2, 2)])
def test_zagier_two_three_two(a, b):
    idx = (2,) * a + (3,) + (2,) * b
    for prec in (1, 15, 100):
        x = mzv(idx, prec)
        with mpmath.workdps(130):
            assert abs(x.value - zagier(a, b)) <= x.err, prec


def dual(idx):
    """The index of the dual word: reverse the word and swap its letters 0 and 1."""
    word = "".join("0" * (n - 1) + "1" for n in reversed(idx))
    tau = word[::-1].translate(str.maketrans("01", "10"))
    return tuple(len(zeros) + 1 for zeros in tau.split("1")[:-1])[::-1]


def test_duality():
    assert dual((1, 2)) == (3,)
    indices = [idx for w in range(2, 9) for d in range(1, w)
               for idx in compositions(w, d) if idx[-1] >= 2]
    assert len(indices) == 127
    for prec in (15, 100):
        for idx in indices:
            x, y = mzv(idx, prec), mzv(dual(idx), prec)
            with mpmath.workdps(working_dps(prec) + 10):
                assert abs(x.value - y.value) <= x.err + y.err, idx


def stuffles(a, b):
    """The quasi-shuffle products of two inner-first indices, with multiplicity.

    The largest summation variable belongs to ``a``, to ``b``, or to both.
    """
    if not a or not b:
        return [a + b]
    return ([c + a[-1:] for c in stuffles(a[:-1], b)]
            + [c + b[-1:] for c in stuffles(a, b[:-1])]
            + [c + (a[-1] + b[-1],) for c in stuffles(a[:-1], b[:-1])])


@pytest.mark.parametrize("a,b", [((2,), (2,)), ((2, 3), (1, 2)), ((1, 3), (1, 2, 2)),
                                 ((2, 2, 2), (3, 1, 2))])
def test_quasi_shuffle_product(a, b):
    # zeta(a) zeta(b) = sum of zeta(c) over the quasi-shuffles c (Hoffman 1997).
    assert stuffles((2,), (3,)) == [(3, 2), (2, 3), (5,)]  # the stuffle_residual relation
    for prec in (15, 100):
        x, y = mzv(a, prec), mzv(b, prec)
        zs = [mzv(c, prec) for c in stuffles(a, b)]
        with mpmath.workdps(working_dps(prec) + 10):
            bound = x.err * abs(y.value) + y.err * abs(x.value) + x.err * y.err
            bound += mpmath.fsum(z.err for z in zs)
            assert abs(x.value * y.value - mpmath.fsum(z.value for z in zs)) <= bound


def _newton():
    """multiphi((1,)*d), d = 0..6: e_d of (-1)**k/k from the power sums
    -ln 2, zeta(2j) and -phi(2j+1)."""
    with mpmath.workdps(130):
        p = [None, -mpmath.log(2)] + [mpmath.zeta(j) if j % 2 == 0 else -mpmath.altzeta(j)
                                      for j in range(2, 7)]
        e = [mpf(1)]
        for d in range(1, 7):
            e.append(mpmath.fsum((-1) ** (i - 1) * e[d - i] * p[i] for i in range(1, d + 1)) / d)
        return e


NEWTON = _newton()


@pytest.mark.parametrize("d", range(1, 7))
def test_multiphi_ones_match_newton_identities(d):
    for prec in (1, 15, 50, 100):
        x = multiphi((1,) * d, prec)
        assert x.certified(), prec
        with mpmath.workdps(130):
            assert abs(x.value - NEWTON[d]) <= x.err, prec


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
    # The Hoelder split of the word 0**(n-1) 1 against mpmath's zeta, which mzv((n,)) no longer runs.
    with mpmath.workdps(130):
        ref = mpmath.zeta(n)
    for prec in range(1, 101, 9):
        x = _at_one([0] * (n - 1) + [1], prec)
        with mpmath.workdps(130):
            assert abs(x.value - ref) <= x.err
        assert x.certified()


#: The integer arguments whose zeta and phi have one route each.
ONE_ROUTE = range(2, 21)


def test_zeta_at_an_integer_has_one_route_at_every_prec():
    # zeta(n), mzv((n,)), polylog(n, 1) and the zeta_values entry, finished, are one set of bits.
    with mpmath.workdps(130):
        refs = [mpmath.zeta(n) for n in ONE_ROUTE]
    for prec in range(MIN_PREC, MAX_PREC + 1):
        bits, batch = zeta_values(ONE_ROUTE[-1], prec)
        for n, (total, err), ref in zip(ONE_ROUTE, batch, refs):
            x = zeta(n, prec)
            assert x == mzv((n,), prec) == polylog(n, 1, prec) == _finish(total, bits, err, prec), (n, prec)
            assert x.certified(), (n, prec)
            with mpmath.workdps(130):
                assert abs(x.value - ref) <= x.err, (n, prec)


def test_phi_at_an_integer_has_one_route_at_every_prec():
    # phi(n), -polylog(n, -1) and -multiphi((n,)) are one set of bits; phi(1) and -multiphi((1,)) too.
    with mpmath.workdps(130):
        refs = [mpmath.altzeta(n) for n in ONE_ROUTE]
        ln2 = mpmath.log(2)
    for prec in range(MIN_PREC, MAX_PREC + 1):
        for n, ref in zip(ONE_ROUTE, refs):
            x = phi(n, prec)
            assert x == -polylog(n, -1, prec) == -multiphi((n,), prec), (n, prec)
            assert x.certified(), (n, prec)
            with mpmath.workdps(130):
                assert abs(x.value - ref) <= x.err, (n, prec)
        x = phi(1, prec)
        assert x == -multiphi((1,), prec) and x.certified(), prec
        with mpmath.workdps(130):
            assert abs(x.value - ln2) <= x.err, prec


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
