"""Zeta, phi, polylog and Euler-constant tests against outside references.

Reference values come from mpmath's own implementations (zeta, altzeta,
polylog, euler), from closed forms in pi and log 2, or from both; none of
them share code with the evaluators under test.
"""

import random
import re
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from euler_periods import eulerfun, numkernel
from euler_periods.errors import DomainError, InputError, PrecisionNotMet, TooLarge
from euler_periods.eulerfun import (
    IdentityKind,
    MAX_PRIME_BOUND,
    gamma_const,
    identity_residual,
    phi,
    polylog,
    zeta,
    zeta_even_closed,
)
from euler_periods.numkernel import (DIGIT_CAP, INNER_DIGITS, MAX_PREC, MIN_PREC, WEIGHT_CAP, working_dps,
                                     zeta_values, _at_one, _word)
from test_numkernel import _mp, ref_rounding
from test_rounding import _true_residual


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def test_zeta2_is_pi_squared_over_six():
    prec = 30
    z = zeta(2, prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(z.value - mpmath.pi ** 2 / 6) <= mpf(10) ** (-prec)
    assert z.certified()


@pytest.mark.parametrize("s", [3, 4, 5, "2.5", "1.5", 8])
def test_zeta_matches_mpmath(s):
    prec = 25
    z = zeta(s, prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(z.value - mpmath.zeta(mpf(s))) <= mpf(10) ** (-prec)


def test_zeta_accepts_fraction_argument():
    z = zeta(Fraction(7, 2), 20)
    with mpmath.workdps(30):
        assert abs(z.value - mpmath.zeta(mpf(7) / 2)) <= mpf("1e-20")


@pytest.mark.parametrize("s", [1, 0, "0.5", -2])
def test_zeta_domain_ends_at_one(s):
    with pytest.raises(DomainError):
        zeta(s, 15)


def test_zeta_at_one_mentions_divergence():
    with pytest.raises(DomainError) as exc:
        zeta(1, 15)
    assert "diverge" in str(exc.value)


def test_zeta_deterministic():
    assert repr(zeta(3, 30)) == repr(zeta(3, 30))


@pytest.mark.parametrize("n,expected", [
    (1, Fraction(1, 6)),
    (2, Fraction(1, 90)),
    (3, Fraction(1, 945)),
    (4, Fraction(1, 9450)),
    (5, Fraction(1, 93555)),
])
def test_zeta_even_closed_table(n, expected):
    assert zeta_even_closed(n) == expected


def test_zeta_even_closed_consistent_with_zeta():
    prec = 30
    for n in (1, 2, 3):
        r = zeta_even_closed(n)
        z = zeta(2 * n, prec)
        with mpmath.workdps(working_dps(prec)):
            closed = mpf(r.numerator) / r.denominator * mpmath.pi ** (2 * n)
            assert abs(z.value - closed) <= mpf(10) ** (-prec)


@pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
def test_zeta_even_closed_rejects(bad):
    with pytest.raises(DomainError):
        zeta_even_closed(bad)


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def test_phi_at_one_is_log_two():
    prec = 30
    p = phi(1, prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(p.value - mpmath.log(2)) <= mpf(10) ** (-prec)


@pytest.mark.parametrize("s", [2, 3, "2.5", 6])
def test_phi_zeta_relation_above_one(s):
    # phi(s) = (1 - 2**(1-s)) zeta(s) for s > 1.  zeta is phi's pass divided
    # by that factor, so the zeta here is mpmath's.
    prec = 25
    p = phi(s, prec)
    with mpmath.workdps(working_dps(prec) + 5):
        sv = mpf(s)
        assert abs(p.value - (1 - 2 ** (1 - sv)) * mpmath.zeta(sv)) <= 2 * mpf(10) ** (-prec)


@pytest.mark.parametrize("s", ["0.5", "0.25", 1, "1.75"])
def test_phi_matches_mpmath_altzeta(s):
    prec = 25
    p = phi(s, prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(p.value - mpmath.altzeta(mpf(s))) <= mpf(10) ** (-prec)


@pytest.mark.parametrize("s", [0, "-0.5", -3, "abc", None, float("inf"), float("nan")])
def test_phi_needs_positive_s(s):
    with pytest.raises(DomainError):
        phi(s, 15)


# ---------------------------------------------------------------------------
# polylog
# ---------------------------------------------------------------------------


def test_li1_is_minus_log1p():
    prec = 25
    x = polylog(1, Fraction(1, 2), prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(x.value - mpmath.log(2)) <= mpf(10) ** (-prec)
    y = polylog(1, -1, prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(y.value + mpmath.log(2)) <= mpf(10) ** (-prec)


@pytest.mark.parametrize("k", [5, 10, 20, 40])
@pytest.mark.parametrize("prec", [15, 50, 100])
def test_li1_near_one_covers_mpmath(k, prec):
    # 1 - z is taken from the exact rational: rounding z first would cancel.
    x = polylog(1, 1 - Fraction(1, 10 ** k), prec)
    assert x.certified()
    with mpmath.workdps(130):
        assert abs(x.value - k * mpmath.log(10)) <= x.err


def test_li2_half_closed_form():
    # Li_2(1/2) = pi^2/12 - log(2)^2/2.
    prec = 30
    x = polylog(2, Fraction(1, 2), prec)
    with mpmath.workdps(working_dps(prec)):
        ref = mpmath.pi ** 2 / 12 - mpmath.log(2) ** 2 / 2
        assert abs(x.value - ref) <= mpf(10) ** (-prec)


def test_li3_half_closed_form():
    # Li_3(1/2) = 7 zeta(3)/8 - pi^2 log(2)/12 + log(2)^3/6.
    prec = 30
    x = polylog(3, Fraction(1, 2), prec)
    with mpmath.workdps(working_dps(prec)):
        ref = (7 * mpmath.zeta(3) / 8 - mpmath.pi ** 2 * mpmath.log(2) / 12
               + mpmath.log(2) ** 3 / 6)
        assert abs(x.value - ref) <= mpf(10) ** (-prec)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_li_at_one_is_zeta(n):
    # polylog(n, 1) is zeta(n)'s bits; the engine on the word 0**(n-1) 1 is another route.
    prec = 20
    x, engine = polylog(n, 1, prec), _at_one(_word((n,), (1,)), prec)
    with mpmath.workdps(130):
        assert abs(x.value - mpmath.zeta(n)) <= x.err
        assert abs(x.value - engine.value) <= x.err + engine.err


@pytest.mark.parametrize("n", [2, 3, 5])
def test_li_at_minus_one_is_minus_phi(n):
    # Li_n(-1) = -phi(n); for n = 2 this is -pi^2/12 (negative, not positive).
    prec = 20
    x = polylog(n, -1, prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(x.value + mpmath.altzeta(n)) <= mpf(10) ** (-prec)
    assert x.value < 0


def test_li2_at_minus_one_value():
    prec = 25
    x = polylog(2, -1, prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(x.value + mpmath.pi ** 2 / 12) <= mpf(10) ** (-prec)


@pytest.mark.parametrize("n,z", [
    (2, "0.3"), (2, "-0.3"), (3, "0.5"), (4, "0.45"),
    (2, "-0.75"), (3, "-0.9"), (5, "-0.99"),
])
def test_li_matches_mpmath_inside_disc(n, z):
    prec = 22
    x = polylog(n, z, prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(x.value - mpmath.polylog(n, mpf(z))) <= mpf(10) ** (-prec)


def test_li2_reflection_window_matches_mpmath():
    # (1/2, 1) goes through the reflection route for n = 2.
    prec = 22
    for z in ("0.6", "0.75", "0.9", "0.99"):
        x = polylog(2, z, prec)
        with mpmath.workdps(working_dps(prec)):
            assert abs(x.value - mpmath.polylog(2, mpf(z))) <= mpf(10) ** (-prec)


def test_li_zero_is_zero():
    x = polylog(4, 0, 15)
    assert x.value == 0
    assert x.err == 0


def test_li3_reflection_window_not_supported():
    with pytest.raises(DomainError) as exc:
        polylog(3, Fraction(3, 4), 15)
    assert "Li_3 is only evaluated on [-1, 1/2] and the endpoint 1" in str(exc.value)


@pytest.mark.parametrize("n,z", [(1, 1), (2, "1.5"), (2, "-1.01"), (0, "0.5"), (-1, "0.5")])
def test_li_domain_errors(n, z):
    with pytest.raises(DomainError):
        polylog(n, z, 15)


# ---------------------------------------------------------------------------
# Euler's constant
# ---------------------------------------------------------------------------


def test_gamma_em_matches_mpmath():
    prec = 30
    g = gamma_const(prec, method="EM")
    with mpmath.workdps(working_dps(prec)):
        assert abs(g.value - mpmath.euler) <= mpf(10) ** (-prec)


def test_gamma_zeta_series_matches_mpmath():
    prec = 15
    g = gamma_const(prec, method="ZETA_SERIES")
    with mpmath.workdps(working_dps(prec)):
        assert abs(g.value - mpmath.euler) <= mpf(10) ** (-prec)


@pytest.mark.parametrize("prec", [60, 65, 68, 69, 70, 80, 90, 100])
def test_gamma_em_certifies_at_high_prec(prec):
    # A split linear in the digit count falls short from prec 65 on; the
    # planned split certifies at once.
    g = gamma_const(prec, method="EM")
    assert g.certified()
    with mpmath.workdps(130):
        assert abs(g.value - mpmath.euler) <= g.err


@pytest.mark.parametrize("prec", [1, 2, 5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100])
def test_gamma_zeta_series_sweep_covers_gamma(prec):
    g = gamma_const(prec, method="ZETA_SERIES")
    assert g.certified()
    with mpmath.workdps(130):
        assert abs(g.value - mpmath.euler) <= g.err


def test_gamma_zeta_series_bound_carries_zeta_input_uncertainty(monkeypatch):
    # Every zeta(n) high by 1e-18, ceil(1e-18 2**B) units of 2**-B, with a
    # bound that says so.  The shift moves the sum by about 1e-19, far past
    # the truncation and rounding parts of the bound, so only the propagated
    # input bound can cover it.
    def coarse_zeta_values(top, prec):
        bits, values = zeta_values(top, prec)
        delta = -(-(1 << bits) // 10 ** 18)
        return bits, [(total + delta, err + delta) for total, err in values]

    monkeypatch.setattr(eulerfun, "zeta_values", coarse_zeta_values)
    g = gamma_const(15, method="ZETA_SERIES")
    assert g.certified()
    with mpmath.workdps(60):
        assert abs(g.value - mpmath.euler) <= g.err


def test_gamma_routes_agree_within_bounds():
    prec = 13
    a = gamma_const(prec, method="EM")
    b = gamma_const(prec, method="ZETA_SERIES")
    with mpmath.workdps(working_dps(prec) + 5):
        assert abs(a.value - b.value) <= a.err + b.err


def test_gamma_unknown_method():
    with pytest.raises(DomainError):
        gamma_const(15, method="CONTINUED_FRACTION")


# ---------------------------------------------------------------------------
# Identity residuals
# ---------------------------------------------------------------------------


def test_dilog_reflection_residual_small():
    rng = random.Random(42)
    for _ in range(5):
        x = Fraction(rng.randint(1, 99), 100)
        r = identity_residual(IdentityKind.DILOG_REFLECTION, {"x": x}, 15)
        assert r.value <= r.err
        assert float(r.value) <= 1e-12


def test_dilog_reflection_accepts_string_kind():
    r = identity_residual("DILOG_REFLECTION", {"x": "0.5"}, 15)
    assert float(r.value) <= 1e-12


@pytest.mark.parametrize("x", [0, 1, "1.5", -1])
def test_dilog_reflection_domain(x):
    with pytest.raises(DomainError):
        identity_residual(IdentityKind.DILOG_REFLECTION, {"x": x}, 15)


@pytest.mark.parametrize("x,prec", [(Fraction(1, 1000), 15), (Fraction(1, 3000), 15), (Fraction(1, 100), 100),
                                    (Fraction(99, 100), 100)], ids=str)
def test_dilog_reflection_near_the_ends_plans_its_terms(x, prec):
    # Tens of thousands of terms of Li_2(1 - x), planned from |z| and prec;
    # 1/3000 at prec 15 plans 132081, past the cap of 100000 the loop once had.
    r = identity_residual(IdentityKind.DILOG_REFLECTION, {"x": x}, prec)
    assert r.certified() and r.value <= r.err


@pytest.mark.parametrize("x,message", [
    (Fraction(1, 50000), r"needs 2067324 terms, past the cap 2000000"),
    (Fraction(1, 10 ** 6), r"needs 38494116 terms, past the cap 2000000"),
    # 1 - x is taken exactly, so the plan sees how near 1 it is.
    (Fraction(1, 10 ** 30), r"needs \d{28} terms, past the cap 2000000"),
], ids=["2e-5", "1e-6", "1e-30"])
def test_dilog_reflection_past_the_term_cap_is_too_large(x, message):
    with pytest.raises(TooLarge, match=message):
        identity_residual(IdentityKind.DILOG_REFLECTION, {"x": x}, 15)


def test_cotangent_residual_shrinks_with_terms():
    r_few = identity_residual(IdentityKind.COTANGENT, {"x": "1.0", "terms": 5}, 15)
    r_many = identity_residual(IdentityKind.COTANGENT, {"x": "1.0", "terms": 30}, 15)
    assert float(r_many.value) < float(r_few.value)
    assert float(r_many.value) <= 1e-12


@pytest.mark.parametrize("params", [
    {"x": "0.5"},
    {"x": "0.5", "terms": 0},
    {"x": "0.5", "terms": 2.0},
    {"x": "4.0", "terms": 5},
    {"x": 0, "terms": 5},
])
def test_cotangent_parameter_validation(params):
    with pytest.raises(DomainError):
        identity_residual(IdentityKind.COTANGENT, params, 15)


#: x near pi, each at --prec 15 and 50, with how the check must end: a bound
#: that covers the residual, PrecisionNotMet when the ball of pi holds x, or
#: DomainError for the x above pi.
NEAR_PI = [("3.14159265358979", 15, None), ("3.14159265358979", 50, None),
           ("3.1415926535897932384626433832795", 15, PrecisionNotMet),
           ("3.1415926535897932384626433832795", 50, None),
           ("3.1415926535897932384626433832795029", 15, PrecisionNotMet),
           ("3.1415926535897932384626433832795029", 50, DomainError)]


@pytest.mark.parametrize("x, prec, refused", NEAR_PI, ids=[f"{x}@{p}" for x, p, _ in NEAR_PI])
def test_cotangent_near_pi_covers_its_residual_or_refuses(x, prec, refused):
    # The bound missed the residual by 8e12 times, and an x above pi was accepted.
    if refused:
        with pytest.raises(refused):
            identity_residual(IdentityKind.COTANGENT, {"x": x, "terms": 30}, prec)
        return
    r = identity_residual(IdentityKind.COTANGENT, {"x": x, "terms": 30}, prec)
    with mpmath.workdps(130):
        assert abs(r.value - _true_residual("COTANGENT", {"x": x, "terms": 30})) <= r.err


def test_euler_product_residual_tracks_truncation():
    r1 = identity_residual(IdentityKind.EULER_PRODUCT, {"s": 2, "prime_bound": 100}, 15)
    r2 = identity_residual(IdentityKind.EULER_PRODUCT, {"s": 2, "prime_bound": 10000}, 15)
    # The defect is roughly 1/bound for s = 2.
    assert 1e-4 < float(r1.value) < 2e-2
    assert float(r2.value) < float(r1.value)


def test_euler_product_prime_bound_cap():
    with pytest.raises(TooLarge):
        identity_residual(IdentityKind.EULER_PRODUCT,
                          {"s": 2, "prime_bound": MAX_PRIME_BOUND + 1}, 15)


@pytest.mark.parametrize("params", [
    {"s": 2}, {"prime_bound": 100},
    {"s": 1, "prime_bound": 100}, {"s": 2, "prime_bound": 1},
])
def test_euler_product_parameter_validation(params):
    with pytest.raises(DomainError):
        identity_residual(IdentityKind.EULER_PRODUCT, params, 15)


@pytest.mark.parametrize("s", ["0.1", "0.3", "0.5", "0.7", "0.9"])
def test_phi_funceq_residual_small(s):
    r = identity_residual(IdentityKind.PHI_FUNCEQ, {"s": s}, 15)
    assert float(r.value) <= 1e-12


@pytest.mark.parametrize("prec", [99, 100])
@pytest.mark.parametrize("s", [Fraction(1, 3), Fraction(5, 7)], ids=str)
def test_phi_funceq_at_the_top_precisions(s, prec):
    # Both phi values are taken two digits higher inside, past MAX_PREC at the top.
    r = identity_residual(IdentityKind.PHI_FUNCEQ, {"s": s}, prec)
    assert r.prec == prec
    assert abs(r.value) <= r.err


@pytest.mark.parametrize("s", [0, 1, "1.5", "-0.2"])
def test_phi_funceq_domain(s):
    with pytest.raises(DomainError):
        identity_residual(IdentityKind.PHI_FUNCEQ, {"s": s}, 15)


@pytest.mark.parametrize("prec", [15, 50])
@pytest.mark.parametrize("s", [Fraction(1, 3), Fraction(3, 10), Fraction(1, 10 ** 30), Fraction(1, 10 ** 100),
                               Fraction(1, 10 ** 999), 1 - Fraction(1, 10 ** 200)],
                         ids=["1/3", "3/10", "1e-30", "1e-100", "1e-999", "1-1e-200"])
def test_phi_funceq_near_both_ends_stays_within_its_bound(s, prec):
    # s and 1 - s cancel exactly from Gamma(s) (2**s - 1) and cos(pi s / 2) / (2**(s-1) - 1),
    # so nothing cancels to 0 as s nears 0 or 1; phi takes s and 1 - s exactly.
    r = identity_residual(IdentityKind.PHI_FUNCEQ, {"s": s}, prec)
    assert r.certified()
    assert abs(r.value) <= r.err


def test_phi_funceq_decides_its_domain_on_the_exact_rational():
    just_below_one = "0." + "9" * 200
    assert identity_residual(IdentityKind.PHI_FUNCEQ, {"s": just_below_one}, 15).certified()
    with pytest.raises(DomainError, match="got 1.0"):
        identity_residual(IdentityKind.PHI_FUNCEQ, {"s": 1}, 15)


#: Strings, an int, Fractions and mpfs past the digit cap.
PAST_THE_CAP = ["1e1000", "1/" + "3" * 1001, 10 ** 1000 + 1, -Fraction(7, 10 ** 1000),
                1 - Fraction(1, 10 ** 1000), Fraction(10 ** 100000, 3), mpf(2) ** -4000,
                mpf("1e1000000000000")]
EVALUATORS = {
    "zeta": zeta,
    "phi": phi,
    "polylog": lambda x, prec: polylog(2, x, prec),
    "phi-funceq": lambda x, prec: identity_residual(IdentityKind.PHI_FUNCEQ, {"s": x}, prec),
    "dilog-reflection": lambda x, prec: identity_residual(IdentityKind.DILOG_REFLECTION, {"x": x}, prec),
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_every_evaluator_refuses_a_number_past_the_digit_cap_quickly(name):
    for x in PAST_THE_CAP:
        start = time.perf_counter()
        with pytest.raises(InputError, match=f"past the cap {DIGIT_CAP}"):
            EVALUATORS[name](x, 15)
        assert time.perf_counter() - start < 0.1, x


def test_unknown_identity_kind_rejected():
    with pytest.raises(ValueError):
        identity_residual("ZETA_REFLECTION", {"s": "0.5"}, 15)


# ---------------------------------------------------------------------------
# Every prec the interface accepts
# ---------------------------------------------------------------------------

ALL_PRECS = range(MIN_PREC, MAX_PREC + 1)


def exact(x) -> mpf:
    """A rational as an mpf at the ambient precision."""
    x = Fraction(x)
    return mpf(x.numerator) / x.denominator


def assert_covers(x, reference, prec: int, dps: int = 0) -> None:
    """``x`` is certified at ``prec`` and covers ``reference()``, taken at ``dps`` digits or 20 past ``x``'s."""
    assert x.prec == prec and x.certified(), prec
    with mpmath.workdps(dps or working_dps(prec) + 20):
        assert abs(x.value - reference()) <= x.err, prec


def counted(monkeypatch, name: str, module=numkernel) -> list:
    """Replace ``<module>.<name>`` by a wrapper that logs each call."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("s", [Fraction(101, 100), Fraction(6, 5), Fraction(3, 2), Fraction(7, 3), "2.5",
                               2, 3, 5, 8, 10, "3", 3.0, Fraction(3), 40], ids=repr)
def test_zeta_runs_one_phi_pass_at_every_prec(s, monkeypatch):
    # Every s, integer or not and however written, is the phi pass's: one
    # shared step, no em_sum.
    calls, steps = counted(monkeypatch, "em_sum", eulerfun), counted(monkeypatch, "_zeta_pass", eulerfun)
    for prec in ALL_PRECS:
        steps.clear()
        z = zeta(s, prec)
        assert (len(calls), len(steps)) == (0, 1), prec
        assert_covers(z, lambda: mpmath.zeta(exact(s)), prec)


def test_gamma_em_runs_one_planned_em_sum_at_every_prec(monkeypatch):
    calls = counted(monkeypatch, "em_sum", eulerfun)
    for prec in ALL_PRECS:
        calls.clear()
        g = gamma_const(prec, method="EM")
        assert len(calls) == 1, prec
        assert_covers(g, lambda: +mpmath.euler, prec)


@pytest.mark.parametrize("prec", [1, 15, 100])
def test_zeta_and_phi_of_a_huge_exponent_are_one(prec):
    # The planner must not turn s into a float that overflows, and the rows
    # past the first are 0 without forming k**s.
    assert_covers(zeta(10 ** 400, prec), lambda: mpf(1), prec)
    assert_covers(phi(10 ** 400, prec), lambda: mpf(1), prec)


@pytest.mark.parametrize("s", [Fraction(1, 2), 1, Fraction(5, 2)], ids=str)
def test_phi_runs_one_chebyshev_pass_at_every_prec(s, monkeypatch):
    calls = counted(monkeypatch, "accel_alt_sum", eulerfun)
    for prec in ALL_PRECS:
        calls.clear()
        x = phi(s, prec)
        assert len(calls) == 1, prec
        assert_covers(x, lambda: mpmath.altzeta(exact(s)), prec)


@pytest.mark.parametrize("n,z", [(2, Fraction(-9, 10)), (3, Fraction(-3, 4))], ids=str)
def test_polylog_alternating_route_covers_at_every_prec(n, z):
    for prec in ALL_PRECS:
        assert_covers(polylog(n, z, prec), lambda: mpmath.polylog(n, exact(z)), prec)


def test_gamma_zeta_series_covers_at_every_prec(monkeypatch):
    calls = counted(monkeypatch, "accel_alt_sum", eulerfun)
    for prec in ALL_PRECS:
        calls.clear()
        g = gamma_const(prec, method="ZETA_SERIES")
        assert len(calls) == 1, prec
        assert_covers(g, lambda: +mpmath.euler, prec)


# ---------------------------------------------------------------------------
# polylog on the iterated-integral engine
# ---------------------------------------------------------------------------

POLYLOG_POINTS = [Fraction(z) for z in
                  ("-1", "-39/40", "-3/4", "-1/2", "-1/3", "-1/40", "1/40", "1/3", "2/5", "1/2", "1")]
REFLECTION_POINTS = [Fraction(z) for z in ("51/100", "3/5", "3/4", "9/10", "39/40", "99/100")]


def assert_certifies_and_covers(n, z):
    with mpmath.workdps(130):
        ref = mpmath.polylog(n, exact(z))
    for prec in ALL_PRECS:
        x = polylog(n, z, prec)
        assert x.prec == prec and x.certified(), prec
        with mpmath.workdps(130):
            assert abs(x.value - ref) <= x.err, prec


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("z", POLYLOG_POINTS, ids=str)
def test_polylog_certifies_and_covers_at_every_prec(n, z):
    assert_certifies_and_covers(n, z)


@pytest.mark.parametrize("z", REFLECTION_POINTS, ids=str)
def test_dilog_reflection_window_certifies_and_covers_at_every_prec(z):
    assert_certifies_and_covers(2, z)


def test_polylog_makes_one_engine_call(monkeypatch):
    # Li_n(1) is zeta's one phi pass and Li_n(-1) phi's one Chebyshev pass, with no
    # engine call; every other point is one engine call.
    passes = [counted(monkeypatch, name, eulerfun) for name in ("_at_one", "_zeta_pass", "accel_alt_sum")]
    others = [counted(monkeypatch, "_li_direct", eulerfun), counted(monkeypatch, "em_sum", eulerfun)]
    cases = [(n, z) for n in (2, 3, 5) for z in POLYLOG_POINTS]
    cases += [(2, z) for z in REFLECTION_POINTS]
    for prec in (1, 15, 50, 100):
        for n, z in cases:
            for calls in passes:
                calls.clear()
            polylog(n, z, prec)
            route = (0, 1, 0) if z == 1 else (0, 0, 1) if z == -1 else (1, 0, 0)
            assert tuple(map(len, passes)) == route, (n, z, prec)
    assert not any(others)


def bits(x):
    return x.value._mpf_, x.err._mpf_


@pytest.mark.parametrize("prec", [1, 15, 100])
def test_polylog_takes_the_exact_rational_of_its_argument(prec):
    # A decimal string is the rational it spells; a float or an mpf is its binary value.
    assert bits(polylog(2, "0.3", prec)) == bits(polylog(2, Fraction(3, 10), prec))
    assert bits(polylog(3, 0.3, prec)) == bits(polylog(3, Fraction(0.3), prec))
    assert bits(polylog(3, mpf("-0.75"), prec)) == bits(polylog(3, Fraction(-3, 4), prec))


@pytest.mark.parametrize("z", ["inf", "nan", "abc", float("inf"), mpmath.nan])
def test_polylog_rejects_what_is_not_a_finite_rational(z):
    with pytest.raises(DomainError):
        polylog(2, z, 15)


def test_polylog_weight_cap():
    assert polylog(WEIGHT_CAP, Fraction(1, 2), 15).certified()
    with pytest.raises(TooLarge):
        polylog(WEIGHT_CAP + 1, Fraction(1, 2), 15)
    with pytest.raises(TooLarge):
        polylog(10 ** 9, Fraction(-1, 3), 15)
    # The endpoints call zeta and phi, which have no weight, after the same check.
    assert polylog(WEIGHT_CAP, 1, 15) == zeta(WEIGHT_CAP, 15)
    for z in (1, -1):
        with pytest.raises(TooLarge, match=f"weight {WEIGHT_CAP + 1} exceeds"):
            polylog(WEIGHT_CAP + 1, z, 15)


def test_polylog_of_a_decimal_at_the_digit_cap_certifies_quickly():
    # 1e-999 has a 1000-digit denominator, the most the cap allows, and is evaluated exactly.
    start = time.perf_counter()
    x = polylog(2, "1e-999", 15)
    assert time.perf_counter() - start < 1
    assert x.certified()
    with mpmath.workdps(30):
        assert abs(x.value - mpmath.polylog(2, mpf("1e-999"))) <= x.err


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("z", [Fraction(1, 3) + Fraction(1, 10 ** 999),
                               -Fraction(1, 2) - Fraction(1, 7 ** 900)], ids=["1/3+", "-1/2-"])
def test_polylog_at_a_point_of_large_height_covers_at_every_prec(n, z):
    assert_certifies_and_covers(n, z)


# ---------------------------------------------------------------------------
# Exponents whose denominators pass the exact rows' root cap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prec", [1, 15, 50, 100])
def test_zeta_and_phi_at_large_denominators_certify_and_cover(prec):
    # These rows come from mpmath's power: q * bits passes the root cap.
    binary = Fraction(2 ** 70 + 3, 2 ** 71)
    assert binary.denominator * 40 > numkernel._ROOT_BITS_CAP
    assert_covers(phi(binary, prec), lambda: mpmath.altzeta(exact(binary)), prec)
    near_pole = 1 + Fraction(1, 10 ** 9)
    assert_covers(zeta(near_pole, prec), lambda: mpmath.zeta(exact(near_pole)), prec, 300)


def test_rows_past_bits_count_as_exact_floors_past_the_root_cap_too():
    # q * bits passes the root cap, but s > bits: every row past the first is
    # an exact 0, and _power_rows says so, so phi declares the bound that
    # accel_alt_sum proves on the same rows, and zeta's pass counts them as exact.
    s, prec = Fraction(10 ** 10 + 1, 10 ** 4), 15
    b = numkernel.working_bits(prec)
    assert s.denominator * b > numkernel._ROOT_BITS_CAP
    rows, r = numkernel._power_rows(s, numkernel.alt_terms_needed(prec), b)
    assert r == 1
    x = phi(s, prec)
    assert bits(x) == bits(numkernel.accel_alt_sum(rows, prec))
    assert x.err < mpf("6e-26")  # 8.8e-25 while phi counted libmp rows from q * bits alone
    assert_covers(x, lambda: mpmath.altzeta(exact(s)), prec)
    assert_covers(zeta(s, prec), lambda: mpmath.zeta(exact(s)), prec)


@pytest.mark.parametrize("k, prec", [(9, 50), (10, 50), (12, 15), (60, 15), (17, 100), (30, 87)])
def test_zeta_near_its_pole_certifies_within_the_working_top(k, prec):
    # The bound is absolute while the value is about 10**k: k + 1 more digits,
    # up to MAX_PREC + INNER_DIGITS.  mpmath loses digits near the pole too, so
    # its reference takes 400 (at 140, zeta(1 + 10**-60) is off by 1e-21).
    near_pole = 1 + Fraction(1, 10 ** k)
    assert prec + k + 1 <= MAX_PREC + INNER_DIGITS
    assert_covers(zeta(near_pole, prec), lambda: mpmath.zeta(exact(near_pole)), prec, 400)


@pytest.mark.parametrize("k, prec", [(12, 15), (10, 50)])
def test_zeta_near_its_pole_negates_and_takes_abs_within_its_ball(k, prec):
    # The ball is relabelled to prec with its inner midpoint, which is wider
    # than prec's bits: -z and abs(-z) must keep it to stay enclosures.
    z = -zeta(1 + Fraction(1, 10 ** k), prec)
    assert_covers(z, lambda: -mpmath.zeta(1 + mpf(10) ** -k), prec, 400)
    assert_covers(abs(z), lambda: mpmath.zeta(1 + mpf(10) ** -k), prec, 400)


@pytest.mark.parametrize("k, prec", [(30, 100), (30, 88), (18, 100), (999, 1)])
def test_zeta_near_its_pole_names_its_limit(k, prec, monkeypatch):
    # Past the working top the refusal names s - 1 and prec before any row is built.
    rows = counted(monkeypatch, "_power_rows", eulerfun)
    with pytest.raises(PrecisionNotMet, match=rf"s - 1 = 1\.0e-{k} needs {k + 1} digits past prec {prec}, "
                                              rf"beyond the working top {MAX_PREC + INNER_DIGITS}"):
        zeta(1 + Fraction(1, 10 ** k), prec)
    assert not rows


# ---------------------------------------------------------------------------
# polylog at points of large height outside [-1, 1/2]
# ---------------------------------------------------------------------------

#: z = 3/4 + 10**-40 and 1 - 10**-30, each moved by 10**-999: 1000-digit
#: denominators, within the digit cap.  mpmath at 130 digits sees z to within
#: 10**-130, far inside every bound checked.
LARGE_POINTS = [Fraction(3, 4) + Fraction(1, 10 ** 40) + Fraction(1, 10 ** 999),
                1 - Fraction(1, 10 ** 30) + Fraction(1, 10 ** 999)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("z", LARGE_POINTS, ids=["3/4+", "1-"])
def test_polylog_in_the_reflection_window_covers_a_point_of_large_height(n, z):
    with mpmath.workdps(130):
        # Li_1 = -log(1 - z) takes 1 - z exactly: 130 digits of z near 1 hold 100 of 1 - z.
        ref = -mpmath.log(exact(1 - z)) if n == 1 else mpmath.polylog(n, exact(z))
    for prec in (1, 15, 50, 100):
        start = time.perf_counter()
        x = polylog(n, z, prec)
        assert time.perf_counter() - start < 0.5, prec
        assert x.certified(), prec
        with mpmath.workdps(130):
            assert abs(x.value - ref) <= x.err, prec


def test_polylog_shows_a_point_of_large_height_outside_its_domain():
    with pytest.raises(DomainError, match=r"got z = 3\.3333333e\+998"):
        polylog(2, Fraction(10 ** 999, 3), 15)
    with pytest.raises(DomainError, match=r"Li_3 .* got z = 0\.75"):
        polylog(3, LARGE_POINTS[0], 15)


# ---------------------------------------------------------------------------
# polylog against its first-order routes
# ---------------------------------------------------------------------------


def reference_polylog(n, z, prec):
    """``polylog`` as it was before :func:`numkernel.log_of`, for the routes that changed.

    ``n = 1`` and the ``n = 2`` reflection window computed in an mpmath
    context at the working precision, with the first-order count of
    :func:`ref_rounding`; every other point goes to :func:`polylog`.
    """
    q = numkernel.as_fraction(z)
    w = 1 - q
    if n == 1:
        with mpmath.workdps(working_dps(prec)):
            # 1 - z rounds twice as a Fraction, moving the log by 2 2**-prec; the log once more.
            v = -mpmath.log(_mp(w))
            return numkernel.BigReal(v, ref_rounding(v, 2), prec)
    if not (n == 2 and Fraction(1, 2) < q < 1):
        return polylog(n, z, prec)
    li_w = numkernel._at_one(numkernel._word((2,), (1 / w,)), prec + 4)
    with mpmath.workdps(working_dps(prec + 4)):
        log_w = mpmath.log(_mp(w))
        v = mpmath.pi ** 2 / 6 - mpmath.log(_mp(q)) * log_w - li_w.value
        # pi**2/6 rounds 3 times, each log 3 counts on its size, the product and two sums once.
        return numkernel.BigReal(v, li_w.err + ref_rounding(v, 4 + 2 * abs(log_w)), prec)


REFERENCE_GRID = [-1, 0, "0.3", Fraction(1, 2), Fraction(51, 100), Fraction(3, 4), Fraction(99, 100),
                  1 - Fraction(1, 10 ** 30)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("z", REFERENCE_GRID, ids=str)
def test_polylog_keeps_the_value_bits_of_its_first_order_routes(n, z):
    # log_of and the BigReal window round as the mpmath context did, so only the bounds move:
    # an n = 1 bound never grows, and every bound covers mpmath at 130 digits.
    q = numkernel.as_fraction(z)
    with mpmath.workdps(130):
        # Li_1 = -log(1 - z) takes 1 - z exactly: 130 digits of z near 1 hold 100 of 1 - z.
        ref = -mpmath.log(exact(1 - q)) if n == 1 else mpmath.polylog(n, exact(q))
    for prec in ALL_PRECS:
        x, old = polylog(n, z, prec), reference_polylog(n, z, prec)
        assert x.value._mpf_ == old.value._mpf_, prec
        assert x.prec == prec and x.certified(), prec
        if n == 1:
            assert x.err <= old.err, prec
        with mpmath.workdps(130):
            assert abs(x.value - ref) <= x.err, prec


def test_li1_at_zero_is_an_exact_zero():
    for prec in ALL_PRECS:
        x = polylog(1, 0, prec)
        assert bits(x) == ((0, 0, 0, 0), (0, 0, 0, 0)), prec


def test_log_of_encloses_the_log_at_every_inner_prec():
    # The window runs at inner_prec(prec, 4), past MAX_PREC: log_of takes that prec, as pi_times does.
    points = [Fraction(1, 3), Fraction(49, 100), Fraction(10 ** 40 + 1, 10 ** 40), Fraction(7, 2),
              Fraction(3 ** 200, 2 ** 300), Fraction(1)]
    inner = [numkernel.inner_prec(MAX_PREC, k) for k in range(1, 5)]
    for prec in [*range(MIN_PREC, MAX_PREC + 1), *inner]:
        for q in points:
            x = numkernel.log_of(q, prec)
            with mpmath.workdps(200):
                assert abs(x.value - mpmath.log(exact(q))) <= x.err, (q, prec)
    assert bits(numkernel.log_of(1, inner[-1])) == ((0, 0, 0, 0), (0, 0, 0, 0))
    for q in (0, Fraction(-1, 2)):
        with pytest.raises(DomainError):
            numkernel.log_of(q, 15)


# ---------------------------------------------------------------------------
# Parameters and messages of the domain errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind, params, extra", [
    ("DILOG_REFLECTION", {"x": "1/2"}, "bogus"),
    ("DILOG_REFLECTION", {"x": "1/2"}, "s"),
    ("COTANGENT", {"x": "1/2", "terms": 5}, "prime_bound"),
    ("EULER_PRODUCT", {"s": 2, "prime_bound": 7}, "x"),
    ("PHI_FUNCEQ", {"s": "1/3"}, "terms"),
])
def test_identity_check_refuses_a_parameter_its_kind_does_not_use(kind, params, extra):
    identity_residual(kind, params, 15)
    with pytest.raises(DomainError, match=f"{kind} takes no parameter '{extra}'"):
        identity_residual(kind, {**params, extra: 1}, 15)


#: Numbers just outside a rule, each as a string, a Fraction, a float and a
#: point of large height.
def just_outside(edge, side):
    step = Fraction(side, 10 ** 11)
    text = str(float(edge + step)) if edge else f"{side}e-11"
    return [text, edge + step, float(edge + step), edge + Fraction(side, 10 ** 999)]


#: (name, call, the pattern that catches the number shown, the rule's test
#: of being outside, the arguments), one per message that shows a number.
MESSAGES = [
    ("polylog |z|", lambda z: polylog(2, z, 15), r"got z = (\S+)$", lambda q: abs(q) > 1, just_outside(-1, -1)),
    ("Li_3 window", lambda z: polylog(3, z, 15), r"got z = (\S+)$", lambda q: Fraction(1, 2) < q < 1,
     just_outside(Fraction(1, 2), 1)),
    ("zeta", lambda s: zeta(s, 15), r"got s = (\S+);", lambda q: q <= 1, just_outside(1, -1)),
    ("phi", lambda s: phi(s, 15), r"got s = (\S+)$", lambda q: q <= 0, just_outside(0, -1)),
    ("dilog reflection", lambda x: identity_residual("DILOG_REFLECTION", {"x": x}, 15), r"got (\S+)$",
     lambda q: not 0 < q < 1, just_outside(1, 1)),
    ("phi funceq", lambda s: identity_residual("PHI_FUNCEQ", {"s": s}, 15), r"got (\S+)$",
     lambda q: not 0 < q < 1, just_outside(0, -1)),
    ("Li_2 series", lambda x: identity_residual("DILOG_REFLECTION", {"x": x}, 15), r"\|z\| = (\S+) needs",
     lambda q: q < 1, ["0.999999999", Fraction(999999999, 10 ** 9), 0.999999999]),
]


@pytest.mark.parametrize("name, call, pattern, outside, args", MESSAGES, ids=[m[0] for m in MESSAGES])
def test_a_domain_error_never_shows_a_number_its_rule_accepts(name, call, pattern, outside, args):
    for x in args:
        with pytest.raises((DomainError, TooLarge)) as caught:
            call(x)
        shown = re.search(pattern, str(caught.value)).group(1)
        if isinstance(x, str):
            assert shown == x
        assert outside(Fraction(shown)), (x, shown)
        assert len(shown) <= 1200, x
