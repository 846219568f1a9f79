"""Symbol algebra: coaction rules, conjugates, stability, parser, periods."""

import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from euler_periods import symbolic
from euler_periods.errors import DomainError, InputError, ParseError, TooLarge
from euler_periods.numkernel import COACTION_TERM_CAP, COASSOC_TERM_CAP, DIGIT_CAP, WEIGHT_CAP, working_dps
from euler_periods.symbolic import (
    MotivicExpr,
    TensorSum,
    UnipotentExpr,
    coact,
    coassoc_residual,
    galois_conjugates,
    hopf_coproduct,
    parse_expr,
    period_map,
    stability_report,
)

ZM = MotivicExpr.zm
LIM = MotivicExpr.lim
TPIM = MotivicExpr.tpim
ONE = MotivicExpr.one


def random_expr(rng, max_terms=3):
    """Small random expression over a fixed generator pool."""
    pool = [ZM(2), ZM(3), ZM(5), TPIM(), LIM(2, Fraction(1, 2)), LIM(1, Fraction(-1, 3))]
    e = MotivicExpr.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = ONE() * Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        for _ in range(rng.randint(1, 2)):
            term = term * rng.choice(pool)
        e = e + term
    return e


# ---------------------------------------------------------------------------
# Generator checks and algebra basics
# ---------------------------------------------------------------------------


def test_zm_weight_one_rejected():
    with pytest.raises(DomainError):
        ZM(1)


@pytest.mark.parametrize("ctor,args", [
    (ZM, (0,)), (ZM, (2.0,)), (LIM, (0, 1)), (LIM, (2, "zeta_m")),
    (UnipotentExpr.zu, (2,)), (UnipotentExpr.zu, (4,)), (UnipotentExpr.zu, (1,)),
])
def test_malformed_generators_rejected(ctor, args):
    with pytest.raises(DomainError):
        ctor(*args)


def test_product_is_commutative_and_sorted():
    a = ZM(2) * ZM(3)
    b = ZM(3) * ZM(2)
    assert a == b
    assert str(a) == "zeta_m(2)*zeta_m(3)"


def test_weight_grading():
    e = ZM(2) * ZM(3)
    assert e.weight() == 5
    assert TPIM().weight() == 1
    assert LIM(4, Fraction(1, 2)).weight() == 4
    mixed = ZM(2) + ZM(3)
    assert mixed.weights() == [2, 3]
    with pytest.raises(ValueError):
        mixed.weight()


def test_graded_parts_reassemble():
    e = ZM(2) + 3 * ZM(3) - ZM(2) * ZM(2)
    parts = e.graded_parts()
    assert sorted(parts) == [2, 3, 4]
    total = MotivicExpr.zero()
    for p in parts.values():
        total = total + p
    assert total == e


def test_rational_coefficients_cancel_exactly():
    e = Fraction(1, 3) * ZM(2) + Fraction(2, 3) * ZM(2) - ZM(2)
    assert e.is_zero()


# ---------------------------------------------------------------------------
# Coaction rules
# ---------------------------------------------------------------------------


def test_coact_odd_zeta_rule():
    assert str(coact(ZM(3))) == "1 (x) zeta_m(3) + zeta_u(3) (x) 1"


def test_coact_even_zeta_trivial():
    # zeta_m(2n) is a rational multiple of twopi_i^2n, so nothing splits off.
    for n in (2, 4, 6, 8):
        d = coact(ZM(n))
        assert d == TensorSum({((), (("zm", n),)): 1})


def test_coact_twopi_trivial():
    d = coact(TPIM())
    assert len(d.terms) == 1
    ((left, right),) = d.terms
    assert left == ()
    assert right == (("tpim",),)


def test_coact_li_tower():
    out = str(coact(LIM(2, Fraction(1, 2))))
    assert out == ("1 (x) Li_m(2; 1/2) + ln_u(1/2) (x) Li_m(1; 1/2) "
                   "+ Li_u(2; 1/2) (x) 1")


def test_coact_li3_tower_has_factorial_coefficient():
    d = coact(LIM(3, Fraction(1, 3)))
    pt = ("rat", 1, 3)
    lnu = ("lnu", pt)
    assert d.terms[((lnu, lnu), (("lim", 1, pt),))] == Fraction(1, 2)
    assert d.terms[((("liu", 3, pt),), ())] == 1


def test_coact_counit_part_recovers_input():
    rng = random.Random(42)
    for _ in range(8):
        e = random_expr(rng)
        groups = coact(e).group_by_left()
        recovered = groups.get((), MotivicExpr.zero())
        assert recovered == e


def test_coact_preserves_total_weight():
    rng = random.Random(43)
    for _ in range(8):
        e = random_expr(rng)
        for c, left, right in coact(e).pairs():
            w = sum(a[1] if a[0] in ("zm", "lim", "zu", "liu") else 1 for a in left)
            w += sum(a[1] if a[0] in ("zm", "lim", "zu", "liu") else 1 for a in right)
            assert w in e.weights()


def test_coact_is_multiplicative():
    rng = random.Random(44)
    for _ in range(6):
        a = random_expr(rng, max_terms=2)
        b = random_expr(rng, max_terms=2)
        assert coact(a * b) == coact(a) * coact(b)


def test_coact_rejects_wrong_type():
    with pytest.raises(DomainError):
        coact(UnipotentExpr.zu(3))


# ---------------------------------------------------------------------------
# Hopf coproduct and coassociativity
# ---------------------------------------------------------------------------


def test_primitives():
    d = hopf_coproduct(UnipotentExpr.zu(5))
    assert d.terms == {((("zu", 5),), ()): 1, ((), (("zu", 5),)): 1}
    d2 = hopf_coproduct(UnipotentExpr.lnu(Fraction(1, 2)))
    assert len(d2.terms) == 2


def test_hopf_rejects_wrong_type():
    with pytest.raises(DomainError):
        hopf_coproduct(ZM(3))


@pytest.mark.parametrize("e", [
    ZM(3),
    ZM(5),
    ZM(2) * ZM(3),
    ZM(3) * ZM(5),
    ZM(3) * ZM(3) * ZM(2),
    LIM(3, Fraction(1, 2)),
    LIM(2, Fraction(1, 2)) * LIM(2, Fraction(-1, 2)),
    TPIM() * ZM(3) + 7 * ZM(2) * ZM(2),
])
def test_coassociativity(e):
    assert coassoc_residual(e)


def test_coassociativity_weight8_products():
    # Every product of odd zetas and Li generators up to weight 8 that the
    # acceptance gate exercises funnels through the same monomial engine.
    assert coassoc_residual(ZM(3) * ZM(5))
    assert coassoc_residual(ZM(3) * ZM(3) * ZM(2))
    assert coassoc_residual(LIM(4, Fraction(1, 2)) * LIM(4, Fraction(1, 2)))
    assert coassoc_residual(LIM(8, Fraction(1, 3)))


def test_coassociativity_random_family():
    rng = random.Random(45)
    for _ in range(5):
        assert coassoc_residual(random_expr(rng))


# ---------------------------------------------------------------------------
# Conjugates and stability
# ---------------------------------------------------------------------------


def test_conjugates_of_odd_zeta():
    conj, dim = galois_conjugates(ZM(3))
    assert [str(c) for c in conj] == ["zeta_m(3)", "1"]
    assert dim == 2


def test_conjugates_of_even_zeta():
    conj, dim = galois_conjugates(ZM(2))
    assert [str(c) for c in conj] == ["zeta_m(2)"]
    assert dim == 1


def test_conjugates_of_li():
    conj, dim = galois_conjugates(LIM(2, Fraction(1, 2)))
    assert [str(c) for c in conj] == ["Li_m(2; 1/2)", "Li_m(1; 1/2)", "1"]
    assert dim == 3


def test_conjugates_of_product():
    conj, dim = galois_conjugates(ZM(2) * ZM(3))
    assert [str(c) for c in conj] == ["zeta_m(2)*zeta_m(3)", "zeta_m(2)"]
    assert dim == 2


def test_stability_closed_families():
    assert stability_report([ZM(3), ONE()]).stable
    assert stability_report([ZM(2)]).stable
    assert stability_report([ZM(2) * ZM(3), ZM(2), ONE()]).stable


def test_stability_detects_missing_conjugate():
    report = stability_report([ZM(2) * ZM(3)])
    assert not report.stable
    rendered = str(report)
    assert rendered.startswith("unstable")
    assert "zeta_m(2)" in rendered


def test_stability_span_is_rational_not_syntactic():
    # 2*zeta_m(2) spans the same line as zeta_m(2).
    family = [ZM(3) * 2, ONE() * Fraction(1, 7)]
    assert stability_report(family).stable


# The dense Fraction elimination that spans used before the echelon basis,
# kept as the reference the echelon results must agree with.
def dense_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def oracle_dimension(exprs):
    monos = sorted({m for e in exprs for m in e.terms})
    return dense_rank([[e.terms.get(m, Fraction(0)) for m in monos] for e in exprs])


def oracle_outside(family):
    """For each member, its conjugates outside the span, by dense rank."""
    dim = oracle_dimension(family)
    return [(f, [c for c in galois_conjugates(f)[0] if oracle_dimension(family + [c]) > dim])
            for f in family]


def dependent_family(rng, members):
    """``members`` plus scaled copies, sums of members and a member that cancels to zero."""
    family = list(members)
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(family), rng.choice(family)
        family.append(a * Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
        family.append(a + Fraction(rng.randint(1, 3)) * b)
    a, b = rng.choice(family), rng.choice(family)
    family.append(a + b - b - a)
    rng.shuffle(family)
    return family


def test_conjugate_dimension_matches_dense_rank_oracle():
    rng = random.Random(47)
    dependent = 0
    for _ in range(40):
        e = random_expr(rng) + rng.randint(1, 3) * random_expr(rng)
        conj, dim = galois_conjugates(e)
        assert dim == oracle_dimension(conj)
        dependent += dim < len(conj)
    assert dependent


def test_stability_containment_matches_dense_rank_oracle():
    rng = random.Random(48)
    verdicts = set()
    for _ in range(12):
        closed = dependent_family(rng, galois_conjugates(random_expr(rng))[0])
        loose = dependent_family(rng, [random_expr(rng) for _ in range(rng.randint(1, 3))])
        for family in (closed, loose):
            report = stability_report(family)
            assert report.outside == oracle_outside(family)
            assert report.stable == all(not m for _, m in report.outside)
            verdicts.add(report.stable)
    assert verdicts == {True, False}


def test_stability_missing_conjugate_differs_from_member_by_a_coefficient():
    # zeta_m(2) + 2*zeta_m(4) shares its monomials with a member, but not its line.
    f = ZM(3) * (ZM(2) + 2 * ZM(4))
    family = [f, ZM(2) + ZM(4), ONE()]
    report = stability_report(family)
    assert not report.stable
    assert report.outside == oracle_outside(family)
    assert report.outside[0] == (f, [ZM(2) + 2 * ZM(4)])


def test_stability_empty_family_rejected():
    with pytest.raises(InputError):
        stability_report([])


def test_stability_member_type_checked():
    with pytest.raises(DomainError):
        stability_report([ZM(3), UnipotentExpr.zu(3)])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "zeta_m(2)",
    "5*zeta_m(4) - 2*zeta_m(2)*zeta_m(2)",
    "Li_m(2; 1/2)",
    "Li_m(3; -2/3)",
    "Li_m(2; x0)",
    "twopi_i*twopi_i",
    "1/2*zeta_m(3) + (zeta_m(2) - 3)*twopi_i",
    "-zeta_m(5)",
    "0",
])
def test_parse_round_trip(text):
    e = parse_expr(text)
    assert parse_expr(str(e)) == e


def test_parse_specific_shape():
    e = parse_expr("5*zeta_m(4) - 2*zeta_m(2)*zeta_m(2)")
    assert e.terms[(("zm", 4),)] == 5
    assert e.terms[(("zm", 2), ("zm", 2))] == -2


def test_parse_round_trip_random():
    rng = random.Random(46)
    for _ in range(10):
        e = random_expr(rng)
        assert parse_expr(str(e)) == e


@pytest.mark.parametrize("text,position", [
    ("", 0),
    ("zeta_m(2", 8),
    ("zeta_m 2)", 7),
    ("2 + $", 4),
    ("zeta_m(2))", 9),
    ("Li_m(2: 1/2)", 6),
    ("1/0", 2),
])
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert exc.value.position == position


def test_parse_zeta_weight_one_domain_error():
    with pytest.raises(DomainError):
        parse_expr("zeta_m(1)")


def test_parse_rejects_non_string():
    with pytest.raises(ParseError):
        parse_expr(42)


# ---------------------------------------------------------------------------
# Period map
# ---------------------------------------------------------------------------


def test_period_map_zeta2():
    prec = 20
    x = period_map(ZM(2), prec)
    with mpmath.workdps(working_dps(prec)):
        assert abs(x.value - mpmath.pi ** 2 / 6) <= mpf(10) ** (-prec)


def test_period_map_kernel_combination_vanishes():
    x = period_map(parse_expr("5*zeta_m(4) - 2*zeta_m(2)*zeta_m(2)"), 15)
    assert abs(float(x.value)) <= 1e-12
    assert float(x.err) <= 1e-15


def test_period_map_twopi_squared_against_zeta2():
    # (2*pi*i)**2 = -4*pi**2 = -24*zeta(2).
    x = period_map(parse_expr("24*zeta_m(2) + twopi_i*twopi_i"), 15)
    assert abs(float(x.value)) <= 1e-12


def test_period_map_twopi_fourth_power_against_zeta4():
    # (2*pi*i)**4 = 16*pi**4 = 1440*zeta(4): the sign is (-1)**k for power 2k.
    x = period_map(parse_expr("twopi_i*twopi_i*twopi_i*twopi_i - 1440*zeta_m(4)"), 15)
    assert abs(float(x.value)) <= 1e-12


@pytest.mark.parametrize("text", ["twopi_i", "zeta_m(3)*twopi_i",
                                  "zeta_m(2) + twopi_i*twopi_i*twopi_i"])
def test_period_map_rejects_odd_twopi_i_degree(text):
    # (2*pi*i)^k is imaginary for odd k; the real-valued map must not
    # report a real number for it.
    with pytest.raises(DomainError, match="odd twopi_i degree"):
        period_map(parse_expr(text), 15)


def test_period_map_li_half():
    prec = 18
    x = period_map(LIM(2, Fraction(1, 2)), prec)
    with mpmath.workdps(working_dps(prec)):
        ref = mpmath.pi ** 2 / 12 - mpmath.log(2) ** 2 / 2
        assert abs(x.value - ref) <= mpf(10) ** (-prec)


def test_period_map_respects_polylog_domain():
    with pytest.raises(DomainError):
        period_map(LIM(3, Fraction(3, 4)), 15)


def test_period_map_rejects_symbolic_points():
    with pytest.raises(DomainError):
        period_map(parse_expr("Li_m(2; x0)"), 15)


def test_period_map_rejects_wrong_type():
    with pytest.raises(DomainError):
        period_map("zeta_m(2)", 15)


def test_polylog_weight_past_the_cap_is_refused_in_both_families():
    assert str(LIM(WEIGHT_CAP, Fraction(1, 2))) == f"Li_m({WEIGHT_CAP}; 1/2)"
    assert str(UnipotentExpr.liu(WEIGHT_CAP, -1)) == f"Li_u({WEIGHT_CAP}; -1)"
    with pytest.raises(TooLarge, match=f"weight {WEIGHT_CAP + 1} exceeds"):
        LIM(WEIGHT_CAP + 1, Fraction(1, 2))
    with pytest.raises(TooLarge, match=f"weight {WEIGHT_CAP + 1} exceeds"):
        UnipotentExpr.liu(WEIGHT_CAP + 1, Fraction(1, 2))
    with pytest.raises(TooLarge):
        parse_expr("zeta_m(3) + Li_m(9999999; 1/2)")


@pytest.mark.parametrize("make", [
    lambda: LIM(2, "1e2000"),
    lambda: symbolic.rational_point(10 ** 1001),
    lambda: symbolic.as_point(("rat", 10 ** 1001, 1)),
    lambda: symbolic.as_point(("rat", 1, 10 ** 1001)),
    lambda: UnipotentExpr.lnu("1/" + "3" * 1001),
], ids=["lim 1e2000", "rational_point 10**1001", "rat tuple 10**1001", "rat tuple 1/10**1001", "lnu 1/3*1001"])
def test_a_point_past_the_digit_cap_is_refused(make):
    with pytest.raises(InputError, match=f"^the point .*past the cap {DIGIT_CAP}"):
        make()


def test_a_point_written_short_is_refused_before_it_is_built():
    start = time.perf_counter()
    with pytest.raises(InputError, match=f"has 3000001 digits, past the cap {DIGIT_CAP}"):
        LIM(2, "1e3000000")
    assert time.perf_counter() - start < 0.1


def test_points_read_as_before_within_the_cap():
    assert LIM(2, "1/3") == LIM(2, Fraction(1, 3)) == LIM(2, ("rat", 2, 6)) == parse_expr("Li_m(2; 1/3)")
    assert str(LIM(2, "0.25")) == "Li_m(2; 1/4)"
    assert str(LIM(2, "x0")) == "Li_m(2; x0)"
    for bad in [("rat", 1, 0), "zeta_m", "1/0", 0.5, ("rat", 1)]:
        with pytest.raises(DomainError):
            LIM(2, bad)


def refuse_work(*args):
    raise AssertionError("work began before the size check")


@pytest.mark.parametrize("call", [coact, galois_conjugates, coassoc_residual,
                                  lambda e: stability_report([ZM(3), e])],
                         ids=["coact", "conjugates", "coassoc", "stability"])
@pytest.mark.parametrize("text,size", [("Li_m(100; 1/2)*Li_m(100; 1/3)", 101 * 101),
                                       ("zeta_m(3)*zeta_m(5)*Li_m(500; 1/2)", 2 * 2 * 501),
                                       ("Li_m(4; 1/2)*Li_m(400; 1/3) + zeta_m(3)", 5 * 401)])
def test_coaction_past_the_term_cap_is_refused_before_any_work(monkeypatch, call, text, size):
    e = parse_expr(text)
    monkeypatch.setattr(symbolic, "_linear_image", refuse_work)
    monkeypatch.setattr(symbolic, "_echelon", refuse_work)
    with pytest.raises(TooLarge, match=f"has {size} terms, past the cap {COACTION_TERM_CAP}"):
        call(e)


@pytest.mark.parametrize("text,size", [("Li_m(100; 1/2)", 176851), ("Li_m(65; 1/2)", 50116),
                                       ("Li_m(10; 1/2)*Li_m(10; 1/3)", 286 * 286),
                                       ("zeta_m(3)*zeta_m(5)*Li_m(32; 1/2) + zeta_m(2)", 9 * 6545)])
def test_coassociativity_past_its_cap_is_refused_before_any_work(monkeypatch, text, size):
    # Each passes the coaction cap; the two double coactions form about n**3/6
    # terms per Li_m(n; z), C(n + 3, 3), and 3 per odd zeta_m.
    e = parse_expr(text)
    assert len(coact(e).terms) <= COACTION_TERM_CAP
    monkeypatch.setattr(symbolic, "_linear_image", refuse_work)
    with pytest.raises(TooLarge, match=f"coassociativity check of .* has {size} terms, "
                                       f"past the cap {COASSOC_TERM_CAP}"):
        coassoc_residual(e)


@pytest.mark.parametrize("text", ["Li_m(40; 1/2)", "Li_m(4; 1/2)*Li_m(4; 1/3)*Li_m(4; -1)",
                                  "zeta_m(5)*zeta_m(3)*Li_m(4; 1/2)*Li_m(4; 1/3)"])
def test_coassociativity_up_to_its_cap_is_allowed(text):
    # The largest products the benchmark draws are three weight-4 polylogarithms.
    assert coassoc_residual(parse_expr(text))


@pytest.mark.parametrize("text,size", [(f"Li_m({WEIGHT_CAP}; 1/2)", WEIGHT_CAP + 1),
                                       (f"zeta_m(3)*Li_m({WEIGHT_CAP}; 1/2)", COACTION_TERM_CAP),
                                       ("zeta_m(2)*twopi_i*zeta_m(3)*Li_m(1; 1/2)*Li_m(2; 1/3)", 12)])
def test_coaction_up_to_the_term_cap_is_allowed(text, size):
    assert len(coact(parse_expr(text)).terms) == size


def read_digits(text: str) -> int:
    """``int(text)`` for a digit string of any length, 1000 digits at a time."""
    value = 0
    for i in range(0, len(text), 1000):
        value = value * 10 ** len(text[i:i + 1000]) + int(text[i:i + 1000])
    return value


@pytest.mark.parametrize("coeff", [Fraction(10 ** 4999 + 7, 3), Fraction(-(10 ** 6000), 10 ** 4500 + 1),
                                   Fraction(-(10 ** 1000)), Fraction(10 ** 999 - 1), Fraction(-5, 7)])
def test_coefficients_print_exactly_past_the_str_digit_limit(coeff):
    number, star, atom = str(coeff * ZM(3)).rpartition("*")
    assert star and atom == "zeta_m(3)"
    sign = -1 if number.startswith("-") else 1
    num, _, den = number.lstrip("-").partition("/")
    assert num[0] != "0" and den[:1] != "0"
    assert Fraction(sign * read_digits(num), read_digits(den or "1")) == coeff


def old_rendering(e) -> str:
    """``str(e)`` as printed before each atom was formatted once and the pieces joined once."""
    first, *rest = e._factors
    rendered = []
    for c, mono, *others in e.pairs():
        parts = [symbolic._fmt_product(c, [first.fmt(a) for a in mono])]
        parts += ["*".join(map(kind.fmt, m)) or "1" for kind, m in zip(rest, others)]
        rendered.append(" (x) ".join(parts))
    if not rendered:
        return "0"
    out = rendered[0]
    for piece in rendered[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def test_a_large_coaction_prints_as_before():
    e = parse_expr("Li_m(300; 1/2) - 3/7*zeta_m(3)*Li_m(200; -1/3) + twopi_i*zeta_m(5) - zeta_m(2)")
    for x in (e, coact(e), hopf_coproduct(UnipotentExpr.liu(30, Fraction(2, 3))),
              -e, MotivicExpr.zero(), TensorSum.zero()):
        assert str(x) == old_rendering(x)
    assert len(str(coact(e))) > 100_000
