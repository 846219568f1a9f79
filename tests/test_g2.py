"""Registry handling, series coefficients, assembly, inversion, comparison."""

import dataclasses
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from euler_periods import g2 as g2_module
from euler_periods.errors import DomainError, InputError, NoConvergence, PrecisionNotMet, SchemaError
from euler_periods.eulerfun import phi
from euler_periods.g2 import (
    _BRACKETS,
    _MULTIPHI_13,
    A4_DIGITS,
    CoeffMode,
    CoefficientSet,
    Measurement,
    assemble,
    coeff_a2,
    coeff_a3,
    combine_uncertainties,
    compare,
    default_registry_path,
    format_difference,
    g_factor,
    invert_alpha,
    load_registry,
    lookup,
)
from euler_periods.mzv import multiphi
from euler_periods.numkernel import (DIGIT_CAP, MAX_PREC, MIN_PREC, BigReal, as_fraction, pi_times, working_bits,
                                     working_dps)
from euler_periods.symbolic import coassoc_residual, parse_expr, period_map

GOOD_ROW = {
    "label": "x:2000",
    "value": "1.0e-3",
    "uncertainty_components": ["1e-6"],
    "year": 2000,
    "source_eq": "src",
}


def write_registry(tmp_path, rows, name="reg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(rows), encoding="utf-8")
    return str(path)


def row(**overrides):
    out = dict(GOOD_ROW)
    out.update(overrides)
    return out


# ---------------------------------------------------------------------------
# Uncertainty arithmetic and formatting
# ---------------------------------------------------------------------------


def test_combine_quadrature():
    assert combine_uncertainties([3, 4]) == 5.0
    assert round(combine_uncertainties([6, 4, 2, 77])) == 77
    assert round(combine_uncertainties([77, 28])) == 82
    assert combine_uncertainties([]) == 0.0
    assert combine_uncertainties([0, 0]) == 0.0


def least_float_up(x: float, square: Fraction) -> bool:
    """Whether ``x`` is the least float at or above ``sqrt(square)``."""
    return Fraction(x) ** 2 >= square and (x == 0 or Fraction(math.nextafter(x, 0)) ** 2 < square)


def test_combine_is_the_least_float_at_or_above_the_exact_root():
    comps = [6e-14, 4e-14, 2e-14, 77e-14]
    total = combine_uncertainties(comps)
    assert least_float_up(total, sum(Fraction(c) ** 2 for c in comps))
    # The root of the float squares' fsum lies one float below the exact root here.
    assert total == math.nextafter(math.sqrt(math.fsum(c * c for c in comps)), math.inf)


def test_combine_rounds_upward_across_the_float_range():
    rng = random.Random(28)
    for _ in range(300):
        comps = [rng.random() * 2.0 ** rng.randint(-1080, 1000) for _ in range(rng.randint(1, 4))]
        comps += [Fraction(rng.randint(1, 10 ** 6), 10 ** rng.randint(0, 330))]
        assert least_float_up(combine_uncertainties(comps), sum(Fraction(c) ** 2 for c in comps)), comps


@pytest.mark.parametrize("comps,total", [
    ([Fraction(1, 10 ** 400)], 5e-324),  # the least positive float, where the float square is 0.0
    ([1e200, 1e200], 1.414213562373095e200),  # where the float square is inf
    ([sys.float_info.max], sys.float_info.max),
    ([5e-324, 5e-324], 1e-323),
])
def test_combine_at_the_edges_of_the_float_range(comps, total):
    assert combine_uncertainties(comps) == total
    assert least_float_up(total, sum(Fraction(c) ** 2 for c in comps))


@pytest.mark.parametrize("comps", [[Fraction(10 ** 400)], [10 ** 400], [sys.float_info.max, 1e300]])
def test_combine_past_the_largest_float_is_an_input_error(comps):
    with pytest.raises(InputError, match="overflows the float range"):
        combine_uncertainties(comps)


@pytest.mark.parametrize("bad", [[True], ["3"], [-1], [float("nan")], [float("inf")], [None]])
def test_combine_rejects(bad):
    with pytest.raises(InputError):
        combine_uncertainties(bad)


def test_format_difference_shared_exponent():
    assert format_difference(-1.05e-12, 0.82e-12) == "-1.05e-12 ± 0.82e-12"
    assert format_difference(1.234e-5, 2e-7) == "1.23e-5 ± 0.02e-5"
    # The uncertainty rounds upward, the difference to nearest.
    assert format_difference(2e-7, 1.234e-5) == "0.02e-5 ± 1.24e-5"
    assert format_difference(1.234e-5, 1.234e-5) == "1.23e-5 ± 1.24e-5"


def test_format_difference_zero_edge_cases():
    assert format_difference(0.0, 0.0) == "0.00e0 ± 0.00e0"
    assert format_difference(0.0, 1e-3) == "0.00e-3 ± 1.00e-3"
    assert format_difference(-1e-3, 0.0) == "-1.00e-3 ± 0.00e-3"


@pytest.mark.parametrize("difference,uncertainty", [
    (1.0, math.inf), (math.nan, 1.0), (1.0, -1e-3), (math.inf, 1.0), (1.0, math.nan), (0.0, -5e-324),
])
def test_format_difference_refuses_what_it_cannot_print(difference, uncertainty):
    # inf and nan used to raise a bare ValueError from Fraction, and a
    # negative uncertainty printed as its absolute value.
    with pytest.raises(InputError, match="finite, non-negative uncertainty"):
        format_difference(difference, uncertainty)


def test_format_difference_keeps_a_negative_zero_uncertainty():
    assert format_difference(1e-3, -0.0) == "1.00e-3 ± 0.00e-3"


def test_format_difference_powers_of_ten():
    # Exact powers of ten must not fall into the neighbouring decade.
    assert format_difference(1e-12, 1e-13) == "1.00e-12 ± 0.10e-12"
    assert format_difference(1.0, 0.1) == "1.00e0 ± 0.10e0"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_default_registry_shape():
    rows = load_registry()
    assert len(rows) == 16
    labels = [m.label for m in rows]
    assert len(set(labels)) == 16
    for expected in ("exp:2008", "th:2012", "th:2017", "alpha:rb:2011",
                     "a4:laporta:2017", "diff:2012"):
        assert expected in labels


def test_default_registry_path_exists():
    assert os.path.isfile(default_registry_path())


def test_registry_values_parse_to_bigreals():
    m = lookup(None, "exp:2008")
    assert isinstance(m.value, BigReal)
    assert m.year == 2008
    with mpmath.workdps(40):
        assert abs(m.value.value - mpf("1.15965218073e-3")) < mpf("1e-30")
    assert m.total_uncertainty == pytest.approx(2.8e-13)


def test_th2012_component_budget():
    m = lookup(None, "th:2012")
    assert len(m.uncertainty_components) == 4
    assert round(m.total_uncertainty / 1e-14) == 77


@pytest.mark.parametrize("prec", [1, 15, 30, MAX_PREC])
def test_measurement_folds_its_uncertainty_in_without_rounding_down(prec):
    def exact(x):
        return Fraction(*mpmath.libmp.to_rational(x._mpf_))
    for m in load_registry():
        x = m.as_bigreal(prec)
        assert x.value == m.value.value and x.prec == prec
        assert exact(x.err) >= exact(m.value.err) + Fraction(m.total_uncertainty)


def test_registry_components_are_the_exact_decimals():
    m = lookup(None, "th:2012")
    assert m.uncertainty_components == tuple(Fraction(c) for c in ("6e-14", "4e-14", "2e-14", "77e-14"))
    assert m.total_uncertainty == combine_uncertainties([6e-14, 4e-14, 2e-14, 77e-14])


@pytest.mark.parametrize("prec", [MIN_PREC, 15, MAX_PREC])
def test_every_row_prints_and_folds_a_total_at_least_the_exact_quadrature(prec):
    # sqrt(sum(c**2)) of the quoted decimals, compared by squares in Fractions.
    def exact(x):
        return Fraction(*mpmath.libmp.to_rational(x._mpf_))
    for m in load_registry():
        square = sum(Fraction(c) ** 2 for c in m.uncertainty_components)
        assert Fraction(m.total_text) ** 2 >= square, m.label
        radius, own = exact(m.as_bigreal(prec).err), exact(m.value.err)
        folded = radius - own
        assert folded >= 0 and folded ** 2 >= square, m.label
        if square:  # the exact sum rounded upward at the radius's 32 bits, not to two digits
            spare = radius / (1 + Fraction(1, 2 ** 30)) - own
            assert spare <= 0 or spare ** 2 <= square, m.label


def test_a_float_component_totals_upward_from_its_binary_value():
    m = Measurement("a", BigReal.from_decimal("1.0e-3", 30), (0.1, 0.2), 2000, "src")
    square = Fraction(0.1) ** 2 + Fraction(0.2) ** 2
    assert Fraction(m.total_text) ** 2 >= square and m.total_text == "0.23"
    assert Measurement("b", m.value, (), 2000, "src").total_text == "0"
    # A component whose float square underflows still totals upward, not to 0 or to 1.
    tiny = Measurement("c", BigReal.exact(1, 30), (Fraction(1, 10 ** 200), Fraction(3, 10 ** 201)), 2000, "src")
    square = Fraction(109, 10 ** 402)
    assert tiny.total_uncertainty == 1.0440306508910551e-200 and least_float_up(tiny.total_uncertainty, square)
    assert tiny.total_text == "1.1e-200" and Fraction(tiny.total_text) ** 2 >= square
    folded = Fraction(*mpmath.libmp.to_rational(tiny.as_bigreal(15).err._mpf_))
    assert square <= folded ** 2 <= square * (1 + Fraction(1, 2 ** 28))


def test_laporta_row_matches_constant():
    # The registry row is parsed at registry precision; the full digit
    # string must survive verbatim in the shipped file itself.
    m = lookup(None, "a4:laporta:2017")
    assert m.uncertainty_components == (Fraction(1, 10 ** 51),)  # one unit in the last decimal
    with mpmath.workdps(60):
        assert abs(m.value.value - mpf(A4_DIGITS)) <= m.value.err
    with open(default_registry_path(), encoding="utf-8") as fh:
        rows = json.load(fh)
    stored = next(r["value"] for r in rows if r["label"] == "a4:laporta:2017")
    assert stored == A4_DIGITS
    digits = A4_DIGITS.replace("-", "").replace(".", "")
    assert len(digits) == 52


def test_measurement_as_bigreal_folds_uncertainty():
    m = lookup(None, "exp:2008")
    b = m.as_bigreal(20)
    assert float(b.err) >= m.total_uncertainty
    assert b.prec == 20


def test_lookup_unknown_label_lists_known():
    with pytest.raises(InputError) as exc:
        lookup(None, "exp:1899")
    assert "exp:2008" in str(exc.value)


def test_load_registry_custom_file(tmp_path):
    path = write_registry(tmp_path, [GOOD_ROW])
    rows = load_registry(path)
    assert len(rows) == 1
    assert rows[0].label == "x:2000"
    assert rows[0].source == "src"
    assert rows[0].total_uncertainty == pytest.approx(1e-6)


@pytest.mark.parametrize("rows,field", [
    ([row(label="")], "label"),
    ([row(label=7)], "label"),
    ([{k: v for k, v in GOOD_ROW.items() if k != "year"}], "year"),
    ([row(extra="x")], "extra"),
    ([row(value=1.0e-3)], "value"),
    ([row(value="one")], "value"),
    ([row(value="inf")], "value"),
    ([row(value="nan")], "value"),
    ([row(uncertainty_components="1e-6")], "uncertainty_components"),
    ([row(uncertainty_components=[1e-6])], "uncertainty_components"),
    ([row(uncertainty_components=["-1e-6"])], "uncertainty_components"),
    ([row(uncertainty_components=["inf"])], "uncertainty_components"),
    ([row(year="2000")], "year"),
    ([row(year=True)], "year"),
    ([row(source_eq="")], "source_eq"),
    ([GOOD_ROW, GOOD_ROW], "label"),
])
def test_registry_schema_errors(tmp_path, rows, field):
    path = write_registry(tmp_path, rows)
    with pytest.raises(SchemaError) as exc:
        load_registry(path)
    assert exc.value.field == field


@pytest.mark.parametrize("component,problem", [
    ("1e-400", "rounds to 0.0"),
    ("1e400", "overflows the float range"),
    ("-1e-400", "must be non-negative"),
    ("1" * 2000, "has 2000 digits, past the cap"),
], ids=["underflow", "overflow", "negative underflow", "past the digit cap"])
def test_registry_component_a_float_cannot_hold_is_a_schema_error(tmp_path, component, problem):
    path = write_registry(tmp_path, [row(uncertainty_components=["1e-6", component])])
    with pytest.raises(SchemaError, match=problem) as exc:
        load_registry(path)
    assert (exc.value.entry, exc.value.field) == (0, "uncertainty_components")


def test_registry_entry_index_reported(tmp_path):
    path = write_registry(tmp_path, [GOOD_ROW, row(label="y:2001", value="nope")])
    with pytest.raises(SchemaError) as exc:
        load_registry(path)
    assert exc.value.entry == 1


def test_registry_value_past_the_digit_cap_is_a_schema_error(tmp_path):
    path = write_registry(tmp_path, [GOOD_ROW, row(label="y:2001", value="1" * 2000)])
    with pytest.raises(SchemaError, match=f"2000 digits, past the cap {DIGIT_CAP}") as exc:
        load_registry(path)
    assert (exc.value.entry, exc.value.field) == (1, "value")


def test_registry_non_object_entry(tmp_path):
    path = write_registry(tmp_path, [GOOD_ROW, 17])
    with pytest.raises(SchemaError):
        load_registry(path)


def test_registry_top_level_must_be_array(tmp_path):
    path = write_registry(tmp_path, {"rows": []})
    with pytest.raises(SchemaError) as exc:
        load_registry(path)
    assert "array" in str(exc.value)


def test_registry_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[{", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_registry(str(path))
    assert "JSON" in str(exc.value)


def test_registry_unreadable_path():
    with pytest.raises(SchemaError) as exc:
        load_registry("/no/such/registry.json")
    assert "cannot read" in str(exc.value)


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


def test_a1_is_exactly_one_half():
    c = CoefficientSet().coefficient(1, 30)
    assert c.value == mpf("0.5")
    assert c.err == 0


def test_a2_exact_bracket_value():
    c = coeff_a2(CoeffMode.EXACT_BRACKET, 15)
    with mpmath.workdps(40):
        assert abs(c.value - mpf("-0.328478965579194")) < mpf("1e-14")
    assert c.certified()


def test_a2_as_printed_drops_one_term():
    # The two brackets differ by exactly phi(2) = pi^2/12.
    prec = 15
    exact = coeff_a2(CoeffMode.EXACT_BRACKET, prec)
    printed = coeff_a2(CoeffMode.AS_PRINTED, prec)
    with mpmath.workdps(working_dps(prec) + 10):
        assert abs(printed.value - mpf("-1.15094599900331")) < mpf("1e-13")
        gap = exact.value - printed.value
        assert abs(gap - mpmath.pi ** 2 / 12) < mpf("1e-13")


def test_a2_registry_mode_consistent_with_bracket():
    exact = coeff_a2(CoeffMode.EXACT_BRACKET, 15)
    solved = coeff_a2(CoeffMode.REGISTRY, 15)
    diff = abs(float(exact.value) - float(solved.value))
    assert diff <= float(exact.err) + float(solved.err)
    assert float(solved.err) < 1e-2


def test_a3_consistent_value():
    c = coeff_a3(CoeffMode.CONSISTENT, 15)
    with mpmath.workdps(40):
        assert abs(c.value - mpf("1.18164117718851")) < mpf("1e-10")
    assert float(c.err) < 2e-4
    also = coeff_a3(CoeffMode.REGISTRY, 15)
    assert repr(also) == repr(c)


def test_a3_as_printed_is_wildly_off():
    c = coeff_a3(CoeffMode.AS_PRINTED, 15)
    with mpmath.workdps(40):
        assert abs(c.value - mpf("-397.27483611591")) < mpf("1e-9")


def laporta_remiddi() -> mpf:
    """a3 as Laporta and Remiddi print it (arXiv:hep-ph/9602417), at 130 digits."""
    with mpmath.workdps(130):
        pi2, ln2, z = mpmath.pi ** 2, mpmath.log(2), mpmath.zeta
        li4 = mpmath.polylog(4, mpf(1) / 2)
        return (mpf(28259) / 5184 + mpf(17101) / 810 * pi2 - mpf(298) / 9 * pi2 * ln2
                + mpf(139) / 18 * z(3) + mpf(100) / 3 * (li4 + ln2 ** 4 / 24 - pi2 * ln2 ** 2 / 24)
                - mpf(239) / 2160 * pi2 ** 2 + mpf(83) / 72 * pi2 * z(3) - mpf(215) / 24 * z(5))


def test_a3_exact_bracket_is_laporta_remiddi_at_every_prec():
    ref = laporta_remiddi()
    for prec in range(MIN_PREC, MAX_PREC + 1):
        c = coeff_a3(CoeffMode.EXACT_BRACKET, prec)
        assert c.certified(), prec
        with mpmath.workdps(130):
            assert abs(c.value - ref) <= c.err, prec
    assert mpmath.nstr(ref, 21) == "1.18124145658720000627"


def test_a3_consistent_exceeds_the_closed_form_by_what_the_series_leaves_out():
    # About 5e-12 in a_e: mass-dependent, hadronic, electroweak and fifth-order terms.
    exact = coeff_a3(CoeffMode.EXACT_BRACKET, 15)
    consistent = coeff_a3(CoeffMode.CONSISTENT, 15)
    r3 = float(1 / (mpf("137.035999") * mpmath.pi)) ** 3
    assert 4e-12 < float(consistent.value - exact.value) * r3 < 6e-12


def phi_form(order: int, mode: CoeffMode, prec: int) -> BigReal:
    """The brackets as the 1957 and 1996 texts write them, in phi and multiphi((1, 3))."""
    p1, p2, p3, p5 = (phi(n, prec) for n in (1, 2, 3, 5))
    if order == 2:
        printed = p3 - p1 * p2 * 6 + Fraction(197, 144)
        return printed + p2 if mode is CoeffMode.EXACT_BRACKET else printed
    p13 = multiphi((1, 3), prec)
    printed = ((p2 * p3 * 83 - p5 * 43) * Fraction(2, 9)
               - p13 * Fraction(50, 3)
               + p2 ** 2 * Fraction(13, 5)
               + (p3 * Fraction(1, 9) - p1 * p2 * 12) * Fraction(278, 3)
               + p2 * Fraction(34202, 135)
               + Fraction(28259, 2592))
    if mode is CoeffMode.AS_PRINTED:
        return printed
    # Three coefficients change: phi(2)**2 13/5 -> -13/5, phi(1) phi(2) -1112 -> -1192/3,
    # and the constant 28259/2592 -> 28259/5184.
    return printed - p2 ** 2 * Fraction(26, 5) + p1 * p2 * Fraction(2144, 3) - Fraction(28259, 5184)


@pytest.mark.parametrize("order,mode", list(_BRACKETS), ids=lambda k: str(getattr(k, "name", k)))
@pytest.mark.parametrize("prec", [1, 15, 50, 100])
def test_bracket_matches_its_phi_form(order, mode, prec):
    new = coeff_a2(mode, prec) if order == 2 else coeff_a3(mode, prec)
    old = phi_form(order, mode, min(prec + 6, MAX_PREC))
    assert new.certified()
    with mpmath.workdps(working_dps(MAX_PREC) + 20):
        assert abs(new.value - old.value) <= new.err + old.err


def test_multiphi_13_reduction_at_every_prec():
    m13 = parse_expr(_MULTIPHI_13)
    for prec in range(MIN_PREC, MAX_PREC + 1):
        via_symbols, direct = period_map(m13, prec), multiphi((1, 3), prec)
        assert via_symbols.certified(), prec
        with mpmath.workdps(working_dps(prec) + 20):
            assert abs(via_symbols.value - direct.value) <= via_symbols.err + direct.err, prec


@pytest.mark.parametrize("key", list(_BRACKETS), ids=lambda k: f"a{k[0]}-{k[1].name}")
def test_bracket_expressions_coact_coassociatively(key):
    assert coassoc_residual(parse_expr(_BRACKETS[key]))


def test_mode_aliases_and_validation():
    a = coeff_a2("as-printed", 15)
    b = coeff_a2(CoeffMode.AS_PRINTED, 15)
    assert repr(a) == repr(b)
    with pytest.raises(InputError, match="EXACT_BRACKET, AS_PRINTED, REGISTRY, CONSISTENT"):
        coeff_a2("folklore", 15)
    assert repr(coeff_a3("consistent", 15)) == repr(coeff_a3(CoeffMode.REGISTRY, 15))


def test_coefficient_set_defaults():
    cs = CoefficientSet()
    assert cs.a2_mode is CoeffMode.EXACT_BRACKET
    assert cs.a3_mode is CoeffMode.CONSISTENT
    c4 = cs.coefficient(4, 30)
    with mpmath.workdps(60):
        assert abs(c4.value - mpf(A4_DIGITS)) < mpf("1e-30")


def test_a4_radius_is_one_unit_in_its_last_decimal_at_every_prec():
    unit = Fraction(1, 10 ** 51)
    for prec in range(MIN_PREC, MAX_PREC + 1):
        c4 = CoefficientSet().coefficient(4, prec)
        value, err = (Fraction(*mpmath.libmp.to_rational(v._mpf_)) for v in (c4.value, c4.err))
        assert abs(value - Fraction(A4_DIGITS)) + unit <= err, prec


@pytest.mark.parametrize("mode", [CoeffMode.EXACT_BRACKET, CoeffMode.AS_PRINTED], ids=lambda m: m.name)
def test_assemble_covers_a4_anywhere_in_its_last_decimal(mode):
    # The a4 term moves the sum by about 3e-62 at alpha_inv = 137.035999084,
    # far past the 1e-110 that the working precision alone would declare.
    x = assemble("137.035999084", CoefficientSet(mode, mode), prec=100)
    c2, c3 = coeff_a2(mode, 100), coeff_a3(mode, 100)
    with mpmath.workdps(150):
        r = 1 / (mpf("137.035999084") * mpmath.pi)
        spread = c2.err * r ** 2 + c3.err * r ** 3
        for shift in (-1, 0, 1):
            a4 = mpf(A4_DIGITS) + shift * mpf(10) ** -51
            ref = r / 2 + c2.value * r ** 2 + c3.value * r ** 3 + a4 * r ** 4
            assert abs(x.value - ref) + spread <= x.err, shift


def test_coefficient_index_validation():
    cs = CoefficientSet()
    for bad in (0, 5, -1, 2.0, True):
        with pytest.raises(InputError):
            cs.coefficient(bad, 15)


COEFFS = (coeff_a2, coeff_a3)
MODES = (CoeffMode.EXACT_BRACKET, CoeffMode.AS_PRINTED, CoeffMode.REGISTRY)


def bits(x: BigReal) -> tuple:
    return x.value._mpf_, x.err._mpf_, x.prec


def test_a_cached_coefficient_has_the_bits_of_a_fresh_one_at_every_prec():
    cache = g2_module._packaged_coefficient
    for prec in range(MIN_PREC, MAX_PREC + 1):
        for coeff in COEFFS:
            for mode in MODES:
                cached = coeff(mode, prec)
                assert coeff(mode, prec) is cached
                cache.cache_clear()
                fresh = coeff(mode, prec)
                assert cache.cache_info().misses >= 1
                assert bits(fresh) == bits(cached), (coeff.__name__, mode, prec)


def test_mode_spellings_share_one_cache_entry():
    cache = g2_module._packaged_coefficient
    cache.cache_clear()
    for prec in (1, 15, 100):
        enums = [coeff_a2(CoeffMode.EXACT_BRACKET, prec), coeff_a3(CoeffMode.AS_PRINTED, prec),
                 coeff_a3(CoeffMode.REGISTRY, prec), coeff_a3(CoeffMode.CONSISTENT, prec)]
        filled = cache.cache_info().currsize
        spelled = [coeff_a2("exact-bracket", prec), coeff_a3(" as_printed ", prec),
                   coeff_a3("registry", prec), coeff_a3("consistent", prec)]
        assert all(x is y for x, y in zip(spelled, enums))
        assert cache.cache_info().currsize == filled


def test_a_callers_registry_is_not_cached_and_leaves_the_packaged_value(tmp_path):
    packaged = coeff_a3(CoeffMode.CONSISTENT, 15)
    rows = [dataclasses.replace(m, value=m.value + mpf("1e-12")) if m.label == "th:2017" else m
            for m in load_registry()]
    changed = coeff_a3(CoeffMode.CONSISTENT, 15, registry=rows)
    assert bits(changed) != bits(packaged)
    assert bits(coeff_a3(CoeffMode.CONSISTENT, 15, registry=rows)) == bits(changed)
    assert coeff_a3(CoeffMode.CONSISTENT, 15) is packaged
    # A registry file read by path takes the same uncached route.
    with open(default_registry_path(), encoding="utf-8") as fh:
        path = write_registry(tmp_path, json.load(fh))
    assert bits(coeff_a3(CoeffMode.CONSISTENT, 15, registry=load_registry(path))) == bits(packaged)


def test_the_coefficient_cache_holds_at_most_600_entries():
    for prec in range(MIN_PREC, MAX_PREC + 1):
        for coeff in COEFFS:
            for mode in MODES:
                coeff(mode, prec)
                coeff(mode.value.lower().replace("_", "-"), prec)
    assert g2_module._packaged_coefficient.cache_info().currsize <= 600


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def test_assemble_order1_closed_form():
    x = assemble("137.035999", order=1, prec=15)
    # a_e = 1/(2 pi * 137.035999) at first order.
    with mpmath.workdps(30):
        ref = 1 / (2 * mpmath.pi * mpf("137.035999"))
        assert abs(x.value - ref) < mpf("1e-18")
        assert abs(x.value - mpf("0.00116140973359778")) < mpf("1e-15")


def test_assemble_orders_move_monotonically():
    values = [float(assemble("137.035999", order=k, prec=15).value) for k in (1, 2, 3, 4)]
    steps = [abs(b - a) for a, b in zip(values, values[1:])]
    # Successive corrections shrink by roughly alpha/pi per order.
    assert steps[0] > steps[1] > steps[2]
    assert steps[2] < 1e-10


def test_assemble_accepts_bigreal_and_number():
    a = assemble(mpf("137.035999"), order=2, prec=15)
    b = assemble("137.035999", order=2, prec=15)
    assert float(a.value) == pytest.approx(float(b.value), abs=1e-18)


@pytest.mark.parametrize("order", [0, 5, -1, 2.5, True])
def test_assemble_order_validation(order):
    with pytest.raises(InputError):
        assemble("137.035999", order=order)


def test_assemble_rejects_nonpositive_alpha():
    with pytest.raises(DomainError):
        assemble("-137.0", order=2)
    with pytest.raises(DomainError):
        assemble(0, order=2)


def test_assemble_rejects_non_number():
    with pytest.raises(InputError):
        assemble(object(), order=2)


PAST_CAP = [10 ** 5000, Fraction(1, 10 ** (DIGIT_CAP + 1)), mpf(2) ** 5000]
WITHIN_CAP = [137, 10 ** (DIGIT_CAP - 1), Fraction(137035999084, 10 ** 9), Fraction(1, 10 ** (DIGIT_CAP - 1)),
              mpf("137.035999084"), 137.035999084]


@pytest.mark.parametrize("x", PAST_CAP, ids=["int", "Fraction", "mpf"])
def test_number_inputs_past_the_digit_cap_raise_as_strings_do(x):
    with pytest.raises(InputError, match=f"^alpha_inv is past the cap {DIGIT_CAP} digits$"):
        assemble(x, order=2)
    with pytest.raises(InputError, match=f"^target_ae is past the cap {DIGIT_CAP} digits$"):
        invert_alpha(x, order=2)


@pytest.mark.parametrize("x", WITHIN_CAP, ids=["int", "wide int", "Fraction", "tiny Fraction", "mpf", "float"])
def test_number_inputs_within_the_digit_cap_keep_their_bits(x):
    mine, direct = g2_module._as_input(x, "x", 21), BigReal.exact(x, 21)
    assert (mine.value._mpf_, mine.err._mpf_, mine.prec) == (direct.value._mpf_, direct.err._mpf_, 21)


def test_assemble_deterministic():
    assert repr(assemble("137.035999049", prec=15)) == repr(assemble("137.035999049", prec=15))


def test_g_factor_relation():
    m = lookup(None, "exp:2008")
    g = g_factor(m)
    with mpmath.workdps(30):
        assert abs(g.value - mpf("2.00231930436146")) < mpf("1e-13")
    direct = g_factor(mpf("0.5"))
    assert direct.value == 3


@pytest.mark.parametrize("a_e", [True, "abc", None, object()], ids=["True", "abc", "None", "object"])
def test_g_factor_rejects_what_assemble_rejects(a_e):
    with pytest.raises(InputError):
        g_factor(a_e)
    with pytest.raises(InputError):
        assemble(a_e)


@pytest.mark.parametrize("call,message", [
    (lambda: assemble("abc"), "alpha_inv 'abc' is not a decimal number"),
    (lambda: assemble(None), "alpha_inv must be a number, got None"),
    (lambda: invert_alpha("abc"), "target_ae 'abc' is not a decimal number"),
    (lambda: invert_alpha(True), "target_ae must be a number, got True"),
    (lambda: g_factor("abc"), "a_e 'abc' is not a decimal number"),
    (lambda: g_factor(None), "a_e must be a number, got None"),
    (lambda: assemble("inf"), "alpha_inv 'inf' is not a decimal number"),
    (lambda: invert_alpha("nan"), "target_ae 'nan' is not a decimal number"),
])
def test_input_errors_name_the_argument(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


def test_domain_errors_show_the_input():
    with pytest.raises(DomainError, match=r"^alpha_inv must be positive, got '-137.0'$"):
        assemble("-137.0")
    with pytest.raises(DomainError, match=r"^target_ae must lie in \(0, 2e-3\), got 0.0025$"):
        invert_alpha(0.0025)


@pytest.mark.parametrize("target,shown", [
    ("0.5", "'0.5'"),
    (" 2.50e-3", "' 2.50e-3'"),
    (0.0025, "0.0025"),
    (Fraction(1, 2), "Fraction(1, 2)"),
    (mpf("0.5"), "mpf('0.5')"),
    (BigReal.from_decimal("0.5", 15), "0.5"),
    (lookup(None, "alpha:rb:2011"), "row 'alpha:rb:2011'"),
], ids=["str", "str as written", "float", "Fraction", "mpf", "BigReal", "Measurement"])
def test_a_target_outside_the_domain_is_shown_as_given(target, shown):
    with pytest.raises(DomainError) as exc:
        invert_alpha(target)
    assert str(exc.value) == f"target_ae must lie in (0, 2e-3), got {shown}"


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


def test_invert_alpha_from_measurement():
    m = lookup(None, "exp:2008")
    trace = []
    x = invert_alpha(m, order=4, prec=15, trace=trace)
    assert 1 <= len(trace) <= 6
    with mpmath.workdps(30):
        assert abs(x.value - mpf("137.035999159537")) < mpf("1e-9")
    assert 1e-8 < float(x.err) < 1e-6


EXACT_ALPHAS = ("130", "137.036", "140", "137.035999084")
BRACKETS = CoefficientSet(CoeffMode.EXACT_BRACKET, CoeffMode.EXACT_BRACKET)


def holds(x: BigReal, q: Fraction) -> bool:
    """Whether the ball of ``x`` holds the rational ``q``, decided exactly."""
    value, err = (Fraction(*mpmath.libmp.to_rational(v._mpf_)) for v in (x.value, x.err))
    return abs(value - q) <= err


def test_inverting_an_assembled_exact_alpha_encloses_it_at_every_prec():
    for alpha in EXACT_ALPHAS:
        for prec in range(MIN_PREC, MAX_PREC + 1):
            back = invert_alpha(assemble(alpha, BRACKETS, prec=prec), BRACKETS, prec=prec)
            assert holds(back, Fraction(alpha)), (alpha, prec)


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_an_early_stopped_newton_point_still_encloses_or_raises(monkeypatch, steps):
    # The bound is the interval Newton step's, so a midpoint left off by the
    # point iteration widens the ball or fails it; it never makes it miss.
    monkeypatch.setattr(g2_module, "_NEWTON_STEPS", steps)
    enclosed = 0
    for alpha in EXACT_ALPHAS:
        for prec in range(MIN_PREC, MAX_PREC + 1, 9):
            trace = []
            target = assemble(alpha, BRACKETS, prec=prec)
            try:
                back = invert_alpha(target, BRACKETS, prec=prec, trace=trace)
            except NoConvergence:
                continue
            assert len(trace) <= steps
            assert holds(back, Fraction(alpha)), (alpha, prec)
            enclosed += 1
    assert enclosed


def test_a_slope_ball_that_holds_zero_raises_no_convergence_naming_the_inversion():
    @dataclass(frozen=True)
    class Loose(CoefficientSet):
        def coefficient(self, n, prec, registry=None):
            c = super().coefficient(n, prec, registry)
            return BigReal(c.value, 1000, prec) if n == 2 else c

    with pytest.raises(NoConvergence) as exc:
        invert_alpha("1.159652e-3", Loose(), prec=15)
    assert str(exc.value) == "alpha inversion: a slope's or the root's ball holds 0"


def reference_invert_alpha(target_ae, coeffs=None, order=4, prec=15, registry=None, trace=None):
    """The inversion with its point iteration run on BigReal balls, as it was first written.

    Each point step computes radii that the next step discards;
    :func:`invert_alpha` runs the same steps on the bare midpoints and must
    give the same iterates and the same result bits.
    """
    coeffs = coeffs or CoefficientSet()
    target = g2_module._as_input(target_ae, "target_ae", prec)
    inner = g2_module._inner_prec(prec)
    t = BigReal(target.value, target.err, inner)
    cs = [coeffs.coefficient(n, inner, registry) for n in range(1, order + 1)]
    slopes = [c * n for n, c in enumerate(cs, start=1)]
    pi = pi_times(1, inner)
    horner = g2_module._horner
    top = 8 - working_bits(inner)
    a = BigReal((pi * t * 2).value, 0, inner)
    try:
        for k in range(g2_module._NEWTON_STEPS + 1):
            r = a / pi
            fa = horner(cs, r) * r - t
            step = fa / (horner(slopes, r) / pi)
            if k == g2_module._NEWTON_STEPS or mpmath.mag(step.value) <= mpmath.mag(a.value) + top:
                break
            a = BigReal((a - step).value, 0, inner)
            if trace is not None:
                trace.append(float(1 / a.value))
        rho = 2 * (abs(float(step.value)) + float(step.err))
        for _ in range(g2_module._WIDENINGS):
            x = BigReal(a.value, rho, inner)
            root = a - fa / (horner(slopes, x / pi) / pi)
            gap = abs(as_fraction(root.value) - as_fraction(a.value))
            if gap + as_fraction(root.err) <= as_fraction(x.err):
                inv = 1 / root
                return BigReal(inv.value, inv.err, prec)
            rho *= 4
    except PrecisionNotMet:
        raise NoConvergence("alpha inversion: a slope's or the root's ball holds 0") from None
    raise NoConvergence(f"alpha inversion: Newton's image left its ball {g2_module._WIDENINGS} times")


def outcome(invert, target, coeffs, prec):
    """What ``invert`` gives: its iterates and result bits, or its error's type and text."""
    trace = []
    try:
        x = invert(target, coeffs, prec=prec, trace=trace)
    except NoConvergence as exc:
        return trace, type(exc), str(exc)
    return trace, bits(x)


TARGETS = ["1e-12", "1e-10", "1e-8", "1e-6", "1e-5", "1e-4", "5e-4", "1e-3", "1.159652e-3", "1.999e-3"]


@pytest.mark.parametrize("prec", [1, 15, 50, 100])
def test_the_midpoint_newton_point_gives_the_bits_of_the_ball_iteration(prec):
    cases = [(lookup(None, "exp:2008"), None), *((t, None) for t in TARGETS),
             *((t, BRACKETS) for t in TARGETS[::3]),
             *((assemble(alpha, BRACKETS, prec=prec), BRACKETS) for alpha in EXACT_ALPHAS)]
    for target, coeffs in cases:
        mine = outcome(invert_alpha, target, coeffs, prec)
        assert mine == outcome(reference_invert_alpha, target, coeffs, prec), (target, prec)
        assert len(mine[0]) >= 1 or mine[1] is NoConvergence, (target, prec)


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_a_stopped_midpoint_iteration_gives_the_bits_of_the_ball_iteration(monkeypatch, steps):
    monkeypatch.setattr(g2_module, "_NEWTON_STEPS", steps)
    for target in ("1e-6", "1.159652e-3"):
        for prec in (1, 15, 100):
            mine = outcome(invert_alpha, target, None, prec)
            assert len(mine[0]) <= steps
            assert mine == outcome(reference_invert_alpha, target, None, prec), (target, prec)


@pytest.mark.parametrize("prec", [1, 15])
def test_a_target_of_1e_30_still_fails_to_invert_as_before(prec):
    with pytest.raises(NoConvergence) as exc:
        invert_alpha("1e-30", prec=prec)
    assert str(exc.value) == "alpha inversion: a slope's or the root's ball holds 0"
    assert outcome(invert_alpha, "1e-30", None, prec) == outcome(reference_invert_alpha, "1e-30", None, prec)


def test_invert_round_trips():
    for alpha_inv in ("130.0", "137.036", "140.0"):
        forward = assemble(alpha_inv, order=4, prec=20)
        back = invert_alpha(forward, order=4, prec=20)
        with mpmath.workdps(40):
            assert abs(back.value - mpf(alpha_inv)) < mpf("1e-10")


def test_invert_monotone_in_target():
    lo = invert_alpha("1.1596e-3", order=4, prec=15)
    hi = invert_alpha("1.1597e-3", order=4, prec=15)
    # Larger anomaly means stronger coupling, so a smaller inverse alpha.
    assert float(lo.value) > float(hi.value)


@pytest.mark.parametrize("target", ["0", "-1e-3", "2.5e-3"])
def test_invert_target_domain(target):
    with pytest.raises(DomainError):
        invert_alpha(target, order=4)


def test_invert_trace_is_reproducible():
    t1, t2 = [], []
    invert_alpha("1.159652e-3", order=3, prec=15, trace=t1)
    invert_alpha("1.159652e-3", order=3, prec=15, trace=t2)
    assert t1 == t2
    assert all(isinstance(v, float) for v in t1)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def test_compare_reproduces_published_difference():
    a = lookup(None, "exp:2008")
    b = lookup(None, "th:2012")
    result = compare(a, b)
    assert str(result) == "-1.05e-12 ± 0.83e-12"
    assert result.pull == pytest.approx(-1.2762243953718702, rel=1e-9)
    published = lookup(None, "diff:2012")
    # The same difference; the combined 0.8227e-12 rounds upward here and
    # to nearest, 0.82e-12, in the publication.
    assert format_difference(float(published.value.value),
                             published.total_uncertainty) == "-1.05e-12 ± 0.82e-12"


def test_every_row_and_pair_carries_the_least_float_at_or_above_the_exact_root():
    rows = load_registry()
    squares = {m.label: sum(Fraction(c) ** 2 for c in m.uncertainty_components) for m in rows}
    for m in rows:
        assert m.total_uncertainty == combine_uncertainties(m.uncertainty_components), m.label
        assert least_float_up(m.total_uncertainty, squares[m.label]), m.label
    for a in rows:
        for b in rows:
            result = compare(a, b)
            assert least_float_up(result.uncertainty, squares[a.label] + squares[b.label]), (a.label, b.label)
            assert result.difference == float(as_fraction(a.value.value) - as_fraction(b.value.value))
            assert result.pull == (result.difference / result.uncertainty if result.uncertainty else 0.0)


def test_compare_writes_the_exact_quadrature_upward():
    # sqrt(0.002**2 + 1e-102) is a little above 2.00e-3; the float path printed 2.00e-3.
    a, b = lookup(None, "a4:num:2012"), lookup(None, "a4:laporta:2017")
    assert str(compare(a, b)) == "1.65e-3 ± 2.01e-3"
    assert str(compare(b, a)) == "-1.65e-3 ± 2.01e-3"


def test_format_difference_reads_shortest_decimals():
    assert format_difference(0.0, 0.1 + 0.2) == "0.00e-1 ± 3.01e-1"  # 0.30000000000000004, upward
    assert format_difference(1.125e-3, 0.0) == "1.12e-3 ± 0.00e-3"  # a tie goes to even
    assert format_difference(-1e-20, 1e-3) == "-0.00e-3 ± 1.00e-3"  # the sign is kept
    assert format_difference(5e-324, 0.0) == "5.00e-324 ± 0.00e-324"  # its shortest decimal, not 4.94e-324


def test_compare_antisymmetric():
    a = lookup(None, "exp:2008")
    b = lookup(None, "th:2012")
    fwd = compare(a, b)
    rev = compare(b, a)
    assert fwd.difference == -rev.difference
    assert fwd.uncertainty == rev.uncertainty
    assert fwd.pull == -rev.pull


def test_compare_self_is_zero():
    a = lookup(None, "exp:2008")
    result = compare(a, a)
    assert result.difference == 0.0
    assert result.pull == 0.0


def test_compare_unpacks_as_triple():
    a = lookup(None, "exp:1987:e-")
    b = lookup(None, "exp:1987:e+")
    difference, uncertainty, pull = compare(a, b)
    assert difference == pytest.approx(5e-13, rel=1e-6)
    assert uncertainty == pytest.approx(math.sqrt(2) * 4.3e-12, rel=1e-9)
    assert abs(pull) < 0.1


def test_compare_zero_uncertainty_pull():
    m = Measurement("a", BigReal.from_decimal("1.0e-3", 30), (), 2000, "src")
    n = Measurement("b", BigReal.from_decimal("1.1e-3", 30), (), 2000, "src")
    result = compare(m, n)
    assert result.uncertainty == 0.0
    assert math.isinf(result.pull)
    assert result.pull < 0
