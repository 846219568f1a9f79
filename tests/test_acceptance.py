"""End-to-end gate: one test per guaranteed behaviour, at stated tolerance.

Each test carries its own wall-clock budget so a regression in speed fails
as loudly as a regression in accuracy.  Everything runs single-process on
one core; the whole module stays within a few minutes, dominated by the
ten-million-sample period estimate.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest

from euler_periods import feynper, g2, symbolic
from euler_periods.eulerfun import (
    gamma_const,
    identity_residual,
    zeta,
    zeta_even_closed,
)
from euler_periods.mzv import multiphi, mzv, mzv_bruteforce, stuffle_residual
from euler_periods.numkernel import _at_one, _word


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def test_criterion_01_zeta_two_matches_pi_squared_over_six():
    with budget(1.0):
        z = zeta(2, 20)
    with mpmath.workdps(40):
        reference = mpmath.pi ** 2 / 6
        assert abs(z.value - reference) <= mpmath.mpf("1e-20")
    assert mpmath.nstr(z.value, 7) == "1.644934"


def test_criterion_02_even_zeta_closed_forms():
    with budget(1.0):
        values = [(n, zeta(2 * n, 16), zeta_even_closed(n)) for n in range(1, 5)]
    with mpmath.workdps(40):
        for n, numeric, ratio in values:
            closed = mpmath.mpf(ratio.numerator) / ratio.denominator * mpmath.pi ** (2 * n)
            assert abs(numeric.value - closed) <= mpmath.mpf("1e-15")


def test_criterion_03_euler_constant_two_routes():
    with budget(5.0):
        by_em = gamma_const(13, method="EM")
        by_zeta = gamma_const(13, method="ZETA_SERIES")
    with mpmath.workdps(30):
        assert abs(by_em.value - by_zeta.value) <= mpmath.mpf("1e-12")
        assert abs(by_em.value - mpmath.mpf("0.5772156649")) < mpmath.mpf("5e-11")
    assert mpmath.nstr(by_em.value, 4) == "0.5772"


def test_criterion_04_identity_residual_suite():
    with budget(30.0):
        for i in range(1, 10):
            x = Fraction(i, 10)
            r = identity_residual("DILOG_REFLECTION", {"x": x}, 15)
            assert float(r.value) <= 1e-12
            r = identity_residual("PHI_FUNCEQ", {"s": x}, 15)
            assert float(r.value) <= 1e-12
        for x in (Fraction(3, 10), Fraction(1, 2), 1):
            r = identity_residual("COTANGENT", {"x": x, "terms": 40}, 15)
            assert float(r.value) <= 1e-12
        r = identity_residual("EULER_PRODUCT", {"s": 2, "prime_bound": 10 ** 5}, 15)
        assert float(r.value) < 1e-4


def test_criterion_05_stuffle_and_bruteforce_agreement():
    with budget(60.0):
        for m in (2, 3, 4):
            for n in (2, 3, 4):
                r = stuffle_residual(m, n, 15)
                assert r.value <= r.err
        indices = [(w - n2, n2) for w in range(3, 9) for n2 in range(2, w)]
        assert len(indices) == 21
        for idx in indices:
            fast = mzv(idx, 15)
            brute = mzv_bruteforce(idx, 4000)
            with mpmath.workdps(30):
                assert abs(fast.value - brute.value) <= fast.err + brute.err


def test_criterion_06_alternating_double_sums():
    with budget(30.0):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                certified = multiphi((m, n), 15)
                assert certified.value < 0
                word = _word((n, m), (-1, 1))  # multiphi((m, n)) at a set term count
                at_64 = _at_one(word, 15, 64)
                at_128 = _at_one(word, 15, 128)
                with mpmath.workdps(25):
                    assert abs(at_64.value - at_128.value) <= mpmath.mpf("1e-8")


def test_criterion_07_graph_polynomial_suite():
    with budget(1.0):
        bubble = feynper.bubble()
        triangle = feynper.triangle()
        k4 = feynper.named_graph("k4")
        assert feynper.kirchhoff_polynomial(bubble).terms == {(1, 0): 1, (0, 1): 1}
        assert feynper.kirchhoff_polynomial(triangle).terms == {
            (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
        k4_poly = feynper.kirchhoff_polynomial(k4)
        assert len(k4_poly.terms) == 16
        assert all(sum(e) == 3 and max(e) == 1 for e in k4_poly.terms)
        for g in (bubble, triangle, k4, feynper.wheel(4)):
            poly = feynper.kirchhoff_polynomial(g)
            assert poly.monomial_count() == feynper.matrix_tree_count(g)
            for e in range(g.n_edges):
                recombined = (feynper.kirchhoff_polynomial(g.contract_edge(e)).insert_var(e)
                              + feynper.kirchhoff_polynomial(g.delete_edge(e))
                              .insert_var(e).times_var(e))
                assert recombined == poly


def test_criterion_08_period_integrator_statistics():
    with budget(60.0):
        bubble = feynper.bubble()
        small = feynper.period_mc(bubble, 10 ** 5)
        large = feynper.period_mc(bubble, 10 ** 6)
        for est in (small, large):
            assert abs(est.estimate - 1.0) <= 3 * est.stderr
        tiny = feynper.period_mc(bubble, 10 ** 4)
        ratio = tiny.stderr / large.stderr
        assert 5.0 < ratio < 20.0
        report = feynper.integrator_selftest(20000)
        by_label = {entry.label: entry for entry in report.entries}
        for label in ("2^(1/2)", "pi"):
            entry = by_label[label]
            assert abs(entry.estimate - entry.reference) <= 3 * entry.stderr
        assert report.passed


def test_criterion_09_k4_period_is_six_zeta_three():
    with budget(300.0):
        est = feynper.period_mc(feynper.named_graph("k4"), 10 ** 7)
    zeta3 = zeta(3, 15)
    with mpmath.workdps(25):
        target = 6 * zeta3.value
        assert abs(est.estimate - target) <= 3 * est.stderr
    multiple, sigmas = feynper.snap_to_multiple(est, zeta3)
    assert multiple == 6
    assert sigmas <= 3.0


def test_criterion_10_second_order_moment():
    with budget(5.0):
        value = g2.assemble("137.035999", order=2)
    assert abs(float(value.value) - 1.159638e-3) <= 4e-9


def test_criterion_11_third_order_moment():
    with budget(1.0):
        value = g2.assemble("137.0359991727", order=3)
    assert abs(float(value.value) - 1.159652201e-3) <= 2e-9


def test_criterion_12_fourth_order_self_consistency():
    with budget(1.0):
        value = g2.assemble("137.0359991727", order=4)
        measured = g2.lookup(None, "exp:2008")
    with mpmath.workdps(30):
        assert abs(value.value - measured.value.value) <= mpmath.mpf("3e-12")


def test_criterion_13_alpha_inversion():
    with budget(1.0):
        trace = []
        inverted = g2.invert_alpha(g2.lookup(None, "exp:2008"), order=4, trace=trace)
    assert len(trace) <= 6
    with mpmath.workdps(30):
        assert abs(inverted.value - mpmath.mpf("137.0359992")) <= mpmath.mpf("5e-7")


def test_criterion_14_uncertainty_arithmetic():
    assert round(g2.combine_uncertainties([6.0, 4.0, 2.0, 77.0])) == 77
    assert round(g2.combine_uncertainties([77.0, 28.0])) == 82
    result = g2.compare(g2.lookup(None, "exp:2008"), g2.lookup(None, "th:2012"))
    assert str(result) == "-1.05e-12 ± 0.83e-12"


def test_criterion_15_coaction_suite():
    with budget(5.0):
        zm = symbolic.MotivicExpr.zm
        lim = symbolic.MotivicExpr.lim
        tpim = symbolic.MotivicExpr.tpim
        half = Fraction(1, 2)
        assert str(symbolic.coact(zm(3))) == "1 (x) zeta_m(3) + zeta_u(3) (x) 1"
        assert str(symbolic.coact(zm(2))) == "1 (x) zeta_m(2)"
        assert str(symbolic.coact(tpim())) == "1 (x) twopi_i"
        assert str(symbolic.coact(lim(2, half))) == (
            "1 (x) Li_m(2; 1/2) + ln_u(1/2) (x) Li_m(1; 1/2) "
            "+ Li_u(2; 1/2) (x) 1")
        generators = [tpim()]
        generators += [zm(n) for n in range(2, 9)]
        generators += [lim(n, half) for n in range(1, 9)]
        for e in generators:
            assert symbolic.coassoc_residual(e)
        conj, dimension = symbolic.galois_conjugates(zm(3))
        assert dimension == 2
        report = symbolic.stability_report([zm(2) * zm(3)])
        assert str(report).startswith("unstable")


def test_criterion_16_period_map_kills_known_relation():
    with budget(1.0):
        zm = symbolic.MotivicExpr.zm
        value = symbolic.period_map(5 * zm(4) - 2 * zm(2) * zm(2), prec=15)
    with mpmath.workdps(25):
        assert abs(value.value) <= mpmath.mpf("1e-12")
