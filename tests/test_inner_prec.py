"""One inner-precision rule: composites keep their guard digits at every prec.

A composite that must meet ``10**-prec`` evaluates its parts at
``numkernel.inner_prec(prec, k)``, which ``numkernel.check_prec`` admits
past ``MAX_PREC``; a plain integer prec stays in ``[1, 100]`` at every
public entry (the command line's are in ``test_cli.py``).  So a
composite's declared bound keeps falling up to prec 100, where a cap at
``MAX_PREC`` froze it.
"""

from fractions import Fraction

import mpmath
import pytest

from euler_periods import eulerfun, g2, symbolic
from euler_periods.errors import DomainError
from euler_periods.mzv import multiphi, mzv, mzv_bruteforce, p35_combination, stuffle_residual
from euler_periods.numkernel import MAX_PREC, accel_alt_sum, alt_terms_needed, em_sum, zeta_values

#: A ``bits.json`` expression with a reflection-window atom.
PERIOD = "Li_m(2; 3/4)*zeta_m(3) - Li_m(4; 1)"

COMPOSITES = {
    "stuffle_residual(2, 3)": lambda p: stuffle_residual(2, 3, p),
    "p35_combination": p35_combination,
    "period_map": lambda p: symbolic.period_map(symbolic.parse_expr(PERIOD), p),
    "coeff_a2(EXACT_BRACKET)": lambda p: g2.coeff_a2(g2.CoeffMode.EXACT_BRACKET, p),
    "coeff_a2(AS_PRINTED)": lambda p: g2.coeff_a2(g2.CoeffMode.AS_PRINTED, p),
    "coeff_a3(EXACT_BRACKET)": lambda p: g2.coeff_a3(g2.CoeffMode.EXACT_BRACKET, p),
    "coeff_a3(AS_PRINTED)": lambda p: g2.coeff_a3(g2.CoeffMode.AS_PRINTED, p),
    "PHI_FUNCEQ(1/3)": lambda p: eulerfun.identity_residual("PHI_FUNCEQ", {"s": Fraction(1, 3)}, p),
}

#: Every public evaluator and composite, called at one prec.
PUBLIC = {
    **COMPOSITES,
    "zeta": lambda p: eulerfun.zeta(3, p),
    "phi": lambda p: eulerfun.phi(Fraction(1, 2), p),
    "polylog": lambda p: eulerfun.polylog(2, Fraction(3, 4), p),
    "gamma_const": lambda p: eulerfun.gamma_const(p),
    "identity_residual": lambda p: eulerfun.identity_residual("DILOG_REFLECTION", {"x": Fraction(1, 3)}, p),
    "mzv": lambda p: mzv((2, 3), p),
    "mzv_bruteforce": lambda p: mzv_bruteforce((2, 3), 10, p),
    "multiphi": lambda p: multiphi((1, 3), p),
    "em_sum": em_sum,
    "accel_alt_sum": lambda p: accel_alt_sum([1] * 200, p),
    "zeta_values": lambda p: zeta_values(5, p),
    "alt_terms_needed": alt_terms_needed,
    "coeff_a3(REGISTRY)": lambda p: g2.coeff_a3(g2.CoeffMode.REGISTRY, p),
    "assemble": lambda p: g2.assemble("137.035999084", prec=p),
    "invert_alpha": lambda p: g2.invert_alpha(g2.lookup(None, "exp:2008"), prec=p),
}


@pytest.mark.parametrize("name", COMPOSITES)
def test_a_composite_bound_keeps_falling_to_the_top_prec(name):
    errs = [COMPOSITES[name](p).err for p in range(94, MAX_PREC + 1)]
    assert all(b < a for a, b in zip(errs, errs[1:])), [mpmath.nstr(e, 3) for e in errs]


def test_the_deepest_g2_chain_keeps_its_three_margins(monkeypatch):
    # assemble takes the REGISTRY a3 at prec + 6, which takes a2 at prec + 12,
    # whose period_map takes its atoms at prec + 18.  The total carries the
    # registry's uncertainty, so the margins show in the a2 it reads.
    seen = []
    coeff_a2 = g2.coeff_a2

    def spy(*args, **kwargs):
        seen.append(coeff_a2(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(g2, "coeff_a2", spy)
    for prec in range(94, MAX_PREC + 1):
        g2._packaged_coefficient.cache_clear()
        g2.assemble("137.035999084", prec=prec)
    g2._packaged_coefficient.cache_clear()
    assert [a2.prec for a2 in seen] == [p + 12 for p in range(94, MAX_PREC + 1)]
    assert all(b.err < a.err for a, b in zip(seen, seen[1:]))
    with mpmath.workdps(130):
        z2, z3 = mpmath.zeta(2), mpmath.zeta(3)
        ref = mpmath.mpf(197) / 144 + z2 / 2 - 3 * z2 * mpmath.log(2) + 3 * z3 / 4
        assert abs(seen[-1].value - ref) <= seen[-1].err
    assert seen[-1].certified()


@pytest.mark.parametrize("name", PUBLIC)
def test_a_plain_prec_past_the_top_is_refused_everywhere(name):
    with pytest.raises(DomainError, match=r"prec must be an integer in \[1, 100\], got 101"):
        PUBLIC[name](MAX_PREC + 1)
