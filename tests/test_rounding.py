"""The counted rounding rule: every declared bound covers the true error.

``numkernel._rounding`` counts one binary unit of the working precision per
rounding a site performs.  A count that misses shows as a residual or an
error above its bound, so this file checks the identity residuals on a grid
of rational points and a seeded sweep of evaluator cells at random prec
against mpmath at 130 digits.
"""

import random
import re
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from mpmath import mpf

from euler_periods import eulerfun, g2, symbolic
from euler_periods.mzv import p35_combination, stuffle_residual

GRID = sorted({Fraction(n, d) for d in range(2, 21) for n in range(1, d)})
SEED = 20181013
CELLS_PER_FAMILY = 40


@pytest.mark.parametrize("kind, key", [("PHI_FUNCEQ", "s"), ("DILOG_REFLECTION", "x")])
def test_identity_residual_within_its_bound_on_the_grid(kind, key):
    # Both identities are exact, so the residual is the rounding the bound counts.
    missed = []
    for x in GRID:
        r = eulerfun.identity_residual(kind, {key: x}, 15)
        if not abs(r.value) <= r.err:
            missed.append(x)
    assert not missed, missed


def _mp(q):
    return mpf(q.numerator) / q.denominator


def _expr_value(text):
    """An expression in zeta_m, Li_m and rationals, at the ambient precision of mpmath."""
    code = re.sub(r"(\d+)", r"mpf(\1)", text.replace("zeta_m", "Z").replace("Li_m", "L").replace(";", ","))
    return eval(code, {"mpf": mpf, "Z": lambda n: mpmath.zeta(int(n)),
                       "L": lambda n, z: mpmath.polylog(int(n), z)})


@lru_cache(maxsize=None)
def _p35_reference():
    # zeta(3, 5) inner-first is sum(l**-5 H_(l-1)^(3)), H_(l-1)^(3) = zeta(3) + psi(2, l)/2,
    # summed by Richardson extrapolation.
    z3 = mpmath.zeta(3)
    z35 = mpmath.nsum(lambda l: l ** -5 * (z3 + mpmath.psi(2, l) / 2), [2, mpmath.inf], method="r")
    return mpf(2) / 5 * (29 * mpmath.zeta(8) - 12 * z35) - 9 * mpmath.zeta(5) * z3


def _rat(rng, lo, hi, den_max):
    while True:
        d = rng.randint(1, den_max)
        first, last = -(-lo * d // 1), hi * d // 1
        if first <= last:
            return Fraction(rng.randint(first, last), d)


def sweep_cells(seed=SEED, per_family=CELLS_PER_FAMILY):
    """``(family, label, call, reference)`` for the seeded sweep; references at the ambient mpmath precision."""
    rng = random.Random(seed)
    cells = []

    def add(family, label, call, ref):
        cells.append((family, label, call, ref))

    for _ in range(per_family):
        s = _rat(rng, Fraction(11, 10), Fraction(8), 12)
        add("zeta", f"zeta({s})", lambda p, s=s: eulerfun.zeta(s, p), lambda s=s: mpmath.zeta(_mp(s)))
        s = _rat(rng, Fraction(1, 12), Fraction(8), 12)
        add("phi", f"phi({s})", lambda p, s=s: eulerfun.phi(s, p), lambda s=s: mpmath.altzeta(_mp(s)))
    for n in (1, 2, 3, 4):
        for _ in range(per_family // 2):
            if n == 1:
                z = _rat(rng, Fraction(-1), Fraction(39, 40), 40)
            elif n == 2 and rng.random() < 0.3:
                z = _rat(rng, Fraction(21, 40), Fraction(39, 40), 40)
            else:
                z = _rat(rng, Fraction(-1), Fraction(1, 2), 40) if rng.random() < 0.9 else Fraction(1)
            add("polylog", f"polylog({n}, {z})", lambda p, n=n, z=z: eulerfun.polylog(n, z, p),
                lambda n=n, z=z: mpmath.polylog(n, _mp(z)))
    for method in ("EM", "ZETA_SERIES"):
        for _ in range(per_family // 2):
            add("gamma_const", f"gamma_const({method})",
                lambda p, m=method: eulerfun.gamma_const(p, m), lambda: +mpmath.euler)
    for _ in range(per_family):
        c = _rat(rng, Fraction(-3), Fraction(3), 6)
        a, b, n = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 4)
        z = _rat(rng, Fraction(-1, 2), Fraction(1, 2), 20)
        text = f"{c}*zeta_m({a})*Li_m({n}; {z}) - zeta_m({b})"
        add("period_map", text, lambda p, t=text: symbolic.period_map(symbolic.parse_expr(t), p),
            lambda c=c, a=a, b=b, n=n, z=z: _mp(c) * mpmath.zeta(a) * mpmath.polylog(n, _mp(z)) - mpmath.zeta(b))
    modes = [(order, mode) for order in (2, 3) for mode in (g2.CoeffMode.EXACT_BRACKET, g2.CoeffMode.AS_PRINTED)]
    for _ in range(per_family // 4):
        for order, mode in modes:
            call = ((lambda p, m=mode: g2.coeff_a2(m, p)) if order == 2
                    else (lambda p, m=mode: g2.coeff_a3(m, p)))
            add("g2_bracket", f"a{order} {mode.value}", call,
                lambda t=g2._BRACKETS[order, mode]: _expr_value(t))
    for _ in range(per_family):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        add("stuffle_residual", f"stuffle_residual({m}, {n})",
            lambda p, m=m, n=n: stuffle_residual(m, n, p), lambda: mpf(0))
    for _ in range(per_family // 4):
        add("p35_combination", "p35_combination", p35_combination, _p35_reference)
    return [(family, label, call, ref, rng.randint(1, 100)) for family, label, call, ref in cells]


def test_sweep_has_enough_cells():
    assert len(sweep_cells()) >= 300


@pytest.mark.parametrize("family", ["zeta", "phi", "polylog", "gamma_const", "period_map",
                                    "g2_bracket", "stuffle_residual", "p35_combination"])
def test_every_bound_covers_mpmath(family):
    missed = []
    for fam, label, call, ref, prec in sweep_cells():
        if fam != family:
            continue
        x = call(prec)
        assert x.certified(), (label, prec)
        with mpmath.workdps(130):
            if not abs(x.value - ref()) <= x.err:
                missed.append((label, prec))
    assert not missed, missed
