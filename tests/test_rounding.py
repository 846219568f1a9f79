"""The rounding rule: every declared bound covers the true error.

Every value the package returns, the identity residuals included, is an
enclosing ``BigReal`` ball or an integer engine's proved units, counted by
the one rule of :mod:`euler_periods.numkernel`.  A count that misses shows
as a residual or an error above its bound, so this file checks the identity
residuals at every prec and on a grid of rational points, and a seeded sweep
of evaluator cells at random prec, against mpmath at 130 digits.  No
certified value may read mpmath's ambient precision: every value keeps its
bits under an ambient 20 and 3000 bits.
"""

import math
import random
import re
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from mpmath import mpf

from euler_periods import eulerfun, g2, numkernel, symbolic
from euler_periods.mzv import multiphi, mzv, mzv_bruteforce, p35_combination, stuffle_residual
from make_bits import IDENTITY_ARGS

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


def _true_residual(kind, params):
    """The residual each identity check should show, at the ambient precision: 0 for an exact identity."""
    if kind == "COTANGENT":
        x = _mp(Fraction(params["x"]))
        series = mpmath.fsum(mpmath.zeta(2 * m) * (x / mpmath.pi) ** (2 * m) for m in range(1, params["terms"] + 1))
        return abs(x * mpmath.cot(x) - 1 + 2 * series)
    if kind == "EULER_PRODUCT":
        s, bound = _mp(Fraction(params["s"])), params["prime_bound"]
        primes = [p for p in range(2, bound + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        return abs(mpmath.fprod(1 - mpf(p) ** -s for p in primes) * mpmath.zeta(s) - 1)
    return mpf(0)


@pytest.mark.parametrize("kind, params", IDENTITY_ARGS,
                         ids=[f"{k}({', '.join(f'{a}={v}' for a, v in p.items())})" for k, p in IDENTITY_ARGS])
def test_identity_residual_certifies_and_covers_mpmath_at_every_prec(kind, params):
    with mpmath.workdps(130):
        true = _true_residual(kind, params)
    missed = []
    for prec in range(numkernel.MIN_PREC, numkernel.MAX_PREC + 1):
        r = eulerfun.identity_residual(kind, params, prec)
        assert r.certified() and r.prec == prec, prec
        with mpmath.workdps(130):
            if not abs(r.value - true) <= r.err:
                missed.append(prec)
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


#: One cell per route that returns a certified value: the evaluators, the
#: symbol layer and g2, the brute-force oracle and the four identity checks.
AMBIENT_CELLS = {
    "zeta": lambda p: eulerfun.zeta(Fraction(7, 3), p),
    "zeta past the root cap": lambda p: eulerfun.zeta(1 + Fraction(1, 10 ** 9), p),
    "phi": lambda p: eulerfun.phi(Fraction(1, 2), p),
    "phi past the root cap": lambda p: eulerfun.phi(Fraction(2 ** 70 + 3, 2 ** 71), p),
    "polylog n = 1": lambda p: eulerfun.polylog(1, Fraction(1, 3), p),
    "polylog engine": lambda p: eulerfun.polylog(3, Fraction(-1, 2), p),
    "polylog window": lambda p: eulerfun.polylog(2, Fraction(3, 4), p),
    "gamma EM": lambda p: eulerfun.gamma_const(p, "EM"),
    "gamma ZETA_SERIES": lambda p: eulerfun.gamma_const(p, "ZETA_SERIES"),
    "mzv": lambda p: mzv((2, 3), p),
    "multiphi": lambda p: multiphi((1, 3), p),
    "stuffle_residual": lambda p: stuffle_residual(2, 3, p),
    "p35_combination": p35_combination,
    "mzv_bruteforce": lambda p: mzv_bruteforce((2, 3), 200, p),
    "period_map": lambda p: symbolic.period_map(symbolic.parse_expr("Li_m(2; 3/4)*zeta_m(3) - Li_m(4; 1)"), p),
    "coeff_a2": lambda p: g2.coeff_a2(g2.CoeffMode.EXACT_BRACKET, p),
    "coeff_a3": lambda p: g2.coeff_a3(g2.CoeffMode.AS_PRINTED, p),
    "assemble": lambda p: g2.assemble("137.035999084", prec=p),
    "invert_alpha": lambda p: g2.invert_alpha(g2.lookup(None, "exp:2008"), prec=p),
    "DILOG_REFLECTION": lambda p: eulerfun.identity_residual("DILOG_REFLECTION", {"x": Fraction(1, 3)}, p),
    "COTANGENT": lambda p: eulerfun.identity_residual("COTANGENT", {"x": Fraction(1, 2), "terms": 30}, p),
    "EULER_PRODUCT": lambda p: eulerfun.identity_residual("EULER_PRODUCT", {"s": 2, "prime_bound": 1000}, p),
    "PHI_FUNCEQ": lambda p: eulerfun.identity_residual("PHI_FUNCEQ", {"s": Fraction(1, 3)}, p),
}


def _outcome(call, prec):
    """The value and bound bits of ``call(prec)``, or what it raised, from empty caches."""
    for cached in (g2._packaged_coefficient, g2._a4, numkernel._zeta_batch):
        cached.cache_clear()
    try:
        x = call(prec)
    except Exception as exc:  # the cell compares what was raised
        return type(exc).__name__, str(exc)
    return x.value._mpf_, x.err._mpf_


@pytest.mark.parametrize("name", AMBIENT_CELLS)
def test_no_certified_value_reads_the_ambient_precision(name):
    call = AMBIENT_CELLS[name]
    for prec in (1, 15, 100):
        default = _outcome(call, prec)
        for bits in (20, 3000):
            with mpmath.workprec(bits):
                assert _outcome(call, prec) == default, (prec, bits)


# ---------------------------------------------------------------------------
# Engine headroom: every planned bound lies between T 2**-16 and T
# ---------------------------------------------------------------------------


def _headroom_cases():
    """``name: (call, reference, planned)``; ``planned`` is False where a margin other than the engines' plan sets the bound."""
    z, q = mpmath.zeta, Fraction
    with mpmath.workdps(130):
        ln2, li4_half = mpmath.log(2), mpmath.polylog(4, mpf(1) / 2)
        return {
            "zeta(3)": (lambda p: eulerfun.zeta(3, p), z(3), True),
            "zeta(2)": (lambda p: eulerfun.zeta(2, p), z(2), True),
            "zeta(11/10)": (lambda p: eulerfun.zeta(q(11, 10), p), z(mpf(11) / 10), True),
            "zeta(7/3)": (lambda p: eulerfun.zeta(q(7, 3), p), z(mpf(7) / 3), True),
            "phi(1/2)": (lambda p: eulerfun.phi(q(1, 2), p), mpmath.altzeta(mpf(1) / 2), True),
            "phi(1)": (lambda p: eulerfun.phi(1, p), ln2, True),
            "phi(5/2)": (lambda p: eulerfun.phi(q(5, 2), p), mpmath.altzeta(mpf(5) / 2), True),
            "polylog(2, 1/3)": (lambda p: eulerfun.polylog(2, q(1, 3), p), mpmath.polylog(2, mpf(1) / 3), True),
            "polylog(3, -1/2)": (lambda p: eulerfun.polylog(3, q(-1, 2), p), mpmath.polylog(3, mpf(-1) / 2), True),
            "polylog(4, 1)": (lambda p: eulerfun.polylog(4, 1, p), z(4), True),
            "polylog(3, -1)": (lambda p: eulerfun.polylog(3, -1, p), -mpmath.altzeta(3), True),
            "polylog(2, 3/4)": (lambda p: eulerfun.polylog(2, q(3, 4), p), mpmath.polylog(2, mpf(3) / 4), False),
            "mzv(1, 2)": (lambda p: mzv((1, 2), p), z(3), True),
            "mzv(2, 2)": (lambda p: mzv((2, 2), p), (z(2) ** 2 - z(4)) / 2, True),
            "mzv(1, 1, 3)": (lambda p: mzv((1, 1, 3), p), 2 * z(5) - z(2) * z(3), True),
            "mzv(5,)": (lambda p: mzv((5,), p), z(5), True),
            "multiphi(1, 1)": (lambda p: multiphi((1, 1), p), (ln2 ** 2 - z(2)) / 2, True),
            "multiphi(1, 3)": (lambda p: multiphi((1, 3), p),
                               -2 * li4_half - ln2 ** 4 / 12 + mpmath.pi ** 2 * ln2 ** 2 / 12 + mpmath.pi ** 4 / 180, True),
            "multiphi(3,)": (lambda p: multiphi((3,), p), -mpmath.altzeta(3), True),
            "gamma_const(ZETA_SERIES)": (lambda p: eulerfun.gamma_const(p, "ZETA_SERIES"), +mpmath.euler, True),
            "gamma_const(EM)": (lambda p: eulerfun.gamma_const(p, "EM"), +mpmath.euler, False),
        }


HEADROOM = _headroom_cases()


def _headroom_precs(name):
    """Every public prec, then every inner prec up to ``INNER_TOP`` that the call does not refuse.

    ``zeta`` at a non-integer ``s`` adds the digits of ``floor(1/(s - 1))``,
    at least one, and refuses past the top; gamma's zeta series adds one, and
    the polylog window 4.
    """
    extra = {"zeta(11/10)": 2, "zeta(7/3)": 1, "gamma_const(ZETA_SERIES)": 1, "polylog(2, 3/4)": 4}.get(name, 0)
    inner = [numkernel.inner_prec(numkernel.MAX_PREC, k) for k in range(1, numkernel.INNER_DIGITS + 1 - extra)]
    return [*range(numkernel.MIN_PREC, numkernel.MAX_PREC + 1), *inner]


@pytest.mark.parametrize("name", HEADROOM)
def test_engine_bounds_meet_the_target_with_no_headroom_to_spare(name):
    # Each engine plans the fewest terms and bits whose proved bound meets
    # T = 2**-MARGIN_BITS 10**-prec, so every declared bound is at most T and,
    # since no planner over-provisions, at least T 2**-16, and it covers
    # mpmath at 130 digits.  Two bounds are set by margins outside the plan
    # and are held to T and coverage only: the polylog window takes its atoms
    # at inner_prec(prec, 4), and gamma's EM route plans by em_sum's own rule.
    call, ref, planned = HEADROOM[name]
    for prec in _headroom_precs(name):
        x = call(prec)
        target = Fraction(1, 10 ** prec << numkernel.MARGIN_BITS)
        radius = numkernel._radius(x)
        assert radius <= target, (prec, float(radius / target))
        assert not planned or radius >= target / 2 ** 16, (prec, float(radius / target))
        with mpmath.workdps(130):
            assert abs(x.value - ref) <= x.err, prec
