"""Independent reference values for the benchmark's correctness gate.

Every reference here is computed with plain mpmath at ``REF_DPS`` digits,
or from a closed form, never by calling euler_periods.  MZV indices use
the package's inner-first convention: ``(n_1, ..., n_d)`` weights the
smallest summation variable by ``n_1``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mpf

REF_DPS = 140

#: Period of a wheel with ``n`` spokes: binomial(2n-2, n-1) * zeta(2n-3).
WHEEL_PERIOD_FACTOR = {3: 6, 4: 20, 5: 70}


def q(x: Fraction) -> mpf:
    """A rational as an mpf at the ambient precision."""
    return mpf(x.numerator) / x.denominator


def _ctx(fn):
    def wrapped(*args):
        with mpmath.workdps(REF_DPS):
            return fn(*args)
    wrapped.__name__ = fn.__name__
    return wrapped


@_ctx
def zeta(s: Fraction) -> mpf:
    return mpmath.zeta(q(s))


@_ctx
def phi(s: Fraction) -> mpf:
    return mpmath.altzeta(q(s))


@_ctx
def polylog(n: int, z: Fraction) -> mpf:
    return mpmath.polylog(n, q(z))


@_ctx
def euler_gamma() -> mpf:
    return +mpmath.euler


def _euler_double(n: int) -> mpf:
    # Euler: sum_{k<l} 1/(k l^n) = (n/2) zeta(n+1) - 1/2 sum_{j=1}^{n-2} zeta(n-j) zeta(j+1).
    z = mpmath.zeta
    return (mpf(n) / 2 * z(n + 1)
            - mpmath.fsum(z(n - j) * z(j + 1) for j in range(1, n - 1)) / 2)


@_ctx
def mzv(idx: tuple[int, ...]) -> mpf:
    z = mpmath.zeta
    if len(idx) == 2 and idx[0] == 1:
        return _euler_double(idx[1])
    if idx == (2, 3):
        return 3 * z(2) * z(3) - mpf(11) / 2 * z(5)
    if idx == (1, 1, 3):
        return 2 * z(5) - z(2) * z(3)
    if idx == (2, 2, 2):
        return mpmath.pi ** 6 / 5040
    if idx == (4, 4, 4):
        # zeta({4}^n) = 2^(2n+1) pi^(4n) / (4n+2)!
        return 2 ** 7 * mpmath.pi ** 12 / math.factorial(14)
    raise KeyError(f"no closed form for mzv{idx}")


#: Indices with a closed form above, by depth.
MZV_DEPTH2 = tuple((1, n) for n in range(2, 9)) + ((2, 3),)
MZV_DEPTH3 = ((1, 1, 3), (2, 2, 2), (4, 4, 4))


@_ctx
def multiphi(idx: tuple[int, int]) -> mpf:
    ln2 = mpmath.log(2)
    pi = mpmath.pi
    if idx == (1, 3):
        return (-2 * mpmath.polylog(4, mpf(1) / 2) - ln2 ** 4 / 12
                + pi ** 2 * ln2 ** 2 / 12 + pi ** 4 / 180)
    if idx == (1, 1):
        return (ln2 ** 2 - mpmath.zeta(2)) / 2
    raise KeyError(f"no closed form for multiphi{idx}")


def _atom(kind: str, n: int, z: Fraction | None) -> mpf:
    if kind == "zeta_m":
        return mpmath.zeta(n)
    return mpmath.polylog(n, q(z))


@_ctx
def period(terms) -> mpf:
    """Value of ``sum(c * prod(atoms))`` with atoms ``(kind, n, z)``."""
    total = mpf(0)
    for c, atoms in terms:
        t = q(c)
        for kind, n, z in atoms:
            t *= _atom(kind, n, z)
        total += t
    return total


@_ctx
def wheel_period(spokes: int) -> float:
    return float(WHEEL_PERIOD_FACTOR[spokes] * mpmath.zeta(2 * spokes - 3))


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def wheel_spanning_trees(spokes: int) -> int:
    """Spanning trees of the wheel with ``spokes`` spokes: L(2n) - 2."""
    return lucas(2 * spokes) - 2


# ---------------------------------------------------------------------------
# Electron g-2 series
# ---------------------------------------------------------------------------


class G2Reference:
    """The a_e series with default coefficient modes, from the registry data.

    a_2 is the corrected closed form, a_3 is solved from the th:2017 total
    at the rubidium alpha (the CONSISTENT mode), a_4 is the 2017 digits.
    """

    def __init__(self, registry_path: Path):
        rows = json.loads(registry_path.read_text("utf-8"))
        self.rows = {r["label"]: r for r in rows}
        with mpmath.workdps(REF_DPS):
            ln2, pi = mpmath.log(2), mpmath.pi
            p1, p2, p3, p5 = ln2, pi ** 2 / 12, 3 * mpmath.zeta(3) / 4, 15 * mpmath.zeta(5) / 16
            self.a2 = p3 - 6 * p1 * p2 + p2 + mpf(197) / 144
            self.a4 = mpf(self.rows["a4:laporta:2017"]["value"])
            r = self.ratio(mpf(self.rows["alpha:rb:2011"]["value"]))
            ae = mpf(self.rows["th:2017"]["value"])
            self.a3 = (ae - r / 2 - self.a2 * r ** 2 - self.a4 * r ** 4) / r ** 3
            p13 = multiphi((1, 3))
            self.a3_printed = ((p2 * p3 * 83 - p5 * 43) * mpf(2) / 9
                               - p13 * mpf(50) / 3
                               + p2 ** 2 * mpf(13) / 5
                               + (p3 / 9 - p1 * p2 * 12) * mpf(278) / 3
                               + p2 * mpf(34202) / 135
                               + mpf(28259) / 2592)

    @staticmethod
    def ratio(alpha_inv: mpf) -> mpf:
        return 1 / (alpha_inv * mpmath.pi)

    def value(self, label: str) -> mpf:
        with mpmath.workdps(REF_DPS):
            return mpf(self.rows[label]["value"])

    def total_uncertainty(self, label: str) -> float:
        return math.sqrt(sum(float(c) ** 2 for c in self.rows[label]["uncertainty_components"]))

    def ae(self, alpha_inv: mpf) -> mpf:
        with mpmath.workdps(REF_DPS):
            r = self.ratio(alpha_inv)
            return r / 2 + self.a2 * r ** 2 + self.a3 * r ** 3 + self.a4 * r ** 4

    def alpha_inv(self, ae: mpf) -> mpf:
        with mpmath.workdps(REF_DPS):
            return mpmath.findroot(lambda a: self.ae(a) - ae, mpf("137.036"))
