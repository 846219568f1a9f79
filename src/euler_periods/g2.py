"""Perturbative series and measurement record for the electron g-2.

The anomalous magnetic moment ``a_e = (g - 2) / 2`` has the expansion
``a_e = sum(a_n * (alpha/pi)**n)`` in the fine structure constant alpha.
This module assembles partial sums of that series through fourth order,
inverts them to extract ``alpha**-1`` from a measured ``a_e``, and keeps a
small registry of published experimental and theoretical values together
with their quoted uncertainty components.

Coefficients ``a_2`` and ``a_3`` can be produced in several modes because
the published closed forms do not all agree with the published totals:
the 1957 second-order bracket omits a ``phi(2)`` term that the 1996 print
restores, and the 1996 third-order bracket as printed gives about -397.
EXACT_BRACKET and AS_PRINTED are motivic expressions sent through the
period map of :mod:`.symbolic`; the default a3 follows the totals, which
hold more than the four-order series (see CoeffMode).

Orders above four are not represented by series coefficients here; their
effect enters only through the quoted uncertainty components of the
theory rows in the registry.

Every coefficient but REGISTRY with a caller's own registry depends only on
``(n, mode, prec)``, so a2 and a3 are kept once per process in an
``lru_cache`` keyed on the order, the mode after :func:`_as_mode` and the
checked prec: at most 2 x 3 x 100 = 600 immutable balls, about 0.4 MB when
all are filled (tracemalloc, with the a4 balls the fill adds).
:func:`invert_alpha` finds its Newton point on bare midpoints and evaluates
balls only at that point, for the step that proves the root.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import resources
from typing import Iterable, Iterator, Sequence

import mpmath
from mpmath import mpf
from mpmath.libmp import from_rational, mpf_add, mpf_div, mpf_mul, mpf_shift, mpf_sub, round_ceiling
from mpmath.libmp import round_nearest as RN

from .errors import DomainError, InputError, NoConvergence, PrecisionNotMet, SchemaError
from .numkernel import MAX_PREC, BigReal, as_fraction, check_prec, pi_times, value_text, working_bits

MAX_ORDER = 4

#: Fourth-order coefficient, 51 decimals (Laporta's value, label a4:laporta:2017).
A4_DIGITS = "-1.912245764926445574152647167439830054060873390658725"

#: One unit in the last decimal of :data:`A4_DIGITS`, 1e-51 rounded upward: a4's radius.
_A4_UNIT = mpmath.mp.make_mpf(from_rational(1, 10 ** 51, 64, round_ceiling))

_REGISTRY_FIELDS = ("label", "value", "uncertainty_components", "year", "source_eq")

#: Precision, in certified digits, at which registry values are parsed.
_REGISTRY_PREC = 30


# ---------------------------------------------------------------------------
# Uncertainty arithmetic
# ---------------------------------------------------------------------------


def _decade(square: Fraction) -> int:
    """``floor(log10 sqrt(square))`` of a positive ``square``, exactly."""
    e = math.floor(_half_log2(square) * math.log10(2)) + 1  # at or above it
    while Fraction(100) ** e > square:
        e -= 1
    return e


def _float_up(square: Fraction) -> float:
    """The least float at or above ``sqrt(square)``; InputError past the largest float."""
    bits = min(54 - _half_log2(square), 1074)  # 54 bits or more, or the subnormal grid; then up to 53
    n = _root_up(square, Fraction(2) ** bits)
    drop = max(n.bit_length() - 53, 0)
    try:
        return math.ldexp(-(-n >> drop), drop - bits)
    except OverflowError:
        raise InputError("the quadrature total overflows the float range") from None


def combine_uncertainties(components: Iterable[object]) -> float:
    """Quadrature total ``sqrt(sum(c**2))`` of uncertainty components, as the least float at or above it.

    Components must be non-negative reals, summed as exact rationals; an
    empty collection totals 0.0.
    """
    square = Fraction(0)
    for c in components:
        if isinstance(c, bool) or not isinstance(c, (int, float, Fraction)):
            raise InputError(f"uncertainty component must be a real number, got {c!r}")
        if isinstance(c, float) and not math.isfinite(c) or c < 0:
            raise InputError(f"uncertainty component must be finite and non-negative, got {c!r}")
        square += Fraction(c) ** 2
    return _float_up(square)


def format_difference(difference: float, uncertainty: float) -> str:
    """Render ``difference ± uncertainty`` with a shared power of ten.

    The exponent is the larger exact decade of the two numbers and both
    mantissas carry two decimals, so 1.05e-12 with uncertainty 8.2e-13 prints
    as ``-1.05e-12 ± 0.82e-12``.  Each float is read as its shortest decimal.
    The difference rounds to the nearest hundredth, ties to even, and keeps
    its sign; the uncertainty rounds up to a hundredth, so the printed one
    never understates it.  A difference that is not finite, or an
    uncertainty that is not finite and non-negative, raises
    :class:`InputError`.
    """
    d, u = float(difference), float(uncertainty)
    if not (math.isfinite(d) and math.isfinite(u) and u >= 0):
        raise InputError(f"format_difference needs a finite difference and a finite, "
                         f"non-negative uncertainty, got {d!r} and {u!r}")
    return str(ComparisonResult(Fraction(repr(d)), Fraction(repr(u)) ** 2))


# ---------------------------------------------------------------------------
# Measurements and the registry
# ---------------------------------------------------------------------------


def _root_up(square: Fraction, scale: Fraction) -> int:
    """The least integer at or above ``scale sqrt(square)``."""
    n = math.ceil(square * scale * scale)
    return math.isqrt(n - 1) + 1 if n else 0


def _half_log2(square: Fraction) -> int:
    """About ``log2 sqrt(square)``, within 1, from the bit lengths alone."""
    return (square.numerator.bit_length() - square.denominator.bit_length()) // 2


@dataclass(frozen=True)
class Measurement:
    """One published value with its quoted uncertainty components, a registry row's as exact rationals."""

    label: str
    value: BigReal
    uncertainty_components: tuple[Fraction | float, ...]
    year: int
    source: str

    @property
    def total_uncertainty(self) -> float:
        return combine_uncertainties(self.uncertainty_components)

    @cached_property
    def _square(self) -> Fraction:
        """``sum(c**2)`` of the exact components, found once."""
        return sum((Fraction(c) ** 2 for c in self.uncertainty_components), Fraction(0))

    @property
    def total_text(self) -> str:
        """The quadrature total as ``.2g`` writes it, rounded upward, or ``0``.

        The two digits are the least ones at or above ``sqrt(sum(c**2))`` of
        the exact components, so the quoted total is never understated.
        """
        square = self._square
        if not square:
            return "0"
        shift = 1 - _decade(square)  # two digits, or 100 when rounding up carries: the same float
        return f"{float(f'{_root_up(square, Fraction(10) ** shift)}e{-shift}'):.2g}"

    @cached_property
    def _total_up(self) -> mpf:
        """The quadrature total of the exact components rounded upward at 64 bits, found once."""
        square = self._square
        bits = 64 - _half_log2(square)
        return mpmath.ldexp(_root_up(square, Fraction(2) ** bits), -bits)

    def as_bigreal(self, prec: int) -> BigReal:
        """The value with the quoted uncertainty folded into the bound.

        :attr:`_total_up` adds to the value's bound exactly, and the
        constructor rounds the sum up.
        """
        check_prec(prec)
        return BigReal(self.value.value, mpmath.fadd(self.value.err, self._total_up, exact=True), prec)


def default_registry_path() -> str:
    """Filesystem path of the registry shipped with the package."""
    return str(resources.files(__package__) / "data" / "registry.json")


def _entry_error(index: int, label: object, message: str, field_name: str | None = None) -> SchemaError:
    where = f"entry {index}" if not isinstance(label, str) or not label else f"entry {index} ({label})"
    return SchemaError(f"{where}: {message}", entry=index, field=field_name)


def _parse_entry(index: int, raw: object) -> Measurement:
    if not isinstance(raw, dict):
        raise _entry_error(index, None, f"expected an object, got {type(raw).__name__}")
    label = raw.get("label")
    missing = [k for k in _REGISTRY_FIELDS if k not in raw]
    if missing:
        raise _entry_error(index, label, f"missing field {missing[0]!r}", missing[0])
    unknown = [k for k in raw if k not in _REGISTRY_FIELDS]
    if unknown:
        raise _entry_error(index, label, f"unknown field {unknown[0]!r}", unknown[0])
    if not isinstance(label, str) or not label:
        raise _entry_error(index, label, "label must be a non-empty string", "label")
    text = raw["value"]
    if not isinstance(text, str):
        raise _entry_error(index, label, "value must be a decimal string", "value")
    try:
        value = BigReal.from_decimal(text, _REGISTRY_PREC)
    except DomainError:
        raise _entry_error(index, label, f"value {text!r} is not a decimal number", "value") from None
    except InputError as exc:
        raise _entry_error(index, label, str(exc), "value") from None
    comps = raw["uncertainty_components"]
    if not isinstance(comps, list):
        raise _entry_error(index, label, "uncertainty_components must be an array", "uncertainty_components")
    parsed: list[Fraction] = []
    for c in comps:
        if not isinstance(c, str):
            raise _entry_error(index, label, "uncertainty components must be decimal strings",
                               "uncertainty_components")
        try:
            exact = as_fraction(c, "an uncertainty component")
        except (InputError, DomainError) as exc:
            raise _entry_error(index, label, str(exc), "uncertainty_components") from None
        if exact < 0:
            problem = "must be non-negative"
        elif exact > sys.float_info.max:
            problem = "overflows the float range"
        elif exact and not float(exact):
            problem = "rounds to 0.0"
        else:
            parsed.append(exact)
            continue
        raise _entry_error(index, label, f"uncertainty component {c!r} {problem}", "uncertainty_components")
    year = raw["year"]
    if isinstance(year, bool) or not isinstance(year, int):
        raise _entry_error(index, label, "year must be an integer", "year")
    source = raw["source_eq"]
    if not isinstance(source, str) or not source:
        raise _entry_error(index, label, "source_eq must be a non-empty string", "source_eq")
    return Measurement(label, value, tuple(parsed), year, source)


def load_registry(path: str | None = None) -> list[Measurement]:
    """Read a measurement registry from JSON.

    With ``path`` omitted the packaged registry is used.  The file must be
    an array of objects with exactly the fields label, value (a decimal
    string), uncertainty_components (an array of decimal strings), year and
    source_eq; labels must be unique.  Violations, a value past
    :data:`~euler_periods.numkernel.DIGIT_CAP` digits among them, raise
    SchemaError.  Values are parsed at :data:`_REGISTRY_PREC` digits.
    """
    path = default_registry_path() if path is None else path
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read registry {path!r}: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's str digit limit
        raise SchemaError(f"registry is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise SchemaError(f"registry must be a JSON array, got {type(data).__name__}")
    rows: list[Measurement] = []
    seen: set[str] = set()
    for index, raw in enumerate(data):
        m = _parse_entry(index, raw)
        if m.label in seen:
            raise _entry_error(index, m.label, f"duplicate label {m.label!r}", "label")
        seen.add(m.label)
        rows.append(m)
    return rows


@lru_cache(maxsize=1)
def _default_registry() -> tuple[Measurement, ...]:
    return tuple(load_registry())


def lookup(registry: Sequence[Measurement] | None, label: str) -> Measurement:
    """Find a registry row by label; unknown labels raise InputError."""
    rows = _default_registry() if registry is None else registry
    for m in rows:
        if m.label == label:
            return m
    known = ", ".join(m.label for m in rows)
    raise InputError(f"no registry entry labelled {label!r} (known: {known})")


# ---------------------------------------------------------------------------
# Series coefficients
# ---------------------------------------------------------------------------


class CoeffMode(str, enum.Enum):
    """How a series coefficient is produced.

    EXACT_BRACKET evaluates the corrected closed form, AS_PRINTED evaluates
    the historical text literally, and REGISTRY (alias CONSISTENT) solves
    for the coefficient from the registry totals.  For ``a_2`` the first
    two differ by the dropped ``phi(2)`` term.  For ``a_3`` CONSISTENT,
    1.18164 +- 1.2e-4, exceeds the closed form by about 5e-12 in ``a_e``:
    the mass-dependent, hadronic, electroweak and fifth-order terms.
    """

    EXACT_BRACKET = "EXACT_BRACKET"
    AS_PRINTED = "AS_PRINTED"
    REGISTRY = "REGISTRY"
    CONSISTENT = "REGISTRY"


def _as_mode(mode: CoeffMode | str) -> CoeffMode:
    if isinstance(mode, CoeffMode):
        return mode
    if isinstance(mode, str):
        name = mode.strip().upper().replace("-", "_")
        try:
            return CoeffMode[name]
        except KeyError:
            pass
    choices = ", ".join(CoeffMode.__members__)
    raise InputError(f"unknown coefficient mode {mode!r} (choose from {choices})")


def _inner_prec(prec: int) -> int:
    return min(prec + 6, MAX_PREC)


def _alpha_ratio(alpha_inv: BigReal, prec: int) -> BigReal:
    return 1 / (alpha_inv * pi_times(1, prec))


def _powers(r: BigReal, top: int) -> list[BigReal]:
    """``r ** n`` for ``n = 0..top`` as one running product, each power bit for bit ``r ** n``."""
    out = [BigReal.exact(1, r.prec)]
    for _ in range(top):
        out.append(out[-1] * r)
    return out


#: The registry total each REGISTRY coefficient is solved from, by order.
_TOTALS = {2: "th:1957", 3: "th:2017"}


@lru_cache(maxsize=None)
def _a4(prec: int) -> BigReal:
    """``a_4`` at ``prec``: :data:`A4_DIGITS` as read, its radius widened by :data:`_A4_UNIT`."""
    a4 = BigReal.from_decimal(A4_DIGITS, prec)
    return BigReal(a4.value, mpmath.fadd(a4.err, _A4_UNIT, exact=True), prec)


def _backed_out(n: int, prec: int, registry: Sequence[Measurement] | None) -> BigReal:
    """``a_n`` solved from its registry total :data:`_TOTALS` ``[n]`` with the rubidium alpha.

    ``(a_e - r/2 - a_2 r**2 - a_4 r**4) / r**n`` at the inner precision with
    ``r = alpha / pi``, the ``a_2`` and ``a_4`` terms only for ``n = 3``.
    """
    inner = _inner_prec(prec)
    r = _alpha_ratio(lookup(registry, "alpha:rb:2011").as_bigreal(inner), inner)
    rest = lookup(registry, _TOTALS[n]).as_bigreal(inner) - r / 2
    powers = _powers(r, 4 if n == 3 else n)
    if n == 3:
        rest = rest - coeff_a2(prec=inner) * powers[2] - _a4(inner) * powers[4]
    a = rest / powers[n]
    return BigReal(a.value, a.err, prec)


#: The closed-form brackets by order and mode: ln 2 = Li_m(1; 1/2), phi(n) = (1 - 2**(1-n)) zeta(n),
#: pi**2 = 6 zeta(2), pi**4 = 90 zeta(4), and multiphi(1, 3) reduced at weight 4 (the MZV data mine,
#: arXiv:0907.2557).  The corrected a3 is Laporta and Remiddi's (arXiv:hep-ph/9602417).
_LN2 = "Li_m(1; 1/2)"
_MULTIPHI_13 = (f"-2*Li_m(4; 1/2) - 1/12*{_LN2}*{_LN2}*{_LN2}*{_LN2}"
                f" + 1/2*zeta_m(2)*{_LN2}*{_LN2} + 1/2*zeta_m(4)")
_BRACKETS = {
    (2, CoeffMode.EXACT_BRACKET): f"197/144 + 1/2*zeta_m(2) - 3*zeta_m(2)*{_LN2} + 3/4*zeta_m(3)",
    (2, CoeffMode.AS_PRINTED): f"197/144 - 3*zeta_m(2)*{_LN2} + 3/4*zeta_m(3)",
    (3, CoeffMode.EXACT_BRACKET):
        f"28259/5184 + 17101/135*zeta_m(2) - 596/3*zeta_m(2)*{_LN2} + 139/18*zeta_m(3)"
        f" + 100/3*Li_m(4; 1/2) + 25/18*{_LN2}*{_LN2}*{_LN2}*{_LN2} - 25/3*zeta_m(2)*{_LN2}*{_LN2}"
        f" - 239/24*zeta_m(4) + 83/12*zeta_m(2)*zeta_m(3) - 215/24*zeta_m(5)",
    (3, CoeffMode.AS_PRINTED):
        f"28259/2592 + 17101/135*zeta_m(2) - 556*zeta_m(2)*{_LN2} + 139/18*zeta_m(3)"
        f" + 13/20*zeta_m(2)*zeta_m(2) + 83/12*zeta_m(2)*zeta_m(3) - 215/24*zeta_m(5)"
        f" - 50/3*({_MULTIPHI_13})",
}


@lru_cache(maxsize=None)
def _bracket(order: int, mode: CoeffMode):
    """The parsed expression of a constant bracket, parsed once per process."""
    from .symbolic import parse_expr
    return parse_expr(_BRACKETS[order, mode])


def _coefficient(n: int, mode: CoeffMode | str, prec: int,
                 registry: Sequence[Measurement] | None) -> BigReal:
    """``a_n`` for ``n`` = 2 or 3: backed out of the registry, or the period of its bracket."""
    check_prec(prec)
    mode = _as_mode(mode)
    if mode is CoeffMode.REGISTRY and registry is not None:
        return _backed_out(n, prec, registry)
    return _packaged_coefficient(n, mode, prec)


@lru_cache(maxsize=None)
def _packaged_coefficient(n: int, mode: CoeffMode, prec: int) -> BigReal:
    """``a_n`` from its bracket or the packaged registry, found once per process.

    Keyed after :func:`check_prec` and :func:`_as_mode`, so a mode's
    spellings share one entry: at most 2 orders x 3 modes x 100 precs = 600
    immutable balls.
    """
    if mode is CoeffMode.REGISTRY:
        return _backed_out(n, prec, None)
    from .symbolic import period_map  # only the bracket modes load the symbol layer
    return period_map(_bracket(n, mode), prec)


def coeff_a2(mode: CoeffMode | str = CoeffMode.EXACT_BRACKET, prec: int = 15,
             registry: Sequence[Measurement] | None = None) -> BigReal:
    """Second-order coefficient ``a_2``.

    The corrected bracket is ``phi(3) - 6 phi(1) phi(2) + phi(2) + 197/144``
    (about -0.3284790); AS_PRINTED drops the lone ``phi(2)`` as the 1957
    text did (about -1.1509460); REGISTRY backs the coefficient out of the
    th:1957 total using the rubidium alpha, which matches the corrected
    bracket but carries the measurement uncertainty.
    """
    return _coefficient(2, mode, prec, registry)


def coeff_a3(mode: CoeffMode | str = CoeffMode.CONSISTENT, prec: int = 15,
             registry: Sequence[Measurement] | None = None) -> BigReal:
    """Third-order coefficient ``a_3``.

    EXACT_BRACKET is the Laporta-Remiddi closed form (about 1.1812415) and
    AS_PRINTED the 1996 bracket as printed (near -397).  CONSISTENT solves
    ``a_e(th:2017) = sum(a_n * r**n, n <= 4)`` for ``a_3`` with the rubidium
    alpha and the 51-digit ``a_4``: about 1.18164 +- 1.2e-4, above the closed
    form by the mass-dependent, hadronic, electroweak and fifth-order terms.
    """
    return _coefficient(3, mode, prec, registry)


@dataclass(frozen=True)
class CoefficientSet:
    """Choice of coefficient modes for assembling the series.

    ``a_1 = 1/2`` always.  ``a_4`` is read from the decimal string
    :data:`A4_DIGITS`, so its 51 decimals survive to any working precision,
    and its radius holds one unit in the last of them.
    """

    a2_mode: CoeffMode = CoeffMode.EXACT_BRACKET
    a3_mode: CoeffMode = CoeffMode.CONSISTENT

    def coefficient(self, n: int, prec: int,
                    registry: Sequence[Measurement] | None = None) -> BigReal:
        check_prec(prec)
        _check_order(n)
        if n == 1:
            return BigReal.exact(Fraction(1, 2), prec)
        if n == 4:
            return _a4(prec)
        return _coefficient(n, self.a2_mode if n == 2 else self.a3_mode, prec, registry)


# ---------------------------------------------------------------------------
# Assembling and inverting the series
# ---------------------------------------------------------------------------


def _as_input(x: object, name: str, prec: int | None = None) -> BigReal:
    """``x`` as a BigReal at ``prec``, by default its own or else 15.

    ``x`` is a Measurement (its uncertainty folded in), a BigReal, a decimal
    string or a number; anything else raises :class:`InputError`, and so
    does a number past :func:`~.numkernel.as_fraction`'s digit cap, however
    it is written.
    """
    if isinstance(x, Measurement):
        x = x.as_bigreal(x.value.prec)
    if isinstance(x, BigReal):
        return x if prec is None else BigReal(x.value, x.err, check_prec(prec))
    prec = 15 if prec is None else prec
    if isinstance(x, str):
        try:
            return BigReal.from_decimal(x, prec)
        except DomainError:
            raise InputError(f"{name} {x!r} is not a decimal number") from None
    if isinstance(x, bool) or not isinstance(x, (int, float, Fraction, mpf)):
        raise InputError(f"{name} must be a number, got {x!r}")
    as_fraction(x, name)
    return BigReal.exact(x, prec)


def _check_order(order: object) -> int:
    if isinstance(order, bool) or not isinstance(order, int) or not 1 <= order <= MAX_ORDER:
        raise InputError(f"order must be an integer in [1, {MAX_ORDER}], got {order!r}")
    return order


def assemble(alpha_inv: object, coeffs: CoefficientSet | None = None, order: int = MAX_ORDER,
             prec: int = 15, registry: Sequence[Measurement] | None = None) -> BigReal:
    """Partial sum ``sum(a_n * (alpha/pi)**n, 1 <= n <= order)``.

    ``alpha_inv`` is ``1/alpha`` as a number, decimal string or BigReal.
    The returned bound is honest rather than forced below ``10**-prec``:
    registry-derived coefficient modes carry measurement uncertainty that
    no working precision can remove.
    """
    check_prec(prec)
    order = _check_order(order)
    if coeffs is None:
        coeffs = CoefficientSet()
    inner = _inner_prec(prec)
    ainv = _as_input(alpha_inv, "alpha_inv", inner)
    if not ainv.value > 0:
        raise DomainError(f"alpha_inv must be positive, got {alpha_inv!r}")
    r = _alpha_ratio(ainv, inner)
    total = None
    for n, power in enumerate(_powers(r, order)[1:], start=1):
        term = coeffs.coefficient(n, inner, registry) * power
        total = term if total is None else total + term
    return BigReal(total.value, total.err, prec)


def g_factor(a_e: object, prec: int | None = None) -> BigReal:
    """Gyromagnetic ratio ``g = 2 (1 + a_e)``; ``prec`` defaults to that of ``a_e``, else 15."""
    return (_as_input(a_e, "a_e", prec) + 1) * 2


#: Most point Newton steps of :func:`invert_alpha`, and most widenings of its candidate ball.
_NEWTON_STEPS, _WIDENINGS = 50, 4


def _horner(coeffs: Sequence[BigReal], r: BigReal) -> BigReal:
    """``sum(coeffs[k] * r**k)`` by Horner's rule."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * r + c
    return acc


def _horner_mid(coeffs: Sequence[tuple], r: tuple, b: int) -> tuple:
    """:func:`_horner` on raw mpf midpoints, each op rounded to nearest at ``b`` bits as BigReal's."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = mpf_add(mpf_mul(acc, r, b, RN), c, b, RN)
    return acc


def invert_alpha(target_ae: object, coeffs: CoefficientSet | None = None, order: int = MAX_ORDER,
                 prec: int = 15, registry: Sequence[Measurement] | None = None,
                 trace: list | None = None) -> BigReal:
    """Solve ``assemble(alpha_inv) == target_ae`` for ``alpha_inv``, as a proved enclosure.

    The target must lie in (0, 2e-3), where the quartic is monotone and the
    physical branch unambiguous.  Newton's iteration in alpha from the
    one-loop seed ``alpha = 2 pi target`` finds a point ``m`` and carries no
    bound, so it runs on the bare midpoints of the balls below: the same
    libmp operations in the same order, rounded to nearest at ``b`` working
    bits, as BigReal would apply to them, so ``m`` has the bits the balls'
    midpoints would give.  At most 50 steps, until one moves alpha by about
    ``2**(8 - b)`` of it or less.  A list passed as ``trace`` records the
    alpha_inv iterates, one per step.

    The bound is one interval Newton step (Moore, *Interval Analysis*, 1966;
    Rump, "Verification methods", Acta Numerica 19, 2010).  ``f(a) =
    sum(c_n (a/pi)**n) - t`` is summed in BigReal over the coefficient
    balls, the target's ball and ``pi_times(1, .)``.  Those operations
    enclose, so with ``X = m ± rho`` the ball of ``f(m)`` holds every
    ``f(m)`` that the balls allow, and that of ``f'(X)`` every such ``f'``
    on ``X``.  Theorem: if ``f'(X)`` excludes 0 and ``N(X) = m - f(m) /
    f'(X)`` lies in ``X``, each such ``f`` has exactly one root in ``X``,
    and it lies in ``N(X)``.  Proof: ``f`` is monotone on ``X``; a root is
    ``m - f(m) / f'(xi)`` for some ``xi`` in ``X`` by the mean value
    theorem; and ``N(X)`` in ``X`` makes ``f(m)`` and ``f(m -+ rho)`` differ
    in sign.  ``rho`` starts at twice ``|f(m) / f'(m)|`` plus that ball's
    radius, both taken from balls evaluated once at ``m``, and quadruples at
    most 4 times.  NoConvergence when ``N(X)`` never lies in ``X``, or a
    slope's or the root's ball holds 0.  The result is ``1 / N(X)``.
    """
    check_prec(prec)
    order = _check_order(order)
    if coeffs is None:
        coeffs = CoefficientSet()
    target = _as_input(target_ae, "target_ae", prec)
    if not 0 < target.value < 1 or as_fraction(target.value) >= Fraction(1, 500):
        shown = (f"row {target_ae.label!r}" if isinstance(target_ae, Measurement)
                 else value_text(target_ae) if isinstance(target_ae, BigReal) else repr(target_ae))
        raise DomainError(f"target_ae must lie in (0, 2e-3), got {shown}")
    inner = _inner_prec(prec)
    t = BigReal(target.value, target.err, inner)
    cs = [coeffs.coefficient(n, inner, registry) for n in range(1, order + 1)]
    slopes = [c * n for n, c in enumerate(cs, start=1)]
    pi = pi_times(1, inner)
    b = working_bits(inner)
    mids, slope_mids = [c.value._mpf_ for c in cs], [c.value._mpf_ for c in slopes]
    pi_mid, t_mid = pi.value._mpf_, t.value._mpf_
    a = mpf_shift(mpf_mul(pi_mid, t_mid, b, RN), 1)
    try:
        for k in range(_NEWTON_STEPS + 1):
            r = mpf_div(a, pi_mid, b, RN)
            fa = mpf_sub(mpf_mul(_horner_mid(mids, r, b), r, b, RN), t_mid, b, RN)
            step = mpf_div(fa, mpf_div(_horner_mid(slope_mids, r, b), pi_mid, b, RN), b, RN)
            # A step of 0, or of magnitude (exp + bc) at most 2**(8 - b) of a's, ends the iteration.
            if k == _NEWTON_STEPS or not step[1] or step[2] + step[3] <= a[2] + a[3] + 8 - b:
                break
            a = mpf_sub(a, step, b, RN)
            if trace is not None:
                trace.append(float(1 / mpmath.mp.make_mpf(a)))
        m = BigReal(mpmath.mp.make_mpf(a), 0, inner)
        r = m / pi
        fa = _horner(cs, r) * r - t
        step = fa / (_horner(slopes, r) / pi)
        rho = 2 * (abs(float(step.value)) + float(step.err))
        for _ in range(_WIDENINGS):
            x = BigReal(m.value, rho, inner)
            root = m - fa / (_horner(slopes, x / pi) / pi)
            gap = abs(as_fraction(root.value) - as_fraction(m.value))
            if gap + as_fraction(root.err) <= as_fraction(x.err):  # N(X) lies in X
                inv = 1 / root
                return BigReal(inv.value, inv.err, prec)
            rho *= 4
    except (PrecisionNotMet, ZeroDivisionError):  # a slope midpoint of exactly 0 as well
        raise NoConvergence("alpha inversion: a slope's or the root's ball holds 0") from None
    raise NoConvergence(f"alpha inversion: Newton's image left its ball {_WIDENINGS} times")


# ---------------------------------------------------------------------------
# Comparing measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonResult:
    """Exact ``delta`` of two midpoints and ``square``, both rows' ``sum(c**2)``, which ``str`` writes.

    The floats are ``delta`` to nearest, the least float at or above the root, and their quotient.
    """

    delta: Fraction
    square: Fraction

    @property
    def difference(self) -> float:
        return float(self.delta)

    @property
    def uncertainty(self) -> float:
        return _float_up(self.square)

    @property
    def pull(self) -> float:
        if self.square:
            return self.difference / self.uncertainty
        return math.copysign(math.inf, self.delta) if self.delta else 0.0

    def __iter__(self) -> Iterator[float]:
        return iter((self.difference, self.uncertainty, self.pull))

    def __str__(self) -> str:
        """The one comparison writer; :func:`format_difference` states its rules."""
        exponent = _decade(max(self.delta ** 2, self.square)) if self.delta or self.square else 0
        scale = Fraction(10) ** (2 - exponent)
        n, q = abs(round(self.delta * scale)), _root_up(self.square, scale)
        sign = "-" if self.delta < 0 else ""
        return f"{sign}{n // 100}.{n % 100:02d}e{exponent} ± {q // 100}.{q % 100:02d}e{exponent}"


def compare(a: Measurement, b: Measurement) -> ComparisonResult:
    """``a - b`` with uncertainties of both combined in quadrature.

    Exactly antisymmetric: swapping the arguments flips the signs of the
    difference and the pull bit for bit.
    """
    return ComparisonResult(as_fraction(a.value.value) - as_fraction(b.value.value), a._square + b._square)
