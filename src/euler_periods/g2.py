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
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Iterable, Iterator, Sequence

import mpmath
from mpmath import mpf

from .errors import DomainError, InputError, NoConvergence, SchemaError
from .numkernel import MAX_PREC, BigReal, check_prec, pi_times, working_dps, _rounding

MAX_ORDER = 4

#: Fourth-order coefficient, 51 digits (Laporta's value, label a4:laporta:2017).
A4_DIGITS = "-1.912245764926445574152647167439830054060873390658725"

_REGISTRY_FIELDS = ("label", "value", "uncertainty_components", "year", "source_eq")

#: Precision, in certified digits, at which registry values are parsed.
_REGISTRY_PREC = 30


# ---------------------------------------------------------------------------
# Uncertainty arithmetic
# ---------------------------------------------------------------------------


def combine_uncertainties(components: Iterable[object]) -> float:
    """Quadrature total ``sqrt(sum(c**2))`` of uncertainty components.

    Components must be non-negative reals; an empty collection totals 0.0.
    """
    squares = []
    for c in components:
        if isinstance(c, bool) or not isinstance(c, (int, float, Fraction)):
            raise InputError(f"uncertainty component must be a real number, got {c!r}")
        x = float(c)
        if not math.isfinite(x) or x < 0:
            raise InputError(f"uncertainty component must be finite and non-negative, got {c!r}")
        squares.append(x * x)
    return math.sqrt(math.fsum(squares))


def _decade(x: float) -> int:
    # Exponent read back from the decimal formatter; floor(log10(.)) can land
    # on the wrong side for exact powers of ten.
    return int(f"{abs(x):.15e}".split("e")[1])


def format_difference(difference: float, uncertainty: float) -> str:
    """Render ``difference +- uncertainty`` with a shared power of ten.

    The exponent is the larger decade of the two numbers and both mantissas
    carry two decimals, so 1.05e-12 with uncertainty 8.2e-13 prints as
    ``-1.05e-12 ± 0.82e-12``.  The difference rounds to nearest; the
    uncertainty, taken as the shortest decimal of its float, rounds upward,
    so the printed one never understates it.
    """
    exponent = max((_decade(x) for x in (difference, uncertainty) if x != 0), default=0)
    scale = 10.0 ** exponent
    spread = Decimal(repr(uncertainty)).scaleb(-exponent).quantize(Decimal("0.01"), ROUND_CEILING)
    return f"{difference / scale:.2f}e{exponent} ± {spread}e{exponent}"


# ---------------------------------------------------------------------------
# Measurements and the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Measurement:
    """One published value with its quoted uncertainty components."""

    label: str
    value: BigReal
    uncertainty_components: tuple[float, ...]
    year: int
    source: str

    @property
    def total_uncertainty(self) -> float:
        return combine_uncertainties(self.uncertainty_components)

    def as_bigreal(self, prec: int) -> BigReal:
        """The value with the quoted uncertainty folded into the bound."""
        check_prec(prec)
        with mpmath.workdps(working_dps(prec)):
            err = self.value.err + mpf(self.total_uncertainty)
            return BigReal(self.value.value, err, prec)


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
    except ValueError:
        raise _entry_error(index, label, f"value {text!r} is not a decimal number", "value") from None
    except InputError as exc:
        raise _entry_error(index, label, str(exc), "value") from None
    comps = raw["uncertainty_components"]
    if not isinstance(comps, list):
        raise _entry_error(index, label, "uncertainty_components must be an array", "uncertainty_components")
    parsed: list[float] = []
    for c in comps:
        if not isinstance(c, str):
            raise _entry_error(index, label, "uncertainty components must be decimal strings",
                               "uncertainty_components")
        try:
            x = float(c)
        except ValueError:
            raise _entry_error(index, label, f"uncertainty component {c!r} is not a decimal number",
                               "uncertainty_components") from None
        if not math.isfinite(x) or x < 0:
            raise _entry_error(index, label, f"uncertainty component {c!r} must be non-negative",
                               "uncertainty_components")
        parsed.append(x)
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
    except json.JSONDecodeError as exc:
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


def _backed_out(n: int, total: str, prec: int, registry: Sequence[Measurement] | None) -> BigReal:
    """``a_n`` solved from the registry total ``total`` with the rubidium alpha.

    ``(a_e - r/2 - a_2 r**2 - a_4 r**4) / r**n`` at the inner precision with
    ``r = alpha / pi``, the ``a_2`` and ``a_4`` terms only for ``n = 3``.
    """
    inner = _inner_prec(prec)
    r = _alpha_ratio(lookup(registry, "alpha:rb:2011").as_bigreal(inner), inner)
    rest = lookup(registry, total).as_bigreal(inner) - r / 2
    powers = _powers(r, 4 if n == 3 else n)
    if n == 3:
        a4 = lookup(registry, "a4:laporta:2017").as_bigreal(inner)
        rest = rest - coeff_a2(prec=inner) * powers[2] - a4 * powers[4]
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


def coeff_a2(mode: CoeffMode | str = CoeffMode.EXACT_BRACKET, prec: int = 15,
             registry: Sequence[Measurement] | None = None) -> BigReal:
    """Second-order coefficient ``a_2``.

    The corrected bracket is ``phi(3) - 6 phi(1) phi(2) + phi(2) + 197/144``
    (about -0.3284790); AS_PRINTED drops the lone ``phi(2)`` as the 1957
    text did (about -1.1509460); REGISTRY backs the coefficient out of the
    th:1957 total using the rubidium alpha, which matches the corrected
    bracket but carries the measurement uncertainty.
    """
    check_prec(prec)
    mode = _as_mode(mode)
    if mode is CoeffMode.REGISTRY:
        return _backed_out(2, "th:1957", prec, registry)
    from .symbolic import period_map  # only the bracket modes load the symbol layer
    return period_map(_bracket(2, mode), prec)


def coeff_a3(mode: CoeffMode | str = CoeffMode.CONSISTENT, prec: int = 15,
             registry: Sequence[Measurement] | None = None) -> BigReal:
    """Third-order coefficient ``a_3``.

    EXACT_BRACKET is the Laporta-Remiddi closed form (about 1.1812415) and
    AS_PRINTED the 1996 bracket as printed (near -397).  CONSISTENT solves
    ``a_e(th:2017) = sum(a_n * r**n, n <= 4)`` for ``a_3`` with the rubidium
    alpha and the 51-digit ``a_4``: about 1.18164 +- 1.2e-4, above the closed
    form by the mass-dependent, hadronic, electroweak and fifth-order terms.
    """
    check_prec(prec)
    mode = _as_mode(mode)
    if mode is CoeffMode.REGISTRY:
        return _backed_out(3, "th:2017", prec, registry)
    from .symbolic import period_map
    return period_map(_bracket(3, mode), prec)


@dataclass(frozen=True)
class CoefficientSet:
    """Choice of coefficient modes for assembling the series.

    ``a_1 = 1/2`` always.  ``a_4`` is read from the decimal string
    :data:`A4_DIGITS`, so its 51 digits survive to any working precision.
    """

    a2_mode: CoeffMode = CoeffMode.EXACT_BRACKET
    a3_mode: CoeffMode = CoeffMode.CONSISTENT

    def coefficient(self, n: int, prec: int,
                    registry: Sequence[Measurement] | None = None) -> BigReal:
        check_prec(prec)
        _check_order(n)
        if n == 1:
            return BigReal.exact(Fraction(1, 2), prec)
        if n == 2:
            return coeff_a2(self.a2_mode, prec, registry)
        if n == 3:
            return coeff_a3(self.a3_mode, prec, registry)
        return BigReal.from_decimal(A4_DIGITS, prec)


# ---------------------------------------------------------------------------
# Assembling and inverting the series
# ---------------------------------------------------------------------------


def _as_input(x: object, name: str, prec: int | None = None) -> BigReal:
    """``x`` as a BigReal at ``prec``, by default its own or else 15.

    ``x`` is a Measurement (its uncertainty folded in), a BigReal, a decimal
    string or a number; anything else raises :class:`InputError`.
    """
    if isinstance(x, Measurement):
        x = x.as_bigreal(x.value.prec)
    if isinstance(x, BigReal):
        return x if prec is None else BigReal(x.value, x.err, check_prec(prec))
    prec = 15 if prec is None else prec
    if isinstance(x, str):
        try:
            return BigReal.from_decimal(x, prec)
        except ValueError:
            raise InputError(f"{name} {x!r} is not a decimal number") from None
    if isinstance(x, bool) or not isinstance(x, (int, float, Fraction, mpf)):
        raise InputError(f"{name} must be a number, got {x!r}")
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


def invert_alpha(target_ae: object, coeffs: CoefficientSet | None = None, order: int = MAX_ORDER,
                 prec: int = 15, registry: Sequence[Measurement] | None = None,
                 trace: list | None = None) -> BigReal:
    """Solve ``assemble(alpha_inv) == target_ae`` for ``alpha_inv``.

    Damped Newton iteration in alpha from the one-loop seed
    ``alpha = 2 pi target``; NoConvergence after 50 iterations.  The target
    must lie in (0, 2e-3), the range where the quartic is monotone and the
    physical branch is unambiguous.  Passing a list as ``trace`` records
    the alpha_inv iterates, one per Newton update.

    The returned bound covers the Newton residual, the target's own bound
    (when it is a BigReal, Measurement or decimal string) and the
    coefficient bounds.
    """
    check_prec(prec)
    order = _check_order(order)
    if coeffs is None:
        coeffs = CoefficientSet()
    target = _as_input(target_ae, "target_ae", prec)
    inner = _inner_prec(prec)
    wd = working_dps(inner)
    with mpmath.workdps(wd):
        t, t_err = target.value, target.err
        if not 0 < t < mpf("2e-3"):
            shown = target if isinstance(target_ae, (str, Measurement)) else target_ae
            raise DomainError(f"target_ae must lie in (0, 2e-3), got {shown!r}")
        cs = [coeffs.coefficient(n, inner, registry) for n in range(1, order + 1)]
        cvals = [c.value for c in cs]
        pi = +mpmath.pi

        def f(a: mpf) -> mpf:
            r = a / pi
            acc = mpf(0)
            for cv in reversed(cvals):
                acc = (acc + cv) * r
            return acc - t

        def fprime(a: mpf) -> mpf:
            r = a / pi
            acc = mpf(0)
            for n in range(order, 0, -1):
                acc = acc * r + n * cvals[n - 1]
            return acc / pi

        alpha = 2 * pi * t
        tiny = mpf(10) ** -(wd - 2)
        converged = False
        for _ in range(50):
            fv = f(alpha)
            fpv = fprime(alpha)
            if fpv == 0:
                raise NoConvergence("flat tangent in alpha inversion")
            step = fv / fpv
            lam = mpf(1)
            while lam > mpf(2) ** -20:
                cand = alpha - lam * step
                if cand > 0 and abs(f(cand)) <= abs(fv):
                    break
                lam /= 2
            else:
                raise NoConvergence("damping failed to reduce the residual")
            new_alpha = alpha - lam * step
            if trace is not None:
                trace.append(float(1 / new_alpha))
            done = abs(new_alpha - alpha) <= abs(new_alpha) * tiny
            alpha = new_alpha
            if done:
                converged = True
                break
        if not converged:
            raise NoConvergence("alpha inversion did not converge in 50 iterations")
        slope = abs(fprime(alpha))
        resid = abs(f(alpha))
        coeff_err = mpf(0)
        r = alpha / pi
        for n, c in enumerate(cs, start=1):
            coeff_err += c.err * abs(r) ** n
        # f(alpha) rounds 2 order + 5 times (r = alpha / pi twice) on values of
        # size t, and the slope is about t / alpha, so alpha is off by under
        # (2 order + 5) |alpha| 2**-prec: one count, as |alpha| < 0.02.
        alpha_err = (resid + t_err + coeff_err) / slope + _rounding(alpha, 1)
        inv = 1 / alpha
        inv_err = alpha_err / (alpha * alpha) + _rounding(inv, 1)
        return BigReal(inv, inv_err, prec)


# ---------------------------------------------------------------------------
# Comparing measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonResult:
    """Difference of two measurements with the combined uncertainty."""

    difference: float
    uncertainty: float
    pull: float

    def __iter__(self) -> Iterator[float]:
        return iter((self.difference, self.uncertainty, self.pull))

    def __str__(self) -> str:
        return format_difference(self.difference, self.uncertainty)


def compare(a: Measurement, b: Measurement) -> ComparisonResult:
    """``a - b`` with uncertainties of both combined in quadrature.

    Exactly antisymmetric: swapping the arguments flips the signs of the
    difference and the pull bit for bit.
    """
    prec = min(a.value.prec, b.value.prec)
    with mpmath.workdps(working_dps(prec)):
        difference = float(a.value.value - b.value.value)
    uncertainty = combine_uncertainties(a.uncertainty_components + b.uncertainty_components)
    if uncertainty > 0:
        pull = difference / uncertainty
    elif difference == 0:
        pull = 0.0
    else:
        pull = math.copysign(math.inf, difference)
    return ComparisonResult(difference, uncertainty, pull)
