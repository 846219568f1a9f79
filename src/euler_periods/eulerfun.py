"""Zeta, eta-type alternating series, polylogarithms, Euler's constant.

All evaluators return :class:`~euler_periods.numkernel.BigReal` values whose
declared bound meets the requested precision, and every closed-form or
identity claim exposed here is checkable through
:func:`identity_residual`, which recomputes both sides by routes that do
not share code with the primary evaluators.

All of it, the identity checks too, keeps the one rounding rule of
:mod:`.numkernel`, at explicit precisions with no mpmath context.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DomainError, PrecisionNotMet, TooLarge
from .numkernel import (
    BERNOULLI_CAP,
    INNER_TOP,
    BigReal,
    ScalarLike,
    accel_alt_sum,
    alt_bits,
    alt_terms_needed,
    as_fraction,
    bernoulli,
    check_prec,
    em_sum,
    faithful,
    inner_prec,
    log_of,
    pi_times,
    working_bits,
    zeta_values,
    _at_one,
    _digits,
    _exact,
    _finish,
    _fraction,
    _layout,
    _mpmath,
    _power_rows,
    _quotient,
    _radius,
    _relabel,
    _word,
    _zeta_pass,
    _zeta_plan,
)

#: Largest prime bound accepted by the Euler-product residual check.
MAX_PRIME_BOUND = 10_000_000


def _shown(x: ScalarLike, q: Fraction, *edges: Fraction | int) -> str:
    """``x`` of exact value ``q`` as written, or in 8 or more digits that keep ``q``'s side of each edge."""
    num, den = q.as_integer_ratio()
    digits = 8
    while not isinstance(x, str):
        text = _layout("-" if num < 0 else "", *_digits(abs(num), den, digits), digits) if num else "0.0"
        if all((Fraction(text) > e) - (Fraction(text) < e) == (q > e) - (q < e) for e in edges):
            return text
        digits *= 2
    return x


def zeta(s: ScalarLike, prec: int) -> BigReal:
    """Riemann zeta on the real ray ``s > 1``.

    ``s`` is the exact rational it denotes, as in :func:`polylog`: ``3``,
    ``"3"``, ``3.0`` and ``Fraction(3)`` are one argument.  Every ``s`` is
    ``phi(s) / (1 - 2**(1-s))``: one Chebyshev pass over the rows of
    :func:`phi`, then :func:`~euler_periods.numkernel._zeta_pass`, the step
    :func:`~euler_periods.numkernel.zeta_values` takes on the same plan
    (:func:`~euler_periods.numkernel._zeta_plan`, one bit finer than
    ``phi``'s for the step's factor of up to 2), finished by
    :func:`~euler_periods.numkernel._finish`, so ``zeta(n, p)`` at an
    integer is the batch's integer for ``n`` at ``p``.  Raises
    :class:`DomainError` for ``s <= 1``; the ``s = 1`` series is harmonic
    and has no value to report.

    Near the pole the value is about ``1/(s - 1)`` while the bound asked
    for is absolute, ``10**-prec``.  So a non-integer ``s`` runs at
    :func:`~euler_periods.numkernel.inner_prec` ``(prec, k)``, with ``k``
    the digits of ``floor(1/(s - 1))``: ``floor(log10(1/(s - 1))) + 1``
    below ``s = 2`` and 1 above, where it covers the divisor's factor of up
    to 2.  There the pass plans one bit finer than ``T = 2**-MARGIN_BITS
    10**-(prec + k)``, and the factor ``2**(s-1) / (2**(s-1) - 1)``, below
    ``2 / (s - 1) < 2 10**k`` and at most 2, keeps the bound within ``T`` at
    ``prec``.  The ball is returned at ``prec``; an integer ``s`` adds none.
    A ``prec + k`` past :data:`~euler_periods.numkernel.INNER_TOP` (118)
    raises :class:`PrecisionNotMet` naming ``s - 1`` and ``prec`` before any
    row is built: ``zeta(1 + 10**-12, 15)`` and ``zeta(1 + 10**-60, 15)``
    certify, ``zeta(1 + 10**-30, 100)`` is refused.
    """
    check_prec(prec)
    q = as_fraction(s, "s")
    if not q > 1:
        raise DomainError(
            f"zeta requires s > 1, got s = {_shown(s, q, 1)}; "
            "the series diverges there (at s = 1 it is the harmonic series)")
    a, c = (q - 1).as_integer_ratio()
    extra = len(str(c // a)) if c > 1 else 0  # the digits of floor(1/(s - 1)), at least one
    if prec + extra > INNER_TOP:
        raise PrecisionNotMet(
            f"zeta at s = {_shown(s, q, 1)}: s - 1 = {_shown(q - 1, q - 1)} needs {extra} digits past "
            f"prec {prec}, beyond the working top {INNER_TOP}")
    inner = inner_prec(prec, extra)
    n, bits = _zeta_plan(inner)
    total, err = _zeta_pass(_power_rows(q, n, bits), q, n, bits)
    z = _finish(total, bits, err, inner)
    return _relabel(z, prec).demand("zeta")


def zeta_even_closed(n: int) -> Fraction:
    """Exact rational ``r`` with ``zeta(2n) == r * pi**(2n)``.

    ``r = (-1)**(n+1) * B_2n * 2**(2n-1) / (2n)!``; for n = 1..3 this gives
    1/6, 1/90, 1/945.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"zeta_even_closed requires an integer n >= 1, got {n!r}")
    return (Fraction((-1) ** (n + 1)) * bernoulli(2 * n) * 2 ** (2 * n - 1)
            / math.factorial(2 * n))


def phi(s: ScalarLike, prec: int) -> BigReal:
    """The alternating series ``sum((-1)**(k-1) * k**-s)`` for ``s > 0``.

    Related to zeta by ``phi(s) = (1 - 2**(1-s)) * zeta(s)`` for ``s > 1``
    and continues it below: ``phi(1) = log 2``.  Evaluated by accelerated
    alternating summation.  ``s`` must be a finite rational, as for
    :func:`zeta`.  The rows ``floor(2**b k**-s)`` of
    :func:`~euler_periods.numkernel._power_rows`, ``b = alt_bits(prec)``,
    exact floors at every ``s``, go to
    :func:`~euler_periods.numkernel.accel_alt_sum` as they are, within the
    one unit the engine allows a row.  Rows that floor to 0 end the series
    as a finite sum, whose bound covers the tail below one unit.
    """
    check_prec(prec)
    q = as_fraction(s, "s")
    if not q > 0:
        raise DomainError(f"phi requires s > 0, got s = {_shown(s, q, 0)}")
    return accel_alt_sum(_power_rows(q, alt_terms_needed(prec), alt_bits(prec)), prec)


# ---------------------------------------------------------------------------
# Polylogarithms
# ---------------------------------------------------------------------------


def polylog(n: int, z: ScalarLike, prec: int) -> BigReal:
    """Real polylogarithm ``Li_n(z)``: n = 1 on [-1, 1), n = 2 on [-1, 1], n >= 3 on [-1, 1/2] and 1.

    ``z`` is the exact rational it denotes: a decimal string as written, a
    float or mpf as its binary value.  For ``n >= 2`` the endpoints are
    ``Li_n(1) = zeta(n)`` and ``Li_n(-1) = -phi(n)``, those functions' own
    bits; at ``z`` in ``(-1, 1/2]`` the value is one call of the
    iterated-integral engine of :mod:`.numkernel` on the word ``0**(n-1)
    (1/z)``; for ``n = 2`` on ``(1/2, 1)`` the reflection ``Li_2(z) =
    zeta(2) - log(z) log(1-z) - Li_2(1-z)`` takes ``Li_2(1-z)`` from it, all
    of it a ``BigReal`` expression at
    :func:`~euler_periods.numkernel.inner_prec` ``(prec, 4)``.  ``n = 1`` is
    ``-log(1 - z)``, the logs are
    :func:`~euler_periods.numkernel.log_of`'s, and ``z = 0`` an exact 0.
    Other ``z`` in ``(1/2, 1)`` raise :class:`DomainError`, as do ``|z| >
    1`` and ``(n, z) = (1, 1)``; a weight ``n`` above
    ``numkernel.WEIGHT_CAP`` raises :class:`TooLarge`.

    The domain is decided on the exact rational, and a ``z`` past
    :data:`~euler_periods.numkernel.DIGIT_CAP` digits raises
    :class:`InputError`, as it would at the command line.
    """
    check_prec(prec)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"polylog order must be an integer >= 1, got {n!r}")
    q = as_fraction(z, "z")
    if abs(q) > 1:
        raise DomainError(f"polylog requires |z| <= 1, got z = {_shown(z, q, -1, 1)}")
    w = 1 - q
    if n == 1:
        if q == 1:
            raise DomainError("Li_1(1) is the harmonic series; no value to report")
        return (-log_of(w, prec)).demand("polylog")
    if q == 0:
        return BigReal.exact(0, prec)
    if Fraction(1, 2) < q < 1 and n > 2:
        raise DomainError(f"Li_{n} is only evaluated on [-1, 1/2] and the endpoint 1; "
                          f"got z = {_shown(z, q, Fraction(1, 2), 1)}")
    if q in (1, -1):
        _word((n,), (q,))  # raises TooLarge past numkernel.WEIGHT_CAP, as at the other points
        return zeta(n, prec) if q == 1 else -phi(n, prec)
    if q <= Fraction(1, 2):
        return _at_one(_word((n,), (1 / q,)), prec).demand("polylog")
    # Li_2(z) + Li_2(1-z) + log(z) log(1-z) = zeta(2), with 1-z in (0, 1/2).
    inner = inner_prec(prec, 4)
    pi = pi_times(1, inner)
    v = (pi * pi / 6 - log_of(q, inner) * log_of(w, inner)
         - _at_one(_word((2,), (1 / w,)), inner))
    return _relabel(v, prec).demand("polylog")


# ---------------------------------------------------------------------------
# Euler's constant
# ---------------------------------------------------------------------------


def gamma_const(prec: int, method: str = "EM") -> BigReal:
    """Euler's constant by either of two independent routes.

    ``"EM"`` runs Euler-Maclaurin on the harmonic series against ``log n``
    once, at a split and term count planned a priori.
    ``"ZETA_SERIES"`` sums ``sum((-1)**n * zeta(n)/n, n >= 2)`` by
    alternating acceleration.  The two must agree within their combined
    bounds, which the test suite enforces.

    ``"ZETA_SERIES"`` runs at ``inner = inner_prec(prec, 1)``: each
    ``zeta(k + 1)`` carries up to twice the Chebyshev bound into row ``k``,
    and their sum over ``k`` about ``log n`` times it, so the pass and its
    batch plan a digit finer than ``prec`` for the value to meet ``T =
    2**-MARGIN_BITS 10**-prec``; a ``prec`` at the working top 118 raises
    :class:`PrecisionNotMet`.  It takes all of its ``zeta(n)`` from one
    :func:`~euler_periods.numkernel.zeta_values` batch at ``inner``, as
    integers ``total`` within ``err`` units of ``2**-B``, and the declared
    bound includes their propagated uncertainty.  With ``b =
    alt_bits(inner)`` and ``h = B - b``, row ``k`` of the
    :func:`~euler_periods.numkernel.accel_alt_sum` pass is ``(total >> h)
    // (k + 1)``, the floor of ``total / (2**h (k + 1))``, within ``err /
    (2**h (k + 1))`` of ``2**b zeta(k + 1) / (k + 1)`` before its floor, so
    its bound is ``ceil(err / (2**h (k + 1)))`` units.  No mpf is built
    before the pass's one conversion.  Cost: at prec 15 / 50 / 100 the
    batch is ``zeta(2)..zeta(n)`` for n = 25 / 70 / 136, each from one
    Chebyshev pass over shared rows, about 0.16 / 0.8 / 3.2 ms on a shared
    2-core x86-64 VM the first time at a prec.  ``zeta_values`` caches the
    batch as integers, so a warm call is the one more pass over the n - 1
    rows of the series.  No gamma value and no mpf is cached.
    """
    check_prec(prec)
    if method == "EM":
        return em_sum(prec)
    if method == "ZETA_SERIES":
        if prec >= INNER_TOP:
            raise PrecisionNotMet(f"gamma_const by the zeta series runs a digit past prec {prec}, "
                                  f"beyond the working top {INNER_TOP}")
        inner = inner_prec(prec, 1)
        bits, zetas = zeta_values(alt_terms_needed(inner) + 1, inner)
        shift = bits - alt_bits(inner)
        rows = [(total >> shift) // s for s, (total, _) in enumerate(zetas, 2)]
        bounds = [-(-err // (s << shift)) for s, (_, err) in enumerate(zetas, 2)]
        return _relabel(accel_alt_sum(rows, inner, bounds), prec)
    raise DomainError(f"unknown gamma_const method {method!r}; use 'EM' or 'ZETA_SERIES'")


# ---------------------------------------------------------------------------
# Identity residuals
# ---------------------------------------------------------------------------


class IdentityKind(str, Enum):
    DILOG_REFLECTION = "DILOG_REFLECTION"
    COTANGENT = "COTANGENT"
    EULER_PRODUCT = "EULER_PRODUCT"
    PHI_FUNCEQ = "PHI_FUNCEQ"


def _primes_upto(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:limit + 1:p] = b"\x00" * len(range(p * p, limit + 1, p))
    return [i for i in range(2, limit + 1) if sieve[i]]


#: The parameters each identity check reads, its rational one first; any other is refused.
_PARAMS = {IdentityKind.DILOG_REFLECTION: ("x",), IdentityKind.COTANGENT: ("x", "terms"),
           IdentityKind.EULER_PRODUCT: ("s", "prime_bound"), IdentityKind.PHI_FUNCEQ: ("s",)}


#: Most terms each Li_2 series of DILOG_REFLECTION sums: at the cap the integer loop takes about
#: 0.8-0.9 s at prec 100 and 0.6 s at prec 15 on a shared 2-core x86-64 VM (1e5 terms about 0.05 s).
LI_DIRECT_TERM_CAP = 2_000_000


def _li_direct(z: Fraction, prec: int, given: ScalarLike) -> BigReal:
    """Li_2(z), 0 < z < 1, by its power series in integer fixed point.

    ``N`` terms, the fewest whose tail ``z**(N+1) / ((1 - z) (N+1)**2)`` is
    planned in floats to meet ``2**-b``; past the cap :class:`TooLarge` shows
    ``z`` as ``given``.  At ``F`` fraction bits and ``z = a/c`` the power
    ``t_k = t_(k-1) a // c`` is at most ``k`` units below ``2**F z**k``, so
    each term ``t_k // k**2`` is within 2 units, and the tail is at most
    ``(t_N + N) a / c`` over ``(1 - z) (N+1)**2``, all in integers.
    """
    (a, c), b = z.as_integer_ratio(), working_bits(prec)
    decay = math.log(c) - math.log(a) if 2 * a <= c else -math.log1p(-(c - a) / c)  # -log z
    need = b * math.log(2) + math.log(c) - math.log(c - a)
    meets = lambda n: 2 * math.log(n + 1) + (decay and (n + 1) * decay) >= need  # no float of a huge n
    lo, n = 1, LI_DIRECT_TERM_CAP
    while not meets(n):
        lo, n = n + 1, 2 * n
    while lo < n:
        mid = (lo + n) // 2
        lo, n = (lo, mid) if meets(mid) else (mid + 1, n)
    if n > LI_DIRECT_TERM_CAP:
        raise TooLarge(f"the Li_2 series at |z| = {_shown(given, z, 1)} needs {n} terms, "
                       f"past the cap {LI_DIRECT_TERM_CAP}")
    frac = b + n.bit_length() + 2
    power, total = 1 << frac, 0
    for k in range(1, n + 1):
        power = power * a // c
        total += power // (k * k)
    return _finish(total, frac, 2 * n - (-(power + n) * a // ((c - a) * (n + 1) ** 2)), prec)


def _sinc(name: str, q: Fraction, slope: Fraction, prec: int, c: BigReal | int = 1) -> BigReal:
    """``f(q c) / (q c)`` for libmp's ``sin``, ``sinh`` or ``sin_pi``, a rational ``q > 0`` and a ball ``c``.

    It is ``2**e f(y 2**-e) / y`` for ``y = q 2**e c`` with ``q 2**e`` in
    ``(2, 8)``: the scaling serves only the absolute ``2**(1 - b)`` of
    :func:`~euler_periods.numkernel.faithful`, which the quotient then does
    not amplify, however small ``q`` is.  ``slope`` bounds the derivative in ``y``.
    """
    e = q.denominator.bit_length() - q.numerator.bit_length() + 2
    y = BigReal.exact(q * 2 ** e, prec) * c
    return faithful(name, y, slope, e) / y


def _libmp_rows(s: Fraction, ks: Sequence[int], bits: int) -> list[int]:
    """``floor(2**bits k**-s')`` for each ``k``, from libmp's power of ``s`` rounded to ``s'`` at ``bits`` bits.

    EULER_PRODUCT's own route to the powers, which shares no row code with
    :func:`zeta`.  Within 3 units of ``2**bits k**-s``: 2 on the premise
    that libmp's power is faithful, and ``|s' - s| <= s 2**-bits`` moves
    ``2**bits k**-s`` by at most ``s log(k) k**-s <= 1/e`` units more.
    """
    libmp, minus_s = _mpmath().libmp, _quotient(-s.numerator, s.denominator, bits)
    return [libmp.to_fixed(libmp.mpf_pow(_exact(0, k, 0), minus_s, bits, libmp.round_nearest), bits) for k in ks]


def identity_residual(kind: IdentityKind | str, params: Mapping[str, object], prec: int) -> BigReal:
    """Magnitude of the defect of a classical identity, with its bound.

    For exact identities the residual is numerical noise and shrinks with
    ``prec``; for truncated ones (the cotangent expansion, the finite
    Euler product) it measures the truncation and shrinks as the
    truncation parameter grows.  The residual is ``abs`` of the ball of the
    difference of the two sides, each its own route; its radius is the
    bound.  Each domain is decided on the exact rational given.

    Parameters per kind:

    * ``DILOG_REFLECTION``: ``x`` in (0, 1).  Checks
      ``Li2(x) + Li2(1-x) + log x log(1-x) = pi**2/6`` with both
      dilogarithms from the defining series (:class:`TooLarge` for an
      ``x`` so near 0 or 1 that a series passes its term cap).
    * ``COTANGENT``: ``x`` in (0, pi), ``terms`` from 1 to
      ``numkernel.BERNOULLI_CAP // 2`` (:class:`TooLarge` past it, before
      any work).  Checks ``x cot x = 1 - 2 sum(zeta(2n) (x/pi)**2n)`` with
      the even zetas taken from their exact rational closed forms.  An
      ``x`` above the ball of pi raises :class:`DomainError`, and one that
      the ball of ``sin x`` cannot place below pi :class:`PrecisionNotMet`.
    * ``EULER_PRODUCT``: ``s`` > 1, ``prime_bound`` >= 2.  Checks
      ``prod(1 - p**-s) * zeta(s) = 1`` over primes up to the bound.
    * ``PHI_FUNCEQ``: ``s`` in (0, 1).  Checks the reflection formula
      ``phi(1-s)/phi(s) = -Gamma(s) (2**s - 1) cos(pi s / 2) /
      ((2**(s-1) - 1) pi**s)`` as a ratio-minus-one residual.

    ``pi`` and ``log`` are :mod:`.numkernel`'s correctly rounded integers;
    PHI_FUNCEQ's ``log pi`` too, counted by
    :func:`~euler_periods.numkernel.faithful`'s slope rule.  COTANGENT and
    PHI_FUNCEQ take libmp's cos, sin, gamma, exp, sinh and ``sin(pi x)`` as
    faithful, through that function, and EULER_PRODUCT takes
    libmp's power as its own route (:func:`_libmp_rows`); both reach libmp
    through ``numkernel._mpmath`` on first use, so DILOG_REFLECTION loads
    no mpmath.
    """
    check_prec(prec)
    kind = IdentityKind(kind)
    unused = [key for key in params if key not in _PARAMS[kind]]
    if unused:
        raise DomainError(f"identity check {kind.value} takes no parameter {unused[0]!r}; "
                          f"it takes {', '.join(_PARAMS[kind])}")
    missing = [key for key in _PARAMS[kind] if key not in params]
    if missing:
        raise DomainError(f"identity check is missing parameter {missing[0]!r}")
    key = _PARAMS[kind][0]
    raw = params[key]
    q = as_fraction(raw, key)

    if kind is IdentityKind.DILOG_REFLECTION:
        if not 0 < q < 1:
            raise DomainError(f"dilog reflection requires x in (0, 1), got {_shown(raw, q, 0, 1)}")
        li_x, li_w = _li_direct(q, prec, raw), _li_direct(1 - q, prec, 1 - q)
        pi = pi_times(1, prec)
        return abs(li_x + li_w + log_of(q, prec) * log_of(1 - q, prec) - pi * pi / 6)

    if kind is IdentityKind.COTANGENT:
        terms = params["terms"]
        if isinstance(terms, bool) or not isinstance(terms, int) or terms < 1:
            raise DomainError(f"cotangent check needs an integer terms >= 1, got {terms!r}")
        if terms > BERNOULLI_CAP // 2:
            raise TooLarge(f"cotangent check terms {terms} exceeds the cap {BERNOULLI_CAP // 2}")
        bernoulli(2 * terms)  # term m takes B_2m: all built before any work
        pi = pi_times(1, prec)
        above = _fraction(pi._mid) + _radius(pi)
        if not 0 < q < above:
            raise DomainError(f"cotangent check requires x in (0, pi), got {_shown(raw, q, 0, above)}")
        # x < above < 2 pi, so a sine ball above 0 places x below pi.
        x, sinc = BigReal.exact(q, prec), _sinc("sin", q, 1, prec)
        if sinc.holds_zero() or sinc._mid[0]:
            raise PrecisionNotMet(f"cotangent check: at prec {prec} the ball of sin x holds 0 or less, "
                                  f"so it cannot place x = {_shown(raw, q, above)} below pi")
        # 2 * sum(zeta(2m) (x/pi)**2m) == 2 * sum(r_m x**2m), r_m exact, by Horner's rule in x**2.
        x2, acc = x * x, BigReal.exact(0, prec)
        for m in range(terms, 0, -1):
            acc = (acc + zeta_even_closed(m)) * x2
        return abs(faithful("cos", x, 1) / sinc - 1 + 2 * acc)

    if kind is IdentityKind.EULER_PRODUCT:
        bound = params["prime_bound"]
        if not isinstance(bound, int) or bound < 2:
            raise DomainError(f"prime_bound must be an integer >= 2, got {bound!r}")
        if bound > MAX_PRIME_BOUND:
            raise TooLarge(f"prime_bound {bound} exceeds the cap {MAX_PRIME_BOUND}")
        if not q > 1:
            raise DomainError("Euler product requires s > 1")
        z = zeta(q, prec)
        # In units of 2**-b each row is within 3 of 2**b p**-s (_libmp_rows); with the
        # product at most 2**b, a factor adds 3 units to its error and the floor 1.
        b = working_bits(prec)
        rows = _libmp_rows(q, _primes_upto(bound), b)
        total = one = 1 << b
        for row in rows:
            total = total * (one - row) >> b
        return abs(_finish(total, b, 4 * len(rows), prec) * z - 1)

    if kind is IdentityKind.PHI_FUNCEQ:
        if not 0 < q < 1:
            raise DomainError(f"functional equation checked on s in (0, 1), got {_shown(raw, q, 0, 1)}")
        # With t = 1 - s, sinhc(w) = sinh(w)/w and S = sin(pi t/2)/(t/2): Gamma(s)
        # = Gamma(1 + s)/s, 2**s - 1 = 2**(s/2) s ln 2 sinhc(s ln 2/2), cos(pi
        # s/2) = t S/2 and 2**(s-1) - 1 = -2**(-t/2) t ln 2 sinhc(t ln 2/2), so
        # s, t and ln 2 cancel exactly and the right side is Gamma(1 + s)
        # sinhc(s ln 2/2) S / (sinhc(t ln 2/2) sqrt(2) pi**s), each factor
        # near 1 however near s is to 0 or 1.  Each slope bounds |f'| on its
        # ball: 1/3 for log pi, sqrt(2) pi < 9/2 for exp, gamma < 3/5 for
        # Gamma on [1, 2], cosh(ln 2/2) < 17/16 for sinh and pi < 22/7 for
        # sin(pi x).  The parts run two digits higher than the residual.
        t, inner = 1 - q, inner_prec(prec, 2)
        ln2 = log_of(2, inner)
        log_pi = faithful("log", pi_times(1, inner), Fraction(1, 3))
        scale = faithful("exp", BigReal.exact(q, inner) * log_pi + ln2 / 2, Fraction(9, 2))
        gamma = faithful("gamma", BigReal.exact(1 + q, inner), Fraction(3, 5))
        sinhc = [_sinc("sinh", w / 2, Fraction(17, 16), inner, ln2) for w in (q, t)]
        rhs = gamma * sinhc[0] * _sinc("sin_pi", t / 2, Fraction(22, 7), inner) / (sinhc[1] * scale)
        r = abs(phi(1 - q, inner) / (phi(q, inner) * rhs) - 1)
        return _relabel(r, prec)

    raise AssertionError("unreachable")
