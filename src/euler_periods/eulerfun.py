"""Zeta, eta-type alternating series, polylogarithms, Euler's constant.

All evaluators return :class:`~euler_periods.numkernel.BigReal` values whose
declared bound meets the requested precision, and every closed-form or
identity claim exposed here is checkable through
:func:`identity_residual`, which recomputes both sides by routes that do
not share code with the primary evaluators.

The evaluators keep the one rounding rule of :mod:`.numkernel`; only the
identity checks compute in an mpmath context, counting first order with
:func:`_rounding`.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Mapping

import mpmath
from mpmath import mpf
from mpmath.libmp import dps_to_prec, from_rational, round_nearest, to_str

from .errors import DomainError, TooLarge
from .numkernel import (
    MAX_PREC,
    BigReal,
    ScalarLike,
    accel_alt_sum,
    alt_terms_needed,
    as_fraction,
    as_mpf,
    bernoulli,
    check_prec,
    em_sum,
    log_of,
    pi_times,
    working_bits,
    working_dps,
    zeta_values,
    _at_one,
    _power_rows,
    _word,
    _ROOT_BITS_CAP,
)

#: Largest prime bound accepted by the Euler-product residual check.
MAX_PRIME_BOUND = 10_000_000


def _shown(x: ScalarLike, q: Fraction, *edges: Fraction | int) -> str:
    """``x`` of exact value ``q`` as written, or in 8 or more digits that keep ``q``'s side of each edge."""
    digits = 8
    while not isinstance(x, str):
        text = to_str(from_rational(*q.as_integer_ratio(), dps_to_prec(digits) + 8, round_nearest), digits)
        if all((Fraction(text) > e) - (Fraction(text) < e) == (q > e) - (q < e) for e in edges):
            return text
        digits *= 2
    return x


def _rounding(v: mpf, count: int | float | Fraction | mpf) -> mpf:
    """``count (1 + |v|) 2**(1 - mp.prec)``: ``count`` faithful roundings of an mpf ``v``, first order."""
    return mpmath.ldexp(count * (1 + abs(v)), 1 - mpmath.mp.prec)


def zeta(s: ScalarLike, prec: int) -> BigReal:
    """Riemann zeta on the real ray ``s > 1``.

    ``s`` is the exact rational it denotes, as in :func:`polylog`.
    Evaluated by Euler-Maclaurin summation (partial sum, integral tail,
    Bernoulli corrections).  Raises :class:`DomainError` for ``s <= 1``;
    the ``s = 1`` series is harmonic and has no value to report.

    Limit near the pole: the sum runs at ``working_dps(prec)`` digits
    whatever ``s``, but its integral tail ``n**(1-s)/(s-1)`` carries the
    last row's error times ``n/(s - 1)``, and the value itself is about
    ``1/(s - 1)``, while the bound asked for is absolute, ``10**-prec``.  So
    once ``1/(s - 1)`` eats the
    :data:`~euler_periods.numkernel.GUARD_DIGITS` guard digits the counted
    rounding misses it and :class:`PrecisionNotMet` is raised:
    ``zeta(1 + 10**-9, 50)`` certifies, ``zeta(1 + 10**-10, 50)`` and
    ``zeta(1 + 10**-12, 15)`` do not.
    """
    check_prec(prec)
    q = as_fraction(s, "s")
    if not q > 1:
        raise DomainError(
            f"zeta requires s > 1, got s = {_shown(s, q, 1)}; "
            "the series diverges there (at s = 1 it is the harmonic series)")
    return em_sum(q, prec)


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
    :func:`~euler_periods.numkernel._power_rows`, ``b = working_bits(prec)``,
    go to :func:`~euler_periods.numkernel.accel_alt_sum` as they are: exact
    floors, within the one unit the engine allows a row.  If ``s`` has a
    denominator past the rows' root cap, a row comes from mpmath's power,
    within 2 units on its premise, and each row is passed a bound of 1.
    Rows that floor to 0 end the series as a finite sum, whose bound covers
    the tail below one unit.
    """
    check_prec(prec)
    q = as_fraction(s, "s")
    if not q > 0:
        raise DomainError(f"phi requires s > 0, got s = {_shown(s, q, 0)}")
    n, bits = alt_terms_needed(prec), working_bits(prec)
    bounds = [1] * n if q.denominator * bits > _ROOT_BITS_CAP else None
    return accel_alt_sum(_power_rows(q, n, bits), prec, bounds)


# ---------------------------------------------------------------------------
# Polylogarithms
# ---------------------------------------------------------------------------


#: Most series terms DILOG_REFLECTION sums: about 1 s on a 2-core x86-64 VM.
LI_DIRECT_TERM_CAP = 100_000


def _li_direct(n: int, z: mpf, wd: int, shown: str) -> tuple[mpf, mpf]:
    """Li_n(z), 0 < z < 1, by its power series: (value, bound), for DILOG_REFLECTION.

    Sums the fewest terms ``N`` whose tail bound ``|z|**(N+1) / ((1 - |z|)
    (N+1)**n)`` meets ``10**-(wd - 2)``; past :data:`LI_DIRECT_TERM_CAP`
    terms it raises :class:`TooLarge`, naming ``|z|`` as ``shown``.
    """
    az = abs(z)
    decay, need = -mpmath.log(az), (wd - 2) * mpmath.log(10) - mpmath.log(1 - az)
    if not decay:
        raise TooLarge(f"the Li_{n} series needs unboundedly many terms at |z| within 1e-{wd} of 1")
    lo, hi = 1, int(mpmath.ceil(need / decay))  # hi meets the bound without the (N+1)**n
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid + 1) * decay + n * mpmath.log(mid + 1) >= need:
            hi = mid
        else:
            lo = mid + 1
    if hi > LI_DIRECT_TERM_CAP:
        raise TooLarge(f"the Li_{n} series at |z| = {shown} needs {hi} terms, "
                       f"past the cap {LI_DIRECT_TERM_CAP}")
    value, p = mpf(0), mpf(1)
    for k in range(1, hi + 1):
        p *= z
        value += p / mpf(k) ** n
    tail = abs(p) * az / ((1 - az) * mpf(hi + 1) ** n)
    # Term k is (k + 3) 2**-prec off (k products, a power, a quotient) and
    # each sum 1 more, all on positive values below ``value``: at most
    # (2 hi + 3) 2**-prec relative, hi + 2 counts.
    return value, tail + _rounding(value, hi + 2)


def polylog(n: int, z: ScalarLike, prec: int) -> BigReal:
    """Real polylogarithm ``Li_n(z)`` for integer ``n >= 1``, ``z in [-1, 1]``.

    ``z`` is the exact rational it denotes: a decimal string as written, a
    float or mpf as its binary value.  For ``n >= 2`` and ``z`` in ``[-1,
    1/2]`` or ``z = 1`` the value is one call of the iterated-integral
    engine of :mod:`.numkernel` on the word ``0**(n-1) (1/z)``; for ``n =
    2`` on ``(1/2, 1)`` the reflection ``Li_2(z) = zeta(2) - log(z) log(1-z)
    - Li_2(1-z)`` takes ``Li_2(1-z)`` from it, the rest a ``BigReal`` at
    ``prec + 4``.  ``n = 1`` is ``-log(1 - z)``, the logs are
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
        return BigReal(mpf(0), mpf(0), prec)
    if Fraction(1, 2) < q < 1 and n > 2:
        raise DomainError(f"Li_{n} is only evaluated on [-1, 1/2] and the endpoint 1; "
                          f"got z = {_shown(z, q, Fraction(1, 2), 1)}")
    if q <= Fraction(1, 2) or q == 1:
        return _at_one(_word((n,), (1 / q,)), prec).demand("polylog")
    # Li_2(z) + Li_2(1-z) + log(z) log(1-z) = zeta(2), with 1-z in (0, 1/2).
    # The inner prec may pass MAX_PREC, so 6 is built as a ball: an operand
    # that is not one would go through BigReal.exact and its prec check.
    inner = prec + 4
    pi = pi_times(1, inner)
    v = (pi * pi / BigReal(6, 0, inner) - log_of(q, inner) * log_of(w, inner)
         - _at_one(_word((2,), (1 / w,)), inner))
    return BigReal(v.value, v.err, prec).demand("polylog")


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

    ``"ZETA_SERIES"`` takes all of its ``zeta(n)`` from one
    :func:`~euler_periods.numkernel.zeta_values` batch at ``prec``, as
    integers ``total`` within ``err`` units of ``2**-b``, ``b =
    working_bits(prec)``, and the declared bound includes their propagated
    uncertainty.  Row ``k`` of the
    :func:`~euler_periods.numkernel.accel_alt_sum` pass is ``total // (k +
    1)``, within ``err / (k + 1)`` of ``2**b zeta(k + 1) / (k + 1)`` before
    its floor, so its bound is ``ceil(err / (k + 1))`` units.  No mpf is
    built before the pass's one conversion.  Cost: at prec 15 / 50 / 100
    the batch is ``zeta(2)..zeta(n)`` for n = 33 / 79 / 144, each from one
    Chebyshev pass over shared rows, about 0.2 / 0.9 / 3.3 ms on a shared
    2-core x86-64 VM the first time at a prec.  ``zeta_values`` caches the
    batch as integers, so a warm call is the one more pass over the n - 1
    rows of the series, about 0.03 / 0.06 / 0.13 ms.  No gamma value and no
    mpf is cached.
    """
    check_prec(prec)
    if method == "EM":
        return em_sum(1, prec)
    if method == "ZETA_SERIES":
        _, zetas = zeta_values(alt_terms_needed(prec) + 1, prec)
        rows = [total // s for s, (total, _) in enumerate(zetas, 2)]
        bounds = [-(-err // s) for s, (_, err) in enumerate(zetas, 2)]
        return accel_alt_sum(rows, prec, bounds)
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


#: The parameters each identity check reads; any other is refused.
_PARAMS = {IdentityKind.DILOG_REFLECTION: ("x",), IdentityKind.COTANGENT: ("x", "terms"),
           IdentityKind.EULER_PRODUCT: ("s", "prime_bound"), IdentityKind.PHI_FUNCEQ: ("s",)}


def _param(params: Mapping[str, object], key: str) -> object:
    if key not in params:
        raise DomainError(f"identity check is missing parameter {key!r}")
    return params[key]


def identity_residual(kind: IdentityKind | str, params: Mapping[str, object], prec: int) -> BigReal:
    """Magnitude of the defect of a classical identity, with its bound.

    For exact identities the residual is numerical noise and shrinks with
    ``prec``; for truncated ones (the cotangent expansion, the finite
    Euler product) it measures the truncation and shrinks as the
    truncation parameter grows.

    Parameters per kind:

    * ``DILOG_REFLECTION``: ``x`` in (0, 1).  Checks
      ``Li2(x) + Li2(1-x) + log x log(1-x) = pi**2/6`` with both
      dilogarithms from the defining series (:class:`TooLarge` for an
      ``x`` so near 0 or 1 that a series passes its term cap).
    * ``COTANGENT``: ``x`` in (0, pi), ``terms`` from 1 to
      ``numkernel.BERNOULLI_CAP // 2`` (:class:`TooLarge` past it, before
      any work).  Checks ``x cot x = 1 - 2 sum(zeta(2n) (x/pi)**2n)`` with
      the even zetas taken from their exact rational closed forms.
    * ``EULER_PRODUCT``: ``s`` > 1, ``prime_bound`` >= 2.  Checks
      ``prod(1 - p**-s) * zeta(s) = 1`` over primes up to the bound.
    * ``PHI_FUNCEQ``: ``s`` in (0, 1).  Checks the reflection formula
      ``phi(1-s)/phi(s) = -Gamma(s) (2**s - 1) cos(pi s / 2) /
      ((2**(s-1) - 1) pi**s)`` as a ratio-minus-one residual.
    """
    check_prec(prec)
    kind = IdentityKind(kind)
    unused = [key for key in params if key not in _PARAMS[kind]]
    if unused:
        raise DomainError(f"identity check {kind.value} takes no parameter {unused[0]!r}; "
                          f"it takes {', '.join(_PARAMS[kind])}")
    wd = working_dps(prec)

    if kind is IdentityKind.DILOG_REFLECTION:
        raw = _param(params, "x")
        q = as_fraction(raw, "x")
        if not 0 < q < 1:
            raise DomainError(f"dilog reflection requires x in (0, 1), got {_shown(raw, q, 0, 1)}")
        with mpmath.workdps(wd):
            x = as_mpf(q)
            li_x, b1 = _li_direct(2, x, wd, _shown(raw, q, 1))
            li_1mx, b2 = _li_direct(2, 1 - x, wd, _shown(1 - q, 1 - q, 1))
            resid = abs(li_x + li_1mx + mpmath.log(x) * mpmath.log(1 - x) - mpmath.pi ** 2 / 6)
            # Both sides take the same rounded 1 - x.  The two logs and their
            # product (|product| <= log(2)**2), pi**2/6 (3 roundings), and the
            # sums (below pi**2/6; the last is exact): under 12 2**-prec.
            err = b1 + b2 + _rounding(resid, 7)
            return BigReal(resid, err, prec)

    if kind is IdentityKind.COTANGENT:
        terms = _param(params, "terms")
        if not isinstance(terms, int) or terms < 1:
            raise DomainError(f"cotangent check needs an integer terms >= 1, got {terms!r}")
        bernoulli(2 * terms)  # term m takes B_2m: all built, or refused, before any work
        with mpmath.workdps(wd):
            x = as_mpf(as_fraction(_param(params, "x"), "x"))
            if not (0 < x < mpmath.pi):
                raise DomainError("cotangent check requires x in (0, pi)")
            # 2 * sum(zeta(2n) (x/pi)^2n) == 2 * sum(r_n x^2n) with r_n exact.
            acc = mpf(0)
            for m in range(1, terms + 1):
                r = zeta_even_closed(m)
                acc += as_mpf(r) * x ** (2 * m)
            resid = abs(x * mpmath.cot(x) - 1 + 2 * acc)
            # Each positive term of acc is 5 2**-prec off (r_m as a Fraction 2,
            # the power 2, the product 1) and each sum 1 more: (terms + 5)
            # 2**-prec of acc.  x cot x is 3 2**-prec off on |x cot x| <= 1 +
            # 2 acc + resid, and the two sums 1 each on sizes below that.
            err = _rounding(resid + 2 * acc, terms + 5)
            return BigReal(resid, err, prec)

    if kind is IdentityKind.EULER_PRODUCT:
        bound = _param(params, "prime_bound")
        if not isinstance(bound, int) or bound < 2:
            raise DomainError(f"prime_bound must be an integer >= 2, got {bound!r}")
        if bound > MAX_PRIME_BOUND:
            raise TooLarge(f"prime_bound {bound} exceeds the cap {MAX_PRIME_BOUND}")
        q = as_fraction(_param(params, "s"), "s")
        if not q > 1:
            raise DomainError("Euler product requires s > 1")
        z = zeta(q, prec)
        with mpmath.workdps(wd):
            s = as_mpf(q)
            prod = mpf(1)
            primes = _primes_upto(bound)
            for p in primes:
                prod *= 1 - mpf(p) ** (-s)
            resid = abs(prod * z.value - 1)
            # Each factor 1 - p**-s (p**-s < 1/2) and its product cost 4
            # 2**-prec of prod, 2 counts; the product with zeta(s) and the
            # sum 1 more.  The rounded s moves log(prod) by 2**(1-prec) s
            # sum(log p / (p**s - 1)) <= 4 (log(bound) + 1) 2**-prec, at
            # most 2 len(primes) + 2 counts.
            err = prod * z.err + _rounding(resid, 4 * len(primes) + 3)
            return BigReal(resid, err, prec)

    if kind is IdentityKind.PHI_FUNCEQ:
        raw = _param(params, "s")
        q = as_fraction(raw, "s")
        if not 0 < q < 1:
            raise DomainError(f"functional equation checked on s in (0, 1), got {_shown(raw, q, 0, 1)}")
        inner = min(prec + 2, MAX_PREC)
        lhs_num = phi(1 - q, inner)
        lhs_den = phi(q, inner)
        with mpmath.workdps(wd):
            s, ln2 = as_mpf(q), mpmath.ln2
            rhs = (-mpmath.gamma(s) * mpmath.expm1(s * ln2) * mpmath.sin(mpmath.pi * as_mpf(1 - q) / 2)
                   / (mpmath.expm1(as_mpf(q - 1) * ln2) * mpmath.pi ** s))
            ratio = lhs_num.value / (lhs_den.value * rhs)
            resid = abs(ratio - 1)
            rel = (lhs_num.err / abs(lhs_num.value) + lhs_den.err / abs(lhs_den.value))
            # Relative to ratio ~ 1, in 2**-prec, where s, 1 - s and s - 1 are
            # each 2 off from their Fractions: gamma 3.2 (|s psi(s)| <= 1.06),
            # 2**s - 1 = expm1(s ln 2) 6.6 (its argument 4 off, scaled by x
            # e**x / (e**x - 1) <= 1.39, and 1 rounding), cos(pi s / 2) =
            # sin(pi (1 - s) / 2) 5 (its argument 4 off, scaled by a cot a <=
            # 1), 2**(s-1) - 1 5 (likewise), pi**s 4.3 (s ln pi <= 1.15) and 6
            # products and quotients: under 30, and ratio - 1 rounds once.
            err = abs(ratio) * rel + _rounding(resid, 16)
            return BigReal(resid, err, prec)

    raise AssertionError("unreachable")
