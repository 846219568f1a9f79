"""Weight-graded symbol algebra: coaction, conjugates, and a period map.

Expressions are rational-linear combinations of commutative monomials in
three formal generator families:

* ``zeta_m(n)`` for integer ``n >= 2``, weight ``n``;
* ``Li_m(n; z)`` for ``n >= 1`` at a rational or named point, weight ``n``;
* ``twopi_i``, weight 1.

A second family of ``zeta_u(2n+1)`` / ``ln_u(z)`` / ``Li_u(n; z)``
generators receives the left tensor factors of the coaction, which sends a
:class:`MotivicExpr` into :class:`TensorSum` with unipotent factors on the
left.  One class, ``_Combination``, holds all of this algebra: a rational
combination keyed by one monomial per tensor factor, each factor motivic or
unipotent.  :class:`MotivicExpr`, :class:`UnipotentExpr`, :class:`TensorSum`
and :class:`UTensorSum` only declare their factors.  The coaction and the
Hopf coproduct are linear maps, multiplicative on monomials and given per
atom; one routine, ``_Image``, builds every such map, forming each atom's
image and each power of it once per call, a power of a primitive in closed
form.  The coassociativity check builds its two triple tensors from the
same images, adding the products in place.

The distinct right factors of the coaction are the conjugates of an
expression; a family is stable when every conjugate of every member stays
inside the family's rational span.  A span is an echelon basis of
combinations, kept in pivot order, so a conjugate lies in it when it
reduces to zero.
:func:`period_map` sends symbols to numbers through :mod:`.eulerfun`.

All coefficients are exact :class:`fractions.Fraction` values, so the
structural identities checked here (grading, counit, multiplicativity,
coassociativity) are decided exactly rather than numerically.
"""

from __future__ import annotations

import bisect
import math
import operator
import re
from fractions import Fraction
from itertools import groupby
from typing import Callable, NamedTuple

from .errors import DomainError, InputError, ParseError, TooLarge
from .numkernel import (COACTION_TERM_CAP, COASSOC_TERM_CAP, WEIGHT_CAP, BigReal, as_fraction, check_digits,
                        check_prec, exact_str, inner_prec, pi_times, _Record, _relabel)

__all__ = [
    "MotivicExpr",
    "UnipotentExpr",
    "TensorSum",
    "UTensorSum",
    "StabilityReport",
    "parse_expr",
    "coact",
    "hopf_coproduct",
    "coassoc_residual",
    "galois_conjugates",
    "stability_report",
    "period_map",
]

_F1 = Fraction(1)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_RESERVED_NAMES = frozenset({"zeta_m", "Li_m", "twopi_i", "zeta_u", "ln_u", "Li_u"})


# ---------------------------------------------------------------------------
# Atoms, points, monomials
#
# An atom is a plain tuple whose first entry names the generator family:
#   ("zm", n)        ("lim", n, point)   ("tpim",)
#   ("zu", n)        ("liu", n, point)   ("lnu", point)
# and a point is ("rat", numerator, denominator) or ("sym", name).  Tuples
# keep monomials hashable and give a total sort order, which is what makes
# the printed form canonical.
# ---------------------------------------------------------------------------


def rational_point(x) -> tuple:
    """The point of the rational ``x``, read by :func:`~.numkernel.as_fraction` and held to its cap."""
    q = as_fraction(x, "the point")
    return ("rat", q.numerator, q.denominator)


def symbolic_point(name: str) -> tuple:
    if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
        raise DomainError(f"point name must be an identifier, got {name!r}")
    if name in _RESERVED_NAMES:
        raise DomainError(f"{name!r} is a reserved word and cannot name a point")
    return ("sym", name)


def as_point(z) -> tuple:
    """Coerce ``z`` to a point tuple.  Strings may be names or rationals."""
    if isinstance(z, tuple):
        if len(z) == 3 and z[0] == "rat":
            num, den = (as_fraction(c, "the point") for c in z[1:])
            if den:
                return rational_point(num / den)
        if len(z) == 2 and z[0] == "sym":
            return symbolic_point(z[1])
        raise DomainError(f"malformed point {z!r}")
    if isinstance(z, str) and _IDENT_RE.fullmatch(z) and z not in _RESERVED_NAMES:
        return symbolic_point(z)
    if isinstance(z, (int, Fraction, str)):
        return rational_point(z)
    raise DomainError(f"cannot read {z!r} as a point")


def _atom_weight(atom: tuple) -> int:
    if atom[0] in ("zm", "lim", "zu", "liu"):
        return atom[1]
    return 1


def _mono_weight(mono: tuple) -> int:
    return sum(_atom_weight(a) for a in mono)


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(a + b))


def _pair_mul(a: tuple, b: tuple) -> tuple:
    return _mono_mul(a[0], b[0]), _mono_mul(a[1], b[1])


def _add_into(d: dict, key, c: Fraction) -> None:
    # ``c`` is non-zero, so a new key takes it as it is.
    nc = d.get(key)
    nc = c if nc is None else nc + c
    if nc:
        d[key] = nc
    else:
        del d[key]


def _mul_into(out: dict, x: dict, y: dict, key_mul) -> dict:
    """Add the product of the term dicts ``x`` and ``y`` into ``out``, in place.

    ``key_mul`` multiplies two keys.  A coefficient 1 is not multiplied.
    """
    ys = [(k2, c2, c2 == 1) for k2, c2 in y.items()]
    get = out.get
    for k1, c1 in x.items():
        one = c1 == 1
        for k2, c2, one2 in ys:
            key = key_mul(k1, k2)
            c = c2 if one else c1 if one2 else c1 * c2
            old = get(key)
            if old is None:
                out[key] = c
            else:
                c += old
                if c:
                    out[key] = c
                else:
                    del out[key]
    return out


def _check_weight(n: int) -> None:
    # The coaction of Li(n; z) has n terms of up to n factors each; the
    # engine that evaluates it refuses the same weights.
    if n > WEIGHT_CAP:
        raise TooLarge(f"weight {n} exceeds the supported cap {WEIGHT_CAP}")


def _check_motivic_atom(atom: tuple) -> None:
    if atom[0] == "zm":
        if len(atom) != 2 or not isinstance(atom[1], int) or atom[1] < 2:
            raise DomainError(
                f"zeta_m takes an integer argument >= 2, got {atom!r} "
                "(the weight-1 symbol diverges)")
    elif atom[0] == "tpim":
        if len(atom) != 1:
            raise DomainError(f"malformed twopi_i atom {atom!r}")
    elif atom[0] == "lim":
        if len(atom) != 3 or not isinstance(atom[1], int) or atom[1] < 1:
            raise DomainError(f"Li_m takes an integer weight >= 1, got {atom!r}")
        _check_weight(atom[1])
        as_point(atom[2])
    else:
        raise DomainError(f"not a motivic generator: {atom!r}")


def _check_unipotent_atom(atom: tuple) -> None:
    if atom[0] == "zu":
        if (len(atom) != 2 or not isinstance(atom[1], int)
                or atom[1] < 3 or atom[1] % 2 == 0):
            raise DomainError(f"zeta_u takes an odd integer >= 3, got {atom!r}")
    elif atom[0] == "lnu":
        if len(atom) != 2:
            raise DomainError(f"malformed ln_u atom {atom!r}")
        as_point(atom[1])
    elif atom[0] == "liu":
        if len(atom) != 3 or not isinstance(atom[1], int) or atom[1] < 1:
            raise DomainError(f"Li_u takes an integer weight >= 1, got {atom!r}")
        _check_weight(atom[1])
        as_point(atom[2])
    else:
        raise DomainError(f"not a unipotent generator: {atom!r}")


def _fmt_point(pt: tuple) -> str:
    if pt[0] == "rat":
        return str(Fraction(pt[1], pt[2]))
    return pt[1]


def _fmt_motivic_atom(a: tuple) -> str:
    if a[0] == "zm":
        return f"zeta_m({a[1]})"
    if a[0] == "tpim":
        return "twopi_i"
    return f"Li_m({a[1]}; {_fmt_point(a[2])})"


def _fmt_unipotent_atom(a: tuple) -> str:
    if a[0] == "zu":
        return f"zeta_u({a[1]})"
    if a[0] == "lnu":
        return f"ln_u({_fmt_point(a[1])})"
    return f"Li_u({a[1]}; {_fmt_point(a[2])})"


class _AtomKind(NamedTuple):
    """What one tensor factor admits: its atom check and its printed form."""

    check: Callable[[tuple], None]
    fmt: Callable[[tuple], str]


_MOTIVIC = _AtomKind(_check_motivic_atom, _fmt_motivic_atom)
_UNIPOTENT = _AtomKind(_check_unipotent_atom, _fmt_unipotent_atom)


def _fmt_product(coeff: Fraction, factors: list[str]) -> str:
    if not factors:
        return exact_str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{exact_str(coeff)}*{body}"


def _join_signed(rendered: list[str]) -> str:
    if not rendered:
        return "0"
    return rendered[0] + "".join(" - " + piece[1:] if piece.startswith("-") else " + " + piece
                                 for piece in rendered[1:])


# ---------------------------------------------------------------------------
# The combination algebra
# ---------------------------------------------------------------------------


class _Combination:
    """Rational combination of keys that hold one monomial per tensor factor.

    A subclass declares ``_factors``, one :class:`_AtomKind` per factor.  With
    one factor a key is the monomial itself; with several it is the tuple of
    monomials, e.g. ``(left, right)``.  Every coefficient is a non-zero
    :class:`Fraction` and every monomial a sorted tuple of atoms.  Products
    multiply factor by factor.
    """

    __slots__ = ("terms",)
    _factors: tuple = ()

    def __init__(self, terms=None):
        clean: dict[tuple, Fraction] = {}
        if terms:
            kinds = self._factors
            for key, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                monos = self._monos(key)
                if len(monos) != len(kinds):
                    raise DomainError(f"expected one monomial per tensor factor, got {key!r}")
                monos = tuple(tuple(sorted(m)) for m in monos)
                for kind, mono in zip(kinds, monos):
                    for atom in mono:
                        kind.check(atom)
                _add_into(clean, self._key(monos), c)
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict):
        # ``terms`` is already clean, as a product or sum of clean terms is.
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def _monos(cls, key) -> tuple:
        return key if len(cls._factors) > 1 else (key,)

    @classmethod
    def _key(cls, monos: tuple):
        return monos if len(cls._factors) > 1 else monos[0]

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls.from_rational(1)

    @classmethod
    def from_rational(cls, q):
        return cls({cls._key(((),) * len(cls._factors)): q})

    def is_zero(self) -> bool:
        return not self.terms

    def _weight(self, key) -> int:
        return sum(_mono_weight(m) for m in self._monos(key))

    def weights(self) -> list[int]:
        """Sorted distinct weights of the terms present."""
        return sorted({self._weight(k) for k in self.terms})

    def weight(self) -> int:
        ws = self.weights()
        if len(ws) != 1:
            raise ValueError(f"expression is not weight-homogeneous: weights {ws}")
        return ws[0]

    def graded_parts(self) -> dict:
        parts: dict[int, dict] = {}
        for key, c in self.terms.items():
            parts.setdefault(self._weight(key), {})[key] = c
        return {w: self._raw(d) for w, d in sorted(parts.items())}

    def pairs(self) -> list[tuple]:
        """Deterministic list of (coefficient, one monomial per factor)."""
        ordered = sorted(((self._monos(k), c) for k, c in self.terms.items()),
                         key=lambda mc: (_mono_weight(mc[0][0]), mc[0]))
        return [(c, *monos) for monos, c in ordered]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.from_rational(other)
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            _add_into(out, key, c)
        return self._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._raw({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return self._raw({k: c * q for k, c in self.terms.items()} if q else {})
        if type(other) is not type(self):
            return NotImplemented
        if len(self._factors) == 1:
            key_mul = _mono_mul
        else:
            def key_mul(a, b):
                return tuple(map(_mono_mul, a, b))
        return self._raw(_mul_into({}, self.terms, other.terms, key_mul))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("powers must be non-negative integers")
        out = self.one()
        for _ in range(k):
            out = out * self
        return out

    def __str__(self) -> str:
        # Each distinct atom is formatted once: the atoms of a large
        # coaction repeat in term after term.
        shown: dict[tuple, str] = {}

        def fmt(kind: _AtomKind, mono: tuple) -> list[str]:
            return [shown[a] if a in shown else shown.setdefault(a, kind.fmt(a)) for a in mono]

        first, *rest = self._factors
        rendered = []
        for c, mono, *others in self.pairs():
            parts = [_fmt_product(c, fmt(first, mono))]
            parts += ["*".join(fmt(kind, m)) or "1" for kind, m in zip(rest, others)]
            rendered.append(" (x) ".join(parts))
        return _join_signed(rendered)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class MotivicExpr(_Combination):
    """Combination of ``zeta_m`` / ``Li_m`` / ``twopi_i`` monomials.

    Build with the classmethods or :func:`parse_expr`; combine with ``+``,
    ``-``, ``*`` and rational scalars.  The printed form is canonical and
    parses back to an equal expression.
    """

    _factors = (_MOTIVIC,)

    @classmethod
    def zm(cls, n: int) -> "MotivicExpr":
        return cls({(("zm", n),): _F1})

    @classmethod
    def tpim(cls) -> "MotivicExpr":
        return cls({(("tpim",),): _F1})

    @classmethod
    def lim(cls, n: int, z) -> "MotivicExpr":
        return cls({(("lim", n, as_point(z)),): _F1})


class UnipotentExpr(_Combination):
    """Combination of ``zeta_u`` / ``ln_u`` / ``Li_u`` monomials.

    These occur as left tensor factors of :func:`coact` and carry the Hopf
    coproduct :func:`hopf_coproduct`; ``zeta_u(2n+1)`` and ``ln_u(z)`` are
    primitive for it.
    """

    _factors = (_UNIPOTENT,)

    @classmethod
    def zu(cls, n: int) -> "UnipotentExpr":
        return cls({(("zu", n),): _F1})

    @classmethod
    def lnu(cls, z) -> "UnipotentExpr":
        return cls({(("lnu", as_point(z)),): _F1})

    @classmethod
    def liu(cls, n: int, z) -> "UnipotentExpr":
        return cls({(("liu", n, as_point(z)),): _F1})


class TensorSum(_Combination):
    """Coaction target: unipotent left factors, motivic right factors."""

    _factors = (_UNIPOTENT, _MOTIVIC)

    def group_by_left(self) -> dict[tuple, MotivicExpr]:
        """Collect the right factors attached to each left monomial."""
        groups: dict[tuple, dict] = {}
        for (left, right), c in self.terms.items():
            groups.setdefault(left, {})[right] = c
        return {left: MotivicExpr._raw(d) for left, d in groups.items()}


class UTensorSum(_Combination):
    """Hopf coproduct target: unipotent factors on both sides."""

    _factors = (_UNIPOTENT, _UNIPOTENT)


class _TripleSum(_Combination):
    """Target of the two double coactions that :func:`coassoc_residual` compares."""

    _factors = (_UNIPOTENT, _UNIPOTENT, _MOTIVIC)


# ---------------------------------------------------------------------------
# Coaction and Hopf coproduct
# ---------------------------------------------------------------------------


def _li_tower(n: int, pt, right: str, target: type) -> _Combination:
    # Li(n; z) -> sum(ln_u(z)^k/k! (x) Li_<right>(n-k; z), k=0..n-1)
    #             + Li_u(n; z) (x) 1.
    lnu = ("lnu", pt)
    out = {(tuple([lnu] * k), ((right, n - k, pt),)): Fraction(1, math.factorial(k))
           for k in range(n)}
    out[((("liu", n, pt),), ())] = _F1
    return target._raw(out)


def _coact_atom(atom: tuple) -> TensorSum:
    kind = atom[0]
    if kind == "tpim" or (kind == "zm" and atom[1] % 2 == 0):
        # zeta_m(2k) is a rational multiple of twopi_i^(2k), so its
        # coaction is forced to be trivial like twopi_i's.
        return TensorSum._raw({((), (atom,)): _F1})
    if kind == "zm":
        return TensorSum._raw({((), (atom,)): _F1, ((("zu", atom[1]),), ()): _F1})
    return _li_tower(atom[1], atom[2], "lim", TensorSum)


def _hopf_atom(atom: tuple) -> UTensorSum:
    if atom[0] in ("zu", "lnu"):
        return UTensorSum._raw({((atom,), ()): _F1, ((), (atom,)): _F1})
    return _li_tower(atom[1], atom[2], "liu", UTensorSum)


def _powers(mono: tuple) -> list[tuple[tuple, int]]:
    """The distinct atoms of a monomial, each with its exponent."""
    return [(atom, len(list(run))) for atom, run in groupby(mono)]


def _coaction_terms(mono: tuple) -> int:
    return math.prod(a[1] + 1 if a[0] == "lim" else 2 if a[0] == "zm" and a[1] % 2 else 1 for a in mono)


def _coassoc_terms(mono: tuple) -> int:
    # An odd zeta_m has 3 terms but counts 4: each one lengthens every key, and
    # the time per term grows about 1.3-fold with it (numkernel.COASSOC_TERM_CAP).
    return math.prod(math.comb(a[1] + 3, 3) if a[0] == "lim" else 4 if a[0] == "zm" and a[1] % 2 else 1
                     for a in mono)


def _hopf_terms(mono: tuple) -> int:
    # The k-th power of a primitive has k + 1 terms; each Li_u(n; z) has n + 1.
    return math.prod(k + 1 if a[0] in ("zu", "lnu") else (a[1] + 1) ** k for a, k in _powers(mono))


def _check_size(e: _Combination, what: str = "the coaction", count=_coaction_terms,
                cap: int = COACTION_TERM_CAP) -> None:
    # Per monomial, its count of terms; checked before any work.
    for mono in e.terms:
        size = count(mono)
        if size > cap:
            shown = "*".join(map(e._factors[0].fmt, mono))
            raise TooLarge(f"{what} of {shown} has {size} terms, past the cap {cap}")


class _Image:
    """A linear map into a two-factor tensor sum, multiplicative on monomials.

    ``rule`` gives the image of each atom.  Each atom's image, each power of
    an atom and each monomial's image are formed once, and kept as long as
    the object: one call makes it and drops it.  The ``k``-th power of an
    atom ``a`` whose image is primitive, exactly ``a (x) 1 + 1 (x) a``, is
    the binomial sum of ``C(k, i) a^i (x) a^(k - i)``.  That is read off the
    rule's own output, so a wrong rule still shows; other powers are
    successive products.
    """

    __slots__ = ("rule", "powers", "monos")

    def __init__(self, rule: Callable[[tuple], _Combination]):
        self.rule = rule
        self.powers: dict[tuple, dict] = {}
        self.monos: dict[tuple, dict] = {}

    def power(self, atom: tuple, k: int) -> dict:
        powers = self.powers
        if (atom, k) not in powers:
            base = powers.get((atom, 1))
            if base is None:
                base = powers[atom, 1] = self.rule(atom).terms
            if base == {((atom,), ()): 1, ((), (atom,)): 1}:
                powers[atom, k] = {((atom,) * i, (atom,) * (k - i)): Fraction(math.comb(k, i))
                                   for i in range(k + 1)}
            else:
                for j in range(2, k + 1):
                    if (atom, j) not in powers:
                        powers[atom, j] = _mul_into({}, powers[atom, j - 1], base, _pair_mul)
        return powers[atom, k]

    def mono(self, mono: tuple) -> dict:
        image = self.monos.get(mono)
        if image is None:
            factors = [self.power(atom, k) for atom, k in _powers(mono)]
            image = factors[0] if factors else {((), ()): _F1}
            for p in factors[1:]:
                image = _mul_into({}, image, p, _pair_mul)
            self.monos[mono] = image
        return image

    def of(self, terms: dict) -> dict:
        out: dict = {}
        for mono, c in terms.items():
            _mul_into(out, {((), ()): c}, self.mono(mono), _pair_mul)
        return out


def coact(e: MotivicExpr) -> TensorSum:
    """Galois coaction, extended multiplicatively and linearly.

    Generator rules: ``twopi_i`` and even ``zeta_m`` pair only with 1 on
    the left; odd ``zeta_m(n)`` adds ``zeta_u(n) (x) 1``; ``Li_m(n; z)``
    produces ``sum(ln_u(z)^k/k! (x) Li_m(n-k; z), k=0..n-1)`` plus
    ``Li_u(n; z) (x) 1``.  A monomial whose coaction would have more than
    ``numkernel.COACTION_TERM_CAP`` terms raises :class:`TooLarge` before
    any work, here and in everything built on the coaction.
    """
    if not isinstance(e, MotivicExpr):
        raise DomainError("coact expects a MotivicExpr")
    _check_size(e)
    return TensorSum._raw(_Image(_coact_atom).of(e.terms))


def hopf_coproduct(e: UnipotentExpr) -> UTensorSum:
    """Coproduct on the unipotent side.

    ``zeta_u`` and ``ln_u`` are primitive; ``Li_u(n; z)`` follows the same
    binomial tower as the coaction of ``Li_m`` with ``Li_u`` in both slots.
    This is the minimal choice under which the coaction is coassociative.
    A monomial whose coproduct would have more than
    ``numkernel.COACTION_TERM_CAP`` terms, counting ``n + 1`` per ``Li_u(n;
    z)`` and ``k + 1`` for the ``k``-th power of a primitive, raises
    :class:`TooLarge` before any work.
    """
    if not isinstance(e, UnipotentExpr):
        raise DomainError("hopf_coproduct expects a UnipotentExpr")
    _check_size(e, "the Hopf coproduct", _hopf_terms)
    return UTensorSum._raw(_Image(_hopf_atom).of(e.terms))


def _coassoc_sides(e: MotivicExpr) -> tuple[_TripleSum, _TripleSum]:
    # (hopf (x) id) and (id (x) coact) of coact(e), each a whole triple tensor.
    # Each left monomial's Hopf image and each right monomial's coaction is
    # formed once, and the two tensor products add into their sides in place.
    co, hopf = _Image(_coact_atom), _Image(_hopf_atom)
    lhs: dict = {}
    rhs: dict = {}
    for (left, right), c in co.of(e.terms).items():
        _mul_into(lhs, hopf.mono(left), {(right,): c}, operator.add)
        _mul_into(rhs, {(left,): c}, co.mono(right), operator.add)
    return _TripleSum._raw(lhs), _TripleSum._raw(rhs)


def coassoc_residual(e: MotivicExpr) -> bool:
    """True when the two ways of coacting twice agree exactly.

    Compares ``(hopf (x) id)`` after :func:`coact` against ``(id (x)
    coact)`` after :func:`coact`, as triple tensors in normal form.  Past
    the coaction cap, or a monomial whose estimate of the terms formed here
    passes ``numkernel.COASSOC_TERM_CAP``, raises :class:`TooLarge` before
    any work.
    """
    if not isinstance(e, MotivicExpr):
        raise DomainError("coassoc_residual expects a MotivicExpr")
    _check_size(e)
    _check_size(e, "the coassociativity check", _coassoc_terms, COASSOC_TERM_CAP)
    lhs, rhs = _coassoc_sides(e)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Conjugates, spans, stability
#
# A span is kept as an echelon basis: a list of (pivot, row) in ascending
# pivot order, where each row is a term dict whose largest monomial, its
# pivot, has coefficient 1 and is the pivot of no other row.  Reducing by the
# rows in descending pivot order clears every pivot, since a row only touches
# monomials at or below its own pivot; a combination lies in the span when it
# reduces to zero.
# ---------------------------------------------------------------------------


def _reduce(span: list, terms: dict) -> dict:
    # Reduces ``terms`` in place.
    for pivot, row in reversed(span):
        c = terms.get(pivot)
        if c:
            _mul_into(terms, {(): -c}, row, _mono_mul)
    return terms


def _echelon(exprs) -> list:
    span: list = []
    for e in exprs:
        r = _reduce(span, dict(e.terms))
        if r:
            pivot = max(r)
            inv = 1 / r[pivot]
            bisect.insort(span, (pivot, {k: c * inv for k, c in r.items()}))
    return span


def _conjugates(e: MotivicExpr) -> list[MotivicExpr]:
    groups = coact(e).group_by_left()
    ordered = sorted(groups, key=lambda m: (_mono_weight(m), m))
    return list(dict.fromkeys(groups[left] for left in ordered))


def galois_conjugates(e: MotivicExpr) -> tuple[list[MotivicExpr], int]:
    """Distinct right tensor factors of ``coact(e)`` and their span rank.

    The coaction is grouped by distinct left monomial; each group's
    accumulated right factor is one conjugate.  The group with left factor
    1 recovers ``e`` itself and is listed first.
    """
    conjugates = _conjugates(e)
    return conjugates, len(_echelon(conjugates))


class StabilityReport(_Record):
    """Outcome of :func:`stability_report`.

    ``outside`` pairs each family member with the conjugates that fall
    outside the family's rational span; ``stable`` is True when every such
    list is empty.
    """

    _fields = ("stable", "outside")
    __hash__ = None  # its outside is a list

    def __init__(self, stable: bool, outside: list[tuple[MotivicExpr, list[MotivicExpr]]]):
        self.stable = stable
        self.outside = outside

    def __str__(self) -> str:
        lines = ["stable" if self.stable else "unstable"]
        for member, missing in self.outside:
            if missing:
                for conj in missing:
                    lines.append(f"  {member}: conjugate {conj} outside span")
            else:
                lines.append(f"  {member}: closed")
        return "\n".join(lines)


def stability_report(family: list[MotivicExpr]) -> StabilityReport:
    """Check whether a family is closed under taking conjugates."""
    members = list(family)
    if not members:
        raise InputError("stability_report needs a non-empty family")
    for f in members:
        if not isinstance(f, MotivicExpr):
            raise DomainError("stability_report expects MotivicExpr members")
        _check_size(f)
    span = _echelon(members)
    outside = [(f, [c for c in _conjugates(f) if _reduce(span, dict(c.terms))]) for f in members]
    return StabilityReport(stable=all(not m for _, m in outside), outside=outside)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[ \t\r\n]*(\d+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*/;])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            j = i
            while j < len(text) and text[j] in " \t\r\n":
                j += 1
            if j >= len(text):
                break
            raise ParseError(f"unexpected character {text[j]!r}", j)
        tokens.append((m.group(1), m.start(1)))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def _next(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, symbol: str) -> None:
        if self._peek() != symbol:
            raise ParseError(f"expected {symbol!r}", self._here())
        self._next()

    def parse(self) -> MotivicExpr:
        e = self._expr()
        if self.pos != len(self.tokens):
            tok, at = self.tokens[self.pos]
            raise ParseError(f"unexpected {tok!r}", at)
        return e

    def _expr(self) -> MotivicExpr:
        e = self._term()
        while self._peek() in ("+", "-"):
            op, _ = self._next()
            t = self._term()
            e = e + t if op == "+" else e - t
        return e

    def _term(self) -> MotivicExpr:
        f = self._factor()
        while self._peek() == "*":
            self._next()
            f = f * self._factor()
        return f

    def _factor(self) -> MotivicExpr:
        tok = self._peek()
        if tok == "+":
            self._next()
            return self._factor()
        if tok == "-":
            self._next()
            return -self._factor()
        if tok == "(":
            self._next()
            e = self._expr()
            self._expect(")")
            return e
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if tok.isdigit():
            return MotivicExpr.from_rational(self._rational())
        if tok == "twopi_i":
            self._next()
            return MotivicExpr.tpim()
        if tok == "zeta_m":
            self._next()
            self._expect("(")
            n = self._integer()
            self._expect(")")
            return MotivicExpr.zm(n)
        if tok == "Li_m":
            self._next()
            self._expect("(")
            n = self._integer()
            self._expect(";")
            pt = self._point()
            self._expect(")")
            return MotivicExpr.lim(n, pt)
        raise ParseError(f"unexpected {tok!r}", self._here())

    def _digits(self, what: str) -> tuple[int, int]:
        """The next token as an integer literal, and its offset."""
        tok, at = self._next()
        if not tok.isdigit():
            raise ParseError(f"expected {what}", at)
        return int(check_digits(tok, f"the integer at position {at}")), at

    def _rational(self) -> Fraction:
        num, _ = self._digits("an integer")
        if self._peek() == "/":
            self._next()
            den, at = self._digits("an integer denominator")
            if den == 0:
                raise ParseError("zero denominator", at)
            return Fraction(num, den)
        return Fraction(num)

    def _integer(self) -> int:
        sign = 1
        if self._peek() == "-":
            self._next()
            sign = -1
        return sign * self._digits("an integer")[0]

    def _point(self) -> tuple:
        tok = self._peek()
        if tok == "-":
            self._next()
            return rational_point(-self._rational())
        if tok is not None and tok.isdigit():
            return rational_point(self._rational())
        if tok is not None and _IDENT_RE.fullmatch(tok) and tok not in _RESERVED_NAMES:
            self._next()
            return symbolic_point(tok)
        raise ParseError("expected a rational number or point name", self._here())


def parse_expr(text: str) -> MotivicExpr:
    """Parse the expression grammar.

    Grammar: signed rational coefficients, ``zeta_m(n)``, ``Li_m(n; z)``
    with ``z`` a rational or an identifier, ``twopi_i``, ``*``, ``+``,
    ``-``, and parentheses.  Raises :class:`ParseError` with a character
    position on bad syntax, :class:`InputError` for an integer of more than
    :data:`~euler_periods.numkernel.DIGIT_CAP` digits and
    :class:`DomainError` for ``zeta_m(1)``.
    """
    if not isinstance(text, str):
        raise ParseError("input must be a string", 0)
    parser = _Parser(text)
    if not parser.tokens:
        raise ParseError("empty expression", 0)
    return parser.parse()


# ---------------------------------------------------------------------------
# Period map
# ---------------------------------------------------------------------------


def period_map(e: MotivicExpr, prec: int = 15) -> BigReal:
    """Evaluate an expression numerically.

    ``zeta_m(n)`` becomes ``zeta(n)``, ``Li_m(n; z)`` becomes
    ``polylog(n, z)`` (so domain restrictions on ``z`` apply and symbolic
    points are rejected), and ``twopi_i`` becomes ``2*pi*i``.  The map is
    real-valued, so a monomial with an odd power of ``twopi_i``, whose
    period is imaginary, raises :class:`DomainError`.  An even power
    ``twopi_i**(2k)`` evaluates to ``(-1)**k * (2*pi)**(2k)``, so
    ``twopi_i*twopi_i`` is ``-4*pi**2``.

    Exact rational relations between symbols evaluate to 0 within the
    declared bound; ``5*zeta_m(4) - 2*zeta_m(2)*zeta_m(2)`` is the canonical
    example.
    """
    from .eulerfun import polylog, zeta  # here, so that coact and conjugates load no evaluator

    if not isinstance(e, MotivicExpr):
        raise DomainError("period_map expects a MotivicExpr")
    check_prec(prec)
    signed = []
    for c, mono in e.pairs():
        degree = mono.count(("tpim",))
        if degree % 2:
            raise DomainError(
                f"the monomial {'*'.join(map(_fmt_motivic_atom, mono))} has odd twopi_i "
                f"degree {degree}, so its period is imaginary; the period map is real-valued")
        # i**(2k) = (-1)**k, the sign the real factors (2*pi)**(2k) leave out.
        signed.append((-c if degree % 4 else c, mono))
    inner = inner_prec(prec, 6)
    cache: dict[tuple, BigReal] = {}

    def atom_value(atom: tuple) -> BigReal:
        if atom not in cache:
            if atom[0] == "zm":
                cache[atom] = zeta(atom[1], inner)
            elif atom[0] == "tpim":
                cache[atom] = pi_times(2, inner)
            else:
                n, pt = atom[1], atom[2]
                if pt[0] != "rat":
                    raise DomainError(
                        f"point {_fmt_point(pt)} is symbolic; the period map "
                        "needs rational points")
                cache[atom] = polylog(n, Fraction(pt[1], pt[2]), inner)
        return cache[atom]

    total = BigReal.exact(0, inner)
    for c, mono in signed:
        term = BigReal.exact(c, inner)
        for atom in mono:
            term = term * atom_value(atom)
        total = total + term
    return _relabel(total, prec).demand("period_map")
