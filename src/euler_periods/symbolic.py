"""Weight-graded symbol algebra: coaction, conjugates, and a period map.

Expressions are rational-linear combinations of commutative monomials in
three formal generator families:

* ``zeta_m(n)`` for integer ``n >= 2``, weight ``n``;
* ``Li_m(n; z)`` for ``n >= 1`` at a rational or named point, weight ``n``;
* ``twopi_i``, weight 1.

A parallel algebra of ``zeta_u(2n+1)`` / ``ln_u(z)`` / ``Li_u(n; z)``
generators receives the left tensor factors of the coaction, which sends a
:class:`MotivicExpr` into :class:`TensorSum` with unipotent factors on the
left.  The distinct right factors of the coaction are the conjugates of an
expression; a family is stable when every conjugate of every member stays
inside the family's rational span.  :func:`period_map` sends symbols to
numbers through :mod:`.eulerfun`.

All coefficients are exact :class:`fractions.Fraction` values, so the
structural identities checked here (grading, counit, multiplicativity,
coassociativity) are decided exactly rather than numerically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, InputError, ParseError
from .eulerfun import polylog, zeta
from .numkernel import MAX_PREC, BigReal, check_prec, pi_times

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

_F0 = Fraction(0)
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
    q = Fraction(x)
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
            return rational_point(Fraction(z[1], z[2]))
        if len(z) == 2 and z[0] == "sym":
            return symbolic_point(z[1])
        raise DomainError(f"malformed point {z!r}")
    if isinstance(z, (int, Fraction)):
        return rational_point(z)
    if isinstance(z, str):
        if _IDENT_RE.fullmatch(z) and z not in _RESERVED_NAMES:
            return symbolic_point(z)
        try:
            return rational_point(Fraction(z))
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"cannot read {z!r} as a point") from None
    raise DomainError(f"cannot read {z!r} as a point")


def _atom_weight(atom: tuple) -> int:
    if atom[0] in ("zm", "lim", "zu", "liu"):
        return atom[1]
    return 1


def _mono_weight(mono: tuple) -> int:
    return sum(_atom_weight(a) for a in mono)


def _mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


def _add_into(d: dict, key, c: Fraction) -> None:
    nc = d.get(key, _F0) + c
    if nc:
        d[key] = nc
    else:
        d.pop(key, None)


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


def _fmt_product(coeff: Fraction, factors: list[str]) -> str:
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


def _join_signed(rendered: list[str]) -> str:
    if not rendered:
        return "0"
    out = rendered[0]
    for piece in rendered[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


# ---------------------------------------------------------------------------
# Expression algebras
# ---------------------------------------------------------------------------


class _Combination:
    """Rational-linear combination of sorted atom tuples (monomials)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                mono = tuple(sorted(mono))
                for atom in mono:
                    self._check_atom(atom)
                _add_into(clean, mono, c)
        self.terms = clean

    @classmethod
    def _check_atom(cls, atom: tuple) -> None:
        raise NotImplementedError

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(): _F1})

    @classmethod
    def from_rational(cls, q):
        return cls({(): Fraction(q)})

    def is_zero(self) -> bool:
        return not self.terms

    def weights(self) -> list[int]:
        """Sorted distinct weights of the monomials present."""
        return sorted({_mono_weight(m) for m in self.terms})

    def weight(self) -> int:
        ws = self.weights()
        if len(ws) != 1:
            raise ValueError(f"expression is not weight-homogeneous: weights {ws}")
        return ws[0]

    def graded_parts(self) -> dict:
        parts: dict[int, dict] = {}
        for mono, c in self.terms.items():
            parts.setdefault(_mono_weight(mono), {})[mono] = c
        return {w: type(self)(d) for w, d in sorted(parts.items())}

    def _key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self).from_rational(other)
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            _add_into(out, mono, c)
        return type(self)(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return type(self)({m: c * q for m, c in self.terms.items()})
        if type(other) is not type(self):
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _add_into(out, _mono_mul(m1, m2), c1 * c2)
        return type(self)(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("powers must be non-negative integers")
        out = type(self).one()
        for _ in range(k):
            out = out * self
        return out

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (_mono_weight(kv[0]), kv[0]))

    def __str__(self) -> str:
        fmt = self._atom_fmt
        return _join_signed(
            [_fmt_product(c, [fmt(a) for a in m]) for m, c in self._sorted_terms()])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class MotivicExpr(_Combination):
    """Combination of ``zeta_m`` / ``Li_m`` / ``twopi_i`` monomials.

    Build with the classmethods or :func:`parse_expr`; combine with ``+``,
    ``-``, ``*`` and rational scalars.  The printed form is canonical and
    parses back to an equal expression.
    """

    _atom_fmt = staticmethod(_fmt_motivic_atom)

    @classmethod
    def _check_atom(cls, atom: tuple) -> None:
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
            as_point(atom[2])
        else:
            raise DomainError(f"not a motivic generator: {atom!r}")

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

    _atom_fmt = staticmethod(_fmt_unipotent_atom)

    @classmethod
    def _check_atom(cls, atom: tuple) -> None:
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
            as_point(atom[2])
        else:
            raise DomainError(f"not a unipotent generator: {atom!r}")

    @classmethod
    def zu(cls, n: int) -> "UnipotentExpr":
        return cls({(("zu", n),): _F1})

    @classmethod
    def lnu(cls, z) -> "UnipotentExpr":
        return cls({(("lnu", as_point(z)),): _F1})

    @classmethod
    def liu(cls, n: int, z) -> "UnipotentExpr":
        return cls({(("liu", n, as_point(z)),): _F1})


# ---------------------------------------------------------------------------
# Tensor sums
# ---------------------------------------------------------------------------


class _BilinearSum:
    """Rational combination of (left monomial, right monomial) pairs."""

    __slots__ = ("terms",)
    _left_cls: type = UnipotentExpr
    _right_cls: type = MotivicExpr
    _left_fmt = staticmethod(_fmt_unipotent_atom)
    _right_fmt = staticmethod(_fmt_motivic_atom)

    def __init__(self, terms=None):
        clean: dict[tuple, Fraction] = {}
        if terms:
            for (left, right), c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                left = tuple(sorted(left))
                right = tuple(sorted(right))
                for atom in left:
                    self._left_cls._check_atom(atom)
                for atom in right:
                    self._right_cls._check_atom(atom)
                _add_into(clean, (left, right), c)
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def pairs(self) -> list[tuple[Fraction, tuple, tuple]]:
        """Deterministic list of (coefficient, left monomial, right monomial)."""
        ordered = sorted(self.terms.items(),
                         key=lambda kv: (_mono_weight(kv[0][0]), kv[0][0], kv[0][1]))
        return [(c, left, right) for (left, right), c in ordered]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            _add_into(out, key, c)
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return type(self)({k: c * q for k, c in self.terms.items()})
        if type(other) is not type(self):
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                _add_into(out, (_mono_mul(l1, l2), _mono_mul(r1, r2)), c1 * c2)
        return type(self)(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        rendered = []
        for c, left, right in self.pairs():
            lhs = _fmt_product(c, [self._left_fmt(a) for a in left])
            rhs = "*".join(self._right_fmt(a) for a in right) or "1"
            rendered.append(f"{lhs} (x) {rhs}")
        return _join_signed(rendered)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class TensorSum(_BilinearSum):
    """Coaction target: unipotent left factors, motivic right factors."""

    def group_by_left(self) -> dict[tuple, MotivicExpr]:
        """Collect the right factors attached to each left monomial."""
        groups: dict[tuple, dict] = {}
        for (left, right), c in self.terms.items():
            _add_into(groups.setdefault(left, {}), right, c)
        return {left: MotivicExpr(d) for left, d in groups.items()}


class UTensorSum(_BilinearSum):
    """Hopf coproduct target: unipotent factors on both sides."""

    _right_cls = UnipotentExpr
    _right_fmt = staticmethod(_fmt_unipotent_atom)


# ---------------------------------------------------------------------------
# Coaction and Hopf coproduct
# ---------------------------------------------------------------------------


def _pair_product(d1: dict, d2: dict) -> dict:
    out: dict[tuple, Fraction] = {}
    for (l1, r1), c1 in d1.items():
        for (l2, r2), c2 in d2.items():
            _add_into(out, (_mono_mul(l1, l2), _mono_mul(r1, r2)), c1 * c2)
    return out


def _li_tower(n: int, pt, right: str) -> dict:
    # Li(n; z) -> sum(ln_u(z)^k/k! (x) Li_<right>(n-k; z), k=0..n-1)
    #             + Li_u(n; z) (x) 1.
    lnu = ("lnu", pt)
    out: dict[tuple, Fraction] = {}
    for k in range(n):
        out[(tuple([lnu] * k), ((right, n - k, pt),))] = Fraction(1, math.factorial(k))
    out[((("liu", n, pt),), ())] = _F1
    return out


def _coact_atom(atom: tuple) -> dict:
    one = ()
    kind = atom[0]
    if kind == "tpim":
        return {(one, (atom,)): _F1}
    if kind == "zm":
        n = atom[1]
        if n % 2 == 0:
            # zeta_m(2k) is a rational multiple of twopi_i^(2k), so its
            # coaction is forced to be trivial like twopi_i's.
            return {(one, (atom,)): _F1}
        return {(one, (atom,)): _F1, ((("zu", n),), one): _F1}
    return _li_tower(atom[1], atom[2], "lim")


def _hopf_atom(atom: tuple) -> dict:
    if atom[0] in ("zu", "lnu"):
        return {((atom,), ()): _F1, ((), (atom,)): _F1}
    return _li_tower(atom[1], atom[2], "liu")


def _mono_image(mono: tuple, atom_rule: Callable[[tuple], dict]) -> dict:
    # The image of a monomial under a multiplicative map given per atom.
    acc = {((), ()): _F1}
    for atom in mono:
        acc = _pair_product(acc, atom_rule(atom))
    return acc


def _linear_image(terms: dict, atom_rule: Callable[[tuple], dict]) -> dict:
    total: dict[tuple, Fraction] = {}
    for mono, c in terms.items():
        for key, v in _mono_image(mono, atom_rule).items():
            _add_into(total, key, c * v)
    return total


def coact(e: MotivicExpr) -> TensorSum:
    """Galois coaction, extended multiplicatively and linearly.

    Generator rules: ``twopi_i`` and even ``zeta_m`` pair only with 1 on
    the left; odd ``zeta_m(n)`` adds ``zeta_u(n) (x) 1``; ``Li_m(n; z)``
    produces ``sum(ln_u(z)^k/k! (x) Li_m(n-k; z), k=0..n-1)`` plus
    ``Li_u(n; z) (x) 1``.
    """
    if not isinstance(e, MotivicExpr):
        raise DomainError("coact expects a MotivicExpr")
    return TensorSum(_linear_image(e.terms, _coact_atom))


def hopf_coproduct(e: UnipotentExpr) -> UTensorSum:
    """Coproduct on the unipotent side.

    ``zeta_u`` and ``ln_u`` are primitive; ``Li_u(n; z)`` follows the same
    binomial tower as the coaction of ``Li_m`` with ``Li_u`` in both slots.
    This is the minimal choice under which the coaction is coassociative.
    """
    if not isinstance(e, UnipotentExpr):
        raise DomainError("hopf_coproduct expects a UnipotentExpr")
    return UTensorSum(_linear_image(e.terms, _hopf_atom))


def coassoc_residual(e: MotivicExpr) -> bool:
    """True when the two ways of coacting twice agree exactly.

    Compares ``(hopf (x) id)`` after :func:`coact` against ``(id (x)
    coact)`` after :func:`coact`, as triple tensors in normal form.
    """
    d = coact(e)
    lhs: dict[tuple, Fraction] = {}
    rhs: dict[tuple, Fraction] = {}
    for (u, m), c in d.terms.items():
        for (u1, u2), c2 in _mono_image(u, _hopf_atom).items():
            _add_into(lhs, (u1, u2, m), c * c2)
        for (u2, m2), c2 in _mono_image(m, _coact_atom).items():
            _add_into(rhs, (u, u2, m2), c * c2)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Conjugates, span arithmetic, stability
# ---------------------------------------------------------------------------


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _vectors(exprs: list[MotivicExpr]) -> list[list[Fraction]]:
    monos = sorted({m for e in exprs for m in e.terms})
    return [[e.terms.get(m, _F0) for m in monos] for e in exprs]


def _span_dimension(exprs: list[MotivicExpr]) -> int:
    return _rank(_vectors(exprs))


def _span_contains(family: list[MotivicExpr], target: MotivicExpr) -> bool:
    vecs = _vectors(list(family) + [target])
    return _rank(vecs[:-1]) == _rank(vecs)


def galois_conjugates(e: MotivicExpr) -> tuple[list[MotivicExpr], int]:
    """Distinct right tensor factors of ``coact(e)`` and their span rank.

    The coaction is grouped by distinct left monomial; each group's
    accumulated right factor is one conjugate.  The group with left factor
    1 recovers ``e`` itself and is listed first.
    """
    groups = coact(e).group_by_left()
    conjugates: list[MotivicExpr] = []
    seen = set()
    for left in sorted(groups, key=lambda m: (_mono_weight(m), m)):
        expr = groups[left]
        key = expr._key()
        if key not in seen and not expr.is_zero():
            seen.add(key)
            conjugates.append(expr)
    return conjugates, _span_dimension(conjugates)


@dataclass
class StabilityReport:
    """Outcome of :func:`stability_report`.

    ``outside`` pairs each family member with the conjugates that fall
    outside the family's rational span; ``stable`` is True when every such
    list is empty.
    """

    stable: bool
    outside: list[tuple[MotivicExpr, list[MotivicExpr]]]

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
    outside = []
    for f in members:
        conjugates, _ = galois_conjugates(f)
        missing = [c for c in conjugates if not _span_contains(members, c)]
        outside.append((f, missing))
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

    def _rational(self) -> Fraction:
        tok, at = self._next()
        if not tok.isdigit():
            raise ParseError("expected an integer", at)
        num = int(tok)
        if self._peek() == "/":
            self._next()
            tok2, at2 = self._next()
            if not tok2.isdigit():
                raise ParseError("expected an integer denominator", at2)
            if int(tok2) == 0:
                raise ParseError("zero denominator", at2)
            return Fraction(num, int(tok2))
        return Fraction(num)

    def _integer(self) -> int:
        sign = 1
        if self._peek() == "-":
            self._next()
            sign = -1
        tok, at = self._next()
        if not tok.isdigit():
            raise ParseError("expected an integer", at)
        return sign * int(tok)

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
    position on bad syntax and :class:`DomainError` for ``zeta_m(1)``.
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
    if not isinstance(e, MotivicExpr):
        raise DomainError("period_map expects a MotivicExpr")
    check_prec(prec)
    for mono, _ in e._sorted_terms():
        degree = sum(1 for atom in mono if atom[0] == "tpim")
        if degree % 2:
            raise DomainError(
                f"the monomial {'*'.join(map(_fmt_motivic_atom, mono))} has odd twopi_i "
                f"degree {degree}, so its period is imaginary; the period map is real-valued")
    inner = min(prec + 6, MAX_PREC)
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
    for mono, c in e._sorted_terms():
        # i**(2k) = (-1)**k, the sign the real factors (2*pi)**(2k) leave out.
        if sum(1 for atom in mono if atom[0] == "tpim") % 4:
            c = -c
        term = BigReal.exact(c, inner)
        for atom in mono:
            term = term * atom_value(atom)
        total = total + term
    return BigReal(total.value, total.err, prec).demand("period_map")
