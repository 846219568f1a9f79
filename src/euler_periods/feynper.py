"""Graph polynomials and Monte-Carlo evaluation of primitive graph periods.

A :class:`MultiGraph` is a connected multigraph with a fixed edge order;
edge ``i`` owns the integration variable ``alpha_i``.  The graph polynomial
(:func:`kirchhoff_polynomial`) sums, over all spanning trees, the product
of the variables *not* in the tree; it is enumerated by backtracking and
cross-checked against the matrix-tree determinant on every call.

For a graph that passes :func:`is_primitive_log_divergent`, the period

    P(G) = integral over (0, inf)^(n-1) of
           d(alpha_1) ... d(alpha_(n-1)) / Psi_G(alpha_1, .., alpha_(n-1), 1)^2

(the last edge is pinned to 1) converges, and :func:`period_mc` estimates
it by tropical Monte Carlo (Borinsky, arXiv:2008.12310).  Replacing Psi by
its largest monomial at each point, Psi_tr, gives an integral whose value is
the Hepp bound H(G) (Panzer, arXiv:1908.09820): a sum over the n! edge
orders, or Hepp sectors, of products of 1/omega, where omega(gamma) =
|gamma| - 2 h(gamma) for an edge subset gamma with loop number h.  One table
of h and omega over the edge subsets serves the primitivity test and the
sector weights J(gamma) = sum over e of J(gamma - e) / omega(gamma - e),
with J(G) = H(G).  The sampler draws a point from the tropical measure sector
by sector, one Walker alias table per subset, and weighs it by
(Psi_tr / Psi)^2, so P(G) = H(G) times the mean weight.  The weight lies in
[0, 1] for every primitive graph, so the variance is finite up to the edge
cap.  The coordinates of a point span many orders of magnitude, so Psi is
evaluated by a straight-line deletion-contraction program of + and * alone,
which cannot cancel as a determinant would; it is checked once per graph at
x = 1 against the matrix-tree count.  Sampling is sharded with per-shard
derived seeds, and each shard is summed exactly in integers (equal to
``math.fsum`` bit for bit), so results are bit-identical for a fixed
(graph, samples, seed) regardless of shard evaluation order.

The sampler lives in :mod:`euler_periods._tropical`, imported with numpy on
the first primitivity test or period estimate, so spanning trees, Kirchhoff
polynomials, and a program that does neither, do without both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import mpmath

from .errors import (Disconnected, DomainError, InputError, InternalCheckError,
                     NonFiniteSample, NotPrimitive, SchemaError, TooLarge)
from .numkernel import BigReal, check_prec

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MultiGraph",
    "GraphPolynomial",
    "PeriodEstimate",
    "SelfTestEntry",
    "SelfTestReport",
    "loop_number",
    "spanning_trees",
    "matrix_tree_count",
    "kirchhoff_polynomial",
    "is_primitive_log_divergent",
    "period_mc",
    "integrator_selftest",
    "snap_to_multiple",
    "graph_from_dict",
    "load_graph",
    "named_graph",
    "bubble",
    "triangle",
    "k4",
    "wheel",
    "zigzag",
]

#: Edge-count cap for exhaustive spanning-tree enumeration.
SPANNING_TREE_EDGE_CAP = 24

#: Edge-count cap for exhaustive subgraph power counting.
SUBGRAPH_EDGE_CAP = 16

_SHARD_SIZE = 1 << 17

# Sample variance below this floor (squared, relative to the mean) is
# reported as the floor: an integrand that is exactly constant in floating
# point has zero sample variance, and the estimate is then limited by
# representation noise rather than by statistics.
_RELATIVE_VARIANCE_FLOOR = 1e-12


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


class MultiGraph:
    """Multigraph with a stable edge order.

    ``vertices`` is a count; vertices are ``0 .. vertices-1``.  ``edges``
    is a sequence of endpoint pairs; parallel edges are allowed and edge
    order is preserved (it defines the integration variables).  Self-loops
    are rejected unless ``allow_self_loops`` is set: contracting one edge
    of a parallel pair creates a loop, and keeping it (a loop sits in no
    spanning tree) is what keeps deletion-contraction variable-aligned.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: int, edges, allow_self_loops: bool = False):
        if not isinstance(vertices, int) or vertices < 1:
            raise InputError(f"vertex count must be a positive integer, got {vertices!r}")
        clean = []
        for k, pair in enumerate(edges):
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise InputError(f"edge {k} is not an endpoint pair: {pair!r}") from None
            if not isinstance(u, int) or not isinstance(v, int):
                raise InputError(f"edge {k} endpoints must be integers, got {pair!r}")
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise InputError(f"edge {k} endpoint out of range: {pair!r}")
            if u == v and not allow_self_loops:
                raise InputError(f"edge {k} is a self-loop: {pair!r}")
            clean.append((u, v))
        self.vertices = vertices
        self.edges = tuple(clean)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        if self.vertices > self.n_edges + 1:  # too few edges to join them, and no union-find state built
            return False
        uf = _UnionFind(self.vertices)
        parts = self.vertices
        for u, v in self.edges:
            if uf.union(u, v):
                parts -= 1
        return parts == 1

    def _require_connected(self) -> None:
        if not self.is_connected():
            raise Disconnected(
                f"graph with {self.vertices} vertices and {self.n_edges} edges "
                "is not connected")

    def delete_edge(self, i: int) -> "MultiGraph":
        """Remove edge ``i``; remaining edges keep their relative order."""
        self._edge_index(i)
        edges = self.edges[:i] + self.edges[i + 1:]
        return MultiGraph(self.vertices, edges, allow_self_loops=True)

    def contract_edge(self, i: int) -> "MultiGraph":
        """Identify the endpoints of edge ``i`` and drop the edge."""
        u, v = self._edge_index(i)
        if u == v:
            raise DomainError("cannot contract a self-loop")
        keep, drop = min(u, v), max(u, v)

        def remap(w: int) -> int:
            if w == drop:
                return keep
            return w - 1 if w > drop else w

        edges = [(remap(a), remap(b)) for k, (a, b) in enumerate(self.edges) if k != i]
        return MultiGraph(self.vertices - 1, edges, allow_self_loops=True)

    def _edge_index(self, i: int):
        if not isinstance(i, int) or not (0 <= i < self.n_edges):
            raise InputError(f"no edge with index {i!r}")
        return self.edges[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiGraph)
                and self.vertices == other.vertices and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"MultiGraph({self.vertices}, {list(self.edges)})"


def loop_number(g: MultiGraph) -> int:
    """First Betti number ``h = |E| - |V| + 1`` of a connected graph."""
    g._require_connected()
    return g.n_edges - g.vertices + 1


def matrix_tree_count(g: MultiGraph) -> int:
    """Spanning-tree count from the reduced-Laplacian determinant."""
    g._require_connected()
    size = g.vertices
    lap = [[0] * size for _ in range(size)]
    for u, v in g.edges:
        if u == v:
            continue
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    minor = [row[:-1] for row in lap[:-1]]
    return _int_det(minor)


def _int_det(mat: list[list[int]]) -> int:
    # Bareiss fraction-free elimination: every division below is exact.
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def spanning_trees(g: MultiGraph) -> tuple[int, list[tuple[int, ...]]]:
    """All spanning trees as sorted edge-index tuples, with their count.

    Enumeration is by backtracking over the edge list; the count is
    compared against :func:`matrix_tree_count` and a mismatch raises
    :class:`InternalCheckError`.  Graphs with more than
    :data:`SPANNING_TREE_EDGE_CAP` edges are rejected with
    :class:`TooLarge`.
    """
    g._require_connected()
    n = g.n_edges
    if n > SPANNING_TREE_EDGE_CAP:
        raise TooLarge(f"{n} edges exceeds the enumeration cap {SPANNING_TREE_EDGE_CAP}")
    need = g.vertices - 1
    edges = g.edges
    trees: list[tuple[int, ...]] = []
    parent = list(range(g.vertices))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    def extend(i: int, chosen: list[int]) -> None:
        if len(chosen) == need:
            trees.append(tuple(chosen))
            return
        if n - i < need - len(chosen):
            return
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(i)
            extend(i + 1, chosen)
            chosen.pop()
            parent[ru] = ru
        extend(i + 1, chosen)

    extend(0, [])
    count = len(trees)
    reference = matrix_tree_count(g)
    if count != reference:
        raise InternalCheckError(
            f"backtracking found {count} spanning trees but the matrix-tree "
            f"determinant gives {reference}")
    return count, trees


class GraphPolynomial:
    """Integer polynomial in ``alpha_1 .. alpha_n``, exponent-map storage."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms):
        if not isinstance(nvars, int) or nvars < 0:
            raise InputError(f"nvars must be a non-negative integer, got {nvars!r}")
        clean: dict[tuple[int, ...], int] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise InputError(f"bad exponent vector {expo!r} for {nvars} variables")
            coeff = int(coeff)
            if coeff:
                clean[expo] = clean.get(expo, 0) + coeff
        self.nvars = nvars
        self.terms = {e: c for e, c in clean.items() if c}

    def monomial_count(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def times_var(self, i: int) -> "GraphPolynomial":
        out = {}
        for expo, c in self.terms.items():
            bumped = list(expo)
            bumped[i] += 1
            out[tuple(bumped)] = c
        return GraphPolynomial(self.nvars, out)

    def insert_var(self, i: int) -> "GraphPolynomial":
        """Re-embed into one more variable (exponent 0 at position ``i``)."""
        if not (0 <= i <= self.nvars):
            raise InputError(f"insert position {i} out of range")
        out = {e[:i] + (0,) + e[i:]: c for e, c in self.terms.items()}
        return GraphPolynomial(self.nvars + 1, out)

    def __add__(self, other: "GraphPolynomial") -> "GraphPolynomial":
        if not isinstance(other, GraphPolynomial) or other.nvars != self.nvars:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return GraphPolynomial(self.nvars, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GraphPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            factors = []
            for i, e in enumerate(expo):
                if e == 1:
                    factors.append(f"a{i + 1}")
                elif e > 1:
                    factors.append(f"a{i + 1}^{e}")
            if not factors:
                pieces.append(str(c))
            elif c == 1:
                pieces.append("*".join(factors))
            else:
                pieces.append(f"{c}*" + "*".join(factors))
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"GraphPolynomial({self.nvars}, {str(self)!r})"


def kirchhoff_polynomial(g: MultiGraph) -> GraphPolynomial:
    """Sum over spanning trees of the product of the non-tree variables."""
    n = g.n_edges
    _, trees = spanning_trees(g)
    terms: dict[tuple[int, ...], int] = {}
    for tree in trees:
        inside = set(tree)
        expo = tuple(0 if i in inside else 1 for i in range(n))
        terms[expo] = terms.get(expo, 0) + 1
    return GraphPolynomial(n, terms)


def is_primitive_log_divergent(g: MultiGraph) -> bool:
    """Power-counting test for a convergent period integral.

    True iff the edge count equals twice the loop number and every proper
    nonempty edge subset gamma has ``omega(gamma) = |gamma| - 2 h(gamma) > 0``,
    ``h`` its loop number.  As omega adds over connected components and is
    positive on a forest, this asks the same of every proper connected
    subgraph with a loop.  Reads the subset table that the period sampler
    shares (:func:`euler_periods._tropical.subset_table`); capped at
    :data:`SUBGRAPH_EDGE_CAP` edges.
    """
    g._require_connected()
    n = g.n_edges
    if n > SUBGRAPH_EDGE_CAP:
        raise TooLarge(f"{n} edges exceeds the subgraph enumeration cap {SUBGRAPH_EDGE_CAP}")
    h = loop_number(g)
    if h < 1:
        raise DomainError("a tree has no period integral; need at least one loop")
    if n != 2 * h:
        return False
    from ._tropical import subset_table
    omega = subset_table(g)[1]
    return bool((omega[1:-1] > 0).all())


# ---------------------------------------------------------------------------
# Monte-Carlo integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodEstimate:
    """Monte-Carlo estimate with its standard error and sampling parameters."""

    estimate: float
    stderr: float
    samples: int
    seed: int
    prec_report: int = 15

    def __post_init__(self) -> None:
        if not self.stderr > 0:
            raise InputError("stderr must be positive")

    def __str__(self) -> str:
        return f"{self.estimate:.{self.prec_report}g} ± {self.stderr:.3g}"


def _shard_rng(seed: int, *key: int) -> np.random.Generator:
    import numpy as np
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def _sample_mean(f: Callable[[np.ndarray], np.ndarray], dim: int, samples: int, seed: int,
                 *key: int) -> tuple[float, float]:
    """Mean and standard error of ``f`` over ``samples`` points of the unit ``dim``-cube.

    ``f`` maps a ``(size, dim)`` array of points to ``size`` values.  The
    points come in shards of :data:`_SHARD_SIZE`, shard ``i`` from
    ``_shard_rng(seed, *key, i)``, and the shard sums are combined by
    exactly rounded summation, so the result is bit-identical for fixed
    arguments whatever the shard order.  Raises :class:`NonFiniteSample` at
    the first value that is not finite.
    """
    import numpy as np

    sums, squares = [], []
    for shard, start in enumerate(range(0, samples, _SHARD_SIZE)):
        x = _shard_rng(seed, *key, shard).random((min(_SHARD_SIZE, samples - start), dim))
        vals = f(x)
        bad = ~np.isfinite(vals)
        if bad.any():
            where = int(np.argmax(bad))
            raise NonFiniteSample(
                f"integrand overflow at shard {shard}, row {where} "
                f"(x = {x[where].tolist()})", shard=shard)
        sums.append(_exact_sum(vals))
        squares.append(_exact_sum(vals * vals))
    mean = math.fsum(sums) / samples
    variance = max(math.fsum(squares) / samples - mean * mean, 0.0)
    floor = (_RELATIVE_VARIANCE_FLOOR * (1.0 + abs(mean))) ** 2
    return mean, math.sqrt(max(variance, floor) / samples)


def _exact_sum(vals: np.ndarray) -> float:
    """``math.fsum`` of a finite float array, bit for bit, in integers.

    ``np.frexp`` writes each value as ``m * 2**(e - 53)`` with an integer
    mantissa ``|m| < 2**53``.  The mantissas split into a signed high and a
    nonnegative low 26-bit half, and ``np.bincount`` sums each half per
    exponent; its float partial sums are integers below ``2**27 * len(vals)``,
    exact for up to ``2**25`` values.  The buckets are added as Python ints
    and the total is rounded once, half to even, by an exact division.
    """
    import numpy as np

    frac, expo = np.frexp(vals)
    mant = (frac * 9007199254740992.0).astype(np.int64)      # 2**53, exact
    low = int(expo.min())
    slot = expo - low
    high = np.bincount(slot, weights=mant >> 26).tolist()
    rest = np.bincount(slot, weights=mant & 0x3FFFFFF).tolist()
    total = 0
    for k, (a, b) in enumerate(zip(high, rest)):
        if a or b:
            total += ((int(a) << 26) + int(b)) << k
    shift = low - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def period_mc(g: MultiGraph, samples: int, seed: int = 42,
              prec_report: int = 15) -> PeriodEstimate:
    """Estimate the period integral of a primitive log-divergent graph.

    Tropical Monte Carlo (see the module notes): each sample draws a point
    from the tropical measure, Hepp sector by Hepp sector, and weighs it by
    ``(Psi_tr / Psi)**2`` in ``[0, 1]``; the estimate and its standard
    error are the Hepp bound times the mean and its standard error.
    Samples are drawn in fixed-size shards whose generators derive from
    ``seed`` by spawn keys, and shard sums are combined by exactly rounded
    summation, so the result is reproducible bit-for-bit and independent
    of evaluation order.

    Raises :class:`NotPrimitive` if the power-counting test fails and
    :class:`NonFiniteSample` if any integrand evaluation is not finite.
    """
    if not isinstance(samples, int) or samples < 1:
        raise InputError(f"samples must be a positive integer, got {samples!r}")
    if not isinstance(seed, int):
        raise InputError(f"seed must be an integer, got {seed!r}")
    check_prec(prec_report)
    if not is_primitive_log_divergent(g):
        raise NotPrimitive(
            "period integral converges only for primitive log-divergent graphs")
    from ._tropical import plan
    hepp, dim, integrand = plan(g)
    mean, stderr = _sample_mean(integrand, dim, samples, seed)
    return PeriodEstimate(estimate=hepp * mean, stderr=hepp * stderr, samples=samples,
                          seed=seed, prec_report=prec_report)


@dataclass(frozen=True)
class SelfTestEntry:
    label: str
    estimate: float
    stderr: float
    reference: float
    sigmas: float

    def __str__(self) -> str:
        return (f"{self.label}: {self.estimate:.6f} ± {self.stderr:.2g} "
                f"(reference {self.reference:.6f}, {self.sigmas:.2f} sigma)")


@dataclass(frozen=True)
class SelfTestReport:
    entries: tuple[SelfTestEntry, ...]
    samples: int
    seed: int
    passed: bool

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [f"integrator self-test ({self.samples} samples, seed {self.seed}): {status}"]
        lines.extend(f"  {e}" for e in self.entries)
        return "\n".join(lines)


def integrator_selftest(samples: int, seed: int = 42) -> SelfTestReport:
    """Check the sampler on volume integrals with known values.

    Estimates ``2**(1/2)`` and ``5**(1/3)`` as lengths ``{x > 0 : x**n < k}``,
    ``pi`` as the area of the unit disc, and the unit case ``1**(1/7)``
    (whose indicator is identically 1).  Each entry reports the deviation
    from the reference in units of its standard error; the report passes
    when all deviations are within 3.
    """
    import numpy as np

    if not isinstance(samples, int) or samples < 10 ** 4:
        raise DomainError(f"self-test needs at least 1e4 samples, got {samples!r}")
    with mpmath.workdps(30):
        ref_sqrt2 = float(mpmath.sqrt(2))
        ref_cbrt5 = float(mpmath.root(5, 3))
        ref_pi = float(mpmath.pi)

    # label, dimension, scale, indicator, reference
    cases = [
        ("2^(1/2)", 1, 2.0, lambda p: (2.0 * p[:, 0]) ** 2 < 2.0, ref_sqrt2),
        ("5^(1/3)", 1, 5.0, lambda p: (5.0 * p[:, 0]) ** 3 < 5.0, ref_cbrt5),
        ("pi", 2, 4.0,
         lambda p: (2.0 * p[:, 0] - 1.0) ** 2 + (2.0 * p[:, 1] - 1.0) ** 2 <= 1.0,
         ref_pi),
        ("1^(1/7)", 1, 1.0, lambda p: p[:, 0] ** 7 < 1.0, 1.0),
    ]
    entries = []
    for case_index, (label, dim, scale, indicator, reference) in enumerate(cases):
        mean, stderr = _sample_mean(lambda p: scale * indicator(p).astype(np.float64),
                                    dim, samples, seed, case_index)
        sigmas = abs(mean - reference) / stderr
        entries.append(SelfTestEntry(label=label, estimate=mean, stderr=stderr,
                                     reference=reference, sigmas=sigmas))
    return SelfTestReport(entries=tuple(entries), samples=samples, seed=seed,
                          passed=all(e.sigmas <= 3.0 for e in entries))


def snap_to_multiple(est: PeriodEstimate, base) -> tuple[int, float]:
    """Nearest integer multiple of ``base`` and the residual in sigmas."""
    if isinstance(base, BigReal):
        b = float(base.value)
    else:
        b = float(base)
    if not b > 0:
        raise DomainError(f"base must be positive, got {base!r}")
    multiple = round(est.estimate / b)
    residual = abs(est.estimate - multiple * b) / est.stderr
    return int(multiple), residual


# ---------------------------------------------------------------------------
# Graph construction and input
# ---------------------------------------------------------------------------


def bubble() -> MultiGraph:
    """Two vertices joined by two parallel edges (one loop)."""
    return MultiGraph(2, [(0, 1), (0, 1)])


def triangle() -> MultiGraph:
    """Three-cycle (one loop, not log-divergent)."""
    return MultiGraph(3, [(0, 1), (1, 2), (0, 2)])


def k4() -> MultiGraph:
    """Complete graph on four vertices (three loops)."""
    return MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def wheel(spokes: int) -> MultiGraph:
    """Cycle of ``spokes`` rim vertices, each joined to a hub."""
    if not isinstance(spokes, int) or spokes < 3:
        raise InputError(f"a wheel needs at least 3 spokes, got {spokes!r}")
    hub = spokes
    rim = [(i, (i + 1) % spokes) for i in range(spokes)]
    return MultiGraph(spokes + 1, rim + [(i, hub) for i in range(spokes)])


def zigzag(n: int) -> MultiGraph:
    """Zigzag graph on ``n + 1`` vertices: edges ``(i, i+1)``, ``(i, i+2)``
    and ``(0, n)``, ``2n`` in all (``n`` loops); ``zigzag(3)`` is K4 and
    ``zigzag(4)`` the wheel with four spokes."""
    if not isinstance(n, int) or n < 3:
        raise InputError(f"a zigzag needs n >= 3, got {n!r}")
    return MultiGraph(n + 1, [(i, i + 1) for i in range(n)]
                      + [(i, i + 2) for i in range(n - 1)] + [(0, n)])


_NAMED_GRAPHS = {
    "bubble": bubble,
    "triangle": triangle,
    "k4": k4,
    "w4": lambda: wheel(4),
}


def named_graph(name: str) -> MultiGraph:
    try:
        return _NAMED_GRAPHS[name.lower()]()
    except KeyError:
        raise InputError(
            f"unknown graph name {name!r}; known: {sorted(_NAMED_GRAPHS)}") from None


def graph_from_dict(obj) -> MultiGraph:
    """Build a graph from the JSON object form.

    Schema: ``{"vertices": int, "edges": [[u, v], ...]}`` with 0-based
    vertex indices.  Structural violations raise :class:`SchemaError`.
    """
    if not isinstance(obj, dict):
        raise SchemaError("graph document must be a JSON object")
    if "vertices" not in obj:
        raise SchemaError("missing key", field="vertices")
    if "edges" not in obj:
        raise SchemaError("missing key", field="edges")
    vertices = obj["vertices"]
    if not isinstance(vertices, int) or isinstance(vertices, bool):
        raise SchemaError("must be an integer", field="vertices")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise SchemaError("must be a list of pairs", field="edges")
    for k, pair in enumerate(edges):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(w, int) and not isinstance(w, bool) for w in pair)):
            raise SchemaError(f"entry {k} must be a pair of integers", field="edges")
    return MultiGraph(vertices, [tuple(pair) for pair in edges])


def load_graph(path: str) -> MultiGraph:
    """Read a graph JSON file (see :func:`graph_from_dict`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as ex:  # a JSONDecodeError, or an integer past Python's str digit limit
        raise SchemaError(f"not valid JSON: {ex}") from None
    return graph_from_dict(obj)
