"""The tropical sampler behind :func:`euler_periods.feynper.period_mc`.

Everything here works on one :class:`~euler_periods.feynper.MultiGraph`:
the table of loop numbers h and degrees omega over the edge subsets (which
the primitivity test reads too), the Hepp sector weights and their alias
tables, and a straight-line program for the Kirchhoff polynomial.  The
subset table and the plan are cached per graph.  See the ``feynper`` module
notes for the method.  The module is imported on the first primitivity test
or period estimate, so a program that does neither loads neither it nor
numpy.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import InternalCheckError
from .feynper import MultiGraph, _UnionFind, matrix_tree_count

# Rows of a shard the integrand works on at once, so that its temporaries
# stay in cache.
_BLOCK = 1 << 13


@functools.lru_cache(maxsize=8)
def subset_table(g: MultiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Loop number ``h`` and ``omega = |gamma| - 2h`` of every edge subset gamma.

    Both are int arrays indexed by the bitmask of the subset, bit ``i`` for
    edge ``i``.  One pass in mask order: the vertex partition of a subset
    is that of the subset without its lowest edge, with the edge's endpoints
    joined, and the rank grows by one when they were apart; partitions are
    numbered as they appear, so each (partition, edge) join is worked out
    once.  Then ``h = |gamma| - rank`` and ``omega = 2 rank - |gamma|``.
    """
    n = g.n_edges
    start = tuple(range(g.vertices))
    partitions = [start]
    number = {start: 0}
    joins: dict[int, int] = {}      # (partition, edge) -> 2 * partition + joined
    part = [0] * (1 << n)
    rank = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        e = low.bit_length() - 1
        key = part[rest] * n + e
        step = joins.get(key)
        if step is None:
            labels = partitions[part[rest]]
            a, b = sorted(labels[w] for w in g.edges[e])
            if a == b:
                step = part[rest] << 1
            else:
                joined = tuple(a if w == b else w for w in labels)
                if joined not in number:
                    number[joined] = len(partitions)
                    partitions.append(joined)
                step = number[joined] << 1 | 1
            joins[key] = step
        part[mask] = step >> 1
        rank[mask] = rank[rest] + (step & 1)
    masks = np.arange(1 << n)
    size = sum((masks >> i) & 1 for i in range(n))
    rank = np.array(rank)
    return size - rank, 2 * rank - size


def psi_program(g: MultiGraph) -> tuple[list[tuple[bool, int, int]], int]:
    """A straight-line program for the Kirchhoff polynomial, by deletion-contraction.

    The registers start with the edge variables in ``0 .. n-1`` and the
    constant 1 in ``n``; instruction ``(mul, a, b)`` appends ``r[a] * r[b]``
    if ``mul`` else ``r[a] + r[b]``, and the result is in the returned root
    register.  Only + and * of the inputs appear, so on positive inputs
    nothing cancels.  The size depends on the order the edges are taken
    in: each edge in turn starts a greedy order that keeps few vertices
    half done (see :func:`_frontier_order`), and the shortest program is
    kept.
    """
    return min((_program_in_order(g, _frontier_order(g, first))
                for first in range(g.n_edges)), key=lambda p: len(p[0]))


def _frontier_order(g: MultiGraph, first: int) -> list[int]:
    """Edge order from ``first`` on, each next edge the one (lowest index on
    ties) that leaves the fewest vertices with edges both taken and not."""
    edges = g.edges
    left = [0] * g.vertices
    for u, v in edges:
        left[u] += 1
        left[v] += 1
    order: list[int] = []
    seen: set[int] = set()
    rest = list(range(g.n_edges))

    def half_done(k: int) -> int:
        u, v = edges[k]
        return sum(1 for w in seen | {u, v} if left[w] - (w == u) - (w == v) > 0)

    e = first
    while True:
        order.append(e)
        rest.remove(e)
        for w in edges[e]:
            left[w] -= 1
            seen.add(w)
        if not rest:
            return order
        e = min(rest, key=half_done)


def _program_in_order(g: MultiGraph, order: list[int]) -> tuple[list[tuple[bool, int, int]], int]:
    """:func:`psi_program` with the edges taken in ``order``.

    A state is step ``k`` and the vertex partition that the contractions of
    the first ``k`` edges made, restricted to the vertices the remaining
    edges touch.  Edge ``k`` across two blocks gives ``x Psi(delete) +
    Psi(contract)``, inside one block ``x Psi(delete)``, and a deletion that
    leaves the blocks unjoinable is zero and dropped.  States are memoised,
    so each repeated minor is computed once.
    """
    n = g.n_edges
    edges = [g.edges[e] for e in order]
    touched = [sorted({w for e in edges[k:] for w in e}) for k in range(n + 1)]
    ops: list[tuple[bool, int, int]] = []
    memo: dict[tuple[int, tuple[int, ...]], int | None] = {}

    def emit(mul: bool, a: int, b: int) -> int:
        ops.append((mul, a, b))
        return n + len(ops)

    def connects(k: int, labels: tuple[int, ...]) -> bool:
        uf = _UnionFind(len(labels))
        parts = len(set(labels))
        for u, v in edges[k:]:
            if uf.union(labels[u], labels[v]):
                parts -= 1
        return parts == 1

    def node(k: int, labels: tuple[int, ...]) -> int | None:
        seen: dict[int, int] = {}
        key = (k, tuple(seen.setdefault(labels[w], len(seen)) for w in touched[k]))
        if key in memo:
            return memo[key]
        if k == n:
            memo[key] = n
            return n
        a, b = sorted(labels[w] for w in edges[k])
        rest = node(k + 1, labels) if a == b or connects(k + 1, labels) else None
        out = None if rest is None else order[k] if rest == n else emit(True, order[k], rest)
        if a != b:
            joined = node(k + 1, tuple(a if w == b else w for w in labels))
            out = joined if out is None else emit(False, out, joined)
        memo[key] = out
        return out

    return ops, node(0, tuple(range(g.vertices)))


def run_program(program: list[tuple[bool, int, int]], root: int, x, one):
    """Run a :func:`psi_program` on the edge variables ``x`` (numbers or
    arrays), with ``one`` for the constant 1."""
    r = list(x) + [one]
    for mul, a, b in program:
        r.append(r[a] * r[b] if mul else r[a] + r[b])
    return r[root]


def _hepp_weights(omega: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sector weights ``J`` of every edge subset, indexed by bitmask.

    ``J({e}) = 1`` and ``J(gamma) = sum over e in gamma of J(gamma - e) /
    omega(gamma - e)``; ``J(G)`` is the Hepp bound, the sum over all edge
    orders of the product of ``1/omega`` over the proper tails of the order.
    Computed layer by layer in the subset size, in floats.  Also returns
    the ``(2**n, n)`` array of the terms, ``J(gamma - e) / omega(gamma - e)``
    for each ``e`` in ``gamma`` and 0 elsewhere.
    """
    size = 1 << n
    masks = np.arange(size)
    bits = 1 << np.arange(n)
    member = (masks[:, None] & bits) != 0
    below = masks[:, None] ^ bits
    counts = member.sum(axis=1)
    order = np.argsort(counts, kind="stable")
    ends = np.cumsum(np.bincount(counts, minlength=n + 1))
    ratio = np.zeros(size)   # J / omega; 1 for the empty set, so J({e}) = 1
    ratio[0] = 1.0
    hepp = np.zeros(size)
    for k in range(1, n + 1):
        layer = order[ends[k - 1]:ends[k]]
        hepp[layer] = np.where(member[layer], ratio[below[layer]], 0.0).sum(axis=1)
        if k < n:
            ratio[layer] = hepp[layer] / omega[layer]
    return hepp, np.where(member, ratio[below], 0.0)


def _alias_tables(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias tables for every row of ``weights`` at once.

    Row ``s`` is a list of nonnegative weights with a positive sum.  A slot
    ``k`` drawn uniformly from the row's width, kept with probability
    ``prob[s, k]`` and otherwise replaced by ``alias[s, k]``, is column ``j``
    with probability proportional to ``weights[s, j]``.  Each of the
    ``width - 1`` steps closes, in every row, the smallest open scaled
    weight (at most 1) and gives what it lacks of 1 to the largest (at
    least 1).
    """
    rows, width = weights.shape
    q = weights * (width / weights.sum(axis=1, keepdims=True))
    prob = np.ones_like(q)
    alias = np.broadcast_to(np.arange(width), q.shape).copy()
    at = np.arange(rows)
    closed = np.zeros(q.shape, dtype=bool)
    for _ in range(width - 1):
        small = np.where(closed, np.inf, q).argmin(axis=1)
        large = np.where(closed, -np.inf, q).argmax(axis=1)
        kept = q[at, small]
        prob[at, small] = kept
        alias[at, small] = large
        q[at, large] -= 1.0 - kept
        closed[at, small] = True
    return prob, alias


@functools.lru_cache(maxsize=4)
def plan(g: MultiGraph) -> tuple[float, int, Callable[[np.ndarray], np.ndarray]]:
    """Hepp bound, cube dimension and integrand of the tropical sampler for ``g``.

    ``g`` must pass the primitivity test.  The integrand maps a uniform
    point to ``(Psi_tr / Psi)**2`` in ``[0, 1]`` at a point drawn from the
    tropical measure, so the period is the Hepp bound times its mean.  The
    walk starts at ``gamma = G`` and ``kappa = 1``; each step draws an edge
    ``e`` of ``gamma`` with probability ``J(gamma - e) / (omega(gamma - e)
    J(gamma))`` from the alias table of ``gamma`` (one uniform: its integer
    part at scale ``n`` is the slot, its fraction keeps the slot or takes
    the alias), sets ``x_e = kappa``, multiplies ``Psi_tr`` by ``kappa``
    when removing ``e`` lowers the loop number, then shrinks ``kappa`` by
    ``xi**(1/omega(gamma - e))`` with ``xi = 1 - u`` in ``(0, 1]``, and
    removes ``e``.  The last edge is forced, so a point takes ``2n - 2``
    uniforms: ``n - 1`` edge draws, then ``n - 1`` values of ``xi``.  The
    walk runs in logarithms.  The Kirchhoff program is checked at ``x = 1``
    against the matrix-tree count.
    """
    n = g.n_edges
    loops, omega = subset_table(g)
    program, root = psi_program(g)
    trees = run_program(program, root, [1] * n, 1)
    if trees != matrix_tree_count(g):
        raise InternalCheckError(
            f"the Kirchhoff program counts {trees} spanning trees but the "
            f"matrix-tree determinant gives {matrix_tree_count(g)}")
    hepp, weights = _hepp_weights(omega, n)
    weights[0, 0] = 1.0                    # the empty state is never drawn from
    prob, alias = _alias_tables(weights)
    # Flat tables; cell = state * n + edge.
    states = np.arange(1 << n)[:, None]
    base = states * n
    prob = prob.ravel()
    alias_cell = (base + alias).ravel()
    after = (states ^ (1 << np.arange(n))).ravel()
    member = (weights > 0).ravel()
    next_base = after * n
    drop = np.where(member, np.repeat(loops, n) - loops[after], 0).astype(np.float64)
    inv_omega = np.divide(1.0, omega[after], out=np.zeros(after.size),
                          where=member & (after > 0))
    lone = np.zeros(1 << n, dtype=np.intp)
    lone[1 << np.arange(n)] = np.arange(n)
    full = ((1 << n) - 1) * n

    def integrand(u: np.ndarray) -> np.ndarray:
        out = np.empty(len(u))
        for start in range(0, len(u), _BLOCK):
            cols = u[start:start + _BLOCK].T
            rows = cols.shape[1]
            at = np.arange(rows)
            choice = cols[:n - 1] * n          # below n: u <= 1 - 2**-53
            log_xi = np.log(1.0 - cols[n - 1:])  # xi = 1 - u is exact, in (0, 1]
            cell_base = np.full(rows, full, dtype=np.intp)
            log_kappa = np.zeros(rows)
            log_tr = np.zeros(rows)
            log_x = np.empty(n * rows)
            for t in range(n - 1):
                scaled = choice[t]
                slot = scaled.astype(np.intp)
                cell = cell_base + slot
                pick = np.where(scaled - slot < prob[cell], cell, alias_cell[cell])
                log_x[(pick - cell_base) * rows + at] = log_kappa
                log_tr += drop[pick] * log_kappa
                log_kappa += log_xi[t] * inv_omega[pick]
                cell_base = next_base[pick]
            # One edge is left; alone it is a forest, so Psi_tr is complete.
            log_x[lone[cell_base // n] * rows + at] = log_kappa
            psi = run_program(program, root, np.exp(log_x).reshape(n, rows), 1.0)
            ratio = np.exp(log_tr) / psi
            out[start:start + rows] = ratio * ratio
        return out

    return float(hepp[-1]), 2 * n - 2, integrand
