"""Graph polynomials, primitivity power counting, Monte-Carlo periods."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest

from euler_periods import _tropical, feynper
from euler_periods.errors import (
    Disconnected,
    DomainError,
    InputError,
    InternalCheckError,
    NonFiniteSample,
    NotPrimitive,
    SchemaError,
    TooLarge,
)
from euler_periods.feynper import (
    GraphPolynomial,
    MultiGraph,
    bubble,
    graph_from_dict,
    integrator_selftest,
    is_primitive_log_divergent,
    k4,
    kirchhoff_polynomial,
    load_graph,
    loop_number,
    matrix_tree_count,
    named_graph,
    period_mc,
    snap_to_multiple,
    spanning_trees,
    triangle,
    wheel,
    zigzag,
)


# ---------------------------------------------------------------------------
# MultiGraph construction
# ---------------------------------------------------------------------------


def test_edges_keep_order():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edges == ((0, 1), (1, 2), (0, 2))
    assert g.n_edges == 3


@pytest.mark.parametrize("vertices,edges", [
    (0, []),
    (-2, []),
    (2, [(0, 2)]),
    (2, [(0, -1)]),
    (2, [(0,)]),
    (2, [("a", 1)]),
])
def test_constructor_validation(vertices, edges):
    with pytest.raises(InputError):
        MultiGraph(vertices, edges)


def test_self_loop_needs_flag():
    with pytest.raises(InputError):
        MultiGraph(2, [(0, 0), (0, 1)])
    g = MultiGraph(2, [(0, 0), (0, 1)], allow_self_loops=True)
    assert g.n_edges == 2


def test_disconnected_rejected_by_loop_number():
    g = MultiGraph(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    with pytest.raises(Disconnected):
        loop_number(g)


def test_too_few_edges_to_connect_build_no_per_vertex_state():
    # A graph with more vertices than edges + 1 cannot be connected; deciding
    # so must not build union-find state per vertex (a 48-byte file asked
    # for 30 million vertices and took the process past 1 GB).
    import tracemalloc
    g = MultiGraph(10 ** 6, [(0, 1), (1, 2)])
    tracemalloc.start()
    try:
        assert not g.is_connected()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert MultiGraph(3, [(0, 1), (1, 2)]).is_connected()
    assert not MultiGraph(4, [(0, 1), (1, 2), (0, 2)]).is_connected()


@pytest.mark.parametrize("graph,loops", [
    (bubble(), 1), (triangle(), 1), (k4(), 3), (wheel(4), 4), (wheel(5), 5),
])
def test_loop_numbers(graph, loops):
    assert loop_number(graph) == loops


def test_delete_and_contract_shift_edges():
    g = triangle()
    d = g.delete_edge(0)
    assert d.edges == ((1, 2), (0, 2))
    c = g.contract_edge(0)
    assert c.vertices == 2
    assert c.edges == ((0, 1), (0, 1))


def test_contract_parallel_edge_makes_self_loop():
    c = bubble().contract_edge(0)
    assert c.vertices == 1
    assert c.edges == ((0, 0),)
    with pytest.raises(DomainError):
        c.contract_edge(0)


def test_edge_index_validation():
    with pytest.raises(InputError):
        triangle().delete_edge(3)
    with pytest.raises(InputError):
        triangle().contract_edge(-1)


# ---------------------------------------------------------------------------
# Spanning trees, two routes
# ---------------------------------------------------------------------------

TREE_COUNTS = [(bubble(), 2), (triangle(), 3), (k4(), 16), (wheel(4), 45)]


@pytest.mark.parametrize("graph,count", TREE_COUNTS)
def test_tree_counts_both_routes(graph, count):
    assert matrix_tree_count(graph) == count
    enumerated, trees = spanning_trees(graph)
    assert enumerated == count
    assert len(set(trees)) == count


def test_trees_are_actual_trees():
    g = k4()
    _, trees = spanning_trees(g)
    for tree in trees:
        assert len(tree) == g.vertices - 1
        seen = set()
        for i in tree:
            seen.update(g.edges[i])
        assert seen == set(range(g.vertices))


def test_cayley_formula_spot_check():
    # Complete graph on n vertices has n**(n-2) spanning trees.
    for n in (2, 3, 4, 5):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = MultiGraph(n, edges)
        assert matrix_tree_count(g) == n ** (n - 2)


def test_multi_edge_counts_multiply():
    # Doubling one triangle edge doubles the trees through it: 3 -> 5.
    g = MultiGraph(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    assert matrix_tree_count(g) == 5
    count, _ = spanning_trees(g)
    assert count == 5


def test_spanning_tree_cap():
    g = wheel(13)
    assert g.n_edges == 26
    with pytest.raises(TooLarge):
        spanning_trees(g)


# ---------------------------------------------------------------------------
# Graph polynomial
# ---------------------------------------------------------------------------


def test_bubble_polynomial():
    # Trees are single edges; the polynomial collects the other variable.
    psi = kirchhoff_polynomial(bubble())
    assert psi.terms == {(1, 0): 1, (0, 1): 1}
    assert str(psi) == "a1 + a2"


def test_triangle_polynomial():
    # Degree h = 1: each spanning tree drops exactly one edge.
    psi = kirchhoff_polynomial(triangle())
    assert psi.terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert str(psi) == "a1 + a2 + a3"


def test_k4_polynomial_shape():
    psi = kirchhoff_polynomial(k4())
    assert psi.monomial_count() == 16
    assert psi.degree() == 3
    assert psi.is_homogeneous()
    assert all(c == 1 for c in psi.terms.values())
    assert all(max(e) <= 1 for e in psi.terms)


@pytest.mark.parametrize("graph", [bubble(), triangle(), k4(), wheel(4)])
def test_polynomial_homogeneous_of_loop_degree(graph):
    psi = kirchhoff_polynomial(graph)
    assert psi.is_homogeneous()
    assert psi.degree() == loop_number(graph)
    assert psi.monomial_count() == matrix_tree_count(graph)


@pytest.mark.parametrize("graph", [triangle(), k4(), wheel(4)])
@pytest.mark.parametrize("edge", [0, 2])
def test_deletion_contraction(graph, edge):
    """psi(G) = psi(G/e) with a_e inserted + a_e * psi(G-e), symbolically."""
    psi = kirchhoff_polynomial(graph)
    contracted = kirchhoff_polynomial(graph.contract_edge(edge)).insert_var(edge)
    deleted = kirchhoff_polynomial(graph.delete_edge(edge)).insert_var(edge).times_var(edge)
    assert psi == contracted + deleted


def test_polynomial_str_and_eq():
    p = GraphPolynomial(2, {(1, 0): 1, (0, 2): 3})
    assert str(p) == "a1 + 3*a2^2"
    assert p == GraphPolynomial(2, {(0, 2): 3, (1, 0): 1})
    assert p != GraphPolynomial(2, {(1, 0): 1})


def test_polynomial_validation():
    with pytest.raises(InputError):
        GraphPolynomial(2, {(1,): 1})
    with pytest.raises(InputError):
        GraphPolynomial(2, {(-1, 0): 1})
    with pytest.raises(InputError):
        GraphPolynomial(-1, {})


def test_polynomial_drops_zero_terms():
    p = GraphPolynomial(1, {(1,): 2}) + GraphPolynomial(1, {(1,): -2})
    assert p.terms == {}
    assert str(p) == "0"
    assert p.degree() == 0


# ---------------------------------------------------------------------------
# Primitivity power counting
# ---------------------------------------------------------------------------


def test_primitive_table():
    assert is_primitive_log_divergent(bubble())
    assert is_primitive_log_divergent(k4())
    assert is_primitive_log_divergent(wheel(4))
    assert not is_primitive_log_divergent(triangle())


def test_no_two_loop_primitive_exists():
    # n = 2h forces 4 edges and 3 vertices at two loops; every such
    # connected multigraph contains a one-loop subgraph on two edges, so
    # the first primitive beyond the bubble has three loops.
    four_edge_two_loops = [
        MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)]),
        MultiGraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)]),
        MultiGraph(3, [(0, 1), (0, 1), (0, 1), (1, 2)]),
    ]
    for g in four_edge_two_loops:
        assert loop_number(g) == 2
        assert g.n_edges == 2 * loop_number(g)
        assert not is_primitive_log_divergent(g)


def test_wrong_edge_balance_rejected():
    # Loop number 1 with 3 edges: n != 2h.
    assert not is_primitive_log_divergent(triangle())


def test_tree_has_no_period():
    with pytest.raises(DomainError):
        is_primitive_log_divergent(MultiGraph(2, [(0, 1)]))


def test_primitivity_cap():
    with pytest.raises(TooLarge):
        is_primitive_log_divergent(wheel(9))


def _primitive_by_connected_subgraphs(g):
    """The power-counting test as stated on connected subgraphs, by brute force."""
    n, edges = g.n_edges, g.edges
    if n != 2 * loop_number(g):
        return False
    for mask in range(1, (1 << n) - 1):
        subset = [edges[i] for i in range(n) if mask >> i & 1]
        touched = sorted({w for e in subset for w in e})
        sub = MultiGraph(len(touched), [(touched.index(u), touched.index(v)) for u, v in subset],
                         allow_self_loops=True)
        if sub.is_connected():
            h = loop_number(sub)
            if h >= 1 and len(subset) <= 2 * h:
                return False
    return True


@pytest.mark.parametrize("graph", [
    bubble(), triangle(), k4(), wheel(4), zigzag(5),
    MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)]),
    MultiGraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)]),
    MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 3), (0, 1)]),
    MultiGraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (1, 3), (2, 4)]),
    MultiGraph(2, [(0, 1), (0, 1), (0, 1), (0, 1)]),
])
def test_primitivity_matches_the_connected_subgraph_test(graph):
    assert is_primitive_log_divergent(graph) == _primitive_by_connected_subgraphs(graph)


def test_sixteen_edge_zigzag_is_primitive():
    g = zigzag(8)
    assert g.n_edges == feynper.SUBGRAPH_EDGE_CAP
    assert is_primitive_log_divergent(g)


# ---------------------------------------------------------------------------
# Monte-Carlo period estimates
# ---------------------------------------------------------------------------


def test_bubble_period_close_to_one():
    est = period_mc(bubble(), 10 ** 5, seed=42)
    assert abs(est.estimate - 1.0) <= 3 * est.stderr
    assert est.stderr < 0.05


def test_period_seed_determinism():
    a = period_mc(bubble(), 30000, seed=7)
    b = period_mc(bubble(), 30000, seed=7)
    c = period_mc(bubble(), 30000, seed=8)
    assert (a.estimate, a.stderr) == (b.estimate, b.stderr)
    assert a.estimate != c.estimate


def test_period_stderr_scales_roughly_invsqrt():
    small = period_mc(bubble(), 10 ** 4, seed=42)
    large = period_mc(bubble(), 10 ** 6, seed=42)
    ratio = small.stderr / large.stderr
    assert 5 < ratio < 20  # ideal sqrt(100) = 10


def test_sample_mean_stops_at_the_first_non_finite_value():
    # Finite on the full first shard, inf from row 2 of the second.
    def f(x):
        vals = np.ones(len(x))
        if len(x) < feynper._SHARD_SIZE:
            vals[2:] = np.inf
        return vals

    with pytest.raises(NonFiniteSample, match=r"shard 1, row 2 \(x = \[") as info:
        feynper._sample_mean(f, 2, feynper._SHARD_SIZE + 5, 3)
    assert info.value.shard == 1


# ---------------------------------------------------------------------------
# Shards on a thread pool: the bits of one shard after another
# ---------------------------------------------------------------------------


def serial_sample_mean(f, dim, samples, seed, *key):
    """The shard loop of ``_sample_mean`` one shard after another on the
    calling thread, as it ran before the thread pool: the reference bits."""
    sums, squares = [], []
    for shard, start in enumerate(range(0, samples, feynper._SHARD_SIZE)):
        x = feynper._shard_rng(seed, *key, shard).random((min(feynper._SHARD_SIZE, samples - start), dim))
        vals = f(x)
        assert np.isfinite(vals).all()
        sums.append(feynper._exact_sum(vals))
        squares.append(feynper._exact_sum(vals * vals))
    mean = math.fsum(sums) / samples
    variance = max(math.fsum(squares) / samples - mean * mean, 0.0)
    floor = (feynper._RELATIVE_VARIANCE_FLOOR * (1.0 + abs(mean))) ** 2
    return mean, math.sqrt(max(variance, floor) / samples)


def pi_indicator(p):
    """The self-test's pi case: 4 on the unit disc, 0 off it."""
    return 4.0 * ((2.0 * p[:, 0] - 1.0) ** 2 + (2.0 * p[:, 1] - 1.0) ** 2 <= 1.0).astype(np.float64)


def period_integrand(g):
    _, dim, integrand = _tropical.plan(g)
    return integrand, dim, ()


#: Integrand name -> (integrand, dimension, key): the K4, W4 and W5 periods
#: and the self-test's pi case under its key.
POOL_INTEGRANDS = {
    "k4": period_integrand(k4()),
    "w4": period_integrand(wheel(4)),
    "w5": period_integrand(wheel(5)),
    "pi": (pi_indicator, 2, (2,)),
}

#: One shard, two with a tiny last one, two, and more shards than workers.
POOL_SAMPLES = [1 << 17, (1 << 17) + 5, 250000, 5 * (1 << 17) + 3]

POOL_SEED = 7


def sample_mean_hex(mean_of, name, samples):
    f, dim, key = POOL_INTEGRANDS[name]
    return tuple(v.hex() for v in mean_of(f, dim, samples, POOL_SEED, *key))


@lru_cache(maxsize=None)
def reference_hex(name, samples):
    return sample_mean_hex(serial_sample_mean, name, samples)


@pytest.mark.parametrize("workers", ["usable", 3])
@pytest.mark.parametrize("samples", POOL_SAMPLES)
@pytest.mark.parametrize("name", list(POOL_INTEGRANDS))
def test_the_pool_gives_the_bits_of_one_shard_after_another(monkeypatch, name, samples, workers):
    if workers != "usable":
        monkeypatch.setattr(feynper, "_usable_cpus", lambda: workers)
    assert sample_mean_hex(feynper._sample_mean, name, samples) == reference_hex(name, samples)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity")
def test_one_cpu_gives_the_same_bits():
    code = ("import json, os, threading\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from euler_periods import feynper\n"
            "from test_feynper import POOL_INTEGRANDS, POOL_SAMPLES, sample_mean_hex\n"
            "assert feynper._usable_cpus() == 1\n"
            "print(json.dumps([sample_mean_hex(feynper._sample_mean, name, n)\n"
            "                  for name in POOL_INTEGRANDS for n in POOL_SAMPLES]))\n"
            "print(threading.active_count())")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=300)
    hexes, threads = proc.stdout.splitlines()
    assert [tuple(h) for h in json.loads(hexes)] == [
        reference_hex(name, n) for name in POOL_INTEGRANDS for n in POOL_SAMPLES]
    assert threads == "1"


def shard_of_first_value(seed, shards):
    """Shard index keyed by the first coordinate of the shard's first point."""
    return {feynper._shard_rng(seed, shard).random(): shard for shard in range(shards)}


def test_the_first_non_finite_shard_in_shard_order_raises_from_the_pool(monkeypatch):
    # Shard 2 fails first in time, shard 0 later; shard 0 is reported.
    monkeypatch.setattr(feynper, "_usable_cpus", lambda: 3)
    shard_of = shard_of_first_value(5, 4)

    def f(x):
        vals = np.ones(len(x))
        shard = shard_of[x[0, 0]]
        if shard == 0:
            time.sleep(0.2)
            vals[7] = np.nan
        elif shard == 2:
            vals[3] = np.inf
        return vals

    before = threading.active_count()
    with pytest.raises(NonFiniteSample, match=r"shard 0, row 7 \(x = \[") as info:
        feynper._sample_mean(f, 2, 4 * feynper._SHARD_SIZE, 5)
    assert info.value.shard == 0
    assert threading.active_count() == before


def test_an_exception_of_the_integrand_reaches_the_caller_unchanged(monkeypatch):
    monkeypatch.setattr(feynper, "_usable_cpus", lambda: 3)
    shard_of = shard_of_first_value(5, 4)
    error = LookupError("raised in shard 1")

    def f(x):
        if shard_of[x[0, 0]] == 1:
            raise error
        return np.ones(len(x))

    before = threading.active_count()
    with pytest.raises(LookupError) as info:
        feynper._sample_mean(f, 2, 4 * feynper._SHARD_SIZE, 5)
    assert info.value is error
    assert threading.active_count() == before


def _zeta(s):
    return float(mpmath.zeta(s))


@pytest.mark.parametrize("name,graph,closed_form", [
    ("W5", wheel(5), lambda: 70 * _zeta(7)),
    ("Z5", zigzag(5), lambda: 441 / 8 * _zeta(7)),
    ("Z6", zigzag(6), lambda: 168 * _zeta(9)),
])
def test_period_matches_closed_forms_past_eight_edges(name, graph, closed_form):
    est = period_mc(graph, 2 * 10 ** 5, seed=42)
    assert abs(est.estimate - closed_form()) <= 3 * est.stderr
    assert est.stderr < 0.01 * est.estimate


def test_period_one_sigma_coverage_is_calibrated():
    # Over 100 fixed seeds per graph at 1e4 samples, the pooled share of
    # 1-sigma intervals that cover the closed form stays within three
    # binomial standard deviations of the nominal 0.6827.
    cases = [(k4(), 6 * _zeta(3)), (wheel(4), 20 * _zeta(5))]
    seeds = range(100)
    covered = sum(abs(est.estimate - ref) <= est.stderr
                  for g, ref in cases
                  for est in (period_mc(g, 10 ** 4, seed=s) for s in seeds))
    trials = len(cases) * len(seeds)
    nominal = math.erf(1 / math.sqrt(2))
    assert abs(covered - nominal * trials) <= 3 * math.sqrt(trials * nominal * (1 - nominal))


def _hepp_by_edge_orders(g):
    """Sum over all edge orders of the product of 1/omega over the proper tails."""
    def omega(subset):
        uf = feynper._UnionFind(g.vertices)
        rank = sum(uf.union(*g.edges[i]) for i in subset)
        return 2 * rank - len(subset)

    total = Fraction(0)
    for order in itertools.permutations(range(g.n_edges)):
        term = Fraction(1)
        for k in range(1, g.n_edges):
            term /= omega(order[k:])
        total += term
    return total


@pytest.mark.parametrize("graph,hepp", [(bubble(), 2), (k4(), 84), (wheel(4), 572)])
def test_hepp_bound_matches_the_sum_over_edge_orders(graph, hepp):
    assert _hepp_by_edge_orders(graph) == hepp
    assert _tropical.plan(graph)[0] == pytest.approx(hepp, rel=1e-13)


def test_hepp_bound_of_w5():
    assert _tropical.plan(wheel(5))[0] == pytest.approx(13240 / 3, rel=1e-13)


@pytest.mark.parametrize("graph", [k4(), wheel(4), wheel(5), wheel(6), zigzag(5), zigzag(6)])
def test_psi_program_equals_the_kirchhoff_polynomial(graph):
    program, root = _tropical.psi_program(graph)
    psi = kirchhoff_polynomial(graph)
    rng = random.Random(graph.n_edges)
    for _ in range(5):
        x = [rng.randint(1, 10 ** 6) for _ in range(graph.n_edges)]
        exact = sum(c * math.prod(xi ** e for xi, e in zip(x, expo))
                    for expo, c in psi.terms.items())
        assert _tropical.run_program(program, root, x, 1) == exact


def test_plan_refuses_a_program_that_miscounts_trees(monkeypatch):
    _tropical.plan.cache_clear()
    monkeypatch.setattr(_tropical, "matrix_tree_count", lambda g: 15)
    try:
        with pytest.raises(InternalCheckError):
            _tropical.plan(k4())
    finally:
        _tropical.plan.cache_clear()


def test_integrand_is_bounded_by_one():
    _, dim, integrand = _tropical.plan(wheel(5))
    u = np.random.default_rng(5).random((10 ** 4, dim))
    u[:5, dim // 2:] = 1.0 - 2.0 ** -53      # xi at its smallest
    vals = integrand(u)
    assert np.all((vals > 0) & (vals <= 1.0 + 1e-12))


@pytest.mark.parametrize("vals", [
    [1.0, -1.0, 0.0, -0.0, 2.5, 1e-300, -3e-320, 5e-324, 1e300, -1e300, 0.1, 0.2, 0.3],
    [1.7e308, 1e-308, 2.0 ** -1074, -(2.0 ** -1073), 1.0, -1.7e308, 1e308],
    [0.1] * 1000 + [-0.1] * 999,
    [0.0, 0.0],
])
def test_exact_sum_equals_fsum_bit_for_bit(vals):
    arr = np.array(vals)
    assert feynper._exact_sum(arr).hex() == math.fsum(vals).hex()


def test_exact_sum_equals_fsum_on_full_shards():
    rng = np.random.default_rng(11)
    size = feynper._SHARD_SIZE
    shards = [
        rng.random(size),
        rng.standard_normal(size) * np.exp(rng.uniform(-700, 700, size)),
        rng.random(size) ** 40,
    ]
    for vals in shards:
        assert feynper._exact_sum(vals).hex() == math.fsum(vals.tolist()).hex()


def test_period_rejects_non_primitive():
    with pytest.raises(NotPrimitive):
        period_mc(triangle(), 10 ** 4)


def test_period_input_validation():
    with pytest.raises(InputError):
        period_mc(bubble(), 0)
    with pytest.raises(InputError):
        period_mc(bubble(), 1000, seed="x")


def test_a_negative_seed_or_a_count_past_the_cap_is_refused_before_any_work(monkeypatch):
    # numpy's SeedSequence refused a negative seed with a ValueError, after
    # the graph's plan was built; a huge count ran until it was killed.
    def no_sampling(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(feynper, "_sample_mean", no_sampling)
    for run in (lambda **kw: period_mc(k4(), **kw), integrator_selftest):
        with pytest.raises(InputError, match="non-negative"):
            run(samples=10 ** 4, seed=-1)
        with pytest.raises(TooLarge, match=f"cap {feynper.SAMPLE_CAP}"):
            run(samples=feynper.SAMPLE_CAP + 1, seed=1)
        with pytest.raises(TooLarge):
            run(samples=10 ** 23, seed=-5)
        with pytest.raises(InputError, match="non-negative"):
            run(samples=10 ** 4, seed=True)
    # One sample has no variance, so no standard error; True ran one sample.
    for samples in (1, True):
        with pytest.raises(InputError):
            period_mc(k4(), samples)


def test_period_str_format():
    est = period_mc(bubble(), 20000, seed=42)
    value, err = str(est).split(" ± ")
    assert float(value) == pytest.approx(est.estimate, rel=1e-14)
    assert float(err) == pytest.approx(est.stderr, rel=1e-2)
    assert abs(float(value) - 1.0) <= 3 * float(err)


def test_snap_to_multiple_bubble():
    est = period_mc(bubble(), 10 ** 5, seed=42)
    multiple, sigmas = snap_to_multiple(est, 1.0)
    assert multiple == 1
    assert sigmas <= 3.0


def test_snap_to_multiple_validation():
    est = period_mc(bubble(), 20000, seed=42)
    with pytest.raises(DomainError):
        snap_to_multiple(est, 0)
    with pytest.raises(DomainError):
        snap_to_multiple(est, -2.5)


@pytest.mark.parametrize("base, error", [(float("inf"), DomainError), ("abc", InputError),
                                         (None, InputError), (1e-320, DomainError)])
def test_snap_to_multiple_refuses_a_base_that_gives_no_multiple(base, error):
    est = period_mc(bubble(), 20000, seed=42)
    with pytest.raises(error):
        snap_to_multiple(est, base)


def test_snap_to_multiple_reads_a_bigreal_base_as_the_float_of_its_midpoint():
    from euler_periods.eulerfun import zeta
    est = period_mc(k4(), 20000, seed=42)
    for prec in (1, 15, 100):
        base = zeta(3, prec)
        assert snap_to_multiple(est, base) == snap_to_multiple(est, float(base.value))


def test_the_cube_root_reference_is_libmps_correctly_rounded_root():
    from mpmath.libmp import from_int, mpf_nthroot, round_nearest, to_float
    assert feynper._CUBE_ROOT_5 == to_float(mpf_nthroot(from_int(5), 3, 53, round_nearest))


def test_selftest_passes_and_prints():
    report = integrator_selftest(20000, seed=42)
    assert report.passed
    assert len(report.entries) == 4
    text = str(report)
    assert "pass" in text
    assert "pi" in text
    unit = [e for e in report.entries if e.label == "1^(1/7)"][0]
    # Constant integrand: deviation is zero, stderr sits on the floor.
    assert unit.estimate == 1.0
    assert unit.stderr > 0


def test_selftest_sample_floor():
    with pytest.raises(DomainError):
        integrator_selftest(5000)


# ---------------------------------------------------------------------------
# Named graphs and JSON input
# ---------------------------------------------------------------------------


def test_named_graphs():
    assert named_graph("bubble") == bubble()
    assert named_graph("K4") == k4()
    assert named_graph("w4") == wheel(4)
    with pytest.raises(InputError):
        named_graph("pentagon")


def test_wheel_validation():
    with pytest.raises(InputError):
        wheel(2)


def _isomorphic(g, h):
    if g.vertices != h.vertices:
        return False
    target = sorted(tuple(sorted(e)) for e in h.edges)
    return any(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges) == target
               for p in itertools.permutations(range(g.vertices)))


def test_zigzag_shapes():
    assert _isomorphic(zigzag(3), k4())
    assert _isomorphic(zigzag(4), wheel(4))
    assert not _isomorphic(zigzag(5), wheel(5))
    for n in (5, 6, 8):
        g = zigzag(n)
        assert (g.vertices, g.n_edges, loop_number(g)) == (n + 1, 2 * n, n)
    with pytest.raises(InputError):
        zigzag(2)


def test_graph_from_dict_round_trip():
    g = graph_from_dict({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]})
    assert g == triangle()


@pytest.mark.parametrize("doc", [
    [],
    {},
    {"vertices": 3},
    {"edges": []},
    {"vertices": "3", "edges": []},
    {"vertices": True, "edges": []},
    {"vertices": 3, "edges": {}},
    {"vertices": 3, "edges": [[0, 1, 2]]},
    {"vertices": 3, "edges": [[0, "1"]]},
    {"vertices": 3, "edges": [[0, True]]},
])
def test_graph_from_dict_schema_errors(doc):
    with pytest.raises(SchemaError):
        graph_from_dict(doc)


def test_load_graph(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1], [0, 1]]}))
    assert load_graph(str(path)) == bubble()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_graph(str(bad))
    huge = tmp_path / "huge.json"  # an integer past Python's 4300-digit str limit
    huge.write_text('{"vertices": 1' + "0" * 5000 + ', "edges": [[0, 1]]}')
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_graph(str(huge))
