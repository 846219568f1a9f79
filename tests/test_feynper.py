"""Graph polynomials, primitivity power counting, Monte-Carlo periods."""

import json

import numpy as np
import pytest

from euler_periods import feynper
from euler_periods.errors import (
    Disconnected,
    DomainError,
    InputError,
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


def test_period_rejects_non_primitive():
    with pytest.raises(NotPrimitive):
        period_mc(triangle(), 10 ** 4)


def test_period_input_validation():
    with pytest.raises(InputError):
        period_mc(bubble(), 0)
    with pytest.raises(InputError):
        period_mc(bubble(), 1000, seed="x")


def test_period_str_format():
    est = period_mc(bubble(), 20000, seed=42)
    text = str(est)
    assert " ± " in text
    assert text.split(" ± ")[0].startswith("1.0")


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
