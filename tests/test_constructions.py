"""Tests for the base-instance constructions and gluing operations."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies

from spgraphs import (
    BaseInstance,
    Graph,
    GraphError,
    build_spg,
    complete_bipartite_graph,
    enumerate_geodesics,
    find_isomorphism,
)
from spgraphs.constructions import (
    CASE_MATCHING,
    CASE_OVERLAP,
    CASE_THROUGH_X,
    CASE_THROUGH_Y,
    complete_base,
    even_cycle_base,
    extend_distance,
    hypercube_base,
    matches_prediction,
    odd_cycle_host_base,
    one_sum,
    parallel_paths,
    path_base,
    predict_two_sum,
    two_sum,
    union_base,
)
from spgraphs.geodesics import GeodesicOverflowError, NoGeodesicError
from spgraphs.graphs import complete_graph, cycle_graph, empty_graph, hypercube_graph, path_graph
from spgraphs.isomorphism import is_isomorphic
from spgraphs.spg import difference_index


def _spg_graph(result):
    return build_spg(result.instance).to_graph()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_path_base(k):
    result = path_base(k)
    assert is_isomorphic(_spg_graph(result), path_graph(k))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complete_base(n):
    result = complete_base(n)
    assert is_isomorphic(_spg_graph(result), complete_graph(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_even_cycle_base(n):
    result = even_cycle_base(n)
    assert result.predicted == cycle_graph(2 * n)
    assert is_isomorphic(_spg_graph(result), cycle_graph(2 * n))


@pytest.mark.parametrize("t", [1, 2, 3])
def test_parallel_paths(t):
    result = parallel_paths(t, 4)
    assert is_isomorphic(_spg_graph(result), empty_graph(t))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hypercube_base(k):
    result = hypercube_base(k)
    assert is_isomorphic(_spg_graph(result), hypercube_graph(k))


@pytest.mark.parametrize(
    "family, sizes",
    [
        (path_base, range(1, 11)),
        (complete_base, [*range(1, 7), 250]),
        (even_cycle_base, range(2, 7)),
        (lambda t: parallel_paths(t, 3), range(1, 7)),
        (hypercube_base, range(1, 9)),
    ],
    ids=["path", "complete", "even-cycle", "parallel", "hypercube"],
)
def test_families_match_their_prediction_by_renaming(family, sizes):
    for k in sizes:
        result = family(k)
        h = build_spg(result.instance)
        assert matches_prediction(h, result.predicted, result.vertex_of), result.name


def test_a_naming_that_is_not_injective_never_matches():
    result = complete_base(3)
    h = build_spg(result.instance)
    assert matches_prediction(h, result.predicted, result.vertex_of)
    assert not matches_prediction(h, result.predicted, lambda geo: "0")
    assert not matches_prediction(h, complete_graph(1), lambda geo: "0")


def test_parameter_validation():
    for bad in (path_base, complete_base, hypercube_base):
        with pytest.raises(GraphError):
            bad(0)
    with pytest.raises(GraphError):
        even_cycle_base(1)
    with pytest.raises(GraphError):
        odd_cycle_host_base(2)
    with pytest.raises(GraphError):
        parallel_paths(0, 3)
    with pytest.raises(GraphError):
        parallel_paths(2, 2)


def test_odd_cycle_host_witness():
    result = odd_cycle_host_base(3)
    witness = result.witness
    assert witness is not None and len(witness) == 7
    h = build_spg(result.instance)
    have = set(h.geodesics)
    assert all(seq in have for seq in witness)
    n = len(witness)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = difference_index(witness[i], witness[j]) is not None
            consecutive = j - i == 1 or (i == 0 and j == n - 1)
            assert adjacent == consecutive
    assert result.predicted is None


def test_extend_distance_appends_a_forced_tail():
    inst = BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1")
    longer = extend_distance(inst, 5)
    assert longer.source == "a0" and longer.target == "t3"
    geos = enumerate_geodesics(longer)
    assert len(geos) == 3
    assert all(seq[-3:] == ("t1", "t2", "t3") for seq in geos)
    assert is_isomorphic(build_spg(longer).to_graph(), complete_graph(3))
    with pytest.raises(NoGeodesicError):
        extend_distance(BaseInstance(Graph(["a", "b"], []), "a", "b"), 3)


def test_extend_distance_avoids_name_clashes():
    g = Graph(["a", "t1"], [("a", "t1")])
    longer = extend_distance(BaseInstance(g, "a", "t1"), 2)
    assert longer.target == "t1'"


def test_union_base_is_a_disjoint_union():
    result = union_base(complete_base(2).instance, complete_base(3).instance)
    direct = build_spg(result.instance)
    assert direct.num_vertices == 5
    assert direct.num_edges == 4
    assert find_isomorphism(direct.to_graph(), result.predicted) is not None


def test_one_sum_is_a_product():
    result = one_sum(complete_base(2).instance, complete_base(3).instance)
    assert result.instance.source == "L:a"
    assert result.instance.target == "R:b"
    direct = build_spg(result.instance)
    assert direct.num_vertices == 6
    assert direct.num_edges == 9
    assert find_isomorphism(direct.to_graph(), result.predicted) is not None


def _triangle(apex: str) -> Graph:
    return Graph([apex, "x", "y"], [(apex, "x"), (apex, "y"), ("x", "y")])


def test_two_sum_matching_case():
    g1, g2 = _triangle("a"), _triangle("b")
    prediction = predict_two_sum(g1, "a", g2, "b", "x", "y")
    assert prediction.case == CASE_MATCHING
    assert (prediction.d_ax, prediction.d_ay) == (1, 1)
    inst = two_sum(g1, "a", g2, "b", "x", "y")
    assert inst.source == "L:a" and inst.target == "R:b"
    direct = build_spg(inst)
    assert direct.num_vertices == 2 and direct.num_edges == 1
    assert find_isomorphism(direct.to_graph(), prediction.predicted) is not None


def test_two_sum_through_cases():
    near_x_1 = Graph(["a", "x", "y"], [("a", "x"), ("x", "y")])
    near_x_2 = Graph(["b", "x", "y"], [("b", "x"), ("x", "y")])
    prediction = predict_two_sum(near_x_1, "a", near_x_2, "b", "x", "y")
    assert prediction.case == CASE_THROUGH_X
    assert prediction.predicted.num_vertices == 1

    near_y_1 = Graph(["a", "x", "y"], [("a", "y"), ("x", "y")])
    near_y_2 = Graph(["b", "x", "y"], [("b", "y"), ("x", "y")])
    prediction = predict_two_sum(near_y_1, "a", near_y_2, "b", "x", "y")
    assert prediction.case == CASE_THROUGH_Y

    prediction = predict_two_sum(near_x_1, "a", near_y_2, "b", "x", "y")
    assert prediction.case == CASE_OVERLAP
    direct = build_spg(two_sum(near_x_1, "a", near_y_2, "b", "x", "y"))
    assert direct.geodesics == (("L:a", "x", "y", "R:b"),)
    assert find_isomorphism(direct.to_graph(), prediction.predicted) is not None


@st.composite
def _two_sum_sides(draw):
    """A graph with the shared edge x-y and an anchor off it."""
    g = draw(strategies.graphs(min_vertices=3, max_vertices=6))
    g = Graph(g.vertices, g.edges | {("0", "1")})
    g = g.relabel({v: {"0": "x", "1": "y"}.get(v, v) for v in g.vertices})
    return g, draw(st.sampled_from([v for v in g.vertices if v not in ("x", "y")]))


@settings(max_examples=150, deadline=None)
@given(_two_sum_sides(), _two_sum_sides())
def test_two_sum_refuses_with_the_exact_prediction_size(side1, side2):
    (g1, a), (g2, b) = side1, side2
    try:
        prediction = predict_two_sum(g1, a, g2, b, "x", "y")
    except NoGeodesicError:
        assume(False)
    size = prediction.predicted.num_vertices
    assert predict_two_sum(g1, a, g2, b, "x", "y", limit=size).predicted == prediction.predicted
    with pytest.raises(GeodesicOverflowError) as info:
        predict_two_sum(g1, a, g2, b, "x", "y", limit=size - 1)
    assert info.value.count == size


def test_two_sum_non_overlap_ignores_the_shared_edge():
    g1, g2 = _triangle("a"), _triangle("b")
    inst = two_sum(g1, "a", g2, "b", "x", "y")
    pruned = BaseInstance(inst.graph.without_edge("x", "y"), inst.source, inst.target)
    assert build_spg(pruned).geodesics == build_spg(inst).geodesics
    assert build_spg(pruned).edge_index == build_spg(inst).edge_index


def test_two_sum_glue_validation():
    g1, g2 = _triangle("a"), _triangle("b")
    with pytest.raises(GraphError, match="distinct"):
        two_sum(g1, "a", g2, "b", "x", "x")
    with pytest.raises(GraphError, match="missing shared vertex"):
        two_sum(g1, "a", Graph(["b", "x"], [("b", "x")]), "b", "x", "y")
    with pytest.raises(GraphError, match="missing the shared edge"):
        two_sum(g1, "a", Graph(["b", "x", "y"], [("b", "x"), ("b", "y")]), "b", "x", "y")
    with pytest.raises(GraphError, match="off the shared edge"):
        two_sum(g1, "x", g2, "b", "x", "y")
    with pytest.raises(GraphError, match="off the shared edge"):
        two_sum(g1, "a", g2, "y", "x", "y")


def test_two_sum_requires_connected_endpoints():
    g1 = Graph(["a", "x", "y"], [("x", "y")])
    with pytest.raises(NoGeodesicError):
        predict_two_sum(g1, "a", _triangle("b"), "b", "x", "y")


def test_construction_names():
    assert path_base(3).name == "path(3)"
    assert complete_base(2).name == "complete(2)"
    assert even_cycle_base(3).name == "even-cycle(6)"
    assert odd_cycle_host_base(3).name == "odd-cycle-host(7)"
    assert hypercube_base(2).name == "hypercube(2)"
    assert parallel_paths(2, 3).name == "parallel-paths(2,3)"
    assert union_base(complete_base(1).instance, complete_base(1).instance).name == "union"
    assert one_sum(complete_base(1).instance, complete_base(1).instance).name == "one-sum"
