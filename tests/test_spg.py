"""Tests for the shortest path graph container, adjacency, decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
import strategies
from spgraphs import (
    BaseInstance,
    Graph,
    SpGraph,
    SpgStructureError,
    build_spg,
    complete_bipartite_graph,
    cycle_graph,
    decompose_at_index,
    difference_index,
    difference_positions,
    enumerate_geodesics,
    index_color,
    is_isomorphic,
    spg_from_geodesics,
    spg_from_json,
    spg_to_dot,
    spg_to_json,
)
from spgraphs.constructions import hypercube_base
from spgraphs.geodesics import build_dag, geodesic_matrix
from spgraphs.spg import matrix_adjacency


def test_spg_of_complete_bipartite_is_a_triangle():
    h = build_spg(BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1"))
    assert h.num_vertices == 3
    assert h.d == 2
    assert h.edge_index == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    assert h.vertices == range(3)
    assert h.adjacency_bits == [0b110, 0b101, 0b011]
    g = h.to_graph("s")
    assert g.vertices == ("s0", "s1", "s2")
    assert g.num_edges == 3


def test_empty_and_disconnected_instances():
    g = Graph(["a", "b"], [])
    h = build_spg(BaseInstance(g, "a", "b"))
    assert h.num_vertices == 0 and h.num_edges == 0 and h.d is None
    assert h.to_graph().num_vertices == 0
    assert spg_from_geodesics([]).num_vertices == 0


def test_shape_validation():
    geos = [("a", "x", "b"), ("a", "y", "b")]
    with pytest.raises(SpgStructureError, match="share one length"):
        SpGraph([("a", "b"), ("a", "x", "b")], {})
    with pytest.raises(SpgStructureError, match="duplicate"):
        SpGraph([("a", "x", "b"), ("a", "x", "b")], {})
    with pytest.raises(SpgStructureError, match="stated d"):
        SpGraph(geos, {}, d=5)
    with pytest.raises(SpgStructureError, match="out of range"):
        SpGraph(geos, {(0, 2): 1})
    with pytest.raises(SpgStructureError, match="out of range"):
        SpGraph(geos, {(1, 0): 1})
    with pytest.raises(SpgStructureError, match="difference index"):
        SpGraph(geos, {(0, 1): 2})
    with pytest.raises(SpgStructureError, match="edges without geodesics"):
        SpGraph([], {(0, 1): 1})


def test_difference_helpers():
    assert difference_positions(("a", "x", "b"), ("a", "y", "b")) == [1]
    assert difference_index(("a", "x", "b"), ("a", "y", "b")) == 1
    assert difference_index(("a", "x", "y", "b"), ("a", "p", "q", "b")) is None
    with pytest.raises(SpgStructureError):
        difference_positions(("a",), ("a", "b"))
    with pytest.raises(SpgStructureError):
        difference_index(("a", "x", "b"), ("a", "x", "c"))


@settings(max_examples=80, deadline=None)
@given(strategies.instances(max_vertices=7))
def test_bucket_adjacency_matches_pairwise_scan(inst):
    geos = enumerate_geodesics(inst)
    h = spg_from_geodesics(geos)
    assert h.edge_index == oracles.brute_spg_edges(geos)


@settings(max_examples=80, deadline=None)
@given(strategies.instances(max_vertices=7))
def test_integer_core_matches_the_oracles(inst):
    dag = build_dag(inst)
    matrix = geodesic_matrix(dag)
    assert matrix.dtype == np.int32
    rows = [tuple(dag.names[v] for v in row) for row in matrix.tolist()]
    assert rows == enumerate_geodesics(inst)
    assert rows == oracles.brute_geodesics(inst.graph, inst.source, inst.target)
    u, w, pos = matrix_adjacency(matrix)
    edges = dict(zip(zip(u.tolist(), w.tolist()), pos.tolist()))
    assert len(edges) == u.size
    assert edges == oracles.brute_spg_edges(rows)


def test_hypercube_chain_decomposition():
    h = build_spg(hypercube_base(3).instance)
    assert h.num_vertices == 8 and h.d == 6

    # At an alternating position the split is two four-cycles joined by a
    # perfect matching.
    dec = decompose_at_index(h, 1)
    assert dec.middle_vertices == ("x1", "y1")
    assert tuple(len(c) for c in dec.components) == (4, 4)
    assert len(dec.cross_edges) == 4
    for members in dec.components:
        sub = h.to_graph().subgraph([f"g{i}" for i in members])
        assert is_isomorphic(sub, cycle_graph(4))

    # At a shared-corner position every geodesic passes through one vertex,
    # so there is a single group and no cross edges.
    dec2 = decompose_at_index(h, 2)
    assert dec2.middle_vertices == ("c1",)
    assert len(dec2.components[0]) == 8
    assert dec2.cross_edges == ()

    with pytest.raises(SpgStructureError):
        decompose_at_index(h, 6)
    with pytest.raises(SpgStructureError):
        decompose_at_index(h, 0)


def test_decomposition_rejects_inconsistent_input():
    geos = [("a", "m", "x", "b"), ("a", "w", "x", "b"), ("a", "w", "y", "b")]
    bad = SpGraph(geos, {(0, 1): 1, (1, 2): 1})
    with pytest.raises(SpgStructureError, match="inconsistent"):
        decompose_at_index(bad, 1)


def test_json_roundtrip_and_errors():
    h = build_spg(BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1"))
    again = spg_from_json(spg_to_json(h))
    assert again.geodesics == h.geodesics
    assert again.edge_index == h.edge_index
    with pytest.raises(SpgStructureError):
        spg_from_json("nope")
    with pytest.raises(SpgStructureError):
        spg_from_json('{"geodesics": []}')
    with pytest.raises(SpgStructureError):
        spg_from_json('{"geodesics": [["a", "x", "b"]], "edges": [{"u": 0}]}')
    with pytest.raises(SpgStructureError, match="duplicates"):
        spg_from_json(
            '{"geodesics": [["a", "x", "b"], ["a", "y", "b"]],'
            ' "edges": [{"u": 0, "w": 1, "index": 1}, {"u": 1, "w": 0, "index": 1}]}'
        )


def test_dot_export_mentions_labels_and_colors():
    h = build_spg(BaseInstance(complete_bipartite_graph(2, 2), "a0", "a1"))
    dot = spg_to_dot(h, "example")
    assert dot.startswith('graph "example" {')
    assert "a0 b0 a1" in dot
    assert "--" in dot
    assert index_color(1) in dot
    assert index_color(1) == index_color(9)
