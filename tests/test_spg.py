"""Tests for the shortest path graph container, adjacency, decomposition."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
import strategies
from spgraphs import (
    BaseInstance,
    Graph,
    SpGraph,
    build_spg,
    complete_bipartite_graph,
    enumerate_geodesics,
    spg_from_json,
    spg_to_dot,
    spg_to_json,
)
from spgraphs import spg
from spgraphs.constructions import hypercube_base
from spgraphs.geodesics import GeodesicOverflowError, build_dag, geodesic_matrix
from spgraphs.graphs import cycle_graph, hypercube_graph
from spgraphs.grid import GridSpec, grid_base
from spgraphs.isomorphism import is_isomorphic
from spgraphs.spg import (
    MATRIX_CUTOFF,
    SpgStructureError,
    decompose_at_index,
    difference_index,
    difference_positions,
    index_color,
    matrix_adjacency,
    spg_from_geodesics,
)


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


@pytest.mark.parametrize(
    "edge, message",
    [
        ((1, 1, 1), "edge (1, 1) out of range"),
        ((-1, 1, 1), "edge (-1, 1) out of range"),
        ((0, 3, 1), "edge (0, 3) out of range"),
        ((0, 1, 0), "difference index 0 out of range for d=2"),
        ((0, 1, 2), "difference index 2 out of range for d=2"),
    ],
    ids=["self-loop", "negative", "past-the-end", "index-0", "index-d"],
)
def test_the_loader_refuses_each_edge_out_of_range(edge, message):
    # the whole-list range pass hands a failing file to SpGraph, which names the edge
    u, w, pos = edge
    records = [{"u": 0, "w": 2, "index": 1}, {"u": u, "w": w, "index": pos}]
    geodesics = [["a", "x", "b"], ["a", "y", "b"], ["a", "z", "b"]]
    with pytest.raises(SpgStructureError, match=re.escape(message)):
        spg_from_json(json.dumps({"geodesics": geodesics, "edges": records}))


def test_dot_export_mentions_labels_and_colors():
    h = build_spg(BaseInstance(complete_bipartite_graph(2, 2), "a0", "a1"))
    dot = spg_to_dot(h, "example")
    assert dot.startswith('graph "example" {')
    assert "a0 b0 a1" in dot
    assert "--" in dot
    assert index_color(1) in dot
    assert index_color(1) == index_color(9)


def _both_paths(inst, monkeypatch):
    """The SpGraph of the dict path and, with the cutoff at 1, of the matrix path."""
    by_dicts = spg_from_geodesics(enumerate_geodesics(inst))
    monkeypatch.setattr(spg, "MATRIX_CUTOFF", 1)
    by_matrix = build_spg(inst)
    monkeypatch.undo()
    assert by_dicts._rows is None and by_matrix._rows is not None  # one form each
    return by_dicts, by_matrix


def _derived(h, view):
    """Whether an array-form SpGraph has derived a view yet: reading the
    property would derive it, so this reads the private field it fills."""
    return getattr(h, f"_{view}") is not None


def _assert_same_spg(by_dicts, by_matrix, *, bits=True):
    # writers first, while the array form has derived no views
    assert spg_to_json(by_matrix) == spg_to_json(by_dicts)
    assert spg_to_dot(by_matrix, "s") == spg_to_dot(by_dicts, "s")
    assert (by_matrix.num_vertices, by_matrix.num_edges, by_matrix.d) == (
        by_dicts.num_vertices, by_dicts.num_edges, by_dicts.d)
    assert by_matrix.sorted_edges() == by_dicts.sorted_edges()
    assert by_matrix.geodesics == by_dicts.geodesics
    assert by_matrix.edge_index == by_dicts.edge_index
    if bits:
        assert by_matrix.adjacency_bits == by_dicts.adjacency_bits


@settings(max_examples=80, deadline=None)
@given(strategies.instances(max_vertices=7))
def test_matrix_and_dict_paths_agree(inst):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same_spg(*_both_paths(inst, monkeypatch))


def _k2(n):
    return BaseInstance(complete_bipartite_graph(2, n), "a0", "a1")


@pytest.mark.parametrize(
    "inst",
    [
        _k2(MATRIX_CUTOFF - 1),
        _k2(MATRIX_CUTOFF),
        _k2(256),
        grid_base(GridSpec((3, 3, 3))),
        # names JSON and DOT must escape, one outside the BMP
        BaseInstance(complete_bipartite_graph(2, 3).relabel(
            {"a0": 'a "0"', "a1": "a\\1", "b0": "b\t0", "b1": "b\u00e91", "b2": "b\U0001f600"}),
            'a "0"', "a\\1"),
    ],
    ids=["K2,cutoff-1", "K2,cutoff", "K2,256", "grid3x3x3", "escaped-names"],
)
def test_matrix_and_dict_paths_agree_on_families(inst, monkeypatch):
    _assert_same_spg(*_both_paths(inst, monkeypatch))


def test_matrix_and_dict_paths_agree_on_q8(monkeypatch):
    inst = BaseInstance(hypercube_graph(8), "0" * 8, "1" * 8)
    by_dicts, by_matrix = _both_paths(inst, monkeypatch)
    assert (by_matrix.num_vertices, by_matrix.num_edges) == (40320, 141120)
    # 40,320 masks of 40,320 bits each take 200 MB per graph: not compared
    _assert_same_spg(by_dicts, by_matrix, bits=False)


def test_build_spg_switches_to_the_arrays_at_the_cutoff():
    below, at = build_spg(_k2(MATRIX_CUTOFF - 1)), build_spg(_k2(MATRIX_CUTOFF))
    assert below._rows is None and at._rows is not None
    spg_to_json(at), spg_to_dot(at)
    assert (at.num_vertices, at.num_edges) == (MATRIX_CUTOFF, len(at.sorted_edges()))
    # the writers and the counts read the arrays and derive no view
    assert not _derived(at, "geodesics") and not _derived(at, "edge_index")
    assert at.edge_index[(0, 1)] == 1 and _derived(at, "edge_index")
    assert at.geodesics[0] == ("a0", "b0", "a1") and _derived(at, "geodesics")
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        at.nope
    u, w, pos = at.edge_arrays()
    assert u.size == MATRIX_CUTOFF * (MATRIX_CUTOFF - 1) // 2
    assert np.all((u[:-1] < u[1:]) | ((u[:-1] == u[1:]) & (w[:-1] < w[1:])))
    assert np.all(u < w) and np.all(pos == 1)


def _spy(monkeypatch, name):
    """Record the outcome of every call of ``spg.<name>``."""
    calls, original = [], getattr(spg, name)

    def spy(*args, **kwargs):
        try:
            result = original(*args, **kwargs)
        except Exception as exc:
            calls.append(type(exc).__name__)
            raise
        calls.append("ok")
        return result

    monkeypatch.setattr(spg, name, spy)
    return calls


@pytest.mark.parametrize("n, outcomes", [
    (MATRIX_CUTOFF - 1, (["ok"], ["ok"])),
    (MATRIX_CUTOFF, (["GeodesicOverflowError"], [])),
])
def test_build_spg_enumerates_through_the_public_functions(n, outcomes, monkeypatch):
    # below the cutoff enumerate_geodesics and spg_from_geodesics do the
    # work; from the cutoff on enumerate_geodesics only counts
    enumerated = _spy(monkeypatch, "enumerate_geodesics")
    bucketed = _spy(monkeypatch, "spg_from_geodesics")
    assert build_spg(_k2(n)).num_vertices == n
    assert (enumerated, bucketed) == outcomes


@pytest.mark.parametrize("n, limit", [(60, 50), (MATRIX_CUTOFF + 50, MATRIX_CUTOFF + 20)])
def test_build_spg_overflow_carries_the_callers_limit(n, limit):
    with pytest.raises(GeodesicOverflowError) as info:
        build_spg(_k2(n), limit=limit)
    assert (info.value.count, info.value.limit) == (n, limit)
    assert build_spg(_k2(n), limit=n).num_vertices == n


def test_array_form_round_trips_through_json():
    h = build_spg(grid_base(GridSpec((3, 3, 2))))
    assert h.num_vertices >= MATRIX_CUTOFF and h._rows is not None
    text = spg_to_json(h)
    again = spg_from_json(text)
    assert spg_to_json(again) == text
    assert again.geodesics == h.geodesics
    assert again.edge_index == h.edge_index


def test_writers_of_empty_and_one_vertex_graphs():
    assert spg_to_json(SpGraph((), {}, None)) == '{\n  "geodesics": [],\n  "edges": []\n}\n'
    empty_dot = 'graph "spg" {\n  node [shape=box, fontsize=10];\n}\n'
    assert spg_to_dot(SpGraph((), {}, None)) == empty_dot
    lone = SpGraph((("a",),), {}, 0)
    assert spg_to_json(lone) == '{\n  "geodesics": [\n    ["a"]\n  ],\n  "edges": []\n}\n'
    assert '  0 [label="a"];' in spg_to_dot(lone)


def _q5_records():
    h = build_spg(BaseInstance(hypercube_graph(5), "00000", "11111"))
    payload = {"geodesics": [list(g) for g in h.geodesics],
               "edges": [{"u": w, "w": u, "index": p} if k % 3 else {"u": u, "w": w, "index": p}
                         for k, ((u, w), p) in enumerate(h.edge_index.items())]}
    return h, payload


def test_a_loaded_spg_keeps_the_records_in_input_order():
    h, payload = _q5_records()
    assert h.num_edges > 200
    payload["edges"].reverse()
    loaded = spg_from_json(json.dumps(payload))
    assert list(loaded.edge_index) == [tuple(sorted((e["u"], e["w"]))) for e in payload["edges"]]
    assert loaded.edge_index == h.edge_index
    assert [a.tolist() for a in loaded.edge_arrays()] == [a.tolist() for a in h.edge_arrays()]
    assert spg_to_dot(loaded) == spg_to_dot(h)


@pytest.mark.parametrize(
    "record, message",
    [
        (None, "edge #{k} needs fields u, w, index"),
        ([0, 1, 1], "edge #{k} needs fields u, w, index"),
        ({"u": 0, "w": 1}, "edge #{k} needs fields u, w, index"),
        ({"u": 0, "w": True, "index": 1}, "edge #{k} fields must be integers"),
        ({"u": 0, "w": 1.0, "index": 1}, "edge #{k} fields must be integers"),
        ({"u": 3, "w": 0, "index": 2}, "edge #{k} duplicates (0, 3)"),
        ({"u": 0, "w": 2**70, "index": 1}, "edge (0, 1180591620717411303424) out of range"),
        ({"u": 5, "w": 5, "index": 1}, "edge (5, 5) out of range"),
        ({"u": -1, "w": 5, "index": 1}, "edge (-1, 5) out of range"),
        ({"u": 0, "w": 120, "index": 1}, "edge (0, 120) out of range"),
        ({"u": 0, "w": 119, "index": 5}, "difference index 5 out of range for d=5"),
        ({"u": 0, "w": 119, "index": 0}, "difference index 0 out of range for d=5"),
        ({"u": 0, "w": 119, "index": -2**64}, "difference index -18446744073709551616"),
    ],
)
@pytest.mark.parametrize("k", [0, 150, -1])
def test_a_faulty_record_after_many_sound_ones_is_named(record, message, k):
    h, payload = _q5_records()
    edges = payload["edges"]
    if "duplicates" in message:
        # u=0, w=3 is an edge of the Q5 graph; drop it before the fault
        edges[:] = [e for e in edges if {e["u"], e["w"]} != {0, 3}]
        edges.insert(0, {"u": 0, "w": 3, "index": 2})
    k = len(edges) if k == -1 else max(k, 1 if "duplicates" in message else 0)
    edges.insert(k, record)
    with pytest.raises(SpgStructureError) as info:
        spg_from_json(json.dumps(payload))
    assert str(info.value).startswith(message.format(k=k))


def test_geodesic_faults_come_before_edges_out_of_range():
    _, payload = _q5_records()
    payload["edges"].append({"u": 0, "w": 999, "index": 1})
    payload["geodesics"].append(list(payload["geodesics"][0]))
    with pytest.raises(SpgStructureError, match="duplicate geodesic"):
        spg_from_json(json.dumps(payload))
    payload["geodesics"] = []
    with pytest.raises(SpgStructureError, match="edges without geodesics"):
        spg_from_json(json.dumps(payload))
