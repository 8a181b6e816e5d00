"""Tests for geodesic structure: the DAG, counting, enumeration, reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
import strategies
from spgraphs import (
    BaseInstance,
    Graph,
    GraphError,
    build_dag,
    build_spg,
    complete_bipartite_graph,
    count_geodesics,
    enumerate_geodesics,
    reduce_instance,
)
from spgraphs.constructions import hypercube_base
from spgraphs.geodesics import (
    GeodesicOverflowError,
    NoGeodesicError,
    _build_dag_ids,
    _build_dag_names,
    _reduce_ids,
    count_spg_edges,
    geodesic_matrix,
    iter_geodesics,
    mandatory_edges,
)
from spgraphs.graphs import ID_CUTOFF, hypercube_graph, path_graph
from spgraphs.grid import GridSpec, grid_base
from spgraphs.isomorphism import is_isomorphic
from spgraphs.spg import matrix_adjacency, spg_of_reduced


def _k23_instance() -> BaseInstance:
    return BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1")


def test_dag_of_complete_bipartite():
    dag = build_dag(_k23_instance())
    assert dag.d == 2
    assert dag.vertices == frozenset({"a0", "a1", "b0", "b1", "b2"})
    assert dag.edges == frozenset(
        {("a0", "b0"), ("a0", "b1"), ("a0", "b2"), ("b0", "a1"), ("b1", "a1"), ("b2", "a1")}
    )
    assert dag.successors["a0"] == ("b0", "b1", "b2")


def test_count_and_enumerate_small():
    inst = _k23_instance()
    assert count_geodesics(inst) == 3
    assert enumerate_geodesics(inst) == [
        ("a0", "b0", "a1"),
        ("a0", "b1", "a1"),
        ("a0", "b2", "a1"),
    ]


def test_enumeration_reaches_past_the_recursion_limit():
    inst = BaseInstance(path_graph(1500), "0", "1500")
    assert enumerate_geodesics(inst) == [tuple(str(t) for t in range(1501))]


def test_disconnected_endpoints_raise():
    g = Graph(["a", "b"], [])
    with pytest.raises(NoGeodesicError):
        build_dag(BaseInstance(g, "a", "b"))


def test_overflow_carries_the_exact_count():
    inst = hypercube_base(3).instance
    with pytest.raises(GeodesicOverflowError) as info:
        enumerate_geodesics(inst, limit=7)
    assert info.value.count == 8
    assert info.value.limit == 7
    assert enumerate_geodesics(inst, limit=8) == list(iter_geodesics(inst))


def test_mandatory_edges_on_forced_and_free_instances():
    chain = BaseInstance(path_graph(3), "0", "3")
    dag = build_dag(chain)
    assert mandatory_edges(dag) == dag.edges
    free = build_dag(BaseInstance(complete_bipartite_graph(2, 2), "a0", "a1"))
    assert mandatory_edges(free) == frozenset()


def test_reduction_contracts_the_forced_tail():
    # Two middle routes, then a forced path c - t - b.
    g = Graph(
        ["a", "m1", "m2", "c", "t", "b"],
        [("a", "m1"), ("a", "m2"), ("m1", "c"), ("m2", "c"), ("c", "t"), ("t", "b")],
    )
    red = reduce_instance(BaseInstance(g, "a", "b"))
    assert not red.collapsed
    assert red.source == "a"
    assert red.target == "b"
    assert red.vertex_map == {"a": "a", "m1": "m1", "m2": "m2", "c": "b", "t": "b", "b": "b"}
    assert red.graph == Graph(
        ["a", "m1", "m2", "b"], [("a", "m1"), ("a", "m2"), ("m1", "b"), ("m2", "b")]
    )


def test_reduction_names_each_forced_run_by_its_smallest_vertex():
    # Forced run a - u, a branching layer {x1, x2}, forced run p - k - z
    # (smallest name in the middle), and a pendant o off every geodesic.
    g = Graph(
        ["a", "u", "x1", "x2", "p", "k", "z", "o"],
        [("a", "u"), ("u", "x1"), ("u", "x2"), ("x1", "p"), ("x2", "p"),
         ("p", "k"), ("k", "z"), ("u", "o")],
    )
    red = reduce_instance(BaseInstance(g, "a", "z"))
    assert not red.collapsed
    assert (red.source, red.target) == ("a", "k")
    assert red.vertex_map == {
        "a": "a", "u": "a", "x1": "x1", "x2": "x2",
        "p": "k", "k": "k", "z": "k", "o": None,
    }
    assert red.graph == Graph(
        ["a", "x1", "x2", "k"], [("a", "x1"), ("a", "x2"), ("x1", "k"), ("x2", "k")]
    )


def test_reduction_drops_off_geodesic_material():
    g = Graph(
        ["a", "b", "m", "far"],
        [("a", "m"), ("m", "b"), ("a", "far"), ("far", "b"), ("a", "b")],
    )
    red = reduce_instance(BaseInstance(g, "a", "b"))
    assert red.collapsed
    assert red.vertex_map["m"] is None and red.vertex_map["far"] is None
    assert red.graph.num_vertices == 1
    with pytest.raises(NoGeodesicError):
        red.instance
    one_vertex = spg_of_reduced(red)
    assert one_vertex.num_vertices == 1 and one_vertex.d == 0


def test_unique_geodesic_collapses():
    red = reduce_instance(BaseInstance(path_graph(3), "0", "3"))
    assert red.collapsed
    assert red.graph.vertices == ("0",)
    assert set(red.vertex_map.values()) == {"0"}


@settings(max_examples=80, deadline=None)
@given(strategies.instances(max_vertices=7))
def test_enumeration_matches_exhaustive_dfs(inst):
    geos = enumerate_geodesics(inst)
    assert geos == oracles.brute_geodesics(inst.graph, inst.source, inst.target)
    assert geos == sorted(geos)
    assert count_geodesics(inst) == len(geos)


@settings(max_examples=80, deadline=None)
@given(strategies.instances(max_vertices=7))
def test_spg_edge_count_matches_the_pairwise_scan(inst):
    geos = oracles.brute_geodesics(inst.graph, inst.source, inst.target)
    assert count_spg_edges(build_dag(inst)) == len(oracles.brute_spg_edges(geos))


def test_spg_edge_count_matches_the_bucketed_edges_of_grids_and_hypercubes():
    dags = [
        build_dag(grid_base(GridSpec(dims)))
        for moves in range(1, 9)
        for dims in strategies.compositions(moves)
    ]
    dags += [build_dag(BaseInstance(hypercube_graph(k), "0" * k, "1" * k)) for k in range(3, 7)]
    assert len(dags) == 255 + 4
    for dag in dags:
        assert count_spg_edges(dag) == matrix_adjacency(geodesic_matrix(dag))[0].size


def test_spg_edge_count_of_a_long_path_is_zero():
    assert count_spg_edges(build_dag(BaseInstance(path_graph(1500), "0", "1500"))) == 0


@settings(max_examples=80, deadline=None)
@given(strategies.instances(max_vertices=7))
def test_mandatory_edges_are_the_edges_of_every_geodesic(inst):
    geos = oracles.brute_geodesics(inst.graph, inst.source, inst.target)
    on_every = set.intersection(*(set(zip(geo, geo[1:])) for geo in geos))
    assert mandatory_edges(build_dag(inst)) == on_every


@settings(max_examples=60, deadline=None)
@given(strategies.instances(max_vertices=6))
def test_reduction_is_idempotent_and_preserves_the_spg(inst):
    red = reduce_instance(inst)
    direct = build_spg(inst)
    again = spg_of_reduced(red)
    assert is_isomorphic(direct.to_graph(), again.to_graph())
    if red.collapsed:
        assert direct.num_vertices == 1
        return
    red2 = reduce_instance(red.instance)
    assert not red2.collapsed
    assert red2.graph == red.graph
    assert red2.vertex_map == {v: v for v in red.graph.vertices}


def test_extend_distance_requires_growth():
    from spgraphs.constructions import extend_distance

    inst = _k23_instance()
    with pytest.raises(GraphError):
        extend_distance(inst, 1)
    assert extend_distance(inst, 2) is inst


# -- the id path and the name path ------------------------------------------


def _both_dags(inst):
    return _build_dag_names(inst), _build_dag_ids(inst)


def _assert_same_dag(by_names, by_ids):
    assert by_ids.names == by_names.names
    assert by_ids.d == by_names.d
    for got, want in zip(by_ids.csr, by_names.csr):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(by_ids.levels, by_names.levels)
    assert by_ids.dist_from_source == by_names.dist_from_source
    assert by_ids.vertices == by_names.vertices
    assert by_ids.edges == by_names.edges
    assert by_ids.successors == by_names.successors
    assert count_geodesics(by_ids) == count_geodesics(by_names)


@settings(max_examples=80, deadline=None)
@given(strategies.instances(max_vertices=7))
def test_id_and_name_paths_give_the_same_dag(inst):
    by_names, by_ids = _both_dags(inst)
    _assert_same_dag(by_names, by_ids)
    geos = oracles.brute_geodesics(inst.graph, inst.source, inst.target)
    assert count_geodesics(by_ids) == len(geos)
    assert count_spg_edges(by_ids) == count_spg_edges(by_names)


def test_id_and_name_paths_agree_on_both_sides_of_the_cutoff():
    grids = [(2, 2), (3, 3), (4, 4), (2, 2, 2), (5, 5), (3, 3, 3), (1,) * 6, (6, 7)]
    sizes = []
    for dims in grids:
        inst = grid_base(GridSpec(dims))
        by_names, by_ids = _both_dags(inst)
        _assert_same_dag(by_names, by_ids)
        assert count_geodesics(by_ids) == oracles.multinomial(dims)
        sizes.append(inst.graph.num_edges)
    for k in range(2, 8):
        inst = BaseInstance(hypercube_graph(k), "0" * k, "1" * k)
        by_names, by_ids = _both_dags(inst)
        _assert_same_dag(by_names, by_ids)
        assert count_geodesics(by_ids) == math.factorial(k)
        sizes.append(inst.graph.num_edges)
    assert min(sizes) < ID_CUTOFF <= max(sizes)


def test_count_of_a_large_box_is_exact_past_int64():
    inst = grid_base(GridSpec((20, 20, 20)))
    want = oracles.multinomial((20, 20, 20))
    assert want > 2**63
    assert count_geodesics(inst) == want
    assert count_geodesics(_build_dag_names(inst)) == want


@settings(max_examples=80, deadline=None)
@given(strategies.instances(max_vertices=7))
def test_reduction_of_either_dag_matches_the_geodesic_oracle(inst):
    graph, source, target, vertex_map = oracles.brute_reduction(
        inst.graph, inst.source, inst.target
    )
    for red in (reduce_instance(inst), *map(_reduce_ids, _both_dags(inst))):
        assert red.graph == graph
        assert (red.source, red.target) == (source, target)
        assert red.vertex_map == vertex_map
        assert red.collapsed == (source == target)


@settings(max_examples=80, deadline=None)
@given(strategies.instances(max_vertices=8))
def test_a_contraction_makes_no_parallel_edges(inst):
    # _reduce_ids only sorts the contracted pair keys: a DAG edge joins
    # consecutive layers, so the edges into a forced run and those out of
    # it meet different vertices, and no two edges merge
    for dag in _both_dags(inst):
        red = _reduce_ids(dag)
        image = red.vertex_map
        pairs = [frozenset((image[u], image[v])) for u, v in dag.edges if image[u] != image[v]]
        assert len(set(pairs)) == len(pairs) == red.graph.num_edges


def test_reduction_of_either_dag_of_a_large_box_with_a_forced_tail():
    box = grid_base(GridSpec((6, 6, 6)))
    corner = box.target
    # a forced tail from the far corner, named below the corner, and a
    # pendant off every geodesic
    tail = ["&t1", "&t2", "&t3"]
    middle = box.graph.vertices[box.graph.num_vertices // 2]
    edges = [*box.graph.edges, (corner, tail[0]), *zip(tail, tail[1:]), (middle, "x")]
    g = Graph([*box.graph.vertices, *tail, "x"], edges)
    assert g.num_edges >= ID_CUTOFF
    inst = BaseInstance(g, box.source, tail[-1])
    merged = {v: "&t1" if v == corner else v for v in box.graph.vertices}
    want_map = {**merged, **dict.fromkeys(tail, "&t1"), "x": None}
    for red in (reduce_instance(inst), *map(_reduce_ids, _both_dags(inst))):
        assert not red.collapsed
        assert (red.source, red.target) == (box.source, "&t1")
        assert red.graph == box.graph.relabel(merged)
        assert red.vertex_map == want_map


@pytest.mark.parametrize("dims", [(2, 2), (3, 3, 3)], ids=["dict dag", "id dag"])
def test_a_grid_check_orders_the_layers_and_counts_prefixes_once(monkeypatch, dims):
    # what _embed_grid asks of one DAG: the guarded count, then the edge count
    from functools import cached_property

    from spgraphs.geodesics import GeodesicDag, guarded_count

    built = []
    for name in ("_layer_order", "_predecessors"):
        real = vars(GeodesicDag)[name].func
        spy = cached_property(lambda dag, real=real, name=name: built.append(name) or real(dag))
        spy.__set_name__(GeodesicDag, name)
        monkeypatch.setattr(GeodesicDag, name, spy)
    dag = build_dag(grid_base(GridSpec(dims)))
    count = guarded_count(dag, 10**6)
    # the id dag counts along the layer order, the dict dag stores its count,
    # and neither builds the predecessor lists for a plain count
    assert built == ([] if dims == (2, 2) else ["_layer_order"])
    edges = count_spg_edges(dag)
    assert count == oracles.multinomial(dims)
    assert edges == matrix_adjacency(geodesic_matrix(dag))[0].size
    assert built == ["_layer_order", "_predecessors"]
    assert count_spg_edges(dag) == edges and built == ["_layer_order", "_predecessors"]
    assert dag._prefix_counts is dag._prefix_counts
