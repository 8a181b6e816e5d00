"""Tests for the canonical form and its automorphisms, the isomorphism search
and its invariant."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from spgraphs import Graph, canonical_form, complete_bipartite_graph, find_isomorphism
from spgraphs.graphs import complete_graph, cycle_graph, empty_graph, path_graph, star_graph
from spgraphs.isomorphism import (
    IsomorphismSizeError,
    _canonical_code,
    _canonical_leaf,
    _leaf_paths,
    is_isomorphic,
    iso_invariant,
)
from spgraphs.verify import enumerate_graphs


# two triangles, a triangular prism (3-regular, like K_{3,3}), and a
# triangle beside a square, with the names a disjoint union would give
TWO_TRIANGLES = Graph(
    ["L:0", "L:1", "L:2", "R:0", "R:1", "R:2"],
    [("L:0", "L:1"), ("L:1", "L:2"), ("L:0", "L:2"),
     ("R:0", "R:1"), ("R:1", "R:2"), ("R:0", "R:2")],
)
PRISM = Graph(
    ["(0,0)", "(0,1)", "(1,0)", "(1,1)", "(2,0)", "(2,1)"],
    [("(0,0)", "(0,1)"), ("(1,0)", "(1,1)"), ("(2,0)", "(2,1)"),
     ("(0,0)", "(1,0)"), ("(1,0)", "(2,0)"), ("(0,0)", "(2,0)"),
     ("(0,1)", "(1,1)"), ("(1,1)", "(2,1)"), ("(0,1)", "(2,1)")],
)
C3_C4 = Graph(
    ["L:0", "L:1", "L:2", "R:0", "R:1", "R:2", "R:3"],
    [("L:0", "L:1"), ("L:1", "L:2"), ("L:0", "L:2"),
     ("R:0", "R:1"), ("R:1", "R:2"), ("R:2", "R:3"), ("R:0", "R:3")],
)


def _check_witness(g1: Graph, g2: Graph, mapping: dict) -> None:
    assert sorted(mapping) == list(g1.vertices)
    assert sorted(mapping.values()) == list(g2.vertices)
    assert g1.num_edges == g2.num_edges
    for u, v in g1.edges:
        assert g2.has_edge(mapping[u], mapping[v])


def test_regular_but_not_isomorphic_pairs():
    # Both 2-regular on six vertices.
    assert not is_isomorphic(cycle_graph(6), TWO_TRIANGLES)
    # Both 3-regular on six vertices; the prism has triangles.
    assert not is_isomorphic(complete_bipartite_graph(3, 3), PRISM)


def test_witness_on_a_known_pair():
    k23 = complete_bipartite_graph(2, 3)
    relabeled = k23.relabel(
        {"a0": "x", "a1": "y", "b0": "p", "b1": "q", "b2": "r"}
    )
    mapping = find_isomorphism(k23, relabeled)
    assert mapping is not None
    _check_witness(k23, relabeled, mapping)


def test_size_cap_is_enforced_and_adjustable():
    big = empty_graph(201)
    with pytest.raises(IsomorphismSizeError):
        find_isomorphism(big, big)
    mapping = find_isomorphism(big, big, max_vertices=250)
    assert mapping is not None and len(mapping) == 201


@pytest.mark.parametrize("g", [empty_graph(1500), path_graph(999)], ids=["empty", "path"])
def test_witness_on_large_sparse_graphs(g):
    # The empty graph individualizes one vertex per level, 1500 levels deep.
    relabeled = _shuffled(g, random.Random(g.num_vertices))
    mapping = find_isomorphism(g, relabeled, max_vertices=2000)
    assert mapping is not None
    _check_witness(g, relabeled, mapping)


def test_canonical_form_on_a_tree_deeper_than_the_recursion_limit():
    # One level per vertex: deeper than the interpreter's recursion limit.
    n = sys.getrecursionlimit() + 100
    assert canonical_form(empty_graph(n)) == (n, 0)


def test_trivial_cases():
    assert find_isomorphism(empty_graph(0), empty_graph(0)) == {}
    assert not is_isomorphic(empty_graph(2), path_graph(1))
    assert not is_isomorphic(path_graph(1), path_graph(2))


@settings(max_examples=60, deadline=None)
@given(strategies.graphs(max_vertices=7), st.randoms(use_true_random=False))
def test_relabeled_graphs_are_recognized(g, rng):
    names = list(g.vertices)
    images = [f"v{i}" for i in range(len(names))]
    rng.shuffle(images)
    relabeled = g.relabel(dict(zip(names, images)))
    assert iso_invariant(g) == iso_invariant(relabeled)
    mapping = find_isomorphism(g, relabeled)
    assert mapping is not None
    _check_witness(g, relabeled, mapping)


@settings(max_examples=40, deadline=None)
@given(strategies.graphs(max_vertices=6), strategies.graphs(max_vertices=6))
def test_search_matches_permutation_scan(g1, g2):
    assert is_isomorphic(g1, g2) == oracles.brute_isomorphic(g1, g2)


# -- canonical form -------------------------------------------------------------


def _shuffled(g: Graph, rng) -> Graph:
    images = [f"v{i}" for i in range(g.num_vertices)]
    rng.shuffle(images)
    return g.relabel(dict(zip(g.vertices, images)))


def _toggled(g: Graph, pair: tuple[str, str]) -> Graph:
    u, v = pair
    if g.has_edge(u, v):
        return g.without_edge(u, v)
    return Graph(g.vertices, [*g.edges, pair])


def _pairs(g: Graph) -> list[tuple[str, str]]:
    return [(u, v) for i, u in enumerate(g.vertices) for v in g.vertices[i + 1 :]]


@settings(max_examples=100, deadline=None)
@given(strategies.graphs(max_vertices=7), st.randoms(use_true_random=False))
def test_canonical_form_ignores_labels(g, rng):
    assert canonical_form(g) == canonical_form(_shuffled(g, rng))


@settings(max_examples=60, deadline=None)
@given(strategies.graphs(max_vertices=6), strategies.graphs(max_vertices=6))
def test_canonical_form_matches_permutation_scan(g1, g2):
    assert (canonical_form(g1) == canonical_form(g2)) == oracles.brute_isomorphic(g1, g2)


@settings(max_examples=100, deadline=None)
@given(strategies.graphs(max_vertices=9))
def test_canonical_code_matches_a_bit_by_bit_reference(g):
    # each leaf's code, one bit at a time: the upper triangle of the
    # adjacency matrix in the leaf's vertex order, row by row
    bits = g.adjacency_bits
    best = 0
    for path in _leaf_paths(bits):
        order = [cell.bit_length() - 1 for cell in path[-1]]
        code = 0
        for i, v in enumerate(order):
            for w in order[i + 1 :]:
                code = code << 1 | (bits[v] >> w & 1)
        best = max(best, code)
    assert _canonical_code(bits) == best


@settings(max_examples=100, deadline=None)
@given(strategies.graphs(min_vertices=2, max_vertices=7), st.data())
def test_canonical_form_on_one_edge_toggles(g, data):
    # g against g with one pair toggled, and two such toggles against each
    # other: near misses that differ in one or two pairs.
    pairs = _pairs(g)
    first = _toggled(g, data.draw(st.sampled_from(pairs)))
    second = _toggled(g, data.draw(st.sampled_from(pairs)))
    rng = data.draw(st.randoms(use_true_random=False))
    for h1, h2 in ((g, first), (first, second)):
        h2 = _shuffled(h2, rng)
        assert (canonical_form(h1) == canonical_form(h2)) == oracles.brute_isomorphic(h1, h2)


def _complement(g: Graph) -> Graph:
    return Graph(g.vertices, [pair for pair in _pairs(g) if not g.has_edge(*pair)])


def test_canonical_form_tries_every_start_in_a_cell_refinement_cannot_split():
    # Every vertex of C3 + C4 has degree 2, so refinement leaves one cell,
    # and a triangle vertex and a square vertex lead to different leaves:
    # a search that individualized only one of them would depend on labels.
    for g in (C3_C4, _complement(C3_C4)):
        names = list(g.vertices)
        forms = {
            canonical_form(g.relabel(dict(zip(names, names[k:] + names[:k]))))
            for k in range(len(names))
        }
        assert forms == {canonical_form(g)}


def test_canonical_form_names_every_class_on_seven_vertices():
    rng = random.Random(7)
    classes = enumerate_graphs(7)
    forms = {canonical_form(g) for g in classes}
    assert len(forms) == len(classes)
    for g in classes:
        assert canonical_form(g) == canonical_form(_shuffled(g, rng))


def test_canonical_form_separates_hard_pairs():
    c6 = cycle_graph(6)
    assert canonical_form(c6) != canonical_form(TWO_TRIANGLES)
    assert canonical_form(complete_bipartite_graph(3, 3)) != canonical_form(PRISM)


def _complete_multipartite(*sides: int) -> Graph:
    parts = [[f"{k}.{i}" for i in range(size)] for k, size in enumerate(sides)]
    edges = [
        (u, v) for k, part in enumerate(parts) for other in parts[k + 1 :]
        for u in part for v in other
    ]
    return Graph([v for part in parts for v in part], edges)


TWIN_RICH = {
    "K7": complete_graph(7),
    "empty7": empty_graph(7),
    "K3,4": complete_bipartite_graph(3, 4),
    "K2,2,3": _complete_multipartite(2, 2, 3),
    "K1,6": star_graph(6),
}


@pytest.mark.parametrize("name", TWIN_RICH)
def test_canonical_form_on_twin_rich_graphs(name):
    # Twins are the only prune, and these graphs are made of twins: the
    # graphs one pair away must fall into classes by form exactly as they
    # fall into isomorphism classes.
    g = TWIN_RICH[name]
    rng = random.Random(name)
    classes: dict[tuple[int, int], list[Graph]] = {}
    for h in [g] + [_toggled(g, pair) for pair in _pairs(g)]:
        form = canonical_form(h)
        assert form == canonical_form(_shuffled(h, rng))
        classes.setdefault(form, []).append(h)
    firsts = [members[0] for members in classes.values()]
    for members in classes.values():
        assert all(oracles.brute_isomorphic(members[0], h) for h in members[1:])
    for i, h1 in enumerate(firsts):
        assert not any(oracles.brute_isomorphic(h1, h2) for h2 in firsts[i + 1 :])


# -- automorphisms --------------------------------------------------------------


def _group_order(generators: list[list[int]], n: int) -> int:
    """Order of the permutation group the generators generate, by closure."""
    group = {tuple(range(n))}
    frontier = list(group)
    for element in frontier:
        for perm in generators:
            product = tuple(perm[v] for v in element)
            if product not in group:
                group.add(product)
                frontier.append(product)
    return len(group)


def _check_automorphisms(g: Graph) -> None:
    code, generators = _canonical_leaf(g.adjacency_bits)
    assert code == _canonical_code(g.adjacency_bits)
    names = g.vertices
    for perm in generators:
        assert sorted(perm) == list(range(len(names)))
        mapping = {names[v]: names[w] for v, w in enumerate(perm)}
        assert all(g.has_edge(mapping[u], mapping[w]) for u, w in g.edges)
    assert _group_order(generators, len(names)) == oracles.brute_automorphism_count(g)


@pytest.mark.parametrize("n", range(1, 7))
def test_canonical_leaf_generates_the_automorphism_group(n):
    # every class on n vertices: each map keeps every edge, and the maps
    # generate a group as large as the permutation scan's
    for g in enumerate_graphs(n):
        _check_automorphisms(g)


@pytest.mark.parametrize("name", ["K3,4", "K2,2,3", "K1,6"])
def test_canonical_leaf_generates_the_automorphism_group_of_twin_rich_graphs(name):
    # here the twin swaps are most of the generators
    _check_automorphisms(TWIN_RICH[name])
    _check_automorphisms(_shuffled(TWIN_RICH[name], random.Random(name)))
