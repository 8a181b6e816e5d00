"""Tests for induced-subgraph enumeration: paths, claws, cycles."""

import pytest
from hypothesis import given, settings

import oracles
import strategies
from spgraphs import build_spg, connected_components, girth, has_induced
from spgraphs.graphs import complete_graph, cycle_graph, star_graph
from spgraphs.patterns import WorkLimitExceeded, find_induced
from spgraphs.verify import enumerate_graphs


def test_cycle_canonical_form():
    assert find_induced(cycle_graph(6), "C6") == [("0", "1", "2", "3", "4", "5")]
    assert find_induced(cycle_graph(5), "C4") == []
    assert find_induced(complete_graph(4), "C4") == []


def test_triangle_count_in_complete_graph():
    assert len(find_induced(complete_graph(4), "C3")) == 4
    assert len(find_induced(complete_graph(6), "C3")) == 20


def test_claw_and_p3_basics():
    assert find_induced(star_graph(3), "claw") == [("c", "l0", "l1", "l2")]
    assert len(find_induced(star_graph(4), "claw")) == 4
    assert find_induced(complete_graph(3), "P3") == []
    assert find_induced(cycle_graph(4), "P3") == [
        ("0", "1", "2"),
        ("0", "3", "2"),
        ("1", "0", "3"),
        ("1", "2", "3"),
    ]


def test_unknown_patterns_are_rejected():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        find_induced(g, "K4")
    with pytest.raises(ValueError):
        find_induced(g, "C2")


def test_work_limit_aborts_loudly():
    with pytest.raises(WorkLimitExceeded) as info:
        find_induced(complete_graph(12), "C6", work_limit=5)
    assert info.value.pattern == "C6"
    assert info.value.limit == 5
    assert not has_induced(cycle_graph(4), "C5")


def _sets(tuples):
    return {frozenset(t) for t in tuples}


@pytest.mark.parametrize("n", [4, 5])
def test_every_small_graph_matches_the_subset_scan(n):
    for g in enumerate_graphs(n):
        assert _sets(find_induced(g, "C4")) == oracles.induced_cycle_sets(g, 4)
        assert set(find_induced(g, "P3")) == oracles.induced_path3_triples(g)
        claws = {(t[0], t[1:]) for t in find_induced(g, "claw")}
        assert claws == oracles.induced_claw_quads(g)


@settings(max_examples=60, deadline=None)
@given(strategies.graphs(max_vertices=7))
def test_random_graphs_match_the_subset_scan(g):
    for k in (4, 5, 6):
        assert _sets(find_induced(g, f"C{k}")) == oracles.induced_cycle_sets(g, k)
    assert set(find_induced(g, "P3")) == oracles.induced_path3_triples(g)
    claws = {(t[0], t[1:]) for t in find_induced(g, "claw")}
    assert claws == oracles.induced_claw_quads(g)


def _indices(tuples):
    return {tuple(int(name[1:]) for name in t) for t in tuples}


@settings(max_examples=60, deadline=None)
@given(strategies.instances())
def test_an_spgraph_is_searched_like_its_string_graph(inst):
    """With fewer than ten geodesics the names g0..g9 sort like their indices."""
    h = build_spg(inst)
    g = h.to_graph()
    for pattern in ("P3", "claw", "C4", "C5"):
        assert set(find_induced(h, pattern)) == _indices(find_induced(g, pattern))
    assert girth(h) == girth(g)
    assert set(connected_components(h)) == _indices(connected_components(g))


PATTERNS = ("P3", "claw", "C3", "C4", "C5", "C6", "C7")


@settings(max_examples=80, deadline=None)
@given(strategies.graphs(max_vertices=8))
def test_has_induced_agrees_with_find_induced(g):
    for pattern in PATTERNS:
        assert has_induced(g, pattern) == bool(find_induced(g, pattern))


def test_has_induced_stops_at_the_first_occurrence():
    # the full triangle search of K12 needs far more than ten steps
    with pytest.raises(WorkLimitExceeded):
        find_induced(complete_graph(12), "C3", work_limit=10)
    assert has_induced(complete_graph(12), "C3", work_limit=10)
    with pytest.raises(ValueError, match="unknown pattern"):
        has_induced(complete_graph(3), "K4")
