"""Tests for the core graph container, traversals, and named families."""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from spgraphs import (
    BaseInstance,
    Graph,
    GraphError,
    complete_bipartite_graph,
    connected_components,
    girth,
)
from spgraphs.graphs import (
    ID_CUTOFF,
    complete_graph,
    cycle_graph,
    distances,
    empty_graph,
    graph_from_edge_list,
    graph_from_json,
    graph_to_json,
    hypercube_graph,
    is_connected,
    path_graph,
    star_graph,
)


def test_construction_normalizes_and_sorts():
    g = Graph(["b", "a", "c"], [("c", "a")])
    assert g.vertices == ("a", "b", "c")
    assert g.edges == frozenset({("a", "c")})
    assert g.has_edge("a", "c") and g.has_edge("c", "a")
    assert g.degree("a") == 1 and g.degree("b") == 0


def test_construction_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph(["a", "a"])
    with pytest.raises(GraphError):
        Graph(["a"], [("a", "a")])
    with pytest.raises(GraphError):
        Graph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(GraphError):
        Graph(["a"], [("a", "z")])


def test_equality_and_hash_depend_on_structure_only():
    g = Graph(["a", "b"], [("a", "b")])
    h = Graph(["b", "a"], [("b", "a")])
    assert g == h
    assert hash(g) == hash(h)
    assert g != Graph(["a", "b"])


def test_subgraph_relabel_without_edge():
    g = cycle_graph(4)
    assert g.subgraph(["0", "1", "2"]).sorted_edges() == [("0", "1"), ("1", "2")]
    with pytest.raises(GraphError):
        g.subgraph(["0", "9"])
    swapped = g.relabel({"0": "3", "1": "2", "2": "1", "3": "0"})
    assert swapped == g
    with pytest.raises(GraphError):
        g.relabel({"0": "x"})
    with pytest.raises(GraphError):
        g.relabel({v: "same" for v in g.vertices})
    pruned = g.without_edge("0", "1")
    assert pruned.num_edges == 3 and pruned.num_vertices == 4
    with pytest.raises(GraphError):
        pruned.without_edge("0", "1")


def test_distances_on_complete_bipartite():
    k23 = complete_bipartite_graph(2, 3)
    assert distances(k23, "a0") == {
        "a0": 0,
        "a1": 2,
        "b0": 1,
        "b1": 1,
        "b2": 1,
    }
    with pytest.raises(GraphError):
        distances(k23, "zz")


def test_distances_mark_unreachable_vertices():
    g = Graph(["a", "b", "c"], [("a", "b")])
    d = distances(g, "a")
    assert d["b"] == 1 and d["c"] == math.inf
    assert not is_connected(g)
    assert is_connected(empty_graph(1))
    assert not is_connected(empty_graph(2))


def test_connected_components_are_sorted():
    g = Graph(["R:0", "L:2", "L:1", "L:0"], [("L:0", "L:1"), ("L:1", "L:2")])
    comps = connected_components(g)
    assert comps == [("L:0", "L:1", "L:2"), ("R:0",)]


@pytest.mark.parametrize(
    "g, expected",
    [
        (path_graph(4), math.inf),
        (cycle_graph(5), 5),
        (cycle_graph(4), 4),
        (complete_graph(4), 3),
        (complete_bipartite_graph(2, 3), 4),
        (hypercube_graph(3), 4),
    ],
)
def test_girth_known_values(g, expected):
    assert girth(g) == expected


@settings(max_examples=60, deadline=None)
@given(strategies.graphs(max_vertices=7))
def test_girth_matches_subset_scan(g):
    assert girth(g) == oracles.brute_girth(g)


def test_named_families_have_expected_shapes():
    assert path_graph(0).num_vertices == 1
    assert path_graph(4).num_edges == 4
    assert cycle_graph(6).num_edges == 6
    assert complete_graph(5).num_edges == 10
    assert star_graph(3).sorted_edges() == [("c", "l0"), ("c", "l1"), ("c", "l2")]
    q3 = hypercube_graph(3)
    assert q3.num_vertices == 8 and q3.num_edges == 12
    assert all(q3.degree(v) == 3 for v in q3.vertices)
    assert hypercube_graph(0).vertices == ("",)
    with pytest.raises(GraphError):
        path_graph(-1)
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        hypercube_graph(-1)


def test_json_roundtrip_and_errors():
    g = complete_bipartite_graph(2, 2)
    assert graph_from_json(graph_to_json(g)) == g
    with pytest.raises(GraphError):
        graph_from_json("not json")
    with pytest.raises(GraphError):
        graph_from_json("[]")
    with pytest.raises(GraphError):
        graph_from_json('{"vertices": ["a"]}')
    with pytest.raises(GraphError):
        graph_from_json('{"vertices": [1], "edges": []}')
    with pytest.raises(GraphError, match="edge #0"):
        graph_from_json('{"vertices": ["a", "b"], "edges": [["a"]]}')


JSON_ERRORS = [
    ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[]", "graph JSON must be an object"),
    ('{"edges": []}', "graph JSON is missing 'vertices'"),
    ('{"vertices": ["a"]}', "graph JSON is missing 'edges'"),
    ('{"vertices": ["a", 1], "edges": []}', "'vertices' must be a list of strings"),
    ('{"vertices": ["a"], "edges": {}}', "'edges' must be a list of pairs"),
    # the first bad edge is named, whatever is wrong with it
    ('{"vertices": ["a", "b"], "edges": [["a", "b"], "ab", ["a"]]}',
     "edge #1 must be a pair of vertex ids"),
    ('{"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b", "a"]]}',
     "edge #1 must be a pair of vertex ids"),
    ('{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"], ["a", 2]]}',
     "edge #2 must be a pair of vertex ids"),
    ('{"vertices": ["a", "b"], "edges": [[1, "b"]]}', "edge #0 must be a pair of vertex ids"),
    ('{"vertices": ["a", "b"], "edges": [{"u": "a", "w": "b"}]}',
     "edge #0 must be a pair of vertex ids"),
    ('{"vertices": ["a", "b"], "edges": [["a", "c"]]}',
     "edge ('a', 'c') uses an unknown vertex"),
    ('{"vertices": ["a", "b"], "edges": [["a", "a"]]}', "self loop at 'a'"),
    ('{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}',
     "duplicate edge ('b', 'a')"),
    # the first faulty edge in input order, whatever comes after it
    ('{"vertices": ["a", "b"], "edges": [["a", "c"], ["a", "a"]]}',
     "edge ('a', 'c') uses an unknown vertex"),
    ('{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"], ["c", "c"]]}',
     "duplicate edge ('b', 'a')"),
    ('{"vertices": ["a", "b"], "edges": [["c", "c"], ["a", "c"]]}', "self loop at 'c'"),
    ('{"vertices": ["a", "b"], "edges": [["c", "d"], ["d", "c"]]}',
     "edge ('c', 'd') uses an unknown vertex"),
]


@pytest.mark.parametrize("text, message", JSON_ERRORS)
def test_graph_json_error_messages(text, message):
    with pytest.raises(GraphError) as caught:
        graph_from_json(text)
    assert str(caught.value) == message


# a path on vertices p0..pP whose P edges reach the id path on their own
PREFIX = ID_CUTOFF + 3
PREFIX_VERTICES = [f"p{i}" for i in range(PREFIX + 1)]
PREFIX_EDGES = [[f"p{i}", f"p{i + 1}"] for i in range(PREFIX)]


@pytest.mark.parametrize("text, message", [
    (text, message) for text, message in JSON_ERRORS
    if text.startswith("{") and '"edges": [' in text and '"vertices": [' in text
])
def test_graph_json_errors_name_the_same_edge_after_a_long_prefix(text, message):
    payload = json.loads(text)
    payload["vertices"] += PREFIX_VERTICES
    payload["edges"] = PREFIX_EDGES + payload["edges"]
    shifted = re.sub(r"#(\d+)", lambda m: f"#{int(m.group(1)) + PREFIX}", message)
    with pytest.raises(GraphError) as caught:
        graph_from_json(json.dumps(payload))
    assert str(caught.value) == shifted
    # the constructor's own faults, given tuples
    if message.startswith(("self loop", "edge (", "duplicate edge")):
        with pytest.raises(GraphError) as caught:
            Graph(payload["vertices"], [tuple(e) for e in payload["edges"]])
        assert str(caught.value) == message


PREFIX_PAIRS = [tuple(e) for e in PREFIX_EDGES]


@pytest.mark.parametrize("tail", [
    [("p0",)],
    [("p0", "p1", "p2")],
    [()],
    # ends that would line up as two pairs if flattened across edges
    [("p0",), ("p1", "p2", "p3")],
    [("p0", "p1", "p2"), ("p3",)],
])
def test_an_edge_of_another_length_fails_on_the_id_path_as_on_the_short_one(tail):
    raised = []
    for head in (PREFIX_PAIRS[:2], PREFIX_PAIRS):
        with pytest.raises(ValueError) as caught:
            Graph(PREFIX_VERTICES, head + tail)
        raised.append((type(caught.value), str(caught.value)))
    assert len(PREFIX_PAIRS) >= ID_CUTOFF
    assert raised[0] == raised[1]
    assert raised[0][0] is ValueError and "unpack" in raised[0][1]


def test_the_id_path_names_ends_that_are_not_strings_by_str():
    n = ID_CUTOFF + 1
    ints = [(i, i + 1) for i in range(n)]
    assert Graph(range(n + 1), ints) == path_graph(n)
    mixed = [(str(u), v) if u % 2 else (u, str(v)) for u, v in ints]
    assert Graph(map(str, range(n + 1)), mixed) == path_graph(n)
    for extra, message in [
        ((1, 0), "duplicate edge ('1', '0')"),
        ((0, n + 7), f"edge ('0', '{n + 7}') uses an unknown vertex"),
        ((2.5, 2.5), "self loop at '2.5'"),
    ]:
        with pytest.raises(GraphError) as caught:
            Graph(range(n + 1), [*ints, extra])
        assert str(caught.value) == message


# ends of faulty edges: vertices, names that are not vertices, ints that
# str() makes into either, and an unhashable end that str() names
_ENDS = st.sampled_from(["0", "1", "a", "b", "c", "z"]) | st.integers(0, 2) | st.just(["a"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_ENDS, _ENDS), max_size=8))
def test_the_id_path_and_the_short_path_name_the_same_fault(pairs):
    vertices = ["0", "1", "a", "b", "c"]
    prefix = Graph(PREFIX_VERTICES, PREFIX_PAIRS).edges
    outcomes = []
    for head in ([], PREFIX_PAIRS):
        try:
            g = Graph([*vertices, *PREFIX_VERTICES], [*head, *pairs])
        except GraphError as fault:
            outcomes.append(str(fault))
        else:
            outcomes.append(g.edges - prefix)
    assert outcomes[0] == outcomes[1]


def test_a_long_graph_is_stored_as_the_short_one_is():
    vertices = [*PREFIX_VERTICES, "a", "b"]
    edges = [tuple(e) for e in PREFIX_EDGES] + [("b", "a")]
    long = Graph(vertices, edges)
    assert long.num_edges >= ID_CUTOFF
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    assert long.edges == edge_set
    assert long.sorted_edges() == sorted(edge_set)
    lo, hi = long.edge_ids
    assert [(long.vertices[i], long.vertices[j]) for i, j in zip(lo, hi)] == sorted(edge_set)
    short = Graph(vertices, edges[-3:])
    assert short.num_edges < ID_CUTOFF
    assert short.sorted_edges() == sorted({(min(u, v), max(u, v)) for u, v in edges[-3:]})
    assert long == Graph(reversed(vertices), [(v, u) for u, v in reversed(edges)])
    assert long != short


def test_edge_ids_are_read_only_in_both_stored_forms():
    short = Graph(["a", "b", "c"], [("c", "b"), ("a", "b")])
    long = Graph(PREFIX_VERTICES, [tuple(e) for e in PREFIX_EDGES])
    for g in (short, long):
        before = hash(g)
        lo, hi = g.edge_ids
        for ids in (lo, hi):
            with pytest.raises(ValueError):
                ids[0] = ids[-1]
        assert hash(g) == before
        named = [(g.vertices[i], g.vertices[j]) for i, j in zip(lo.tolist(), hi.tolist())]
        assert named == g.sorted_edges()
        loaded = graph_from_edge_list("".join(f"{v} {u}\n" for u, v in named))
        assert loaded == g and hash(loaded) == hash(g)


def test_loading_an_instance_builds_no_name_view():
    for g in (graph_from_json(graph_to_json(hypercube_graph(5))),
              graph_from_edge_list("".join(f"p{i} p{i + 1}\n" for i in range(PREFIX)))):
        BaseInstance(g, g.vertices[0], g.vertices[-1])
        assert (g._adj, g._edges) == (None, None)


def test_a_small_instance_checks_its_endpoints_on_adjacency():
    # name-pair graphs need adjacency for every search; an index beside it
    # would only cost memory
    g = hypercube_graph(3)
    BaseInstance(g, g.vertices[0], g.vertices[-1])
    assert g._adj is not None and g._index is None


EDGE_LIST_ERRORS = [
    ("a b\na b c\n", "line 2: expected 'u v', got 'a b c'"),
    ("a b\nb c\nb a\n", "line 3: duplicate edge ('b', 'a')"),
    ("a a\n", "line 1: self loop at 'a'"),
    # a fault on an earlier line wins over a malformed later one
    ("a b\nb b\nx\n", "line 2: self loop at 'b'"),
    ("a b # note\n\n# gap\nb a\n", "line 4: duplicate edge ('b', 'a')"),
]


@pytest.mark.parametrize("text, message", EDGE_LIST_ERRORS)
@pytest.mark.parametrize("prefix", [0, PREFIX])
def test_edge_list_error_messages(text, message, prefix):
    lines = "".join(f"p{i} p{i + 1}\n" for i in range(prefix))
    shifted = re.sub(r"line (\d+)", lambda m: f"line {int(m.group(1)) + prefix}", message)
    with pytest.raises(GraphError) as caught:
        graph_from_edge_list(lines + text)
    assert str(caught.value) == shifted


def test_edge_list_roundtrip_comments_and_errors():
    text = "# a triangle\na b\nb c # trailing note\n\nc a\n"
    g = graph_from_edge_list(text)
    assert g.num_vertices == 3 and g.num_edges == 3
    with pytest.raises(GraphError, match="line 2"):
        graph_from_edge_list("a b\na b c\n")
    with pytest.raises(GraphError, match="line 3"):
        graph_from_edge_list("a b\nb c\nb a\n")
    with pytest.raises(GraphError, match="self loop"):
        graph_from_edge_list("a a\n")


@settings(max_examples=40, deadline=None)
@given(strategies.graphs(max_vertices=6))
def test_json_roundtrip_is_exact(g):
    assert graph_from_json(graph_to_json(g)) == g


def test_base_instance_validation():
    g = path_graph(2)
    inst = BaseInstance(g, "0", "2")
    assert inst.source == "0" and inst.target == "2"
    assert not hasattr(inst, "__dict__")  # the corpora hold tens of thousands
    with pytest.raises(GraphError):
        BaseInstance(g, "0", "0")
    with pytest.raises(GraphError):
        BaseInstance(g, "0", "9")
