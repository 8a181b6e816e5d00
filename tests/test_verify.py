"""Tests for the theorem checkers, the corpora, and the family checks.

The positive direction (checkers pass on real shortest path graphs) is
covered by corpus runs. Just as important is the negative direction: every
checker must be able to fail, so each one is fed a hand-built counterexample
that a correct shortest path graph could never produce.
"""

import hashlib
import json
from itertools import combinations

import numpy as np
import pytest

from spgraphs import (
    BaseInstance,
    GeodesicOverflowError,
    Graph,
    GraphError,
    GridSpec,
    SpGraph,
    build_spg,
    complete_bipartite_graph,
)
from spgraphs.constructions import (
    complete_base,
    even_cycle_base,
    hypercube_base,
    parallel_paths,
    two_sum,
)
from spgraphs.verify import (
    CheckReport,
    CheckRollup,
    CorpusSummary,
    STANDARD_CHECKS,
    check_cayley,
    check_claw_in_c4,
    check_complete_iff_same_index,
    check_decomposition,
    check_grid_embedding,
    check_girth5_classification,
    check_no_induced_c5,
    check_odd_cycle_c4,
    check_p3_c4,
    check_staircase,
    check_sum_theorems,
    check_tournament_bijection,
    connected_graphs,
    enumerate_graphs,
    exhaustive_instances,
    instance_label,
    random_instances,
    run_corpus,
)

ALL_CHECKERS = list(STANDARD_CHECKS.values())


def _middles(*names: str, d: int = 2) -> list[tuple[str, ...]]:
    assert d == 2
    return [("a", name, "b") for name in names]


# -- checkers pass on genuine shortest path graphs ----------------------------


@pytest.mark.parametrize("checker", ALL_CHECKERS, ids=list(STANDARD_CHECKS))
def test_checkers_pass_on_known_instances(checker):
    for inst in (
        hypercube_base(3).instance,
        complete_base(4).instance,
        even_cycle_base(3).instance,
        parallel_paths(3, 3).instance,
        BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1"),
    ):
        report = checker(inst)
        assert report.passed, report


def test_checkers_accept_an_spg_directly():
    h = build_spg(hypercube_base(2).instance)
    assert check_p3_c4(h).passed
    with pytest.raises(TypeError):
        check_p3_c4("not a graph")


# -- each checker can fail ----------------------------------------------------


def test_p3_c4_fails_without_the_fourth_vertex():
    geos = [
        ("a", "1", "2", "3", "b"),
        ("a", "9", "2", "3", "b"),
        ("a", "1", "2", "8", "b"),
    ]
    fake = SpGraph(geos, {(0, 1): 1, (0, 2): 3})
    report = check_p3_c4(fake)
    assert not report.passed
    assert "no four-cycle" in report.witness
    assert report.stats["far_triples"] == 1


def _five_cycle_fake() -> SpGraph:
    geos = _middles("m0", "m1", "m2", "m3", "m4")
    edges = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (0, 4): 1}
    return SpGraph(geos, edges)


def test_no_induced_c5_fails_on_a_five_cycle():
    report = check_no_induced_c5(_five_cycle_fake())
    assert not report.passed
    assert "five-cycle" in report.witness


def _claw_fake() -> SpGraph:
    geos = [
        ("a", "m", "w", "b"),
        ("a", "x", "w", "b"),
        ("a", "y", "w", "b"),
        ("a", "m", "z", "b"),
    ]
    return SpGraph(geos, {(0, 1): 1, (0, 2): 1, (0, 3): 2})


def test_claw_in_c4_fails_without_a_crossing_cycle():
    report = check_claw_in_c4(_claw_fake())
    assert not report.passed
    assert "claw" in report.witness
    assert report.stats["claws"] == 1


def _cycles_and_paths(*parts: tuple[str, int]) -> SpGraph:
    """Disjoint cycles ``("C", k)`` and paths ``("P", k)`` on k middles."""
    geos: list[tuple[str, ...]] = []
    edges = {}
    for kind, k in parts:
        base = len(geos)
        geos += _middles(*[f"m{base + i}" for i in range(k)])
        edges.update({(base + i, base + i + 1): 1 for i in range(k - 1)})
        if kind == "C":
            edges[(base, base + k - 1)] = 1
    return SpGraph(geos, edges)


def test_odd_cycle_c4_fails_on_a_bare_seven_cycle():
    report = check_odd_cycle_c4(_cycles_and_paths(("C", 7)))
    assert not report.passed
    assert report.stats["odd_cycle"] == 7
    assert "no induced four-cycle" in report.witness


def test_girth5_classification_fails_on_a_star():
    report = check_girth5_classification(_claw_fake())
    assert not report.passed
    assert "neither a path nor an even cycle" in report.witness


@pytest.mark.parametrize(
    "parts, passed, components",
    [
        ([("C", 5)], False, 1),
        ([("C", 7)], False, 1),
        ([("C", 6), ("C", 7)], False, 2),
        ([("C", 6)], True, 1),
        ([("C", 8), ("P", 4)], True, 2),
        ([("P", 5)], True, 1),
        ([("C", 4)], True, 0),
    ],
    ids=["C5", "C7", "C6+C7", "C6", "C8+P4", "P5", "C4"],
)
def test_girth5_classification_on_cycles_and_paths(parts, passed, components):
    report = check_girth5_classification(_cycles_and_paths(*parts))
    assert report.passed == passed, report
    assert report.stats["components"] == components


@pytest.mark.parametrize(
    "checker, fake, text",
    [
        (check_no_induced_c5, _five_cycle_fake, "a m0 b | a m1 b | a m2 b"),
        (check_claw_in_c4, _claw_fake, "a m w b | a x w b | a y w b | a m z b"),
        (check_odd_cycle_c4, lambda: _cycles_and_paths(("C", 7)), "a m0 b | a m1 b"),
        (check_girth5_classification, _claw_fake, "a m w b | a x w b"),
    ],
    ids=["no-induced-c5", "claw-in-c4", "odd-cycle-c4", "girth5-classification"],
)
def test_witnesses_name_geodesics(checker, fake, text):
    report = checker(fake())
    assert not report.passed
    assert text in report.witness


def test_girth5_classification_is_vacuous_below_girth_five():
    h = build_spg(hypercube_base(2).instance)
    report = check_girth5_classification(h)
    assert report.passed
    assert report.stats["girth"] == 4


def test_complete_iff_fails_in_both_directions():
    # Complete edge set, but one pair differs in two positions.
    geos = [("a", "1", "2", "b"), ("a", "9", "2", "b"), ("a", "9", "8", "b")]
    fake = SpGraph(geos, {(0, 1): 1, (1, 2): 2, (0, 2): 1})
    report = check_complete_iff_same_index(fake)
    assert not report.passed

    # Single shared difference index, but edges are missing.
    report = check_complete_iff_same_index(_five_cycle_fake())
    assert not report.passed


def test_decomposition_fails_on_a_doubled_matching_edge():
    geos = [
        ("a", "m", "x", "b"),
        ("a", "m", "y", "b"),
        ("a", "w", "x", "b"),
        ("a", "w", "y", "b"),
    ]
    fake = SpGraph(geos, {(0, 2): 1, (0, 3): 1})
    report = check_decomposition(fake)
    assert not report.passed
    assert "two edges at index 1" in report.witness


def test_decomposition_fails_on_inconsistent_indices():
    geos = [("a", "m", "x", "b"), ("a", "w", "x", "b"), ("a", "w", "y", "b")]
    fake = SpGraph(geos, {(0, 1): 1, (1, 2): 1})
    report = check_decomposition(fake)
    assert not report.passed
    assert "inconsistent" in report.witness


def test_decomposition_with_instance_checks_products():
    inst = hypercube_base(3).instance
    report = check_decomposition(inst)
    assert report.passed
    assert report.stats["indices"] == 5
    assert report.stats["products"] == 8

    at_two = check_decomposition(inst, 2)
    assert at_two.name == "decomposition@2"
    assert at_two.passed
    from spgraphs import SpgStructureError

    with pytest.raises(SpgStructureError):
        check_decomposition(inst, 6)


@pytest.mark.parametrize("damage", ["drop", "move", "add"])
def test_decomposition_fails_when_a_factor_is_not_the_product(monkeypatch, damage):
    # "drop" leaves a geodesic of the group without its prefix; "move" keeps
    # the edge count and breaks the edge map; "add" keeps every mapped edge
    # and breaks the count
    import spgraphs.verify

    real = spgraphs.verify.build_spg

    def damaged(inst, **kwargs):
        h = real(inst, **kwargs)
        if (inst.source, inst.target) == ("c0", "c3") or h.num_vertices < 4:
            return h
        geodesics, edges = h.geodesics, dict(h.edge_index)
        if damage == "drop":
            geodesics = geodesics[:-1]
            edges = {e: pos for e, pos in edges.items() if max(e) < len(geodesics)}
        else:
            first = min(edges)
            pos = edges.pop(first) if damage == "move" else edges[first]
            fresh = next(
                e for e in combinations(range(h.num_vertices), 2)
                if e not in edges and e != first
            )
            edges[fresh] = pos
        return SpGraph(geodesics, edges)

    monkeypatch.setattr(spgraphs.verify, "build_spg", damaged)
    report = check_decomposition(hypercube_base(3).instance)
    assert not report.passed
    assert report.witness == (
        "group through x1 at position 1 is not the product "
        "of the one-sided shortest path graphs"
    )


def test_decomposition_is_vacuous_for_short_instances():
    inst = BaseInstance(Graph(["a", "b"], [("a", "b")]), "a", "b")
    assert check_decomposition(inst).passed


# -- sums ----------------------------------------------------------------------


def test_sum_theorem_checks():
    i1 = complete_base(2).instance
    i2 = even_cycle_base(2).instance
    assert check_sum_theorems("one-sum", i1, i2).passed
    assert check_sum_theorems("union", i1, i2).passed

    tri_a = Graph(["a", "x", "y"], [("a", "x"), ("a", "y"), ("x", "y")])
    tri_b = Graph(["b", "x", "y"], [("b", "x"), ("b", "y"), ("x", "y")])
    report = check_sum_theorems("two-sum", tri_a, "a", tri_b, "b", "x", "y")
    assert report.passed
    assert report.stats["case"] == "matching"

    with pytest.raises(GraphError):
        check_sum_theorems("three-sum", i1, i2)
    with pytest.raises(GraphError):
        check_sum_theorems("one-sum", i1)
    with pytest.raises(GraphError):
        check_sum_theorems("two-sum", tri_a, "a")


def test_sum_checks_reach_past_the_isomorphism_cap():
    big = complete_base(15).instance
    report = check_sum_theorems("one-sum", big, big)
    assert report.passed, report
    assert report.stats["vertices"] == 225
    report = check_sum_theorems("union", hypercube_base(7).instance, complete_base(80).instance)
    assert report.passed, report
    assert report.stats["vertices"] == 208


def _fan_side(apex, routes, ends):
    """``apex`` joined to each of ``ends`` by ``routes`` two-step routes, plus
    the shared edge x-y; ``ends`` is ("x", "y") or one of them."""
    mids = [f"m{i}" for i in range(routes)]
    edges = [(apex, m) for m in mids] + [(m, e) for m in mids for e in ends] + [("x", "y")]
    return Graph([apex, "x", "y", *mids], edges)


@pytest.mark.parametrize(
    "kind, parts, count",
    [
        ("one-sum", (hypercube_base(6).instance,) * 2, 64 * 64),
        ("union", (hypercube_base(10).instance,) * 2, 2 * 1024),
        # a matching two-sum: 900 geodesics through each shared vertex
        ("two-sum", (_fan_side("a", 30, "xy"), "a", _fan_side("b", 30, "xy"), "b", "x", "y"),
         2 * 900),
    ],
    ids=["one-sum", "union", "two-sum"],
)
def test_sum_check_refuses_before_building_a_prediction_over_the_limit(
    monkeypatch, kind, parts, count
):
    import spgraphs.constructions

    limit = 1000
    real = spgraphs.constructions.Graph

    def small_graph(*args, **kwargs):
        graph = real(*args, **kwargs)
        assert graph.num_vertices <= limit, f"built a {graph.num_vertices}-vertex graph"
        return graph

    monkeypatch.setattr(spgraphs.constructions, "Graph", small_graph)
    with pytest.raises(GeodesicOverflowError) as info:
        check_sum_theorems(kind, *parts, limit=limit)
    assert (info.value.count, info.value.limit) == (count, limit)


def test_overlap_two_sum_counts_a_geodesic_in_both_parts_once():
    # a reaches x by 30 routes and y only over x; b is reached from y by 30
    # routes and from x only over y. Each part has all 900 geodesics, and
    # the shortest path graph is the product of two 30-cliques.
    parts = (_fan_side("a", 30, "x"), "a", _fan_side("b", 30, "y"), "b", "x", "y")
    report = check_sum_theorems("two-sum", *parts, limit=1000)
    assert report.passed, report
    assert report.stats == {"case": "overlap", "vertices": 900, "edges": 2 * 30 * (30 * 29 // 2)}


def _drop_an_edge(graph):
    return Graph(graph.vertices, graph.sorted_edges()[1:])


def _add_a_vertex(graph):
    return Graph(graph.vertices + ("extra",), graph.edges)


DAMAGES = pytest.mark.parametrize(
    "damage", [_drop_an_edge, _add_a_vertex], ids=["drop an edge", "one vertex too many"]
)


@DAMAGES
@pytest.mark.parametrize("kind", ["one-sum", "union"])
def test_sum_check_fails_on_a_damaged_prediction(monkeypatch, kind, damage):
    import dataclasses

    import spgraphs.verify

    name = "one_sum" if kind == "one-sum" else "union_base"
    real = getattr(spgraphs.verify, name)

    def damaged(i1, i2, *, limit):
        result = real(i1, i2, limit=limit)
        return dataclasses.replace(result, predicted=damage(result.predicted))

    monkeypatch.setattr(spgraphs.verify, name, damaged)
    report = check_sum_theorems(kind, complete_base(2).instance, even_cycle_base(2).instance)
    assert not report.passed
    assert report.witness == "direct shortest path graph differs from prediction"


@DAMAGES
def test_two_sum_check_fails_on_a_damaged_prediction(monkeypatch, damage):
    import dataclasses

    import spgraphs.verify

    real = spgraphs.verify.predict_two_sum

    def damaged(*parts, limit):
        prediction = real(*parts, limit=limit)
        return dataclasses.replace(prediction, predicted=damage(prediction.predicted))

    monkeypatch.setattr(spgraphs.verify, "predict_two_sum", damaged)
    tri_a = Graph(["a", "x", "y"], [("a", "x"), ("a", "y"), ("x", "y")])
    tri_b = Graph(["b", "x", "y"], [("b", "x"), ("b", "y"), ("x", "y")])
    report = check_sum_theorems("two-sum", tri_a, "a", tri_b, "b", "x", "y")
    assert not report.passed
    assert report.witness == "case matching: direct shortest path graph differs from prediction"


# -- corpora --------------------------------------------------------------------


# sha256 of repr([(g.vertices, g.sorted_edges()) for g in enumerate_graphs(n)]):
# any change of representative or of order changes it.
CORPUS_DIGESTS = {
    6: "fb17fd1ff9d875943d2088bd0480ec8e145caf261e38849fa4affceaf6473ff8",
    7: "d273351660214a3b00625d83a7c9e50df56ac9663612643f358d4cff0a248706",
}


def test_graph_class_counts_match_known_values():
    assert [len(enumerate_graphs(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    for n, digest in CORPUS_DIGESTS.items():
        listing = repr([(g.vertices, g.sorted_edges()) for g in enumerate_graphs(n)])
        assert hashlib.sha256(listing.encode()).hexdigest() == digest
    with pytest.raises(GraphError):
        enumerate_graphs(0)


def test_exhaustive_instances_cover_ordered_pairs():
    instances = list(exhaustive_instances(3))
    assert len(instances) == 14
    assert all(inst.source != inst.target for inst in instances)


def test_random_instances_are_seeded():
    first = random_instances(10, max_vertices=6, seed=42)
    second = random_instances(10, max_vertices=6, seed=42)
    assert len(first) == 10
    assert [instance_label(i) for i in first] == [instance_label(i) for i in second]
    assert all(i.graph.num_vertices <= 6 for i in first)


def test_run_corpus_aggregates():
    summary = run_corpus(
        exhaustive_instances(4), checks=["p3-c4", "no-induced-c5"], include_decomposition=True
    )
    assert summary.passed
    assert summary.instances == 86
    assert set(summary.rollups) == {"p3-c4", "no-induced-c5", "decomposition"}
    assert all(r.ran == 86 for r in summary.rollups.values())
    text = summary.table()
    assert "instances: 86" in text
    assert "pass" in text
    with pytest.raises(GraphError):
        run_corpus([], checks=["nope"])


def test_corpus_table_shows_failures():
    summary = CorpusSummary(
        1, {"p3-c4": CheckRollup(ran=1, failed=1, first_failure="#0 tiny: boom")}
    )
    assert not summary.passed
    text = summary.table()
    assert "FAIL (1)" in text
    assert "first failure: #0 tiny: boom" in text


# -- family checks ----------------------------------------------------------------


@pytest.mark.parametrize(
    "dims",
    [
        (2, 2), (1, 1, 1), (2, 1, 2), (10, 2), (12, 1, 1), (39, 1), (1, 39), (30, 1, 1),
        # 64^63 and 3^64 radix-m word codes would leave int64; words are rows
        (63, 1), (62, 2),
        # 2^40 lattice codes in radix n_i + 1
        (1, 40),
    ],
)
def test_grid_embedding_check(dims):
    report = check_grid_embedding(GridSpec(dims))
    assert report.passed, report
    assert report.stats["words"] == GridSpec(dims).word_count()


def test_grid_embedding_check_respects_the_limit():
    with pytest.raises(GeodesicOverflowError):
        check_grid_embedding(GridSpec((3, 3)), limit=10)


def test_grid_embedding_check_refuses_lattice_points_too_wide_to_pack():
    # 64 words is far under the limit, but 63 coordinates in 0..1 need 2^63 codes
    with pytest.raises(GraphError, match="too wide to pack"):
        check_grid_embedding(GridSpec((1, 63)))


def _lower_one_coordinate(coords):
    coords = coords.copy()
    row, col = np.argwhere(coords > 0)[0]
    coords[row, col] -= 1
    return coords


def _move_one_image(coords):
    # in bounds, weakly decreasing and outside the image: word 4 loses its
    # lattice steps and gains none
    coords = coords.copy()
    coords[4] = (0, 1, 1, 0, 0)
    return coords


def _move_image_next_to_a_far_swap(coords):
    # word 0 (11233) takes a point one step below the image of word 8
    # (13213): the two rows differ in exactly two positions, not adjacent
    coords = coords.copy()
    coords[0] = (1, 0, 0, 1, 0)
    return coords


def _push_past_the_bound(coords):
    # (1,2,1) counts the 1's after the only 2: at most n_1 = 2
    coords = coords.copy()
    coords[0, 0] = 3
    return coords


def _break_two_columns(coords):
    # word 0 takes (2,3,2) past n_2 = 1 and word 1 raises (1,3,2) over
    # (1,3,1): the earlier coordinate of the layout is the witness, not the
    # earlier word
    coords = coords.copy()
    coords[0, 4] = 2
    coords[1, 2] = coords[1, 1] + 1
    return coords


def _swap_two_names(inst):
    # the same graph up to relabelling, so only the names break the decoding
    swap = {"(1,0,0)": "(0,0,1)", "(0,0,1)": "(1,0,0)"}
    g = inst.graph
    vertices = [swap.get(v, v) for v in g.vertices]
    edges = [(swap.get(u, u), swap.get(v, v)) for u, v in g.edges]
    return BaseInstance(Graph(vertices, edges), inst.source, inst.target)


def _drop_an_edge(inst):
    g = inst.graph
    return BaseInstance(Graph(g.vertices, g.sorted_edges()[1:]), inst.source, inst.target)


def _add_a_chord(inst):
    g = inst.graph
    edges = g.sorted_edges() + [("(0,0,0)", "(1,1,0)")]
    return BaseInstance(Graph(g.vertices, edges), inst.source, inst.target)


# the name in spgraphs.verify to damage, how to damage its result, and a
# part of the witness of the check that catches it first
GRID_DAMAGE = {
    "words: duplicate a row": (
        "words_array", lambda w: np.concatenate([w[:1], w]), "31 words listed, 30 expected"
    ),
    "words: swap two rows": (
        "words_array", lambda w: w[[1, 0, *range(2, len(w))]], "not strictly lexicographic"
    ),
    "words: repeat a row over the next": (
        "words_array", lambda w: w[[0, 0, *range(2, len(w))]], "not strictly lexicographic"
    ),
    "phi: two rows collide": (
        "phi_batch", lambda c: np.concatenate([c[:1], c[:1], c[2:]]), "collides"
    ),
    "phi: lower one coordinate": ("phi_batch", _lower_one_coordinate, "collides"),
    "phi: reverse the columns": ("phi_batch", lambda c: c[:, ::-1], "exceeds"),
    "phi: push past the bound": (
        "phi_batch", _push_past_the_bound, "coordinate (1,2,1) leaves 0..2"
    ),
    "phi: break an earlier and a later column": (
        "phi_batch", _break_two_columns, "coordinate (1,3,2) exceeds (1,3,1)"
    ),
    "phi: swap two images": (
        "phi_batch", lambda c: c[[1, 0, *range(2, len(c))]], "is not a switch"
    ),
    "phi: swap images three positions apart": (
        # word 2 (11332) lands one step from word 3 (12133): three positions
        # differ, two of them adjacent
        "phi_batch",
        lambda c: c[[2, 1, 0, *range(3, len(c))]],
        "the lattice step from word 2 to 3 is not a switch",
    ),
    "phi: move an image next to a far swap": (
        "phi_batch",
        _move_image_next_to_a_far_swap,
        "the lattice step from word 0 to 8 is not a switch",
    ),
    "phi: move one image": (
        "phi_batch", _move_one_image, "45 lattice steps inside the image but 48 word switches"
    ),
    "grid: drop an edge": ("grid_base", _drop_an_edge, "18 geodesics but 30 words"),
    "grid: add a chord": ("grid_base", _add_a_chord, "3 geodesics but 30 words"),
    "grid: swap two names": ("grid_base", _swap_two_names, "not a unit step"),
    "geodesics: swap two rows": (
        "geodesic_matrix", lambda g: g[[1, 0, *range(2, len(g))]], "geodesic 0 does not decode"
    ),
    "geodesics: reverse the rows": (
        "geodesic_matrix", lambda g: g[::-1], "geodesic 0 does not decode to word 29"
    ),
}


@pytest.mark.parametrize("damage", GRID_DAMAGE)
def test_grid_embedding_check_fails_on_damaged_input(monkeypatch, damage):
    import spgraphs.verify

    name, spoil, witness = GRID_DAMAGE[damage]
    real = getattr(spgraphs.verify, name)
    monkeypatch.setattr(spgraphs.verify, name, lambda *args: spoil(real(*args)))
    report = check_grid_embedding(GridSpec((2, 1, 2)))
    assert not report.passed
    assert witness in report.witness


def test_staircase_and_cayley_checks():
    for n1, n2 in ((2, 2), (6, 6)):
        assert check_staircase(n1, n2).passed
    assert check_cayley(3).passed
    assert check_tournament_bijection(3).passed


@pytest.mark.parametrize(
    "damage, witness",
    [
        ("lose an edge", "staircase edges differ from the word switches"),
        ("gain a vertex", "staircase vertices differ from the phi image"),
    ],
)
def test_staircase_check_fails_on_a_damaged_staircase(monkeypatch, damage, witness):
    import spgraphs.verify

    real = spgraphs.verify.staircase

    def damaged(n1, n2):
        g = real(n1, n2)
        if damage == "lose an edge":
            return Graph(g.vertices, g.sorted_edges()[1:])
        return Graph(g.vertices + ("(9,9,9)",), g.edges)

    monkeypatch.setattr(spgraphs.verify, "staircase", damaged)
    report = check_staircase(3, 3)
    assert not report.passed
    assert report.witness == witness


# -- report plumbing ---------------------------------------------------------------


def test_check_report_text_and_json():
    good = CheckReport("sample", True, None, {"n": 3})
    bad = CheckReport("sample", False, "broken here")
    assert str(good) == "sample: pass"
    assert str(bad) == "sample: FAIL [broken here]"
    payload = json.loads(good.to_json())
    assert payload == {"name": "sample", "passed": True, "witness": None, "stats": {"n": 3}}
