"""Tests for grid words, the lattice embedding, and the related families."""

import itertools
import math
import random

import numpy as np
import pytest

import oracles
import strategies
from spgraphs import (
    GraphError,
    GridSpec,
    LatticePoint,
    build_dag,
    build_spg,
    cayley_adjacent_transpositions,
    enumerate_sequences,
    grid_base,
    parse_move_sequence,
    phi,
    phi_batch,
    phi_inverse,
    staircase,
    words_array,
)
from spgraphs.geodesics import GeodesicOverflowError
from spgraphs.graphs import cycle_graph
from spgraphs.grid import MoveSequence, NotInImageError, TransitiveTournament, tournament_of
from spgraphs.isomorphism import is_isomorphic


def _words(dims):
    """Every word over the dims in lexicographic order, from itertools."""
    letters = [s for s, n in enumerate(dims, start=1) for _ in range(n)]
    return sorted(set(itertools.permutations(letters)))


def test_grid_spec_basics():
    spec = GridSpec((3, 3, 2))
    assert spec.m == 3
    assert spec.total_moves == 8
    assert spec.embedding_dim == 7
    assert spec.word_count() == 560
    assert spec.coordinate_layout() == [
        (1, 2, 1),
        (1, 2, 2),
        (1, 2, 3),
        (1, 3, 1),
        (1, 3, 2),
        (2, 3, 1),
        (2, 3, 2),
    ]
    with pytest.raises(GraphError):
        GridSpec(())
    with pytest.raises(GraphError):
        GridSpec((2, 0))


def test_move_sequence_validation_and_text_forms():
    spec = GridSpec((2, 1))
    ms = parse_move_sequence(spec, "121")
    assert ms.symbols == (1, 2, 1)
    assert str(ms) == "121"
    with pytest.raises(GraphError):
        MoveSequence(spec, (1, 1, 3))
    with pytest.raises(GraphError):
        MoveSequence(spec, (1, 2, 2))
    wide = GridSpec((1,) * 10)
    ms = MoveSequence(wide, tuple(range(1, 11)))
    assert str(ms) == "1,2,3,4,5,6,7,8,9,10"
    assert parse_move_sequence(wide, str(ms)).symbols == ms.symbols
    for text in ("12x", "1,,2"):
        with pytest.raises(GraphError, match="integers"):
            parse_move_sequence(spec, text)


def test_lattice_point_validation_and_json():
    spec = GridSpec((3, 3, 2))
    point = LatticePoint(spec, (3, 2, 1, 3, 1, 3, 0))
    assert point.coords == (3, 2, 1, 3, 1, 3, 0)
    with pytest.raises(GraphError, match="expected 7"):
        LatticePoint(spec, (0, 0))
    # the witness texts of the grid check, which runs the same test
    with pytest.raises(GraphError, match=r"coordinate \(1,2,1\) leaves 0\.\.3"):
        LatticePoint(spec, (4, 2, 1, 3, 1, 3, 0))
    with pytest.raises(GraphError, match=r"coordinate \(1,2,2\) exceeds \(1,2,1\)"):
        LatticePoint(spec, (1, 2, 1, 3, 1, 3, 0))
    # far outside int64, still a witness rather than an overflow
    with pytest.raises(GraphError, match=r"coordinate \(1,2,1\) leaves"):
        LatticePoint(spec, (-(10**30), 2, 1, 3, 1, 3, 0))


@pytest.mark.parametrize(
    "dims", [(1,), (4,), (2, 3), (1, 1, 1, 1), (2, 1, 3), (10, 1), (1, 12, 2)]
)
def test_grid_base_is_the_box_graph(dims):
    # each coordinate is zero-padded to the digit width of its own axis
    points = list(itertools.product(*(range(n + 1) for n in dims)))
    name = {
        p: "(" + ",".join(str(c).zfill(len(str(n))) for c, n in zip(p, dims)) + ")"
        for p in points
    }
    edges = {
        frozenset((name[p], name[q]))
        for p, q in itertools.combinations(points, 2)
        if sum(abs(a - b) for a, b in zip(p, q)) == 1
    }
    inst = grid_base(GridSpec(dims))
    assert sorted(inst.graph.vertices) == sorted(name.values())
    assert {frozenset(e) for e in inst.graph.edges} == edges
    assert (inst.source, inst.target) == (name[(0,) * len(dims)], name[dims])


@pytest.mark.parametrize("dims", [(2, 3), (10, 1), (1, 12, 2), (3, 10, 11)])
def test_grid_dag_ranks_are_mixed_radix_ids(dims):
    # the rank of (c_1, ..., c_m) among the DAG's names is its mixed-radix id
    points = itertools.product(*(range(n + 1) for n in dims))
    names = build_dag(grid_base(GridSpec(dims))).names
    assert [tuple(map(int, v.strip("()").split(","))) for v in names] == list(points)


def test_grid_base_instance():
    inst = grid_base(GridSpec((2, 2)))
    assert inst.graph.num_vertices == 9
    assert inst.graph.num_edges == 12
    assert inst.source == "(0,0)"
    assert inst.target == "(2,2)"


def test_enumeration_is_lexicographic_and_guarded():
    spec = GridSpec((2, 2))
    sequences = enumerate_sequences(spec)
    words = [ms.symbols for ms in sequences]
    assert words == sorted(words)
    assert len(words) == 6
    assert words[0] == (1, 1, 2, 2)
    assert words[-1] == (2, 2, 1, 1)
    with pytest.raises(GeodesicOverflowError) as info:
        enumerate_sequences(spec, limit=5)
    assert info.value.count == 6


def test_phi_worked_example():
    spec = GridSpec((3, 3, 2))
    point = phi(parse_move_sequence(spec, "32121231"))
    assert point.coords == (3, 2, 1, 3, 1, 3, 0)
    assert phi_inverse(point).symbols == (3, 2, 1, 2, 1, 2, 3, 1)


def test_phi_counts_past_int16():
    spec = GridSpec((40000, 1))
    assert phi(MoveSequence(spec, (2,) + (1,) * 40000)).coords == (40000,)


@pytest.mark.parametrize("dims", [(2, 2), (1, 1, 1), (2, 1, 2), (3, 2)])
def test_phi_matches_direct_counting_and_inverts(dims):
    spec = GridSpec(dims)
    for word in _words(dims):
        ms = MoveSequence(spec, word)
        point = phi(ms)
        assert point.coords == oracles.brute_phi(dims, word)
        assert phi_inverse(point).symbols == word


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 1, 2)])
def test_inverse_decides_image_membership(dims):
    spec = GridSpec(dims)
    image = {phi(MoveSequence(spec, w)).coords for w in _words(dims)}
    layout = spec.coordinate_layout()
    ranges = [range(spec.dims[i - 1] + 1) for (i, j, k) in layout]
    hits = set()
    for coords in itertools.product(*ranges):
        try:
            point = LatticePoint(spec, coords)
        except GraphError:
            continue
        try:
            ms = phi_inverse(point)
        except NotInImageError:
            continue
        assert phi(ms).coords == coords
        hits.add(coords)
    assert hits == image


def test_known_points_outside_the_image():
    spec = GridSpec((1, 1, 1))
    for coords in ((0, 1, 0), (1, 0, 1)):
        with pytest.raises(NotInImageError):
            phi_inverse(LatticePoint(spec, coords))


def test_phi_batch_matches_the_scalar_map():
    spec = GridSpec((3, 2, 2))
    words = words_array(spec)
    assert words.shape == (spec.word_count(), spec.total_moves)
    coords = phi_batch(spec, words)
    assert coords.shape == (spec.word_count(), spec.embedding_dim)
    # one contiguous array per coordinate
    assert coords.T.flags.c_contiguous
    for row, word in zip(coords.tolist(), words.tolist()):
        assert tuple(row) == oracles.brute_phi(spec.dims, tuple(word))
    # the layout of the input does not matter: reversed rows, Fortran order
    for other in (words[::-1], np.asfortranarray(words)):
        coords = phi_batch(spec, other)
        assert [tuple(row) for row in coords.tolist()] == [
            oracles.brute_phi(spec.dims, tuple(word)) for word in other.tolist()
        ]
    with pytest.raises(GraphError):
        phi_batch(spec, np.zeros((2, 3), dtype=np.uint8))


@pytest.mark.parametrize(
    "rows, first",
    [
        ([[1, 1, 1]], 0),
        # word 0 has no 2; word 1 the counts of 2,1 instead of 1,2
        ([[1, 1, 1], [2, 2, 1]], 0),
        ([[1, 2, 1], [1, 1, 2], [2, 1, 1], [3, 1, 1]], 3),
        # a surplus in one word and a shortage in the next
        ([[1, 2, 1], [1, 1, 1], [2, 2, 1]], 1),
    ],
)
def test_phi_batch_names_the_first_row_that_is_not_a_word(rows, first):
    with pytest.raises(GraphError, match=rf"word {first} does not have symbol counts \(2, 1\)"):
        phi_batch(GridSpec((2, 1)), np.array(rows))


def test_phi_batch_matches_the_oracle_on_every_small_grid():
    grids = [dims for n in range(1, 7) for dims in strategies.compositions(n)] + [(1,) * 7]
    for dims in grids:
        spec = GridSpec(dims)
        words = words_array(spec)
        coords = phi_batch(spec, words)
        assert coords.dtype == np.uint8
        assert coords.shape == (spec.word_count(), spec.embedding_dim)
        expected = [oracles.brute_phi(dims, tuple(word)) for word in words.tolist()]
        assert [tuple(row) for row in coords.tolist()] == expected, dims


@pytest.mark.parametrize(
    "dims, dtype",
    [
        ((255, 1), np.uint8), ((2, 255), np.uint8), ((256, 1), np.uint16), ((1, 256), np.uint16),
        ((300, 2), np.uint16), ((2, 300, 1), np.uint16), ((40000, 1), np.uint16),
        ((65535, 1), np.uint16), ((65536, 1), np.uint32),
    ],
)
def test_phi_batch_counts_in_the_smallest_unsigned_type_for_the_longest_axis(dims, dtype):
    # uint8 below 256 moves per axis, uint16 below 65,536
    letters = [s for s, n in enumerate(dims, start=1) for _ in range(n)]
    rng = random.Random(len(letters))
    words = [letters, letters[::-1]] + [rng.sample(letters, len(letters)) for _ in range(3)]
    coords = phi_batch(GridSpec(dims), np.array(words, dtype=np.uint8))
    assert coords.dtype == dtype
    assert [tuple(row) for row in coords.tolist()] == [
        oracles.brute_phi(dims, tuple(word)) for word in words
    ]


@pytest.mark.parametrize("dims", [(4,), (1, 1, 1, 1), (2, 1, 3)])
def test_words_array_lists_every_word_in_order(dims):
    spec = GridSpec(dims)
    words = words_array(spec)
    assert words.dtype == np.uint8
    assert [tuple(row) for row in words.tolist()] == _words(dims)


def test_phi_batch_on_a_single_axis_is_empty():
    spec = GridSpec((3,))
    coords = phi_batch(spec, words_array(spec))
    assert coords.shape == (1, 0)


@pytest.mark.parametrize("n1, n2", [(1, 1), (2, 2), (3, 2)])
def test_staircase_counts_and_spg(n1, n2):
    stair = staircase(n1, n2)
    assert stair.num_vertices == math.comb(n1 + n2, n2)
    h = build_spg(grid_base(GridSpec((n1, n2))))
    assert is_isomorphic(h.to_graph(), stair)


def test_staircase_validation():
    with pytest.raises(GraphError):
        staircase(0, 1)


def test_cayley_graphs():
    assert cayley_adjacent_transpositions(1).num_vertices == 1
    c6 = cayley_adjacent_transpositions(3)
    assert c6.num_vertices == 6 and c6.num_edges == 6
    assert is_isomorphic(c6, cycle_graph(6))
    four = cayley_adjacent_transpositions(4)
    assert four.num_vertices == 24 and four.num_edges == 36
    with pytest.raises(GraphError):
        cayley_adjacent_transpositions(10)
    with pytest.raises(GeodesicOverflowError):
        cayley_adjacent_transpositions(6, limit=100)


def test_tournament_validation_and_ranking():
    t = TransitiveTournament(3, (True, True, True))
    assert t.ranking() == (1, 2, 3)
    with pytest.raises(GraphError, match="triangle"):
        TransitiveTournament(3, (True, False, True))
    with pytest.raises(GraphError, match="orientation bits"):
        TransitiveTournament(3, (True,))


def test_tournament_of_recovers_every_word():
    spec = GridSpec((1, 1, 1, 1))
    seen = set()
    for word in _words(spec.dims):
        t = tournament_of(MoveSequence(spec, word))
        assert t.ranking() == word
        seen.add(t.beats)
    assert len(seen) == 24
    with pytest.raises(GraphError):
        tournament_of(MoveSequence(GridSpec((2,)), (1, 1)))
