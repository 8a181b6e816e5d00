"""Grids of paths, their geodesics as multiset words, and the coordinate
embedding of the word graph into an integer lattice.

A geodesic of the grid P_{n_1} x ... x P_{n_m} (Cartesian product of paths,
endpoints at opposite corners) makes n_i unit moves along axis i, so it is
exactly a word over {1..m} with symbol i appearing n_i times. Two geodesics
are adjacent in the shortest path graph exactly when their words differ by
switching two different consecutive symbols.

The embedding sends a word to the vector listing, for every pair i < j and
every k, how many i's follow the k-th j; coordinates are grouped by j, then
by i, then by k. It is injective and both it and its inverse preserve
adjacency, so the word graph is the subgraph of the integer lattice induced
by the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Sequence

import numpy as np

from .geodesics import GeodesicOverflowError, DEFAULT_GEODESIC_LIMIT
from .graphs import BaseInstance, Graph, GraphError, SpgError

Word = tuple[int, ...]


class NotInImageError(SpgError, ValueError):
    """A lattice point that no word maps to."""


@dataclass(frozen=True)
class GridSpec:
    """Axis lengths (n_1, ..., n_m) of a grid of paths, all positive."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims or any(n < 1 for n in self.dims):
            raise GraphError("dims must be a nonempty tuple of positive ints")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def total_moves(self) -> int:
        return sum(self.dims)

    @property
    def embedding_dim(self) -> int:
        return sum((j - 1) * self.dims[j - 1] for j in range(2, self.m + 1))

    def word_count(self) -> int:
        """Number of words: the multinomial coefficient over the dims."""
        return math.factorial(self.total_moves) // reduce(
            lambda acc, n: acc * math.factorial(n), self.dims, 1
        )

    def coordinate_layout(self) -> list[tuple[int, int, int]]:
        """The (i, j, k) meaning of each embedding coordinate, in order."""
        return [
            (i, j, k)
            for j in range(2, self.m + 1)
            for i in range(1, j)
            for k in range(1, self.dims[j - 1] + 1)
        ]


@dataclass(frozen=True)
class MoveSequence:
    """A word over the grid's axes: symbol i in 1..m appears dims[i-1] times."""

    spec: GridSpec
    symbols: Word

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        counts = [0] * self.spec.m
        for s in self.symbols:
            if not 1 <= s <= self.spec.m:
                raise GraphError(f"symbol {s} outside 1..{self.spec.m}")
            counts[s - 1] += 1
        if tuple(counts) != self.spec.dims:
            raise GraphError(
                f"symbol counts {tuple(counts)} do not match dims {self.spec.dims}"
            )

    def __str__(self) -> str:
        if self.spec.m <= 9:
            return "".join(str(s) for s in self.symbols)
        return ",".join(str(s) for s in self.symbols)


def parse_move_sequence(spec: GridSpec, text: str) -> MoveSequence:
    """Inverse of str(): digit string when m <= 9, comma-separated otherwise."""
    text = text.strip()
    try:
        symbols = tuple(int(part) for part in (text.split(",") if "," in text else text))
    except ValueError as exc:
        raise GraphError(f"bad move sequence {text!r}: symbols must be integers") from exc
    return MoveSequence(spec, symbols)


@dataclass(frozen=True)
class LatticePoint:
    """An integer vector in the embedding space of one grid spec.

    Construction checks the necessary image conditions with
    ``image_violation`` and raises GraphError with its witness.
    Membership in the image is only decided by ``phi_inverse``.
    """

    spec: GridSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if len(self.coords) != self.spec.embedding_dim:
            raise GraphError(
                f"expected {self.spec.embedding_dim} coordinates, got {len(self.coords)}"
            )
        # clamped into int64: the conditions read nothing outside -1..n + 1
        top = max(self.spec.dims) + 1
        col = np.array([min(max(c, -1), top) for c in self.coords], dtype=np.int64)
        witness = image_violation(self.spec, col.reshape(-1, 1))
        if witness is not None:
            raise GraphError(witness)


def image_violation(spec: GridSpec, cols: Sequence[np.ndarray]) -> str | None:
    """The first coordinate, in layout order, where a point breaks a
    necessary image condition, or None when every point meets them.

    ``cols`` holds one row per coordinate and one column per point: a list
    of equal-length arrays or a 2-D array, read one row at a time. The
    conditions are the bounds 0 <= a_ijk <= n_i and, for fixed i and j,
    weakly decreasing in k; a coordinate that breaks both is reported as
    out of bounds.
    """
    prev = None
    for col, (i, j, k) in zip(cols, spec.coordinate_layout()):
        if col.min() < 0 or col.max() > spec.dims[i - 1]:
            return f"coordinate ({i},{j},{k}) leaves 0..{spec.dims[i - 1]}"
        if k > 1 and bool((col > prev).any()):
            return f"coordinate ({i},{j},{k}) exceeds ({i},{j},{k - 1})"
        prev = col
    return None


# -- the grid instance ------------------------------------------------------


def coord_name(coords: Sequence[int | str]) -> str:
    """``(c_1,...,c_k)``; ``grid_base`` passes its coordinates as padded digit strings."""
    return "(" + ",".join(str(c) for c in coords) + ")"


def place_values(radixes: Sequence[int]) -> np.ndarray:
    """Mixed-radix place values as int64, last position fastest.

    A row with digit c in 0..radixes[c]-1 packs into ``row @ place``, and
    distinct rows pack to distinct values in lexicographic row order.
    Raises GraphError when the packed range does not fit int64.
    """
    if math.prod(radixes) >= 2**63:
        raise GraphError("mixed-radix range too wide to pack into one int64")
    place = np.ones(len(radixes), dtype=np.int64)
    for c in range(len(radixes) - 2, -1, -1):
        place[c] = place[c + 1] * radixes[c + 1]
    return place


def grid_base(spec: GridSpec) -> BaseInstance:
    """The grid of paths as an instance: origin corner to opposite corner.

    Each coordinate is zero-padded to the digit width of its own axis, so
    names sort in mixed-radix order (n_i + 1, last axis fastest): a
    vertex's rank among the sorted names is its id, and a step along an
    axis adds that axis's place value to it. With every axis at most 9 the
    names are plain, as in ``(1,0,2)``.
    """
    digits = [[str(c).zfill(len(str(n))) for c in range(n + 1)] for n in spec.dims]
    names = [coord_name(c) for c in product(*digits)]
    shape = [n + 1 for n in spec.dims]
    # every vertex but those on an axis's far face steps up by the axis's
    # place. With the last axis (the smallest place) first, the (vertex,
    # axis) pairs come out sorted by (lo, hi)
    coords = np.indices(shape).reshape(spec.m, -1)
    below = (coords < np.array(spec.dims)[:, None])[::-1]
    lo, axis = np.nonzero(below.T)
    hi = lo + place_values(shape)[::-1][axis]
    return BaseInstance(Graph._from_ids(tuple(names), lo, hi), names[0], names[-1])


# -- word enumeration ------------------------------------------------------


def enumerate_sequences(
    spec: GridSpec, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> list[MoveSequence]:
    """All move sequences in lexicographic order, guarded by ``limit``."""
    count = spec.word_count()
    if count > limit:
        raise GeodesicOverflowError(count, limit)
    return [MoveSequence(spec, w) for w in words_array(spec).tolist()]


# -- the lattice embedding ---------------------------------------------------


def phi(ms: MoveSequence) -> LatticePoint:
    """Embed a word: coordinate (i, j, k) counts the i's after the k-th j.

    >>> spec = GridSpec((3, 3, 2))
    >>> phi(parse_move_sequence(spec, "32121231")).coords
    (3, 2, 1, 3, 1, 3, 0)
    """
    row = phi_batch(ms.spec, np.array([ms.symbols]))[0]
    return LatticePoint(ms.spec, tuple(row.tolist()))


def phi_inverse(point: LatticePoint) -> MoveSequence:
    """Rebuild the word from its embedding, symbol by symbol.

    Symbols 1..j-1 determine, for each slot, how many of each smaller
    symbol lie to the right; the k-th j must land in the unique slot whose
    suffix counts match its coordinates. A missing slot, or slots out of
    order, mean the point is outside the image.
    """
    spec = point.spec
    layout = point.spec.coordinate_layout()
    by_ij: dict[tuple[int, int], list[int]] = {}
    for value, (i, j, k) in zip(point.coords, layout):
        by_ij.setdefault((i, j), []).append(value)
    word: list[int] = [1] * spec.dims[0]
    for j in range(2, spec.m + 1):
        suffix_of_slot: dict[tuple[int, ...], int] = {}
        running = [0] * j
        suffix_of_slot[tuple(running[1:])] = len(word)
        for t in range(len(word) - 1, -1, -1):
            running[word[t]] += 1
            suffix_of_slot[tuple(running[1:])] = t
        slots = []
        for k in range(spec.dims[j - 1]):
            wanted = tuple(by_ij[(i, j)][k] for i in range(1, j))
            slot = suffix_of_slot.get(wanted)
            if slot is None:
                raise NotInImageError(
                    f"no slot with suffix counts {wanted} for the {k + 1}-th {j}"
                )
            slots.append(slot)
        if any(s2 < s1 for s1, s2 in zip(slots, slots[1:])):
            raise NotInImageError(f"occurrences of {j} would be out of order")
        for offset, slot in enumerate(slots):
            word.insert(slot + offset, j)
    return MoveSequence(spec, tuple(word))


# -- batch embedding --------------------------------------------------------


def words_array(spec: GridSpec) -> np.ndarray:
    """All words as a (count, total_moves) uint8 array, lexicographic rows.

    Built one column at a time: each prefix is extended by every symbol it
    has left, smallest first, and keeps a parent pointer; the rows are then
    read back from the last column. The symbols each prefix has left are
    counted in the smallest unsigned type that holds the longest axis, and
    each column keeps its parent pointers as int32 and its symbols as
    uint8 (a layer holds at most the word count, which every caller
    bounds by the geodesic limit, far below 2**31).
    """
    remaining = np.array([spec.dims], dtype=np.min_scalar_type(max(spec.dims)))
    layers = []
    for _ in range(spec.total_moves):
        parent, axis = np.divmod(np.flatnonzero(remaining), spec.m)
        remaining = remaining[parent]
        # flat indices into the C-order copy: one fancy index, not two
        remaining.reshape(-1)[np.arange(0, parent.size * spec.m, spec.m) + axis] -= 1
        layers.append((parent.astype(np.int32), (axis + 1).astype(np.uint8)))
    rows = np.arange(remaining.shape[0])
    arr = np.empty((rows.size, spec.total_moves), dtype=np.uint8)
    for col in range(spec.total_moves - 1, -1, -1):
        parent, symbol = layers[col]
        arr[:, col] = symbol[rows]
        # intp rows spare numpy a conversion at every gather
        rows = parent[rows].astype(np.intp)
    return arr


def phi_batch(spec: GridSpec, words: np.ndarray) -> np.ndarray:
    """Row-wise ``phi`` over a word array: one row of coordinates per word,
    in the smallest unsigned type that holds the longest axis (uint8 up to
    255 moves, uint16 up to 65,535).

    The result is the transpose of a C-order (coordinate, word) array, so
    each coordinate column is contiguous: it stacks the rows of
    ``_phi_rows``. A row without the symbol counts of a word raises
    GraphError naming it.
    """
    rows = _phi_rows(spec, words)
    if not rows:
        return np.empty((words.shape[0], 0), dtype=np.min_scalar_type(max(spec.dims)))
    return np.stack(rows).T


def _phi_rows(spec: GridSpec, words: np.ndarray) -> list[np.ndarray]:
    """``phi`` of every word as one array per coordinate, in layout order,
    each in the smallest unsigned type that holds the longest axis.

    Coordinate (i, j, k) counts the i positions after the position of the
    k-th j, one whole-column comparison per pair of an i occurrence and a
    j occurrence. Positions are held within the word, in the smallest
    unsigned type that holds them. A row without the symbol counts of a
    word raises GraphError naming it.
    """
    count, n = words.shape
    if n != spec.total_moves:
        raise GraphError(f"word array has {n} columns, expected {spec.total_moves}")
    # split the flat indices of the hits of s into blocks of d = dims[s - 1],
    # in order: every word holds exactly d copies of s when there are
    # count * d hits and the first and last hit of block q lie in word q.
    # Row r of pos[s - 1] then holds the position of the (r + 1)-th s
    # within every word
    start = np.arange(count) * n
    in_word = np.min_scalar_type(n - 1)
    pos = []
    for s, d in enumerate(spec.dims, start=1):
        hits = np.flatnonzero(words == s)
        if hits.size != count * d or not (
            (hits[::d] >= start) & (hits[d - 1 :: d] < start + n)
        ).all():
            counts = np.stack(
                [np.count_nonzero(words == t, axis=1) for t in range(1, spec.m + 1)], axis=1
            )
            q = int(np.argmax((counts != spec.dims).any(axis=1)))
            raise GraphError(f"word {q} does not have symbol counts {spec.dims}")
        rows = hits.reshape(count, d)
        rows -= start[:, None]
        pos.append(rows.T.astype(in_word, order="C"))
    dtype = np.min_scalar_type(max(spec.dims))
    after = np.empty(count, dtype=bool)
    out = []
    for j in range(2, spec.m + 1):
        for i in range(1, j):
            for at_j in pos[j - 1]:
                row = np.zeros(count, dtype=dtype)
                for at_i in pos[i - 1]:
                    np.greater(at_i, at_j, out=after)
                    row += after
                out.append(row)
    return out


# -- staircases, permutations, tournaments -----------------------------------


def staircase(n1: int, n2: int) -> Graph:
    """Lattice graph on weakly decreasing vectors n1 >= a_1 >= ... >= a_n2 >= 0,
    adjacent when they differ by one in one coordinate."""
    if n1 < 1 or n2 < 1:
        raise GraphError("staircase needs positive side lengths")
    vectors = [
        tuple(sorted(vec, reverse=True))
        for vec in combinations_with_replacement(range(n1 + 1), n2)
    ]
    names = {vec: coord_name(vec) for vec in vectors}
    edges = []
    for vec in vectors:
        for t in range(n2):
            bumped = list(vec)
            bumped[t] += 1
            key = tuple(bumped)
            if key in names and key != vec:
                edges.append((names[vec], names[key]))
    return Graph(names.values(), set(edges))


def cayley_adjacent_transpositions(m: int, *, limit: int = DEFAULT_GEODESIC_LIMIT) -> Graph:
    """Permutations of 1..m, adjacent when one adjacent swap apart."""
    if m < 1:
        raise GraphError("m must be positive")
    if m > 9:
        raise GraphError("permutation vertices are digit strings; m is capped at 9")
    if math.factorial(m) > limit:
        raise GeodesicOverflowError(math.factorial(m), limit)
    verts = ["".join(map(str, p)) for p in permutations(range(1, m + 1))]
    edges = []
    for name in verts:
        for t in range(m - 1):
            swapped = name[:t] + name[t + 1] + name[t] + name[t + 2 :]
            if name < swapped:
                edges.append((name, swapped))
    return Graph(verts, edges)


@dataclass(frozen=True)
class TransitiveTournament:
    """An orientation of all pairs 1..m with no directed triangle.

    ``beats[(i, j)]`` for i < j is True when i points at j.
    """

    m: int
    beats: tuple[bool, ...]

    def __post_init__(self) -> None:
        pairs = list(combinations(range(1, self.m + 1), 2))
        if len(self.beats) != len(pairs):
            raise GraphError(f"need {len(pairs)} orientation bits")
        wins = {pair: flag for pair, flag in zip(pairs, self.beats)}

        def points_at(i: int, j: int) -> bool:
            return wins[(i, j)] if i < j else not wins[(j, i)]

        for i, j, l in combinations(range(1, self.m + 1), 3):
            if points_at(i, j) and points_at(j, l) and points_at(l, i):
                raise GraphError(f"directed triangle on ({i}, {j}, {l})")

    def ranking(self) -> tuple[int, ...]:
        """Elements ordered so that earlier ones point at all later ones."""
        pairs = list(combinations(range(1, self.m + 1), 2))
        score = {i: 0 for i in range(1, self.m + 1)}
        for (i, j), flag in zip(pairs, self.beats):
            score[i if flag else j] += 1
        return tuple(sorted(score, key=lambda i: -score[i]))


def tournament_of(ms: MoveSequence) -> TransitiveTournament:
    """For all-ones dims: orient each pair toward the earlier symbol."""
    if any(n != 1 for n in ms.spec.dims):
        raise GraphError("tournaments need every symbol to appear exactly once")
    position = {s: t for t, s in enumerate(ms.symbols)}
    bits = tuple(
        position[i] < position[j]
        for i, j in combinations(range(1, ms.spec.m + 1), 2)
    )
    return TransitiveTournament(ms.spec.m, bits)
