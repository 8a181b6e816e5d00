"""Brute-force reference implementations used to pin expected test values.

Everything here trades efficiency for obviousness: exhaustive DFS over
simple paths, subset scans for induced subgraphs, permutation scans for
isomorphism.  None of it shares algorithms or intermediate structures
with the package under test, so agreement between the two is meaningful
evidence rather than a tautology.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

from spgraphs import Graph


def brute_geodesics(graph: Graph, source: str, target: str) -> list[tuple[str, ...]]:
    """Every shortest source,target-path, found by exhaustive DFS.

    Walks all simple paths out of ``source``, keeping the shortest ones
    that reach ``target``.  Returns them sorted, which for tuples of
    vertex names is lexicographic order.
    """
    adjacency = {v: sorted(graph.neighbors(v)) for v in graph.vertices}
    found: list[tuple[str, ...]] = []
    best: list[int | None] = [None]

    def extend(path: list[str], seen: set[str]) -> None:
        head = path[-1]
        if head == target:
            length = len(path) - 1
            if best[0] is None or length < best[0]:
                best[0] = length
                found.clear()
            if length == best[0]:
                found.append(tuple(path))
            return
        if best[0] is not None and len(path) - 1 >= best[0]:
            return
        for nxt in adjacency[head]:
            if nxt not in seen:
                seen.add(nxt)
                path.append(nxt)
                extend(path, seen)
                path.pop()
                seen.remove(nxt)

    extend([source], {source})
    return sorted(found)


def brute_spg_edges(
    geodesics: list[tuple[str, ...]],
) -> dict[tuple[int, int], int]:
    """Pairwise scan for one-position differences between geodesics.

    Quadratic in the number of geodesics; used as the adjacency oracle
    for the shortest-path graph.
    """
    edges: dict[tuple[int, int], int] = {}
    for i, j in combinations(range(len(geodesics)), 2):
        diffs = [
            pos
            for pos in range(len(geodesics[i]))
            if geodesics[i][pos] != geodesics[j][pos]
        ]
        if len(diffs) == 1:
            edges[(i, j)] = diffs[0]
    return edges


def brute_reduction(
    graph: Graph, source: str, target: str
) -> tuple[Graph, str, str, dict[str, str | None]]:
    """The reduced graph, its two endpoints and the vertex map, read off
    the geodesic list.

    Keeps the vertices and edges of some geodesic, merges the two ends of
    every edge that lies on all of them, and names each merged class by its
    smallest vertex; an off-geodesic vertex maps to None.
    """
    geodesics = brute_geodesics(graph, source, target)
    steps = [{frozenset(e) for e in zip(geo, geo[1:])} for geo in geodesics]
    classes = {v: {v} for geo in geodesics for v in geo}
    for u, v in set.intersection(*steps):
        merged = classes[u] | classes[v]
        for x in merged:
            classes[x] = merged
    image = {v: min(cls) for v, cls in classes.items()}
    edges = set()
    for u, v in set.union(*steps):
        if image[u] != image[v]:
            edges.add(tuple(sorted((image[u], image[v]))))
    reduced = Graph(set(image.values()), edges)
    return reduced, image[source], image[target], {v: image.get(v) for v in graph.vertices}


def induced_cycle_sets(graph: Graph, length: int) -> set[frozenset[str]]:
    """Vertex sets of size ``length`` that induce exactly a cycle."""
    result: set[frozenset[str]] = set()
    verts = graph.vertices
    for subset in combinations(verts, length):
        degree = {v: 0 for v in subset}
        count = 0
        members = set(subset)
        for u, w in combinations(subset, 2):
            if graph.has_edge(u, w):
                degree[u] += 1
                degree[w] += 1
                count += 1
        if count != length or any(degree[v] != 2 for v in subset):
            continue
        # Connected 2-regular graph on `length` vertices is a cycle.
        stack = [subset[0]]
        reached = {subset[0]}
        while stack:
            v = stack.pop()
            for w in graph.neighbors(v):
                if w in members and w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) == length:
            result.add(frozenset(subset))
    return result


def induced_path3_triples(graph: Graph) -> set[tuple[str, str, str]]:
    """Induced three-vertex paths as (end, middle, end) with sorted ends."""
    result: set[tuple[str, str, str]] = set()
    for subset in combinations(graph.vertices, 3):
        present = [
            (u, w) for u, w in combinations(subset, 2) if graph.has_edge(u, w)
        ]
        if len(present) != 2:
            continue
        counts = {v: 0 for v in subset}
        for u, w in present:
            counts[u] += 1
            counts[w] += 1
        middle = max(counts, key=lambda v: counts[v])
        ends = sorted(v for v in subset if v != middle)
        result.add((ends[0], middle, ends[1]))
    return result


def induced_claw_quads(graph: Graph) -> set[tuple[str, tuple[str, str, str]]]:
    """Induced claws as (center, sorted leaves)."""
    result: set[tuple[str, tuple[str, str, str]]] = set()
    for subset in combinations(graph.vertices, 4):
        present = [
            (u, w) for u, w in combinations(subset, 2) if graph.has_edge(u, w)
        ]
        if len(present) != 3:
            continue
        counts = {v: 0 for v in subset}
        for u, w in present:
            counts[u] += 1
            counts[w] += 1
        centers = [v for v in subset if counts[v] == 3]
        if len(centers) != 1:
            continue
        leaves = tuple(sorted(v for v in subset if v != centers[0]))
        result.add((centers[0], leaves))
    return result


def brute_girth(graph: Graph) -> float:
    """Shortest cycle length via subset scan.

    A shortest cycle has no chord (a chord would close a shorter one),
    so its vertex set induces exactly a cycle and scanning induced
    cycles by increasing size finds the girth.
    """
    for length in range(3, len(graph.vertices) + 1):
        if induced_cycle_sets(graph, length):
            return float(length)
    return math.inf


def brute_isomorphic(first: Graph, second: Graph) -> bool:
    """Permutation scan; only sensible for graphs up to ~8 vertices."""
    if len(first.vertices) != len(second.vertices):
        return False
    if first.num_edges != second.num_edges:
        return False
    targets = second.vertices
    for perm in permutations(targets):
        mapping = dict(zip(first.vertices, perm))
        if all(
            second.has_edge(mapping[u], mapping[w])
            for u, w in first.edges
        ):
            return True
    return False


def brute_automorphism_count(graph: Graph) -> int:
    """Number of vertex permutations that map the edge set onto itself."""
    edges = {frozenset(e) for e in graph.edges}
    count = 0
    for perm in permutations(graph.vertices):
        mapping = dict(zip(graph.vertices, perm))
        if all(frozenset((mapping[u], mapping[w])) in edges for u, w in graph.edges):
            count += 1
    return count


def multinomial(dims: tuple[int, ...]) -> int:
    """Number of arrangements of a multiset with the given multiplicities."""
    total = math.factorial(sum(dims))
    for n in dims:
        total //= math.factorial(n)
    return total


def brute_phi(dims: tuple[int, ...], symbols: tuple[int, ...]) -> tuple[int, ...]:
    """Direct double-loop evaluation of the lattice embedding.

    For each symbol pair i < j and each occurrence k of j, count the
    occurrences of i that appear strictly after it.  Coordinates are
    ordered by j ascending, then i, then k, matching the library layout.
    """
    coords: list[int] = []
    m = len(dims)
    for j in range(2, m + 1):
        for i in range(1, j):
            positions_j = [p for p, s in enumerate(symbols) if s == j]
            for p in positions_j:
                coords.append(sum(1 for q in range(p + 1, len(symbols)) if symbols[q] == i))
    return tuple(coords)
