"""Geodesics between two endpoints: the DAG view, counting, enumeration,
and instance reduction.

An edge (u, v) lies on a shortest source,target-path exactly when
``dist(source, u) + 1 + dist(v, target) == dist(source, target)``. Orienting
every such edge away from the source yields a DAG whose source-to-target
paths are precisely the geodesics. Counting walks over that DAG with exact
integers gives the geodesic count, and the edge count of the shortest path
graph, without materializing any path.

The on-geodesic vertices at one distance from the source form a layer,
and every geodesic passes through each layer once. An edge lies on every
geodesic (is mandatory) exactly when both of its layers hold a single
vertex: any other vertex of either layer lies on a geodesic that avoids
the edge. Reduction deletes all off-geodesic vertices and edges and
contracts the mandatory edges, which merges each maximal run of
consecutive one-vertex layers into its smallest name. When the endpoints
themselves merge the instance had a unique geodesic and the reduction
reports ``collapsed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterator, Mapping

import numpy as np

from .graphs import BaseInstance, Graph, distances

Geodesic = tuple[str, ...]

DEFAULT_GEODESIC_LIMIT = 10**6


class NoGeodesicError(ValueError):
    """The two endpoints are not connected."""


class GeodesicOverflowError(RuntimeError):
    """More geodesics than the caller's limit; carries the exact count."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} geodesics exceed the limit of {limit}")
        self.count = count
        self.limit = limit


@dataclass(frozen=True)
class GeodesicDag:
    """All geodesic structure of one instance, edges oriented to the target."""

    instance: BaseInstance
    d: int
    dist_from_source: Mapping[str, int | float]
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @cached_property
    def successors(self) -> dict[str, tuple[str, ...]]:
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            succ[u].append(v)
        return {v: tuple(sorted(ws)) for v, ws in succ.items()}

    @cached_property
    def names(self) -> tuple[str, ...]:
        """On-geodesic vertices in sorted order; a vertex's id is its rank.

        Ids follow name order, so integer rows of ids sort exactly as the
        name sequences they stand for.
        """
        return tuple(sorted(self.vertices))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Successor lists over vertex ids: vertex v's successors are
        ``indices[indptr[v]:indptr[v + 1]]``, in increasing id order."""
        rank = {v: k for k, v in enumerate(self.names)}
        succ = self.successors
        indptr = np.zeros(len(self.names) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(succ[v]) for v in self.names])
        indices = np.fromiter(
            (rank[w] for v in self.names for w in succ[v]), np.int32, int(indptr[-1])
        )
        return indptr, indices


def build_dag(inst: BaseInstance) -> GeodesicDag:
    """Two-sided BFS; raises NoGeodesicError when the endpoints are apart."""
    g = inst.graph
    dist_a = distances(g, inst.source)
    dist_b = distances(g, inst.target)
    d = dist_a[inst.target]
    if d == math.inf:
        raise NoGeodesicError(
            f"no path between {inst.source!r} and {inst.target!r}"
        )
    on_geo = frozenset(v for v in g.vertices if dist_a[v] + dist_b[v] == d)
    edges = []
    for u, v in g.edges:
        if dist_a[u] + 1 + dist_b[v] == d:
            edges.append((u, v))
        elif dist_a[v] + 1 + dist_b[u] == d:
            edges.append((v, u))
    return GeodesicDag(
        instance=inst,
        d=int(d),
        dist_from_source=dist_a,
        vertices=on_geo,
        edges=frozenset(edges),
    )


def _as_dag(inst: BaseInstance | GeodesicDag) -> GeodesicDag:
    return inst if isinstance(inst, GeodesicDag) else build_dag(inst)


def paths_to_target(dag: GeodesicDag) -> dict[str, int]:
    """For each on-geodesic vertex, the number of geodesic continuations."""
    order = sorted(dag.vertices, key=lambda v: -dag.dist_from_source[v])
    succ = dag.successors
    ways: dict[str, int] = {dag.instance.target: 1}
    for v in order:
        if v == dag.instance.target:
            continue
        ways[v] = sum(ways[w] for w in succ[v])
    return ways


def count_geodesics(inst: BaseInstance | GeodesicDag) -> int:
    """Exact number of geodesics, without materializing them.

    >>> from .graphs import complete_bipartite_graph
    >>> g = complete_bipartite_graph(2, 3)
    >>> count_geodesics(BaseInstance(g, "a0", "a1"))
    3
    """
    dag = _as_dag(inst)
    return paths_to_target(dag)[dag.instance.source]


def iter_geodesics(inst: BaseInstance | GeodesicDag) -> Iterator[Geodesic]:
    """Yield geodesics in lexicographic vertex-sequence order.

    An explicit stack of successor iterators, one per path vertex, keeps
    long distances clear of the interpreter's recursion limit."""
    dag = _as_dag(inst)
    succ = dag.successors
    target = dag.instance.target
    path = [dag.instance.source]
    pending = [iter(succ[path[0]])]
    while pending:
        w = next(pending[-1], None)
        if w is None:
            pending.pop()
            path.pop()
        elif w == target:
            yield (*path, w)
        else:
            path.append(w)
            pending.append(iter(succ[w]))


def guarded_count(dag: GeodesicDag, limit: int) -> int:
    """The geodesic count, or GeodesicOverflowError when it exceeds ``limit``."""
    count = count_geodesics(dag)
    if count > limit:
        raise GeodesicOverflowError(count, limit)
    return count


def enumerate_geodesics(
    inst: BaseInstance | GeodesicDag, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> list[Geodesic]:
    """All geodesics, lexicographically ordered.

    Raises GeodesicOverflowError (carrying the exact count) rather than
    materializing more than ``limit`` paths.
    """
    dag = _as_dag(inst)
    guarded_count(dag, limit)
    return list(iter_geodesics(dag))


def geodesic_matrix(dag: GeodesicDag) -> np.ndarray:
    """All geodesics as an int32 matrix of vertex ids (see ``names``): one
    row per geodesic, in the order of ``enumerate_geodesics``.

    The DAG is expanded one layer at a time: every partial path is
    replaced by its extensions along the successor lists, keeping only a
    parent pointer and the new vertex per layer; the columns are then read
    back from the last layer. Callers guard the size with ``guarded_count``.

    >>> from .graphs import complete_bipartite_graph
    >>> dag = build_dag(BaseInstance(complete_bipartite_graph(2, 2), "a0", "a1"))
    >>> [[dag.names[v] for v in row] for row in geodesic_matrix(dag).tolist()]
    [['a0', 'b0', 'a1'], ['a0', 'b1', 'a1']]
    """
    indptr, indices = dag.csr
    head = np.array([dag.names.index(dag.instance.source)], dtype=np.int32)
    layers = [(np.zeros(1, dtype=np.int64), head)]
    for _ in range(dag.d):
        start = indptr[head]
        degree = indptr[head + 1] - start
        parent = np.repeat(np.arange(head.size), degree)
        # offset of each child within its parent's successor list
        offset = np.arange(parent.size) - (np.cumsum(degree) - degree)[parent]
        head = indices[start[parent] + offset]
        layers.append((parent, head))
    rows = np.arange(head.size)
    matrix = np.empty((head.size, dag.d + 1), dtype=np.int32)
    for col in range(dag.d, -1, -1):
        parent, vertex = layers[col]
        matrix[:, col] = vertex[rows]
        rows = parent[rows]
    return matrix


def count_spg_edges(dag: GeodesicDag) -> int:
    """Exact number of edges of the shortest path graph, without listing
    any geodesic.

    Two geodesics are adjacent when they differ in one position only. Then
    they share the vertex y before it and the vertex u after it, and pass
    through two of the m(y, u) middle vertices of the two-step paths
    y -> x -> u. With P_a(y) geodesic prefixes from the source to y and
    P_b(u) suffixes from u to the target, the edge count is the sum of

        C(m(y, u), 2) * P_a(y) * P_b(u)

    over the pairs (y, u) joined by a two-step path of the DAG; each edge
    is counted once, at its one differing position. The multiplicities m
    come from the integer ``csr``; the sum is taken in Python integers, so
    it is exact at any geodesic count.

    >>> from .graphs import complete_bipartite_graph
    >>> count_spg_edges(build_dag(BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1")))
    3
    """
    indptr, indices = dag.csr
    n = len(dag.names)
    # every two-step path y -> x -> u, as the pair key y * n + u
    y = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    degree = indptr[indices + 1] - indptr[indices]
    start = np.repeat(indptr[indices], degree)
    offset = np.arange(start.size) - np.repeat(np.cumsum(degree) - degree, degree)
    key = np.repeat(y, degree) * n + indices[start + offset]
    pairs, middles = np.unique(key, return_counts=True)
    shared = middles > 1
    succ = [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(n)]
    order = sorted(range(n), key=lambda v: dag.dist_from_source[dag.names[v]])
    prefixes = [0] * n
    prefixes[dag.names.index(dag.instance.source)] = 1
    for v in order:
        for w in succ[v]:
            prefixes[w] += prefixes[v]
    ways = paths_to_target(dag)
    return sum(
        math.comb(m, 2) * prefixes[ends // n] * ways[dag.names[ends % n]]
        for ends, m in zip(pairs[shared].tolist(), middles[shared].tolist())
    )


def _forced_runs(dag: GeodesicDag) -> Iterator[list[str]]:
    """Maximal runs of consecutive one-vertex layers, each in path order."""
    layers: list[list[str]] = [[] for _ in range(dag.d + 1)]
    for v in dag.vertices:
        layers[dag.dist_from_source[v]].append(v)
    for alone, run in groupby(layers, key=lambda layer: len(layer) == 1):
        if alone:
            yield [v for (v,) in run]


def mandatory_edges(dag: GeodesicDag) -> frozenset[tuple[str, str]]:
    """Directed DAG edges that lie on every geodesic: the edges between
    two consecutive one-vertex layers.

    Two routes a-m1-c and a-m2-c end in the forced tail c-t-b:

    >>> g = Graph(["a", "m1", "m2", "c", "t", "b"], [("a", "m1"), ("a", "m2"),
    ...           ("m1", "c"), ("m2", "c"), ("c", "t"), ("t", "b")])
    >>> sorted(mandatory_edges(build_dag(BaseInstance(g, "a", "b"))))
    [('c', 't'), ('t', 'b')]
    """
    return frozenset(edge for run in _forced_runs(dag) for edge in zip(run, run[1:]))


@dataclass(frozen=True)
class ReducedInstance:
    """Result of reducing an instance.

    ``vertex_map`` sends each original vertex to its surviving class
    representative, or to None when the vertex was off every geodesic.
    When the endpoints merged (``collapsed``), the original instance had a
    unique geodesic and the reduced graph is a single vertex.
    """

    graph: Graph
    source: str
    target: str
    vertex_map: Mapping[str, str | None]
    collapsed: bool

    @property
    def instance(self) -> BaseInstance:
        if self.collapsed:
            raise NoGeodesicError("collapsed reduction has no two-endpoint instance")
        return BaseInstance(self.graph, self.source, self.target)


def reduce_instance(inst: BaseInstance) -> ReducedInstance:
    """Delete off-geodesic material, contract mandatory edges.

    One pass reaches a fixpoint: every surviving edge is on some geodesic
    and no surviving edge is on all of them.
    """
    dag = build_dag(inst)
    image = {v: v for v in dag.vertices}
    for run in _forced_runs(dag):
        image.update(dict.fromkeys(run, min(run)))
    reduced_edges = set()
    for u, v in dag.edges:
        iu, iv = image[u], image[v]
        if iu != iv:
            reduced_edges.add((iu, iv) if iu < iv else (iv, iu))
    graph = Graph(set(image.values()), reduced_edges)
    source = image[inst.source]
    target = image[inst.target]
    return ReducedInstance(
        graph=graph,
        source=source,
        target=target,
        vertex_map={v: image.get(v) for v in inst.graph.vertices},
        collapsed=source == target,
    )
