"""Geodesics between two endpoints: the DAG view, counting, enumeration,
and instance reduction.

An edge (u, v) lies on a shortest source,target-path exactly when
``dist(source, u) + 1 + dist(v, target) == dist(source, target)``. Orienting
every such edge away from the source yields a DAG whose source-to-target
paths are precisely the geodesics. Counting walks over that DAG with exact
integers gives the geodesic count, and the edge count of the shortest path
graph, without materializing any path.

The DAG is one class, ``GeodesicDag``, built on one of two paths chosen
by the graph's edge count against ``graphs.ID_CUTOFF`` (see
``build_dag``). Small graphs take the dict path: BFS distance dicts over
names, one test per name edge, and the count summed over names. Large ones
take the id path: BFS over int neighbour lists, one array test of every
edge id pair, and the successor lists read off directly; the count then
runs layer by layer over ids. Each path stores the fields it computed and
the DAG derives every other field on first read, so both give the same
DAG and count, and the reduction runs on the DAG's ids whichever path
built it.

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
from operator import itemgetter
from typing import Iterator, Mapping

import numpy as np

from .graphs import ID_CUTOFF, BaseInstance, Graph, SpgError, _name_pairs, distances

Geodesic = tuple[str, ...]

# int neighbour lists in the ``csr`` layout: (indptr, indices)
_Lists = tuple[list[int], list[int]]

DEFAULT_GEODESIC_LIMIT = 10**6


class NoGeodesicError(SpgError, ValueError):
    """The two endpoints are not connected."""


class GeodesicOverflowError(SpgError, RuntimeError):
    """More geodesics than the caller's limit; carries the exact count."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} geodesics exceed the limit of {limit}")
        self.count = count
        self.limit = limit


class GeodesicDag:
    """All geodesic structure of one instance, edges oriented to the target.

    A builder stores the fields it computed, and every other field is
    derived from them on first read and kept: ``_build_dag_names`` stores
    ``dist_from_source``, ``vertices``, ``edges`` and ``count``, and
    ``_build_dag_ids`` stores ``names``, ``csr``, ``levels`` and ``_dist``
    (the source distance of every graph vertex id, with the vertex count
    for an unreached vertex). The DAG is immutable to callers.
    """

    instance: BaseInstance
    d: int

    def __init__(self, instance: BaseInstance, d: int, stored: dict[str, object]):
        """``stored``, the builder's fields by name, becomes the attribute dict."""
        stored.update(instance=instance, d=d)
        object.__setattr__(self, "__dict__", stored)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set {name!r}: a GeodesicDag is immutable")

    __delattr__ = __setattr__

    @cached_property
    def dist_from_source(self) -> dict[str, int | float]:
        unreached = len(self._dist)
        return {
            v: math.inf if x == unreached else x
            for v, x in zip(self.instance.graph.vertices, self._dist)
        }

    @cached_property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.names)

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        indptr, indices = self.csr
        tail = np.repeat(np.arange(len(self.names)), np.diff(indptr))
        return frozenset(_name_pairs(self.names, tail, indices))

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

    @cached_property
    def levels(self) -> np.ndarray:
        """Distance from the source of each vertex id, as int64."""
        dist = self.dist_from_source
        return np.array([dist[v] for v in self.names], dtype=np.int64)

    @cached_property
    def count(self) -> int:
        """The number of geodesics, exact at any size."""
        return self._prefix_counts[self.names.index(self.instance.target)]

    @cached_property
    def _layer_order(self) -> tuple[list[int], _Lists]:
        """Vertex ids layer by layer from the source, and the successor lists as int lists."""
        indptr, indices = self.csr
        order, succ = _id_lists(len(self.names), np.argsort(self.levels, kind="stable"), indices)
        return order, (indptr.tolist(), succ)

    @cached_property
    def _predecessors(self) -> _Lists:
        """The predecessor lists of the ``csr`` as int lists; only the edge
        count reads them (``_suffix_counts``), a plain count does not."""
        indptr, indices = self.csr
        k = len(self.names)
        tail = np.repeat(np.arange(k), np.diff(indptr))
        (pred,) = _id_lists(k, tail[np.argsort(indices, kind="stable")])
        return [0, *np.cumsum(np.bincount(indices, minlength=k)).tolist()], pred

    @cached_property
    def _prefix_counts(self) -> list[int]:
        """Number of geodesic prefixes from the source to each vertex id.
        Read only."""
        order, succ = self._layer_order
        return _path_counts(order, *succ, self.names.index(self.instance.source))


def _path_counts(order: list[int], indptr: list[int], indices: list[int], start: int) -> list[int]:
    """Number of paths from ``start`` to each vertex id along the lists
    ``(indptr, indices)``, visiting the ids in ``order``, where every id
    comes after each id whose list holds it. The counts are pushed along
    the lists in Python ints (the path counting of Brandes, 2001), so
    exact at any count."""
    ways = [0] * len(order)
    ways[start] = 1
    for v in order:
        here = ways[v]
        for w in indices[indptr[v]:indptr[v + 1]]:
            ways[w] += here
    return ways


def build_dag(inst: BaseInstance) -> GeodesicDag:
    """Two-sided BFS; raises NoGeodesicError when the endpoints are apart.

    Graphs with ``ID_CUTOFF`` edges or more take the id path
    (``_build_dag_ids``), smaller ones the dict path (``_build_dag_names``);
    both give the same DAG. The id path pays a few numpy calls and makes
    int lists from the edge arrays, so it wins only on enough edges; the
    cutoff sits where the two meet. It is also where ``Graph`` switches
    from storing name pairs to storing id arrays, so the id path always
    reads a stored form; the name-pair loop stays a little ahead of the
    array check up to a few hundred edges. Best of 15 timings on a 2-vCPU
    Xeon VM (Python 3.11.7, numpy 2.4.6), in ms: ``build_dag`` plus
    ``count_geodesics`` on each path, and ``Graph(vertices, edges)`` with
    each check:

    ==============  =====  =====  =====  =====  ======
    instance        edges  names  ids    loop   arrays
    ==============  =====  =====  =====  =====  ======
    K_{2,3}             6  0.02   0.05   0.00   0.03
    Q4                 32  0.04   0.06   0.01   0.03
    grid (4, 4)        40  0.06   0.07   0.01   0.03
    path 48            48  0.10   0.09   0.02   0.03
    grid (2, 2, 2)     54  0.07   0.07   0.02   0.03
    grid (5, 5)        60  0.08   0.08   0.02   0.04
    K_{2,32}           64  0.08   0.08   0.02   0.04
    Q6                192  0.19   0.13   0.06   0.07
    path 256          256  0.55   0.31   0.09   0.10
    Q8               1024  1.06   0.46   0.31   0.28
    grid 1^9         2304  2.80   0.95   0.76   0.61
    path 1500        1500  3.96   1.67   0.61   0.93
    ==============  =====  =====  =====  =====  ======
    """
    if inst.graph.num_edges >= ID_CUTOFF:
        return _build_dag_ids(inst)
    return _build_dag_names(inst)


def _build_dag_names(inst: BaseInstance) -> GeodesicDag:
    """The DAG from BFS distance dicts over the vertex names, with its
    count summed over the name successors (``paths_to_target``)."""
    g = inst.graph
    dist_a = distances(g, inst.source)
    dist_b = distances(g, inst.target)
    d = dist_a[inst.target]
    if d == math.inf:
        raise NoGeodesicError(f"no path between {inst.source!r} and {inst.target!r}")
    on = frozenset(v for v in g.vertices if dist_a[v] + dist_b[v] == d)
    edges = []
    for u, v in g.edges:
        if dist_a[u] + 1 + dist_b[v] == d:
            edges.append((u, v))
        elif dist_a[v] + 1 + dist_b[u] == d:
            edges.append((v, u))
    stored = dict(dist_from_source=dist_a, vertices=on, edges=frozenset(edges))
    dag = GeodesicDag(inst, int(d), stored)
    vars(dag)["count"] = paths_to_target(dag)[inst.source]
    return dag


def _id_lists(n: int, *arrays: np.ndarray) -> list[list[int]]:
    """Arrays of ids below ``n`` as lists of Python ints, all drawn from one
    pool of n int objects: a long list makes no int objects of its own, so
    freeing it leaves no allocator pools half used."""
    pool = np.arange(n).astype(object)
    return [pool[a].tolist() for a in arrays]


def _bfs_ids(indptr: list[int], indices: list[int], start: int) -> list[int]:
    """BFS distances over neighbour lists of ids; ``len(indptr) - 1`` (the
    vertex count) marks an unreached vertex."""
    unreached = len(indptr) - 1
    dist = [unreached] * unreached
    dist[start] = 0
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for u in frontier:
            for w in indices[indptr[u]:indptr[u + 1]]:
                if dist[w] == unreached:
                    dist[w] = depth
                    reached.append(w)
        frontier = reached
    return dist


def _build_dag_ids(inst: BaseInstance) -> GeodesicDag:
    """The DAG from the graph's edge id arrays: BFS over int neighbour
    lists in plain Python (numpy calls per BFS level would cost a round of
    calls for each of the 1,500 levels of a 1,500-edge path), then every
    edge tested against the distances at once, and the successor lists
    read off a sort of the DAG edges."""
    g = inst.graph
    n = g.num_vertices
    lo, hi = g.edge_ids
    ends = np.concatenate((lo, hi))
    (indices,) = _id_lists(n, np.concatenate((hi, lo))[np.argsort(ends, kind="stable")])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n)))).tolist()
    source, target = g.index[inst.source], g.index[inst.target]
    dist = _bfs_ids(indptr, indices, source)
    d = dist[target]
    if d == n:
        raise NoGeodesicError(f"no path between {inst.source!r} and {inst.target!r}")
    dist_a = np.array(dist, dtype=np.int64)
    dist_b = np.array(_bfs_ids(indptr, indices, target), dtype=np.int64)
    on = np.flatnonzero(dist_a + dist_b == d)
    forward = dist_a[lo] + 1 + dist_b[hi] == d
    backward = dist_a[hi] + 1 + dist_b[lo] == d
    # DAG ids are ranks among the on-geodesic ids, so still in name order
    rank = np.zeros(n, dtype=np.int64)
    rank[on] = np.arange(on.size)
    tail = rank[np.concatenate((lo[forward], hi[backward]))]
    head = rank[np.concatenate((hi[forward], lo[backward]))]
    order = np.argsort(tail * on.size + head)
    succ_ptr = np.zeros(on.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=on.size), out=succ_ptr[1:])
    return GeodesicDag(inst, d, dict(
        names=tuple(np.array(g.vertices, dtype=object)[on]),
        csr=(succ_ptr, head[order].astype(np.int32)),
        levels=dist_a[on],
        _dist=dist,
    ))


def _as_dag(inst: BaseInstance | GeodesicDag) -> GeodesicDag:
    return inst if isinstance(inst, GeodesicDag) else build_dag(inst)


def paths_to_target(dag: GeodesicDag) -> dict[str, int]:
    """For each on-geodesic vertex, the number of geodesic continuations."""
    target = dag.instance.target
    succ = dag.successors
    ways: dict[str, int] = {target: 1}
    for v in sorted(dag.vertices - {target}, key=dag.dist_from_source.__getitem__, reverse=True):
        ways[v] = sum(map(ways.__getitem__, succ[v]))
    return ways


def count_geodesics(inst: BaseInstance | GeodesicDag) -> int:
    """Exact number of geodesics, without materializing them.

    >>> from .graphs import complete_bipartite_graph
    >>> g = complete_bipartite_graph(2, 3)
    >>> count_geodesics(BaseInstance(g, "a0", "a1"))
    3
    """
    return _as_dag(inst).count


def _suffix_counts(dag: GeodesicDag) -> list[int]:
    """Number of geodesic suffixes from each vertex id to the target."""
    order, _ = dag._layer_order
    return _path_counts(order[::-1], *dag._predecessors, dag.names.index(dag.instance.target))


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
    row per geodesic, in the order of ``enumerate_geodesics``. It stacks
    the columns of ``_geodesic_columns``; callers guard the size with
    ``guarded_count``.

    >>> from .graphs import complete_bipartite_graph
    >>> dag = build_dag(BaseInstance(complete_bipartite_graph(2, 2), "a0", "a1"))
    >>> [[dag.names[v] for v in row] for row in geodesic_matrix(dag).tolist()]
    [['a0', 'b0', 'a1'], ['a0', 'b1', 'a1']]
    """
    return np.stack(_geodesic_columns(dag), axis=1)


def _geodesic_columns(dag: GeodesicDag) -> list[np.ndarray]:
    """All geodesics as one int32 array of vertex ids per path position,
    rows in the order of ``enumerate_geodesics``.

    The DAG is expanded one layer at a time, keeping only an int32 parent
    pointer and the new vertex per partial path; ``_extend``'s int64
    temporaries go when it returns, before the columns are read back from
    the last layer. Each layer is dropped once read.
    """
    source = np.array([dag.names.index(dag.instance.source)], dtype=np.int32)
    layers = [(np.zeros(1, dtype=np.int32), source)]
    for _ in range(dag.d):
        layers.append(_extend(*dag.csr, layers[-1][1]))
    rows = np.arange(layers[-1][1].size)
    columns = []
    while layers:
        parent, vertex = layers.pop()
        columns.append(vertex[rows])
        # intp rows spare numpy a conversion at every gather
        rows = parent[rows].astype(np.intp)
    return columns[::-1]


def _extend(
    indptr: np.ndarray, indices: np.ndarray, head: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every extension of the partial paths ending at ``head`` along the
    successor lists, smallest successor first: an int32 parent pointer and
    the new last vertex of each."""
    start = indptr[head]
    degree = indptr[head + 1] - start
    parent = np.repeat(np.arange(head.size), degree)
    # offset of each child within its parent's successor list
    offset = np.arange(parent.size) - (np.cumsum(degree) - degree)[parent]
    return parent.astype(np.int32), indices[start[parent] + offset]


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
    prefixes, suffixes = dag._prefix_counts, _suffix_counts(dag)
    return sum(
        math.comb(m, 2) * prefixes[ends // n] * suffixes[ends % n]
        for ends, m in zip(pairs[shared].tolist(), middles[shared].tolist())
    )


def _one_vertex_runs(dag: GeodesicDag) -> list[list[int]]:
    """Maximal runs of consecutive one-vertex layers, as vertex ids in
    path order, found from a count of the levels."""
    levels = dag.levels
    alone = (np.bincount(levels, minlength=dag.d + 1) == 1).tolist()
    at_level = np.zeros(dag.d + 1, dtype=np.int64)
    at_level[levels] = np.arange(levels.size)
    layers = groupby(zip(alone, at_level.tolist()), key=itemgetter(0))
    return [[v for _, v in run] for is_alone, run in layers if is_alone]


def mandatory_edges(dag: GeodesicDag) -> frozenset[tuple[str, str]]:
    """Directed DAG edges that lie on every geodesic: the edges between
    two consecutive one-vertex layers.

    Two routes a-m1-c and a-m2-c end in the forced tail c-t-b:

    >>> g = Graph(["a", "m1", "m2", "c", "t", "b"], [("a", "m1"), ("a", "m2"),
    ...           ("m1", "c"), ("m2", "c"), ("c", "t"), ("t", "b")])
    >>> sorted(mandatory_edges(build_dag(BaseInstance(g, "a", "b"))))
    [('c', 't'), ('t', 'b')]
    """
    name = dag.names
    return frozenset(
        (name[u], name[v]) for run in _one_vertex_runs(dag) for u, v in zip(run, run[1:])
    )


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
    and no surviving edge is on all of them. The reduction runs on DAG ids,
    whichever path built the DAG (``_reduce_ids``).
    """
    return _reduce_ids(build_dag(inst))


def _reduce_ids(dag: GeodesicDag) -> ReducedInstance:
    """The reduction on DAG ids: the contraction as an id map (ids follow
    name order, so a run's smallest id is its smallest name), and the
    contracted edges as sorted packed pair keys.

    A contraction makes no parallel edges: a DAG edge joins consecutive
    layers, so the edges that enter a run and those that leave it meet
    different outside vertices. The keys are therefore only sorted, and
    the survivors read off a count of the images. Neither is a plain
    ``np.unique``: numpy 2.4 takes a hash path for it on int64, which on
    a 2-vCPU Xeon VM took 16.9 ms against 0.71 ms for the sort on the
    86,490 keys of the 30x30x30 grid, and 3.5 ms against 0.10 ms for the
    count on its 29,791 images."""
    inst, names = dag.instance, dag.names
    k = len(names)
    image = np.arange(k)
    for run in _one_vertex_runs(dag):
        image[run] = min(run)
    indptr, indices = dag.csr
    iu = image[np.repeat(np.arange(k), np.diff(indptr))]
    iv = image[indices]
    kept = iu != iv
    keys = np.minimum(iu, iv)[kept] * k + np.maximum(iu, iv)[kept]
    keys.sort()
    survivors = np.flatnonzero(np.bincount(image, minlength=k))
    # survivors keep their name order, so renumbered pairs stay sorted
    lo = np.searchsorted(survivors, keys // k)
    hi = np.searchsorted(survivors, keys % k)
    name = np.array(names, dtype=object)
    graph = Graph._from_ids(tuple(name[survivors]), lo, hi)
    vertex_map: dict[str, str | None] = dict.fromkeys(inst.graph.vertices)
    vertex_map.update(zip(names, name[image]))
    source = vertex_map[inst.source]
    target = vertex_map[inst.target]
    return ReducedInstance(
        graph=graph,
        source=source,
        target=target,
        vertex_map=vertex_map,
        collapsed=source == target,
    )
