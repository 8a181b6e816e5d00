"""The shortest path graph of an instance.

Vertices are the geodesics of a fixed instance, kept in lexicographic
order. Two geodesics are adjacent exactly when they differ in one single
position, necessarily interior; that position (1-based from the source) is
the edge's difference index.

Adjacency is found by bucketing: for each interior position every geodesic
drops that position to form a key, and geodesics sharing a key form a
clique of edges with that difference index. Two geodesics differing in two
or more positions never share a key, so the edge set is exact. Bucketing
keeps large instances (hundreds of thousands of geodesics) tractable where
all-pairs comparison would not be; tests pin it to the brute-force pairwise
definition on small instances.

``matrix_adjacency`` does the same bucketing on an integer geodesic
matrix (see ``geodesics.geodesic_matrix``): a key is two class ids packed
in one int64, buckets are runs of equal keys after a sort, and all runs
of one length are paired in one step. The grid-embedding check uses it,
and so does ``build_spg`` from ``MATRIX_CUTOFF`` geodesics on: below it
the dicts over name tuples are faster, above it the arrays.

``SpGraph`` is one class whatever built it: each builder stores the
form it computed (the tuples, or the vertex names, the int32 geodesic
matrix and the edge arrays), and the other form is derived on first
read. The JSON and DOT writers read the arrays and write them
column-wise through ``graphs.join_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from operator import itemgetter
from typing import Callable, Iterable, Mapping

import numpy as np

from .geodesics import (
    DEFAULT_GEODESIC_LIMIT,
    Geodesic,
    GeodesicOverflowError,
    NoGeodesicError,
    ReducedInstance,
    build_dag,
    enumerate_geodesics,
    geodesic_matrix,
)
from .graphs import (
    BaseInstance,
    Graph,
    Gather,
    Rows,
    SpgError,
    _bitmasks,
    decimals,
    join_rows,
    json_records,
    parse_json,
    quote,
)

# geodesic count from which build_spg takes the matrix path (see build_spg)
MATRIX_CUTOFF = 100


class SpgStructureError(SpgError, ValueError):
    """An SpGraph-shaped object violates a structural requirement."""


class SpGraph:
    """A shortest path graph: indexed geodesics plus indexed edges.

    As a graph its vertices are the geodesic indices ``0..n-1``, and
    ``adjacency_bits`` has the layout of ``Graph.adjacency_bits``, so the
    graph algorithms and pattern searches take an SpGraph directly.
    ``edge_index`` maps each edge (i, j) with i < j to its difference
    index. Instances built by hand (or loaded from JSON) are validated for
    shape only, not for realizability, so theorem checkers can be fed
    deliberately broken inputs.

    The graph has two forms. The tuple form is ``geodesics`` and
    ``edge_index``, which this constructor stores. The array form is the
    vertex names with an int32 matrix of rows over them (``name_rows``)
    and the edge arrays ``(u, w, pos)`` sorted by ``(u, w)``
    (``edge_arrays``), which ``build_spg`` stores from ``MATRIX_CUTOFF``
    geodesics on, and ``spg_from_json`` for the edges. Each of the four
    is derived from the other form on first read and kept; the writers
    read the array form. ``spg_from_json`` also stores the edge arrays in
    input order, and ``edge_index`` is then derived from them, so that it
    keeps the order of the file.
    """

    __slots__ = (
        "d", "num_vertices", "num_edges",
        "_geodesics", "_edge_index", "_names", "_rows", "_edges", "_input_edges", "_bits",
    )

    def __init__(
        self,
        geodesics: Iterable[Geodesic],
        edge_index: Mapping[tuple[int, int], int],
        d: int | None = None,
    ):
        geos, d = _checked_geodesics(geodesics, d)
        n = len(geos)
        if not geos and edge_index:
            raise SpgStructureError("edges without geodesics")
        checked: dict[tuple[int, int], int] = {}
        for (i, j), pos in edge_index.items():
            if not (0 <= i < j < n):
                raise SpgStructureError(f"edge ({i}, {j}) out of range")
            if d is None or not (1 <= pos <= d - 1):
                raise SpgStructureError(f"difference index {pos} out of range for d={d}")
            checked[(i, j)] = pos
        self._store(d, geos, checked)

    def _store(
        self, d: int | None, geodesics: tuple[Geodesic, ...] | None = None,
        edge_index: dict[tuple[int, int], int] | None = None, *,
        names: tuple[str, ...] | None = None, rows: np.ndarray | None = None,
        edges: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        input_edges: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.d = d
        self.num_vertices: int = len(geodesics if rows is None else rows)
        self.num_edges: int = len(edge_index) if edges is None else edges[0].size
        self._geodesics, self._edge_index = geodesics, edge_index
        self._names, self._rows, self._edges = names, rows, edges
        self._input_edges = input_edges
        self._bits: list[int] | None = None

    @classmethod
    def _trusted(cls, d: int | None, **stored: object) -> SpGraph:
        """An SpGraph from sound parts, taken as they are: the geodesics or
        the names and rows, and the edge index or the edge arrays (see
        ``_store``)."""
        h = cls.__new__(cls)
        h._store(d, **stored)
        return h

    @property
    def geodesics(self) -> tuple[Geodesic, ...]:
        if self._geodesics is None:
            names = self._names
            rows = self._rows.tolist()
            self._geodesics = tuple(tuple(map(names.__getitem__, row)) for row in rows)
        return self._geodesics

    @property
    def edge_index(self) -> dict[tuple[int, int], int]:
        if self._edge_index is None:
            u, w, pos = self._edges if self._input_edges is None else self._input_edges
            self._edge_index = dict(zip(zip(u.tolist(), w.tolist()), pos.tolist()))
        return self._edge_index

    def name_rows(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The sorted vertex names and an int32 matrix of ids into them,
        one row per geodesic."""
        if self._rows is None:
            geos = self._geodesics
            self._names = names = tuple(sorted(set(chain.from_iterable(geos))))
            rank = dict(zip(names, range(len(names))))
            width = 0 if self.d is None else self.d + 1
            ids = map(rank.__getitem__, chain.from_iterable(geos))
            self._rows = np.fromiter(ids, np.int32, len(geos) * width).reshape(len(geos), width)
        return self._names, self._rows

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as int64 arrays ``(u, w, pos)``, sorted by ``(u, w)``."""
        if self._edges is None:
            keys = sorted(self._edge_index)
            pairs = np.array(keys, dtype=np.int64).reshape(len(keys), 2)
            pos = np.array([self._edge_index[k] for k in keys], dtype=np.int64)
            self._edges = (pairs[:, 0], pairs[:, 1], pos)
        return self._edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        u, w, _ = self.edge_arrays()
        return list(zip(u.tolist(), w.tolist()))

    @property
    def vertices(self) -> range:
        return range(self.num_vertices)

    @property
    def adjacency_bits(self) -> list[int]:
        """Adjacency as one int bitmask per geodesic index."""
        if self._bits is None:
            pairs = self.sorted_edges() if self._edge_index is None else self._edge_index
            self._bits = _bitmasks(self.num_vertices, pairs)
        return self._bits

    def to_graph(self, prefix: str = "g") -> Graph:
        verts = [f"{prefix}{i}" for i in range(self.num_vertices)]
        edges = [(f"{prefix}{i}", f"{prefix}{j}") for i, j in self.edge_index]
        return Graph(verts, edges)

    def __repr__(self) -> str:
        return f"SpGraph({self.num_vertices} geodesics, {self.num_edges} edges, d={self.d})"


def _checked_geodesics(
    geodesics: Iterable[Geodesic], d: int | None
) -> tuple[tuple[Geodesic, ...], int | None]:
    """The geodesics as tuples and their distance, checked for one common
    length that agrees with a stated ``d`` and for repeats."""
    geos = tuple(tuple(g) for g in geodesics)
    if not geos:
        return geos, d
    lengths = {len(g) for g in geos}
    if len(lengths) != 1:
        raise SpgStructureError("geodesics must share one length")
    inferred = lengths.pop() - 1
    if d is not None and d != inferred:
        raise SpgStructureError(f"stated d={d} but sequences have length {inferred + 1}")
    if len(set(geos)) != len(geos):
        raise SpgStructureError("duplicate geodesic")
    return geos, inferred


def difference_positions(u: Geodesic, w: Geodesic) -> list[int]:
    if len(u) != len(w):
        raise SpgStructureError("geodesics of different lengths are incomparable")
    return [p for p in range(len(u)) if u[p] != w[p]]


def difference_index(u: Geodesic, w: Geodesic) -> int | None:
    """The single differing position of two equal-endpoint geodesics, else None.

    >>> difference_index(("a", "x", "b"), ("a", "y", "b"))
    1
    >>> difference_index(("a", "x", "y", "b"), ("a", "u", "v", "b")) is None
    True"""
    diffs = difference_positions(u, w)
    if not u or u[0] != w[0] or u[-1] != w[-1]:
        raise SpgStructureError("geodesics must share both endpoints")
    return diffs[0] if len(diffs) == 1 else None


def build_spg(
    inst: BaseInstance, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> SpGraph:
    """Construct the shortest path graph of an instance.

    Disconnected endpoints yield the empty SpGraph. A geodesic count above
    ``limit`` raises GeodesicOverflowError before any materialization.
    The geodesics are counted once: ``enumerate_geodesics`` runs with the
    limit ``MATRIX_CUTOFF - 1``, and its overflow error carries the count.
    Below ``MATRIX_CUTOFF`` geodesics the tuples are bucketed in dicts
    (``spg_from_geodesics``); from there on the rows of
    ``geodesic_matrix`` are bucketed by ``matrix_adjacency`` and the
    SpGraph keeps the arrays. The matrix path pays a few numpy passes per
    position, so it wins only on enough geodesics; the cutoff sits where
    the two meet. Whole calls, best of 15 timings on a 2-vCPU Xeon VM
    (Python 3.11.7, numpy 2.4.6), dict / matrix in ms:

    ===============  =========  =====  ======
    instance         geodesics  dict   matrix
    ===============  =========  =====  ======
    K_{2,32}                32  0.37   0.38
    K_{2,64}                64  0.83   0.47
    K_{2,96}                96  1.51   0.67
    K_{2,128}              128  3.37   1.19
    K_{2,256}              256  16.9   2.73
    Q4                      24  0.13   0.27
    Q5                     120  0.49   0.49
    Q6                     720  4.00   1.31
    grid (4, 4)             70  0.52   0.64
    grid (2, 2, 2)          90  0.64   0.66
    grid (4, 5)            126  1.16   0.86
    grid (5, 5)            252  2.14   1.06
    grid (3, 3, 2)         560  3.91   1.48
    ===============  =========  =====  ======
    """
    try:
        dag = build_dag(inst)
    except NoGeodesicError:
        return SpGraph((), {}, None)
    try:
        geodesics = enumerate_geodesics(dag, limit=min(limit, MATRIX_CUTOFF - 1))
    except GeodesicOverflowError as err:
        if err.count > limit:
            raise GeodesicOverflowError(err.count, limit) from None
    else:
        return spg_from_geodesics(geodesics)
    matrix = geodesic_matrix(dag)
    u, w, pos = matrix_adjacency(matrix)
    order = np.lexsort((w, u))
    edges = (u[order], w[order], pos[order])
    return SpGraph._trusted(dag.d, names=dag.names, rows=matrix, edges=edges)


def matrix_adjacency(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of the shortest path graph of a geodesic matrix whose rows are
    distinct and sorted, as arrays ``(u, w, pos)`` with ``u < w``.

    Dropping position p keeps the prefix before p and the suffix after it.
    Every row gets an id for each prefix class (rows are sorted, so a
    prefix class is a run of rows) and for each suffix class; the key of
    row r at p packs its two ids in one int64. Rows with equal keys are
    pairwise adjacent at p; edges come grouped by position.
    """
    count, width = matrix.shape
    d = width - 1
    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, empty, empty)]
    if count < 2 or d < 2:
        return parts[0]
    # prefix[p]: class id of columns 0..p-1; suffix[p]: class id of columns p..d
    prefix = [np.zeros(count, dtype=np.int64)]
    changed = np.zeros(count - 1, dtype=bool)
    for col in range(d - 1):
        changed |= matrix[1:, col] != matrix[:-1, col]
        prefix.append(np.concatenate(([0], np.cumsum(changed))))
    suffix = {d + 1: np.zeros(count, dtype=np.int64)}
    for col in range(d, 1, -1):
        pair = matrix[:, col].astype(np.int64) * count + suffix[col + 1]
        suffix[col] = np.unique(pair, return_inverse=True)[1].ravel()
    for p in range(1, d):
        key = prefix[p] * count + suffix[p + 1]
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        # a bucket is a run of equal keys, its rows in increasing order; the
        # runs of one length L are paired at once, by the pairs (i, j) with
        # i < j of the upper triangle of an L x L grid
        bounds = np.concatenate(([0], (ranked[1:] != ranked[:-1]).nonzero()[0] + 1, [count]))
        starts, lengths = bounds[:-1], bounds[1:] - bounds[:-1]
        for length in (np.bincount(lengths)[2:].nonzero()[0] + 2).tolist():
            first = starts[lengths == length, None]
            steps = np.arange(length)
            i, j = (steps[:, None] < steps).nonzero()
            parts.append((order[first + i].ravel(), order[first + j].ravel(),
                          np.full(first.size * i.size, p)))
    u, w, pos = (np.concatenate(cols) for cols in zip(*parts))
    return u, w, pos


def spg_from_geodesics(geodesics: list[Geodesic]) -> SpGraph:
    """Adjacency from a ready geodesic list (see module docstring)."""
    if not geodesics:
        return SpGraph((), {}, None)
    d = len(geodesics[0]) - 1
    edge_index: dict[tuple[int, int], int] = {}
    for pos in range(1, d):
        buckets: dict[tuple[str, ...], list[int]] = {}
        for i, geo in enumerate(geodesics):
            buckets.setdefault(geo[:pos] + geo[pos + 1 :], []).append(i)
        for members in buckets.values():
            for pair in combinations(members, 2):
                edge_index[pair] = pos
    return SpGraph(geodesics, edge_index)


def spg_of_reduced(red: ReducedInstance, *, limit: int = DEFAULT_GEODESIC_LIMIT) -> SpGraph:
    """SpGraph of a reduction; a collapsed reduction means a one-vertex graph."""
    if red.collapsed:
        return SpGraph(((red.source,),), {}, 0)
    return build_spg(red.instance, limit=limit)


@dataclass(frozen=True)
class Decomposition:
    """Grouping of an SpGraph by the vertex at one interior position.

    ``components[k]`` holds the geodesic indices whose position-``index``
    vertex is ``middle_vertices[k]``; together they partition the vertex
    set. ``cross_edges`` are exactly the edges with difference index
    ``index``, each joining two different groups.
    """

    index: int
    middle_vertices: tuple[str, ...]
    components: tuple[tuple[int, ...], ...]
    cross_edges: tuple[tuple[int, int], ...]


def decompose_at_index(h: SpGraph, i: int) -> Decomposition:
    """Split h at interior position i.

    Verifies the grouping against connectivity: an edge must cross groups
    exactly when its difference index is i. Violations raise
    SpgStructureError (possible only for hand-built inputs).
    """
    if h.d is None or not (1 <= i <= h.d - 1):
        raise SpgStructureError(f"index {i} is not interior for d={h.d}")
    groups: dict[str, list[int]] = {}
    for idx, geo in enumerate(h.geodesics):
        groups.setdefault(geo[i], []).append(idx)
    middles = tuple(sorted(groups))
    group_id = {idx: k for k, v in enumerate(middles) for idx in groups[v]}
    cross = []
    for (u, w), pos in h.edge_index.items():
        crosses = group_id[u] != group_id[w]
        if crosses != (pos == i):
            raise SpgStructureError(
                f"edge ({u}, {w}) with index {pos} is inconsistent with the "
                f"grouping at position {i}"
            )
        if crosses:
            cross.append((u, w))
    return Decomposition(
        index=i,
        middle_vertices=middles,
        components=tuple(tuple(groups[v]) for v in middles),
        cross_edges=tuple(sorted(cross)),
    )


# -- serialization ---------------------------------------------------------


def _name_columns(h: SpGraph, encode: Callable[[str], str], sep: str) -> list[Gather]:
    """The geodesics as ``Rows`` columns, one per position: each vertex
    name is encoded once, and every position but the last carries ``sep``
    after its name."""
    names, rows = h.name_rows()
    codes = list(map(encode, names))
    spaced = [code + sep for code in codes]
    width = rows.shape[1]
    return [Gather(spaced if p < width - 1 else codes, rows[:, p]) for p in range(width)]


def spg_to_json(h: SpGraph) -> str:
    """SpGraph JSON, one geodesic and one edge per line.

    >>> from spgraphs.graphs import complete_bipartite_graph
    >>> h = build_spg(BaseInstance(complete_bipartite_graph(2, 2), "a0", "a1"))
    >>> print(spg_to_json(h), end="")
    {
      "geodesics": [
        ["a0", "b0", "a1"],
        ["a0", "b1", "a1"]
      ],
      "edges": [
        {"u": 0, "w": 1, "index": 1}
      ]
    }
    """
    u, w, pos = h.edge_arrays()
    ids = decimals(max(h.num_vertices, h.d or 0))
    edges = ('{"u": ', Gather(ids, u), ', "w": ', Gather(ids, w), ', "index": ', Gather(ids, pos), "}")
    return json_records(
        {
            "geodesics": Rows(h.num_vertices, ("[", *_name_columns(h, quote, ", "), "]")),
            "edges": Rows(u.size, edges),
        }
    )


def spg_from_json(text: str) -> SpGraph:
    """An SpGraph from its JSON, checked as ``SpGraph`` checks its
    arguments. The edge records are checked in whole-list passes (see
    ``_edge_columns``); when one fails, a pass over the records names the
    first faulty one in input order, and ``SpGraph`` the first edge out
    of range."""
    payload = parse_json(text, SpgStructureError)
    if not isinstance(payload, dict) or "geodesics" not in payload or "edges" not in payload:
        raise SpgStructureError("SpGraph JSON needs 'geodesics' and 'edges'")
    geodesics, records = payload["geodesics"], payload["edges"]
    # json.loads makes exact lists and strs, so exact type tests suffice
    if (type(geodesics) is not list or not set(map(type, geodesics)) <= {list}
            or not set(map(type, chain.from_iterable(geodesics))) <= {str}):
        raise SpgStructureError("'geodesics' must be a list of vertex-id lists")
    if not isinstance(records, list):
        raise SpgStructureError("'edges' must be a list of edge records")
    columns = _edge_columns(records)
    if columns is None:
        return SpGraph(geodesics, _edge_index(records))
    lo, hi, pos, order = columns
    geos, d = _checked_geodesics(geodesics, None)
    if lo.size and not (lo.min() >= 0 and hi.max() < len(geos) and (lo < hi).all()
                        and pos.min() >= 1 and pos.max() < d):
        # SpGraph names the first edge out of range, in input order
        return SpGraph(geos, dict(zip(zip(lo.tolist(), hi.tolist()), pos.tolist())))
    # the edge index is made on first read, in input order, as SpGraph keeps it
    return SpGraph._trusted(
        d, geodesics=geos, edges=(lo[order], hi[order], pos[order]), input_edges=(lo, hi, pos)
    )


def _edge_columns(records: list) -> tuple[np.ndarray, ...] | None:
    """The edge records as int64 arrays ``(lo, hi, index)``, each pair
    ordered ``lo <= hi``, and the order that sorts the pairs; or None when
    one of the whole-list passes fails: every record an object with the
    fields u, w and index, every field an int that fits int64, and no
    pair twice."""
    try:
        fields = [list(map(itemgetter(key), records)) for key in ("u", "w", "index")]
        if not set(map(type, chain.from_iterable(fields))) <= {int}:
            return None
        u, w, pos = (np.array(field, dtype=np.int64) for field in fields)
    except (TypeError, KeyError, OverflowError):
        return None
    lo, hi = np.minimum(u, w), np.maximum(u, w)
    order = np.lexsort((hi, lo))
    first, second = lo[order], hi[order]
    if ((first[1:] == first[:-1]) & (second[1:] == second[:-1])).any():
        return None
    return lo, hi, pos, order


def _edge_index(records: list) -> dict[tuple[int, int], int]:
    """The edge records one by one, in input order, as ``SpGraph`` takes
    them; the first faulty record raises."""
    edge_index: dict[tuple[int, int], int] = {}
    for k, e in enumerate(records):
        if not isinstance(e, dict) or not {"u", "w", "index"} <= set(e):
            raise SpgStructureError(f"edge #{k} needs fields u, w, index")
        u, w, pos = e["u"], e["w"], e["index"]
        if not all(type(x) is int for x in (u, w, pos)):
            raise SpgStructureError(f"edge #{k} fields must be integers")
        if u > w:
            u, w = w, u
        if (u, w) in edge_index:
            raise SpgStructureError(f"edge #{k} duplicates ({u}, {w})")
        edge_index[(u, w)] = pos
    return edge_index


_PALETTE = (
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#a6761d",
    "#666666",
)


def index_color(i: int) -> str:
    return _PALETTE[(i - 1) % len(_PALETTE)]


def spg_to_dot(h: SpGraph, name: str = "spg") -> str:
    """Graphviz source; edges are labeled and colored by difference index."""
    n = h.num_vertices
    u, w, pos = h.edge_arrays()
    ids = decimals(max(n, h.d or 0))
    styles = [f' [label="{p}", color={quote(index_color(p))}];\n' for p in range(h.d or 0)]
    # the label quotes the joined names, which is each name quoted inside
    label = _name_columns(h, lambda v: quote(v)[1:-1], " ")
    return join_rows([
        f"graph {quote(name)} {{\n  node [shape=box, fontsize=10];\n",
        Rows(n, ("  ", ids[:n], ' [label="', *label, '"];\n')),
        Rows(u.size, ("  ", Gather(ids, u), " -- ", Gather(ids, w), Gather(styles, pos))),
        "}\n",
    ])
