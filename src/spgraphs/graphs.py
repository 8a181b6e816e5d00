"""Finite simple graphs with string vertex ids, plus the handful of graph
operations the rest of the library is built on.

Vertices are opaque strings and the vertex tuple is kept sorted, so every
derived artifact (edge lists, serializations, search orders) is deterministic.
A vertex's id is its rank in that tuple. A graph stores its edges in one
of two forms, chosen by their count against ``ID_CUTOFF``: below it the
frozenset ``edges`` of name pairs ``(u, v)`` with ``u < v``, as built by
one checking loop; from it on ``edge_ids``, two read-only int64 arrays of
ids ``lo < hi`` sorted by ``(lo, hi)`` (the edges in name order). The other
form, ``adjacency`` and ``index`` are views made on first read.

Edges are checked once: a self loop, an unknown vertex and a repeat of an
earlier edge are refused, naming the first faulty edge in input order.
Large inputs are checked on ids, in a few numpy passes (a sort of packed
pair keys finds the repeats).

Every large document the CLI writes (SpGraph JSON and DOT, graph JSON,
instance and reduction JSON, the ``grid enum`` listing) goes through one
column-wise writer, ``join_rows``. A document is a sequence of constant
strings and ``Rows``: records given column by column, each column a
constant separator or one string per record, such as names quoted once
and gathered by id (``Gather``). The columns are interleaved into one
list of pieces by strided slice assignment, and the document is joined
once. ``json_records`` lays a JSON object out on it, one record per line.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations, product
from json.encoder import encode_basestring_ascii as quote
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .spg import SpGraph

# edge count from which graphs check and store their edges, and geodesic
# DAGs are built, on arrays of vertex ids (see geodesics.build_dag for the
# measured crossover)
ID_CUTOFF = 64


class SpgError(Exception):
    """Root of the errors for bad input and refused resource guards; each
    subclass keeps its ValueError or RuntimeError base. The CLI exits 2."""


class GraphError(SpgError, ValueError):
    """Malformed graph data (self loop, duplicate, unknown vertex)."""


def _norm_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def _bitmasks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """One int bitmask of neighbours per vertex ``0..n-1``."""
    bits = [0] * n
    for i, j in edges:
        bits[i] |= 1 << j
        bits[j] |= 1 << i
    return bits


_FAULTS = (
    "self loop at {0!r}",
    "edge ({0!r}, {1!r}) uses an unknown vertex",
    "duplicate edge ({0!r}, {1!r})",
)


class _EdgeFault(Exception):
    """The first faulty edge: its position in input order and the message
    template for its two end names."""

    def __init__(self, position: int, template: str):
        super().__init__(position, template)
        self.position = position
        self.template = template


def _endpoint_ids(pairs: Sequence[Iterable[object]], index: Mapping[str, int]) -> Sequence[int]:
    """The ids of both ends of every edge, flattened as ``u0, v0, u1, ...``.

    When every pair has exactly two ends, the flattened ends are looked up
    in one ``itemgetter`` call (the ends of one pair never shift into the
    next). Otherwise, or on an end that is not a vertex name, the ends are
    taken pair by pair, as ``_checked_edge_set`` takes them: ends are named
    by ``str()``, a name that is not a vertex gets an id from
    ``len(index)`` on, the same one at each of its occurrences, and a pair
    of another length fails to unpack."""
    try:
        if set(map(len, pairs)) == {2}:
            return itemgetter(*chain.from_iterable(pairs))(index)
    except (TypeError, KeyError):
        pass
    get, n = index.get, len(index)
    extra: dict[str, int] = {}

    def lookup(x: object) -> int:
        name = str(x)
        found = get(name)
        return extra.setdefault(name, n + len(extra)) if found is None else found

    return [lookup(x) for u, v in pairs for x in (u, v)]


def _checked_edge_set(
    pairs: Iterable[Iterable[object]], seen: set[str]
) -> frozenset[tuple[str, str]]:
    """The edges as name pairs ``(u, v)`` with ``u < v``, checked in one
    loop; the first faulty edge raises (see ``_FAULTS``)."""
    norm: set[tuple[str, str]] = set()
    for u, v in pairs:
        u, v = str(u), str(v)
        if u == v:
            raise GraphError(_FAULTS[0].format(u))
        if u not in seen or v not in seen:
            raise GraphError(_FAULTS[1].format(u, v))
        e = _norm_edge(u, v)
        if e in norm:
            raise GraphError(_FAULTS[2].format(u, v))
        norm.add(e)
    return frozenset(norm)


def _name_pairs(
    names: tuple[str, ...], lo: np.ndarray, hi: np.ndarray
) -> Iterator[tuple[str, str]]:
    name = names.__getitem__
    return zip(map(name, lo.tolist()), map(name, hi.tolist()))


def _sorted_edge_ids(ends: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges given as flattened end ids (see ``_endpoint_ids``) as int64
    arrays ``lo < hi`` sorted by ``(lo, hi)``.

    Ids from ``n`` on are not vertices. The first faulty edge in input
    order raises ``_EdgeFault``: a self loop, else an unknown end, else a
    repeat of an earlier edge (in either orientation). All earlier edges
    are sound then, so a repeat is always of a sound edge."""
    m = len(ends) // 2
    if not m:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    both = np.asarray(ends, dtype=np.int64).reshape(m, 2)
    u, v = both[:, 0], both[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * (int(hi.max()) + 1) + hi
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    # a stable sort keeps equal keys in input order: all but the first repeat
    repeat = np.zeros(m, dtype=bool)
    repeat[order[1:]] = ranked[1:] == ranked[:-1]
    loop, unknown = u == v, hi >= n
    faulty = loop | unknown | repeat
    if faulty.any():
        k = int(faulty.argmax())
        kind = 0 if loop[k] else 1 if unknown[k] else 2
        raise _EdgeFault(k, _FAULTS[kind])
    return lo[order], hi[order]


class Graph:
    """An immutable finite simple undirected graph.

    >>> g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    >>> g.edge_ids
    (array([0, 1]), array([1, 2]))
    """

    __slots__ = ("vertices", "_edges", "_lo", "_hi", "_adj", "_index", "_bits")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        vs = [str(v) for v in vertices]
        seen = set(vs)
        if len(seen) != len(vs):
            raise GraphError("duplicate vertex id")
        names = tuple(sorted(vs))
        pairs = edges if isinstance(edges, (list, tuple)) else list(edges)
        if len(pairs) < ID_CUTOFF:
            self._store(names, _checked_edge_set(pairs, seen), None, None, None)
            return
        index = dict(zip(names, range(len(names))))
        try:
            lo, hi = _sorted_edge_ids(_endpoint_ids(pairs, index), len(names))
        except _EdgeFault as fault:
            u, v = pairs[fault.position]
            raise GraphError(fault.template.format(str(u), str(v))) from None
        self._store(names, None, lo, hi, index)

    def _store(
        self, names: tuple[str, ...], edges: frozenset[tuple[str, str]] | None,
        lo: np.ndarray | None, hi: np.ndarray | None, index: dict[str, int] | None,
    ) -> None:
        self.vertices: tuple[str, ...] = names
        self._edges = edges
        if lo is not None:
            # read-only, so the stored form cannot change through edge_ids
            lo.setflags(write=False)
            hi.setflags(write=False)
        self._lo, self._hi = lo, hi
        self._index = index
        self._adj: dict[str, frozenset[str]] | None = None
        self._bits: list[int] | None = None

    @classmethod
    def _from_ids(cls, names: tuple[str, ...], lo: np.ndarray, hi: np.ndarray) -> "Graph":
        """A graph from sorted names and sound edge id arrays in the
        ``edge_ids`` layout, taken as they are."""
        g = cls.__new__(cls)
        edges = frozenset(_name_pairs(names, lo, hi)) if lo.size < ID_CUTOFF else None
        g._store(names, edges, lo, hi, None)
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges) if self._lo is None else self._lo.size

    @property
    def edge_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as read-only int64 id arrays ``lo < hi``, sorted by
        ``(lo, hi)``."""
        if self._lo is None:
            index = self.index
            ids = sorted((index[u], index[v]) for u, v in self._edges)
            both = np.array(ids, dtype=np.int64).reshape(-1, 2).T.copy()
            both.setflags(write=False)
            self._lo, self._hi = both
        return self._lo, self._hi

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The edges as name pairs ``(u, v)`` with ``u < v``."""
        if self._edges is None:
            self._edges = frozenset(_name_pairs(self.vertices, self._lo, self._hi))
        return self._edges

    @property
    def adjacency(self) -> dict[str, frozenset[str]]:
        if self._adj is None:
            adj: dict[str, set[str]] = {v: set() for v in self.vertices}
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        return self._adj

    def neighbors(self, v: str) -> frozenset[str]:
        return self.adjacency[v]

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: str, v: str) -> bool:
        return _norm_edge(u, v) in self.edges

    def has_vertex(self, v: str) -> bool:
        # a graph stored as name pairs answers from adjacency, which every
        # search over it reads anyway; one stored as ids from index, so
        # loading a large graph builds no name view
        return v in (self.adjacency if self._lo is None else self.index)

    def sorted_edges(self) -> list[tuple[str, str]]:
        if self._lo is None:
            return sorted(self._edges)
        return list(_name_pairs(self.vertices, self._lo, self._hi))

    # -- bitset view used by the search-heavy algorithms --------------------

    @property
    def index(self) -> dict[str, int]:
        if self._index is None:
            self._index = dict(zip(self.vertices, range(len(self.vertices))))
        return self._index

    @property
    def adjacency_bits(self) -> list[int]:
        """Adjacency as one int bitmask per vertex, in vertex order."""
        if self._bits is None:
            if self._lo is None:
                idx = self.index
                pairs: Iterable[tuple[int, int]] = ((idx[u], idx[v]) for u, v in self._edges)
            else:
                pairs = zip(self._lo.tolist(), self._hi.tolist())
            self._bits = _bitmasks(len(self.vertices), pairs)
        return self._bits

    # -- equality and display ----------------------------------------------
    #
    # Below ID_CUTOFF edges a graph always holds its name pairs, from it on
    # its id arrays; equal graphs have equal edge counts, so they compare
    # and hash on the same form.

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.vertices != other.vertices or self.num_edges != other.num_edges:
            return False
        if self.num_edges < ID_CUTOFF:
            return self._edges == other._edges
        return np.array_equal(self._lo, other._lo) and np.array_equal(self._hi, other._hi)

    def __hash__(self) -> int:
        if self.num_edges < ID_CUTOFF:
            return hash((self.vertices, self._edges))
        return hash((self.vertices, self._lo.tobytes(), self._hi.tobytes()))

    def __repr__(self) -> str:
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges)"

    # -- derived graphs ------------------------------------------------------

    def subgraph(self, keep: Iterable[str]) -> "Graph":
        """Induced subgraph on the given vertices."""
        keep_set = set(keep)
        missing = keep_set - set(self.vertices)
        if missing:
            raise GraphError(f"unknown vertices {sorted(missing)}")
        edges = [(u, v) for u, v in self.edges if u in keep_set and v in keep_set]
        return Graph(keep_set, edges)

    def relabel(self, mapping: Mapping[str, str]) -> "Graph":
        """Rename every vertex through an injective mapping."""
        if set(mapping) != set(self.vertices):
            raise GraphError("relabel mapping must cover every vertex exactly")
        images = list(mapping.values())
        if len(set(images)) != len(images):
            raise GraphError("relabel mapping must be injective")
        return Graph(images, [(mapping[u], mapping[v]) for u, v in self.edges])

    def without_edge(self, u: str, v: str) -> "Graph":
        e = _norm_edge(u, v)
        if e not in self.edges:
            raise GraphError(f"no edge ({u!r}, {v!r})")
        return Graph(self.vertices, self.edges - {e})


@dataclass(frozen=True, slots=True)
class BaseInstance:
    """A graph with two distinguished distinct endpoints."""

    graph: Graph
    source: str
    target: str

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise GraphError("source and target must differ")
        for v in (self.source, self.target):
            if not self.graph.has_vertex(v):
                raise GraphError(f"endpoint {v!r} is not a vertex")


# -- traversal -----------------------------------------------------------


def distances(g: Graph, start: str) -> dict[str, int | float]:
    """BFS distances from ``start``; unreachable vertices map to ``math.inf``.

    >>> k23 = complete_bipartite_graph(2, 3)
    >>> distances(k23, "a0")["a1"]
    2
    """
    if not g.has_vertex(start):
        raise GraphError(f"unknown vertex {start!r}")
    reached: dict[str, int] = {start: 0}
    queue = deque([start])
    adj = g.adjacency
    while queue:
        u = queue.popleft()
        du = reached[u]
        for w in adj[u]:
            if w not in reached:
                reached[w] = du + 1
                queue.append(w)
    return {v: reached.get(v, math.inf) for v in g.vertices}


def is_connected(g: Graph) -> bool:
    if g.num_vertices <= 1:
        return True
    return all(d != math.inf for d in distances(g, g.vertices[0]).values())


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def connected_components(g: Graph | SpGraph) -> list[tuple]:
    """Vertex sets of the components, each sorted, ordered by first vertex."""
    bits = g.adjacency_bits
    names = g.vertices
    comps = []
    left = (1 << len(bits)) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for x in iter_bits(frontier):
                reach |= bits[x]
            frontier = reach & ~comp
            comp |= frontier
        left &= ~comp
        comps.append(tuple(names[i] for i in iter_bits(comp)))
    return comps


def girth(g: Graph | SpGraph) -> int | float:
    """Length of a shortest cycle, ``math.inf`` for forests.

    Computed by a layered BFS from every root: an edge inside layer k closes
    a cycle of length at most 2k + 1, and a vertex of layer k + 1 with two
    neighbours in layer k one of length at most 2k + 2. From a root on a
    shortest cycle the first such hit is exact.
    """
    bits = g.adjacency_bits
    best: int | float = math.inf
    for root in range(len(bits)):
        seen = frontier = 1 << root
        depth = 0
        while frontier and 2 * depth + 1 < best:
            if any(bits[x] & frontier for x in iter_bits(frontier)):
                best = 2 * depth + 1
                break
            reach = 0
            for x in iter_bits(frontier):
                reach |= bits[x]
            frontier = reach & ~seen
            if 2 * depth + 2 < best and any(
                (bits[w] & seen).bit_count() > 1 for w in iter_bits(frontier)
            ):
                best = 2 * depth + 2
                break
            seen |= frontier
            depth += 1
        if best == 3:
            return 3
    return best


# -- named families --------------------------------------------------------


def path_graph(length: int) -> Graph:
    """Path with ``length`` edges, so ``length + 1`` vertices 0..length."""
    if length < 0:
        raise GraphError("length must be nonnegative")
    verts = [str(i) for i in range(length + 1)]
    return Graph(verts, [(str(i), str(i + 1)) for i in range(length)])


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` vertices."""
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    verts = [str(i) for i in range(n)]
    return Graph(verts, [(str(i), str((i + 1) % n)) for i in range(n)])


def complete_graph(n: int) -> Graph:
    verts = [str(i) for i in range(n)]
    return Graph(verts, combinations(verts, 2))


def empty_graph(n: int) -> Graph:
    return Graph([str(i) for i in range(n)], [])


def complete_bipartite_graph(p: int, q: int) -> Graph:
    """``K_{p,q}`` with sides ``a0..`` and ``b0..``."""
    left = [f"a{i}" for i in range(p)]
    right = [f"b{j}" for j in range(q)]
    return Graph(left + right, product(left, right))


def star_graph(leaves: int) -> Graph:
    """One center ``c`` joined to ``leaves`` leaf vertices."""
    verts = ["c"] + [f"l{i}" for i in range(leaves)]
    return Graph(verts, [("c", f"l{i}") for i in range(leaves)])


def hypercube_graph(k: int) -> Graph:
    """Hypercube on binary strings of length ``k``; ``k = 0`` gives one vertex."""
    if k < 0:
        raise GraphError("dimension must be nonnegative")
    verts = ["".join(bits) for bits in product("01", repeat=k)] if k else [""]
    edges = []
    for v in verts:
        for i in range(k):
            if v[i] == "0":
                edges.append((v, v[:i] + "1" + v[i + 1 :]))
    return Graph(verts, edges)


# -- serialization ---------------------------------------------------------


class Gather(NamedTuple):
    """A column of ``Rows``: ``table[i]`` for every id ``i`` of ``ids``
    (an int array), in order, such as names quoted once or decimal ids
    from one shared ``decimals`` table. The writer makes the column only
    when it reaches it, so one gathered column is alive at a time."""

    table: Sequence[str]
    ids: np.ndarray


class Rows(NamedTuple):
    """``count`` records laid out column by column: a record is its
    columns in order, and ``sep`` stands between two records. A column is
    a ``str``, the same in every record, a list of ``count`` strings, one
    per record, or a ``Gather`` of ``count`` ids.

    In ``json_records`` the records fill an array, or an object when
    ``brackets`` is ``"{}"`` (each record a ``"key": value`` member), and
    the writer sets ``sep`` itself.
    """

    count: int
    columns: tuple[str | list[str] | Gather, ...]
    sep: str = ""
    brackets: str = "[]"


def decimals(n: int) -> list[str]:
    """The decimal strings of ``0..n-1``, a table to ``Gather`` ids from."""
    return list(map(str, range(n)))


def join_rows(parts: Iterable[str | Rows]) -> str:
    """One document from constant strings and ``Rows``, joined once.

    Every piece goes into one preallocated list, the pieces of a ``Rows``
    placed a column at a time by strided slice assignment, so no string
    is made per record and no tuple per row. Constant columns next to
    each other are merged, and so are the last constant of a record,
    ``sep`` and the first constant of the next.

    >>> names = Gather(["a", "b"], np.array([1, 0, 1]))
    >>> print(join_rows(["n=3\\n", Rows(3, ("[", decimals(3), "] ", names, ";"), "\\n")]))
    n=3
    [0] b;
    [1] a;
    [2] b;
    """
    layouts = [_row_layout(part if isinstance(part, Rows) else Rows(1, (part,)))
               for part in parts if not isinstance(part, Rows) or part.count]
    pieces = [""] * sum(1 + count * len(columns) for count, _, columns, _ in layouts)
    at = 0
    for count, lead, columns, tail in layouts:
        stride = len(columns)
        end = at + 1 + count * stride
        pieces[at] = lead
        for j, column in enumerate(columns):
            if isinstance(column, str):
                column = [column] * count
            elif isinstance(column, Gather):
                column = list(map(column.table.__getitem__, column.ids.tolist()))
            pieces[at + 1 + j : end : stride] = column
        pieces[end - 1] = tail
        at = end
    return "".join(pieces)


def _row_layout(rows: Rows) -> tuple[int, str, list[str | list[str] | Gather], str]:
    """The count, the leading constant, the columns of a record after it
    (constants next to each other merged) and the trailing constant. The
    last column is what stands between two records: the trailing
    constant, ``sep`` and the leading one; after the last record the
    trailing constant stands in its place."""
    merged: list[str | list[str] | Gather] = [""]
    for column in rows.columns:
        if isinstance(column, str) and isinstance(merged[-1], str):
            merged[-1] += column
        else:
            merged.append(column)
    tail = merged.pop() if len(merged) > 1 and isinstance(merged[-1], str) else ""
    lead = merged[0]
    return rows.count, lead, [*merged[1:], tail + rows.sep + lead], tail


def json_records(fields: dict[str, object], *, sort_keys: bool = False) -> str:
    """A JSON object laid out one record per line, ending in one newline.

    A field value is a ``str`` holding one encoded JSON value, ``Rows``
    (an array, or an object of members, one record per line) or a
    ``dict`` of field values (a nested object, one field per line).
    Containers are indented as by ``json.dumps(..., indent=2)``; a record
    stays on its line, so ``json.loads`` reads the same value either
    writer produced. Encode strings with ``quote``, the escaping
    ``json.dumps`` itself applies. The document is joined once, by
    ``join_rows``.

    >>> names = [quote("a"), quote("b")]
    >>> members = Rows(1, (names[:1], ": ", names[1:]), brackets="{}")
    >>> print(json_records({"n": "2", "names": Rows(2, (names,)), "map": members}), end="")
    {
      "n": 2,
      "names": [
        "a",
        "b"
      ],
      "map": {
        "a": "b"
      }
    }
    """
    parts: list[str | Rows] = []
    _json_parts(fields, "", sort_keys, parts)
    parts.append("\n")
    return join_rows(parts)


def _json_parts(value: object, pad: str, sort_keys: bool, parts: list[str | Rows]) -> None:
    if isinstance(value, str):
        parts.append(value)
        return
    inner = pad + "  "
    if isinstance(value, Rows):
        if not value.count:
            parts.append(value.brackets)
            return
        parts.append(f"{value.brackets[0]}\n{inner}")
        parts.append(value._replace(sep=",\n" + inner))
        parts.append(f"\n{pad}{value.brackets[1]}")
        return
    keys = sorted(value) if sort_keys else list(value)
    if not keys:
        parts.append("{}")
        return
    opening = "{"
    for key in keys:
        parts.append(f"{opening}\n{inner}{quote(key)}: ")
        _json_parts(value[key], inner, sort_keys, parts)
        opening = ","
    parts.append(f"\n{pad}}}")


def graph_fields(g: Graph) -> dict[str, Rows]:
    """The JSON fields of a graph: one record per vertex and per edge, the
    edges gathered from their sorted id pairs with each name quoted once."""
    codes = list(map(quote, g.vertices))
    lo, hi = g.edge_ids
    spaced = [code + ", " for code in codes]
    return {
        "vertices": Rows(len(codes), (codes,)),
        "edges": Rows(lo.size, ("[", Gather(spaced, lo), Gather(codes, hi), "]")),
    }


def graph_to_json(g: Graph) -> str:
    return json_records(graph_fields(g))


def parse_json(text: str, error: type[SpgError] = GraphError) -> object:
    """The JSON value of ``text``; invalid JSON raises ``error``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc}") from exc


def graph_from_json(text: str) -> Graph:
    return graph_from_value(parse_json(text))


def graph_from_value(payload: object) -> Graph:
    """The graph of a decoded graph JSON value, such as an entry of a
    corpus file; a value of the wrong shape raises GraphError."""
    if not isinstance(payload, dict):
        raise GraphError("graph JSON must be an object")
    for key in ("vertices", "edges"):
        if key not in payload:
            raise GraphError(f"graph JSON is missing {key!r}")
    verts = payload["vertices"]
    edges = payload["edges"]
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise GraphError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise GraphError("'edges' must be a list of pairs")
    # json.loads makes exact lists and strs, so exact type tests suffice
    bad = next((i for i, e in enumerate(edges) if not (
        type(e) is list and len(e) == 2 and type(e[0]) is str and type(e[1]) is str)), None)
    if bad is not None:
        raise GraphError(f"edge #{bad} must be a pair of vertex ids")
    return Graph(verts, edges)


def graph_from_edge_list(text: str) -> Graph:
    """Parse the plain text format: one ``u v`` pair per line, ``#`` comments.

    The vertices are the names that occur. Each edge is checked once, on
    ids, and a fault names its line."""
    first_seen: dict[str, int] = {}
    ends: list[int] = []
    lines: list[int] = []
    malformed = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            malformed = GraphError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
            break
        for x in parts:
            ends.append(first_seen.setdefault(x, len(first_seen)))
        lines.append(lineno)
    names = sorted(first_seen)
    # ids in order of first occurrence -> ranks among the sorted names
    rank = np.empty(len(names), dtype=np.int64)
    rank[[first_seen[v] for v in names]] = np.arange(len(names))
    ids = rank[ends].tolist() if ends else []
    try:
        lo, hi = _sorted_edge_ids(ids, len(names))
    except _EdgeFault as fault:
        k = fault.position
        u, v = names[ids[2 * k]], names[ids[2 * k + 1]]
        raise GraphError(f"line {lines[k]}: " + fault.template.format(u, v)) from None
    if malformed is not None:
        raise malformed
    return Graph._from_ids(tuple(names), lo, hi)
