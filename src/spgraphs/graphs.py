"""Finite simple graphs with string vertex ids, plus the handful of graph
operations the rest of the library is built on.

Vertices are opaque strings and the vertex tuple is kept sorted, so every
derived artifact (edge lists, serializations, search orders) is deterministic.
Edges are stored as ordered pairs ``(u, v)`` with ``u < v``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product
from json.encoder import encode_basestring_ascii as quote
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from .spg import SpGraph


class GraphError(ValueError):
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


class Graph:
    """An immutable finite simple undirected graph.

    >>> g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    """

    __slots__ = ("vertices", "edges", "_adj", "_index", "_bits")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        vs = [str(v) for v in vertices]
        seen = set(vs)
        if len(seen) != len(vs):
            raise GraphError("duplicate vertex id")
        self.vertices: tuple[str, ...] = tuple(sorted(vs))
        norm: set[tuple[str, str]] = set()
        for u, v in edges:
            u, v = str(u), str(v)
            if u == v:
                raise GraphError(f"self loop at {u!r}")
            if u not in seen or v not in seen:
                raise GraphError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
            e = _norm_edge(u, v)
            if e in norm:
                raise GraphError(f"duplicate edge ({u!r}, {v!r})")
            norm.add(e)
        self.edges: frozenset[tuple[str, str]] = frozenset(norm)
        self._adj: dict[str, frozenset[str]] | None = None
        self._index: dict[str, int] | None = None
        self._bits: list[int] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

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
        return v in self.adjacency

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges)

    # -- bitset view used by the search-heavy algorithms --------------------

    @property
    def index(self) -> dict[str, int]:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vertices)}
        return self._index

    @property
    def adjacency_bits(self) -> list[int]:
        """Adjacency as one int bitmask per vertex, in vertex order."""
        if self._bits is None:
            idx = self.index
            pairs = ((idx[u], idx[v]) for u, v in self.edges)
            self._bits = _bitmasks(len(self.vertices), pairs)
        return self._bits

    # -- equality and display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

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


@dataclass(frozen=True)
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


# -- products and unions ---------------------------------------------------


def _product_vertex(u: str, v: str) -> str:
    return f"({u},{v})"


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian graph product; copies of ``g2`` wired along edges of ``g1``.

    >>> square = cartesian_product(path_graph(1), path_graph(1))
    >>> square.num_vertices, square.num_edges
    (4, 4)
    """
    verts = [_product_vertex(u, v) for u in g1.vertices for v in g2.vertices]
    edges: list[tuple[str, str]] = []
    for u in g1.vertices:
        for x, y in g2.edges:
            edges.append((_product_vertex(u, x), _product_vertex(u, y)))
    for x, y in g1.edges:
        for v in g2.vertices:
            edges.append((_product_vertex(x, v), _product_vertex(y, v)))
    return Graph(verts, edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union with sides tagged ``L:`` and ``R:``."""
    verts = [f"L:{v}" for v in g1.vertices] + [f"R:{v}" for v in g2.vertices]
    edges = [(f"L:{u}", f"L:{v}") for u, v in g1.edges]
    edges += [(f"R:{u}", f"R:{v}") for u, v in g2.edges]
    return Graph(verts, edges)


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


def json_records(fields: dict[str, object], *, sort_keys: bool = False) -> str:
    """A JSON object laid out one record per line, ending in one newline.

    A field value is a ``str`` holding one encoded JSON value, a ``list`` of
    encoded records (an array, one record per line) or a ``dict`` of field
    values (a nested object, one field per line). Containers are indented
    as by ``json.dumps(..., indent=2)``; a record stays on its line, so
    ``json.loads`` reads the same value either writer produced. Encode
    strings with ``quote``, the escaping ``json.dumps`` itself applies.
    """
    return _json_value(fields, "", sort_keys) + "\n"


def _json_value(value: object, pad: str, sort_keys: bool) -> str:
    if isinstance(value, str):
        return value
    inner = pad + "  "
    if isinstance(value, dict):
        keys = sorted(value) if sort_keys else value
        items = [f"{quote(k)}: {_json_value(value[k], inner, sort_keys)}" for k in keys]
        brackets = "{}"
    else:
        items, brackets = value, "[]"
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def graph_fields(g: Graph) -> dict[str, list[str]]:
    """The JSON fields of a graph: one record per vertex and per edge."""
    return {
        "vertices": [quote(v) for v in g.vertices],
        "edges": [f"[{quote(u)}, {quote(v)}]" for u, v in g.sorted_edges()],
    }


def graph_to_json(g: Graph) -> str:
    return json_records(graph_fields(g))


def graph_from_json(text: str) -> Graph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
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
    """Parse the plain text format: one ``u v`` pair per line, ``#`` comments."""
    verts: list[str] = []
    seen: set[str] = set()
    norm_seen: set[tuple[str, str]] = set()
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        u, v = parts
        if u == v:
            raise GraphError(f"line {lineno}: self loop at {u!r}")
        for x in (u, v):
            if x not in seen:
                seen.add(x)
                verts.append(x)
        e = _norm_edge(u, v)
        if e in norm_seen:
            raise GraphError(f"line {lineno}: duplicate edge ({u!r}, {v!r})")
        norm_seen.add(e)
        pairs.append((u, v))
    return Graph(verts, pairs)
