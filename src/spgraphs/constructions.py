"""Base instances with known shortest path graphs, and the gluing
operations (disjoint-union gadget, one-sum, two-sum) whose effect on the
shortest path graph is predictable from the parts.

Each builder returns the instance together with its predicted shortest
path graph (an explicit Graph) and the correspondence that names each
geodesic of the instance by its predicted vertex, so callers can verify
the prediction against a direct construction by renaming, without any
isomorphism search. The odd-cycle host instead returns witness geodesics
that induce the odd cycle; its full shortest path graph is larger.

>>> result = hypercube_base(2)
>>> result.vertex_of(("c0", "x1", "c1", "y2", "c2"))
'01'
>>> matches_prediction(build_spg(result.instance), result.predicted, result.vertex_of)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .geodesics import (
    Geodesic,
    GeodesicOverflowError,
    NoGeodesicError,
    build_dag,
    count_geodesics,
    iter_geodesics,
    DEFAULT_GEODESIC_LIMIT,
)
from .graphs import (
    BaseInstance,
    Graph,
    GraphError,
    _norm_edge,
    complete_graph,
    cycle_graph,
    distances,
    empty_graph,
    hypercube_graph,
    path_graph,
)
from .spg import SpGraph, build_spg, difference_index, spg_from_geodesics

CASE_MATCHING = "matching"
CASE_THROUGH_X = "through-x"
CASE_THROUGH_Y = "through-y"
CASE_OVERLAP = "overlap"


@dataclass(frozen=True)
class ConstructionResult:
    """An instance plus what its shortest path graph should look like.

    ``vertex_of`` names each geodesic of the instance by the vertex of
    ``predicted`` it stands for; by default the name is the geodesic
    itself, joined with ``|``.
    """

    instance: BaseInstance
    predicted: Graph | None
    name: str
    witness: tuple[Geodesic, ...] | None = None
    vertex_of: Callable[[Geodesic], str] = "|".join


def matches_prediction(h: SpGraph, predicted: Graph, vertex_of: Callable[[Geodesic], str]) -> bool:
    """Whether renaming every geodesic of ``h`` by ``vertex_of`` turns ``h``
    into exactly ``predicted``. A naming that is not injective fails."""
    names = [vertex_of(geo) for geo in h.geodesics]
    if len(set(names)) != len(names):
        return False
    return Graph(names, [(names[i], names[j]) for i, j in h.edge_index]) == predicted


def parallel_paths(t: int, length: int) -> ConstructionResult:
    """``t`` internally disjoint a,b-paths of equal ``length`` >= 3.

    Any two of the paths differ in every interior position, so the
    shortest path graph has no edges at all.
    """
    if t < 1:
        raise GraphError("need at least one path")
    if length < 3:
        raise GraphError("paths of length < 3 would share interior structure")
    verts = ["a", "b"]
    edges = []
    for j in range(1, t + 1):
        chain = [f"p{j}_{s}" for s in range(1, length)]
        verts += chain
        edges.append(("a", chain[0]))
        edges += list(zip(chain, chain[1:]))
        edges.append((chain[-1], "b"))
    inst = BaseInstance(Graph(verts, edges), "a", "b")
    return ConstructionResult(
        inst,
        empty_graph(t),
        f"parallel-paths({t},{length})",
        # a geodesic is its path: p{j}_1 after a names vertex j - 1
        vertex_of=lambda geo: str(int(geo[1][1:].partition("_")[0]) - 1),
    )


def path_base(k: int) -> ConstructionResult:
    """An instance whose shortest path graph is the path with k edges.

    Two fans of distance-3 routes overlap so that consecutive routes share
    all but one vertex; the k+1 routes chain into a path.
    """
    if k < 1:
        raise GraphError("k must be positive")
    lo = k // 2
    hi = (k + 1) // 2
    verts = ["a", "b"] + [f"u{i}" for i in range(lo + 1)] + [f"w{i}" for i in range(hi + 1)]
    edges = [("a", f"u{i}") for i in range(lo + 1)]
    edges += [(f"u{i}", f"w{i}") for i in range(lo + 1)]
    edges += [(f"u{i - 1}", f"w{i}") for i in range(1, hi + 1)]
    edges += [(f"w{i}", "b") for i in range(hi + 1)]
    inst = BaseInstance(Graph(verts, edges), "a", "b")
    # route (a, u_i, w_j, b) is the (i + j)-th along the path
    return ConstructionResult(
        inst,
        path_graph(k),
        f"path({k})",
        vertex_of=lambda geo: str(int(geo[1][1:]) + int(geo[2][1:])),
    )


def complete_base(n: int) -> ConstructionResult:
    """K_{2,n} seen from the two-vertex side; its geodesics pairwise differ
    in the single middle position, giving the complete graph K_n."""
    if n < 1:
        raise GraphError("n must be positive")
    verts = ["a", "b"] + [f"m{i}" for i in range(n)]
    edges = [("a", f"m{i}") for i in range(n)] + [(f"m{i}", "b") for i in range(n)]
    inst = BaseInstance(Graph(verts, edges), "a", "b")
    return ConstructionResult(
        inst, complete_graph(n), f"complete({n})", vertex_of=lambda geo: geo[1][1:]
    )


def even_cycle_base(n: int) -> ConstructionResult:
    """An instance whose shortest path graph is the 2n-cycle (n >= 2).

    Two rings of middle vertices, with each a-side vertex adjacent to two
    cyclically consecutive b-side vertices; the 2n geodesics close into a
    single cycle.
    """
    if n < 2:
        raise GraphError("n must be at least 2")
    verts = ["a", "b"] + [f"u{i}" for i in range(n)] + [f"w{i}" for i in range(n)]
    edges = [("a", f"u{i}") for i in range(n)]
    edges += [(f"w{i}", "b") for i in range(n)]
    edges += [(f"u{i}", f"w{i}") for i in range(n)]
    edges += [(f"u{i}", f"w{(i + 1) % n}") for i in range(n)]
    inst = BaseInstance(Graph(verts, edges), "a", "b")

    def vertex_of(geo: Geodesic) -> str:
        # (a, u_i, w_i, b) is cycle vertex 2i, (a, u_i, w_{i+1}, b) is 2i + 1
        i, j = int(geo[1][1:]), int(geo[2][1:])
        return str(2 * i + (j != i))

    return ConstructionResult(
        inst, cycle_graph(2 * n), f"even-cycle({2 * n})", vertex_of=vertex_of
    )


def odd_cycle_host_base(p: int) -> ConstructionResult:
    """A host instance whose shortest path graph contains an induced odd
    cycle of length 2p+1 (p >= 3).

    Returns the 2p+1 witness geodesics; the construction validates that
    they are geodesics and that they induce the odd cycle (single-position
    differences exactly between cyclic neighbors).
    """
    if p < 3:
        raise GraphError("p must be at least 3")
    verts = ["a", "b", "z"] + [f"u{i}" for i in range(1, p + 1)] + [f"w{i}" for i in range(1, p + 1)]
    edges = [("a", "u1"), ("a", "w1"), ("b", f"u{p}"), ("b", f"w{p}")]
    edges += [("a", "z"), ("z", "w2"), ("z", "u2")]
    for i in range(1, p):
        edges += [
            (f"u{i}", f"u{i + 1}"),
            (f"w{i}", f"w{i + 1}"),
            (f"u{i}", f"w{i + 1}"),
            (f"w{i}", f"u{i + 1}"),
        ]
    graph = Graph(verts, edges)
    inst = BaseInstance(graph, "a", "b")

    u = [None] + [f"u{i}" for i in range(1, p + 1)]
    w = [None] + [f"w{i}" for i in range(1, p + 1)]
    witness: list[Geodesic] = []
    for j in range(p + 1):
        witness.append(("a", *w[1 : j + 1], *u[j + 1 : p + 1], "b"))
    for t in range(1, p):
        witness.append(("a", "z", *u[2 : t + 1], *w[t + 1 : p + 1], "b"))
    witness.append(("a", *u[1:p], w[p], "b"))
    _validate_witness_cycle(inst, tuple(witness))
    return ConstructionResult(inst, None, f"odd-cycle-host({2 * p + 1})", tuple(witness))


def _validate_witness_cycle(inst: BaseInstance, witness: tuple[Geodesic, ...]) -> None:
    """Each witness must be a geodesic; together they must induce a cycle."""
    g = inst.graph
    dist = distances(g, inst.source)
    d = dist[inst.target]
    if len(set(witness)) != len(witness):
        raise GraphError("witness geodesics are not distinct")
    for seq in witness:
        if len(seq) != d + 1 or seq[0] != inst.source or seq[-1] != inst.target:
            raise GraphError(f"witness {seq} does not span the endpoints at distance {d}")
        if len(set(seq)) != len(seq):
            raise GraphError(f"witness {seq} repeats a vertex")
        for a, b in zip(seq, seq[1:]):
            if not g.has_edge(a, b):
                raise GraphError(f"witness {seq} uses the non-edge ({a}, {b})")
    n = len(witness)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = difference_index(witness[i], witness[j]) is not None
            consecutive = j - i == 1 or (i == 0 and j == n - 1)
            if adjacent != consecutive:
                raise GraphError(
                    f"witness pair ({i}, {j}) breaks the cycle: "
                    f"adjacent={adjacent}, consecutive={consecutive}"
                )


def hypercube_base(k: int) -> ConstructionResult:
    """A chain of k squares glued at opposite corners; its shortest path
    graph is the k-dimensional hypercube."""
    if k < 1:
        raise GraphError("k must be positive")
    verts = [f"c{i}" for i in range(k + 1)]
    edges = []
    for i in range(1, k + 1):
        verts += [f"x{i}", f"y{i}"]
        edges += [
            (f"c{i - 1}", f"x{i}"),
            (f"x{i}", f"c{i}"),
            (f"c{i - 1}", f"y{i}"),
            (f"y{i}", f"c{i}"),
        ]
    inst = BaseInstance(Graph(verts, edges), "c0", f"c{k}")
    # a geodesic is its choice of x (0) or y (1) in each square
    return ConstructionResult(
        inst,
        hypercube_graph(k),
        f"hypercube({k})",
        vertex_of=lambda geo: "".join("01"[v[0] == "y"] for v in geo[1::2]),
    )


def _fresh(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "'"
    return name


def extend_distance(inst: BaseInstance, new_d: int) -> BaseInstance:
    """Append a pendant tail behind the target so the endpoint distance
    becomes ``new_d``; every geodesic gains the same forced suffix, leaving
    the shortest path graph unchanged."""
    return _extend(inst, new_d)[0]


def _extend(inst: BaseInstance, new_d: int) -> tuple[BaseInstance, tuple[str, ...]]:
    """``extend_distance`` plus the tail it appended, in path order."""
    d = distances(inst.graph, inst.source)[inst.target]
    if d == float("inf"):
        raise NoGeodesicError("endpoints are disconnected")
    if new_d < d:
        raise GraphError(f"cannot shorten distance {int(d)} to {new_d}")
    if new_d == d:
        return inst, ()
    used = set(inst.graph.vertices)
    tail = []
    for i in range(1, new_d - int(d) + 1):
        name = _fresh(f"t{i}", used)
        used.add(name)
        tail.append(name)
    verts = list(inst.graph.vertices) + tail
    edges = list(inst.graph.edges) + list(zip([inst.target] + tail, tail))
    return BaseInstance(Graph(verts, edges), inst.source, tail[-1]), tuple(tail)


def union_base(
    i1: BaseInstance, i2: BaseInstance, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> ConstructionResult:
    """Glue two instances in parallel behind fresh endpoints.

    The sides are first brought to equal endpoint distance (pendant
    tails), then a new source is joined to both old sources and both old
    targets to a new target. Geodesics stay inside one side, and geodesics
    of different sides differ everywhere, so the shortest path graph is
    the disjoint union of the two sides' shortest path graphs. The
    prediction names each side's geodesic by the glued geodesic it
    becomes: new source, the tagged side geodesic and tail, new target.
    More than ``limit`` geodesics in all raise GeodesicOverflowError
    before either side is enumerated.
    """
    dags = (build_dag(i1), build_dag(i2))
    total = sum(count_geodesics(dag) for dag in dags)
    if total > limit:
        raise GeodesicOverflowError(total, limit)
    target_d = max(dag.d for dag in dags)
    verts, edges = ["a", "b"], []
    names: list[str] = []
    pairs: list[tuple[str, str]] = []
    for tag, side, dag in zip("LR", (i1, i2), dags):
        ext, tail = _extend(side, target_d)
        verts += [f"{tag}:{v}" for v in ext.graph.vertices]
        edges += [(f"{tag}:{u}", f"{tag}:{v}") for u, v in ext.graph.edges]
        edges += [("a", f"{tag}:{ext.source}"), (f"{tag}:{ext.target}", "b")]
        h = spg_from_geodesics(list(iter_geodesics(dag)))
        glued = ["|".join(("a", *(f"{tag}:{v}" for v in geo + tail), "b")) for geo in h.geodesics]
        names += glued
        pairs += [(glued[i], glued[j]) for i, j in h.edge_index]
    inst = BaseInstance(Graph(verts, edges), "a", "b")
    return ConstructionResult(inst, Graph(names, pairs), "union")


def one_sum(
    i1: BaseInstance, i2: BaseInstance, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> ConstructionResult:
    """Identify the target of one instance with the source of another.

    The cut vertex lies on every geodesic of the glued instance, so
    geodesics are exactly prefix-suffix concatenations and the shortest
    path graph is the Cartesian product of the parts' shortest path
    graphs, its vertices named by the concatenated geodesics. Both parts
    need connected endpoints, and a product of more than ``limit``
    geodesics raises GeodesicOverflowError before it is built.
    """

    def left(v: str) -> str:
        return "c" if v == i1.target else f"L:{v}"

    def right(v: str) -> str:
        return "c" if v == i2.source else f"R:{v}"

    g1 = i1.graph.relabel({v: left(v) for v in i1.graph.vertices})
    g2 = i2.graph.relabel({v: right(v) for v in i2.graph.vertices})
    glued = Graph(set(g1.vertices) | set(g2.vertices), g1.edges | g2.edges)
    inst = BaseInstance(glued, left(i1.source), right(i2.target))
    vertices, edges = _part_product(
        BaseInstance(g1, inst.source, "c"), BaseInstance(g2, "c", inst.target), limit=limit
    )
    return ConstructionResult(inst, Graph(vertices, edges), "one-sum")


def _glue_two_sum(
    g1: Graph, a: str, g2: Graph, b: str, x: str, y: str
) -> tuple[Graph, str, str, Graph, Graph]:
    if x == y:
        raise GraphError("the shared edge needs two distinct endpoints")
    for g, label in ((g1, "first"), (g2, "second")):
        for v in (x, y):
            if not g.has_vertex(v):
                raise GraphError(f"the {label} graph is missing shared vertex {v!r}")
        if not g.has_edge(x, y):
            raise GraphError(f"the {label} graph is missing the shared edge")
    if a in (x, y) or not g1.has_vertex(a):
        raise GraphError("source must lie in the first graph, off the shared edge")
    if b in (x, y) or not g2.has_vertex(b):
        raise GraphError("target must lie in the second graph, off the shared edge")

    def left(v: str) -> str:
        return v if v in (x, y) else f"L:{v}"

    def right(v: str) -> str:
        return v if v in (x, y) else f"R:{v}"

    g1r = g1.relabel({v: left(v) for v in g1.vertices})
    g2r = g2.relabel({v: right(v) for v in g2.vertices})
    overlap = set(g1r.vertices) & set(g2r.vertices)
    if overlap != {x, y}:
        raise GraphError(f"relabeled sides overlap in {sorted(overlap)}, not just the shared edge")
    verts = set(g1r.vertices) | set(g2r.vertices)
    edges = set(g1r.edges) | set(g2r.edges)
    return Graph(verts, edges), left(a), right(b), g1r, g2r


def two_sum(g1: Graph, a: str, g2: Graph, b: str, x: str, y: str) -> BaseInstance:
    """Glue two graphs along the shared edge (x, y); endpoints a (first
    side) and b (second side)."""
    glued, source, target, _, _ = _glue_two_sum(g1, a, g2, b, x, y)
    return BaseInstance(glued, source, target)


@dataclass(frozen=True)
class TwoSumPrediction:
    """Case split and predicted shortest path graph for a two-sum.

    The case depends on how the shared vertices sit between the
    endpoints: ``matching`` (x and y equidistant from both endpoints),
    ``through-x``/``through-y`` (one shared vertex strictly closer on one
    side, no farther on the other), or ``overlap`` (x closer to one
    endpoint, y closer to the other). Predicted vertices are named by the
    full geodesic they stand for.
    """

    case: str
    predicted: Graph
    d_ax: int
    d_ay: int
    d_xb: int
    d_yb: int


def _part_product(
    left_inst: BaseInstance, right_inst: BaseInstance, *, limit: int
) -> tuple[dict[str, tuple[Geodesic, Geodesic]], set[tuple[str, str]]]:
    """Vertices and edges of S(left) x S(right), with concatenated names.

    A product of more than ``limit`` vertices raises GeodesicOverflowError
    (carrying its size) before either side is enumerated.
    """
    left_dag, right_dag = build_dag(left_inst), build_dag(right_inst)
    size = count_geodesics(left_dag) * count_geodesics(right_dag)
    if size > limit:
        raise GeodesicOverflowError(size, limit)
    left = list(iter_geodesics(left_dag))
    right = list(iter_geodesics(right_dag))
    left_spg = spg_from_geodesics(left).edge_index
    right_spg = spg_from_geodesics(right).edge_index

    def name(p: Geodesic, q: Geodesic) -> str:
        return "|".join(p + q[1:])

    vertices = {name(p, q): (p, q) for p in left for q in right}
    edges: set[tuple[str, str]] = set()
    for i, j in left_spg:
        for q in right:
            edges.add(_norm_edge(name(left[i], q), name(left[j], q)))
    for i, j in right_spg:
        for p in left:
            edges.add(_norm_edge(name(p, right[i]), name(p, right[j])))
    return vertices, edges


def predict_two_sum(
    g1: Graph,
    a: str,
    g2: Graph,
    b: str,
    x: str,
    y: str,
    *,
    limit: int = DEFAULT_GEODESIC_LIMIT,
) -> TwoSumPrediction:
    """Predict S(two_sum(...)) from the parts alone.

    The prediction composes geodesics of the sides (source to shared
    vertex, shared vertex to target) and never looks at the glued
    instance's own geodesics. A prediction of more than ``limit``
    vertices raises GeodesicOverflowError (carrying its size) before
    either part is built.
    """
    glued, source, target, g1r, g2r = _glue_two_sum(g1, a, g2, b, x, y)
    dist_a = distances(glued, source)
    dist_b = distances(glued, target)
    inf = float("inf")
    if dist_a[target] == inf:
        raise NoGeodesicError("endpoints are disconnected in the two-sum")
    if inf in (dist_a[x], dist_a[y], dist_b[x], dist_b[y]):
        raise NoGeodesicError("a shared vertex is unreachable from an endpoint")
    d_ax, d_ay = int(dist_a[x]), int(dist_a[y])
    d_xb, d_yb = int(dist_b[x]), int(dist_b[y])

    if d_ax == d_ay and d_xb == d_yb:
        case = CASE_MATCHING
    elif d_ax <= d_ay and d_xb <= d_yb:
        case = CASE_THROUGH_X
    elif d_ax >= d_ay and d_xb >= d_yb:
        case = CASE_THROUGH_Y
    else:
        case = CASE_OVERLAP

    # the shared vertices that geodesics of the glued instance pass through
    through = {CASE_THROUGH_X: (x,), CASE_THROUGH_Y: (y,)}.get(case, (x, y))

    def count(g: Graph, s: str, t: str) -> int:
        return count_geodesics(build_dag(BaseInstance(g, s, t)))

    size = sum(count(g1r, source, v) * count(g2r, v, target) for v in through)
    if case == CASE_OVERLAP:  # a geodesic over the shared edge is in both parts
        first, second = (x, y) if d_ax < d_ay else (y, x)
        size -= count(g1r, source, first) * count(g2r, second, target)
    if size > limit:
        raise GeodesicOverflowError(size, limit)
    parts: dict[str, dict[str, tuple[Geodesic, Geodesic]]] = {x: {}, y: {}}
    edges: set[tuple[str, str]] = set()
    for v in through:
        parts[v], part_edges = _part_product(
            BaseInstance(g1r, source, v), BaseInstance(g2r, v, target), limit=limit
        )
        edges |= part_edges

    if case == CASE_MATCHING:
        by_prefix: dict[Geodesic, list[tuple[Geodesic, Geodesic]]] = {}
        for p, q in parts[y].values():
            by_prefix.setdefault(p[:-1], []).append((p, q))
        for name, (p, q) in parts[x].items():
            for p2, q2 in by_prefix.get(p[:-1], ()):
                if q2[1:] == q[1:]:
                    edges.add(_norm_edge(name, "|".join(p2 + q2[1:])))
    return TwoSumPrediction(
        case=case,
        predicted=Graph({**parts[x], **parts[y]}, edges),
        d_ax=d_ax,
        d_ay=d_ay,
        d_xb=d_xb,
        d_yb=d_yb,
    )
