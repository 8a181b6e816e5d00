"""Executable checks for the structural facts this library is built around.

Each checker takes a shortest path graph (or a base instance, which it
builds first) and returns a CheckReport: pass, or fail with a concrete
witness that a one-line predicate can re-verify. Checkers never assume
their input is realizable as a shortest path graph, so deliberately broken
hand-built inputs can demonstrate that every checker is able to fail.

The module also carries the corpus machinery (exhaustive small graphs up
to isomorphism, seeded random instances) and the heavier whole-family
checks for grids, staircases, and permutation graphs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Iterator

import numpy as np

from .constructions import (
    CASE_OVERLAP,
    matches_prediction,
    one_sum,
    predict_two_sum,
    two_sum,
    union_base,
)
from .geodesics import (
    DEFAULT_GEODESIC_LIMIT,
    GeodesicOverflowError,
    build_dag,
    geodesic_matrix,
    guarded_count,
)
from .graphs import (
    BaseInstance,
    Graph,
    GraphError,
    connected_components,
    distances,
    girth,
    is_connected,
    iter_bits,
)
from .grid import (
    GridSpec,
    cayley_adjacent_transpositions,
    coord_name,
    grid_base,
    image_violation,
    MoveSequence,
    phi_batch,
    place_values,
    staircase,
    tournament_of,
    words_array,
)
from .isomorphism import _canonical_code, find_isomorphism
from .patterns import find_induced, has_induced
from .spg import (
    SpGraph,
    SpgStructureError,
    build_spg,
    decompose_at_index,
    difference_positions,
    matrix_adjacency,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: a verdict plus the evidence for it."""

    name: str
    passed: bool
    witness: str | None = None
    stats: dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "passed": self.passed,
                "witness": self.witness,
                "stats": self.stats,
            },
            sort_keys=True,
            default=str,
        )

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        tail = "" if self.witness is None else f" [{self.witness}]"
        return f"{self.name}: {verdict}{tail}"


def _as_spg(obj: BaseInstance | SpGraph, *, limit: int) -> SpGraph:
    if isinstance(obj, BaseInstance):
        return build_spg(obj, limit=limit)
    if isinstance(obj, SpGraph):
        return obj
    raise TypeError(f"expected BaseInstance or SpGraph, got {type(obj).__name__}")


def _geo_str(h: SpGraph, *indices: int) -> str:
    """Geodesics by their vertex sequences, separated by bars."""
    return " | ".join(" ".join(h.geodesics[i]) for i in indices)


# -- single-structure checkers ----------------------------------------------

# longest odd cycle that check_odd_cycle_c4 searches for
_ODD_CYCLE_CAP = 9


def check_p3_c4(
    obj: BaseInstance | SpGraph, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> CheckReport:
    """Induced paths on three vertices whose two difference indices are at
    least two apart must sit inside an induced four-cycle."""
    h = _as_spg(obj, limit=limit)
    masks = h.adjacency_bits
    triples = 0
    for mid in h.vertices:
        for u, w in combinations(iter_bits(masks[mid]), 2):
            if masks[u] >> w & 1:
                continue
            iu = h.edge_index[(u, mid) if u < mid else (mid, u)]
            iw = h.edge_index[(w, mid) if w < mid else (mid, w)]
            if abs(iu - iw) < 2:
                continue
            triples += 1
            fourth = masks[u] & masks[w] & ~masks[mid] & ~(1 << mid)
            if not fourth:
                return CheckReport(
                    "p3-c4",
                    False,
                    f"no four-cycle through {_geo_str(h, u, mid, w)} "
                    f"(indices {iu}, {iw})",
                    {"far_triples": triples},
                )
    return CheckReport("p3-c4", True, None, {"far_triples": triples})


def check_no_induced_c5(
    obj: BaseInstance | SpGraph, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> CheckReport:
    """No shortest path graph contains an induced five-cycle."""
    h = _as_spg(obj, limit=limit)
    found = find_induced(h, "C5")
    stats = {"vertices": h.num_vertices, "edges": h.num_edges}
    if found:
        return CheckReport(
            "no-induced-c5", False, f"induced five-cycle {_geo_str(h, *found[0])}", stats
        )
    return CheckReport("no-induced-c5", True, None, stats)


def check_claw_in_c4(
    obj: BaseInstance | SpGraph, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> CheckReport:
    """Every induced claw has a four-cycle through two of its edges.

    The four-cycle runs center, leaf, opposite vertex, other leaf; it does
    not need to be induced.
    """
    h = _as_spg(obj, limit=limit)
    masks = h.adjacency_bits
    claws = find_induced(h, "claw")
    for center, *leaves in claws:
        if not any(masks[p] & masks[q] & ~(1 << center) for p, q in combinations(leaves, 2)):
            return CheckReport(
                "claw-in-c4",
                False,
                f"claw {_geo_str(h, center, *leaves)} lies on no four-cycle "
                f"through two of its edges",
                {"claws": len(claws)},
            )
    return CheckReport("claw-in-c4", True, None, {"claws": len(claws)})


def check_odd_cycle_c4(
    obj: BaseInstance | SpGraph, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> CheckReport:
    """An induced odd cycle longer than a triangle forces an induced
    four-cycle. The odd-cycle search stops at length nine."""
    h = _as_spg(obj, limit=limit)
    stats: dict[str, object] = {"cap": _ODD_CYCLE_CAP, "odd_cycle": None}
    for k in range(5, _ODD_CYCLE_CAP + 1, 2):
        found = find_induced(h, f"C{k}")
        if found:
            stats["odd_cycle"] = k
            if has_induced(h, "C4"):
                return CheckReport("odd-cycle-c4", True, None, stats)
            return CheckReport(
                "odd-cycle-c4",
                False,
                f"induced {k}-cycle {_geo_str(h, *found[0])} but no induced four-cycle",
                stats,
            )
    return CheckReport("odd-cycle-c4", True, None, stats)


def check_girth5_classification(
    obj: BaseInstance | SpGraph, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> CheckReport:
    """Without cycles shorter than five, every nontrivial component must be
    a path or an even cycle on at least six vertices.

    "Even length greater than 5" is read as length at least six; the girth
    bound already rules out shorter cycles. A graph of girth exactly five
    fails (an odd cycle is neither allowed shape), which is the point: no
    shortest path graph has girth five.
    """
    h = _as_spg(obj, limit=limit)
    gr = girth(h)
    stats: dict[str, object] = {"girth": gr, "components": 0}
    if gr < 5:
        return CheckReport("girth5-classification", True, None, stats)
    masks = h.adjacency_bits
    for comp in connected_components(h):
        if len(comp) == 1:
            continue
        stats["components"] = int(stats["components"]) + 1
        degrees = [masks[v].bit_count() for v in comp]
        # a connected graph of maximum degree two is a path, or a cycle when
        # every degree is two; girth >= 5 makes an even cycle at least six long
        if max(degrees) > 2 or (min(degrees) == 2 and len(comp) % 2):
            return CheckReport(
                "girth5-classification",
                False,
                f"component {_geo_str(h, *comp)} is neither a path nor an even cycle >= 6",
                stats,
            )
    return CheckReport("girth5-classification", True, None, stats)


def check_complete_iff_same_index(
    obj: BaseInstance | SpGraph, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> CheckReport:
    """The graph is complete exactly when all geodesic pairs differ at one
    shared position. Completeness is read off the edge set, the shared
    position off the sequences, so the two sides are independent."""
    h = _as_spg(obj, limit=limit)
    n = h.num_vertices
    stats = {"vertices": n, "edges": h.num_edges}
    if n <= 1:
        return CheckReport("complete-iff-same-index", True, None, stats)
    complete = h.num_edges == n * (n - 1) // 2
    same_index = True
    common: int | None = None
    for u, w in combinations(range(n), 2):
        diffs = difference_positions(h.geodesics[u], h.geodesics[w])
        if len(diffs) != 1 or (common is not None and diffs[0] != common):
            same_index = False
            break
        common = diffs[0]
    if complete == same_index:
        return CheckReport("complete-iff-same-index", True, None, stats)
    return CheckReport(
        "complete-iff-same-index",
        False,
        f"complete={complete} but single shared difference index={same_index}",
        stats,
    )


def _is_product(
    h: SpGraph, members: tuple[int, ...], edges: list[tuple[int, int]], i: int,
    left: SpGraph, right: SpGraph,
) -> bool:
    """Whether cutting each member geodesic at position i into a prefix (a
    vertex of ``left``) and a suffix (a vertex of ``right``) maps the group
    and its inner ``edges`` one to one onto the Cartesian product."""
    lpos = {geo: t for t, geo in enumerate(left.geodesics)}
    rpos = {geo: t for t, geo in enumerate(right.geodesics)}
    pair = {
        g: (lpos.get(h.geodesics[g][: i + 1]), rpos.get(h.geodesics[g][i:]))
        for g in members
    }
    # total, injective and onto the product's vertices
    cells = set(product(range(left.num_vertices), range(right.num_vertices)))
    if len(members) != len(cells) or set(pair.values()) != cells:
        return False
    for u, w in edges:
        (lu, ru), (lw, rw) = pair[u], pair[w]
        if lu == lw:
            step = (min(ru, rw), max(ru, rw)) in right.edge_index
        else:
            step = ru == rw and (min(lu, lw), max(lu, lw)) in left.edge_index
        if not step:
            return False
    # every inner edge is a product edge, so equal counts leave none missing
    return len(edges) == (
        left.num_edges * right.num_vertices + left.num_vertices * right.num_edges
    )


def check_decomposition(
    obj: BaseInstance | SpGraph,
    i: int | None = None,
    *,
    limit: int = DEFAULT_GEODESIC_LIMIT,
) -> CheckReport:
    """Splitting at interior position i groups geodesics by their vertex
    there; edges cross groups exactly at difference index i and form
    partial matchings between group pairs, and each group (given the base
    instance) is the Cartesian product of the two one-sided shortest path
    graphs through its middle vertex, certified by cutting every geodesic
    there into a prefix and a suffix. With ``i=None`` every interior
    position is checked."""
    inst = obj if isinstance(obj, BaseInstance) else None
    h = _as_spg(obj, limit=limit)
    name = "decomposition" if i is None else f"decomposition@{i}"
    stats: dict[str, object] = {"indices": 0, "products": 0}
    if h.num_vertices == 0 or h.d is None or h.d < 2:
        return CheckReport(name, True, None, stats)
    if i is not None and not 1 <= i <= h.d - 1:
        raise SpgStructureError(f"index {i} is not interior for d={h.d}")
    for idx in range(1, h.d) if i is None else (i,):
        try:
            dec = decompose_at_index(h, idx)
        except SpgStructureError as exc:
            return CheckReport(name, False, str(exc), stats)
        group_of = {}
        for k, comp in enumerate(dec.components):
            for vi in comp:
                group_of[vi] = k
        taken: set[tuple[int, int]] = set()
        for u, w in dec.cross_edges:
            for src, other in ((u, group_of[w]), (w, group_of[u])):
                if (src, other) in taken:
                    return CheckReport(
                        name,
                        False,
                        f"two edges at index {idx} join geodesic {src} "
                        f"to the group of {dec.middle_vertices[other]}",
                        stats,
                    )
                taken.add((src, other))
        stats["indices"] = int(stats["indices"]) + 1
        if inst is None:
            continue
        inner: list[list[tuple[int, int]]] = [[] for _ in dec.components]
        for (u, w), pos in h.edge_index.items():
            if pos != idx:
                inner[group_of[u]].append((u, w))
        for k, v in enumerate(dec.middle_vertices):
            left = build_spg(BaseInstance(inst.graph, inst.source, v), limit=limit)
            right = build_spg(BaseInstance(inst.graph, v, inst.target), limit=limit)
            if not _is_product(h, dec.components[k], inner[k], idx, left, right):
                return CheckReport(
                    name,
                    False,
                    f"group through {v} at position {idx} is not the product "
                    f"of the one-sided shortest path graphs",
                    stats,
                )
            stats["products"] = int(stats["products"]) + 1
    return CheckReport(name, True, None, stats)


# -- sum checkers ------------------------------------------------------------


def check_sum_theorems(
    kind: str, *parts, limit: int = DEFAULT_GEODESIC_LIMIT
) -> CheckReport:
    """Compare a glued instance's shortest path graph with the composition
    predicted from its parts.

    kind "one-sum" and "union" take two base instances; kind "two-sum"
    takes (g1, a, g2, b, x, y) with (x, y) the shared edge. Every direct
    geodesic is renamed by the prediction's correspondence, and the
    renamed graph must equal the prediction. For two-sums whose case is
    not "overlap", the check also deletes the shared edge and requires the
    geodesics and the shortest path graph to be untouched.
    """
    if kind == "one-sum" or kind == "union":
        if len(parts) != 2:
            raise GraphError(f"{kind} expects two instances")
        result = (one_sum if kind == "one-sum" else union_base)(*parts, limit=limit)
        inst, predicted, vertex_of = result.instance, result.predicted, result.vertex_of
        stats: dict[str, object] = {}
        case = ""
    elif kind == "two-sum":
        if len(parts) != 6:
            raise GraphError("two-sum expects (g1, a, g2, b, x, y)")
        prediction = predict_two_sum(*parts, limit=limit)
        inst, predicted, vertex_of = two_sum(*parts), prediction.predicted, "|".join
        stats = {"case": prediction.case}
        case = f"case {prediction.case}: "
    else:
        raise GraphError(f"unknown sum kind {kind!r}")
    direct = build_spg(inst, limit=limit)
    stats.update(vertices=direct.num_vertices, edges=direct.num_edges)
    if not matches_prediction(direct, predicted, vertex_of):
        return CheckReport(
            kind, False, f"{case}direct shortest path graph differs from prediction", stats
        )
    if kind == "two-sum" and prediction.case != CASE_OVERLAP:
        x, y = parts[4:]
        pruned = BaseInstance(inst.graph.without_edge(x, y), inst.source, inst.target)
        after = build_spg(pruned, limit=limit)
        if after.geodesics != direct.geodesics or after.edge_index != direct.edge_index:
            witness = f"{case}deleting the shared edge changed the shortest path graph"
            return CheckReport(kind, False, witness, stats)
    return CheckReport(kind, True, None, stats)


# -- corpora ------------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All simple graphs on exactly n vertices, one per isomorphism class.

    Builds up one vertex at a time: every graph on n vertices arises from
    some graph on n-1 vertices by adding one vertex with some neighborhood,
    so scanning all neighborhoods of all smaller classes is exhaustive.
    Each candidate is kept when its canonical code (``canonical_form``,
    refinement and individualization pruned only by twins) is new, so the
    first candidate of each class is the one kept.

    >>> [len(enumerate_graphs(n)) for n in range(1, 5)]
    [1, 2, 4, 11]
    """
    if n < 1:
        raise GraphError("n must be positive")
    if n == 1:
        return (Graph(["0"]),)
    out: list[Graph] = []
    seen: set[int] = set()
    top = n - 1
    new_vertex = str(top)
    for g in enumerate_graphs(top):
        base = g.vertices
        bits = g.adjacency_bits
        edges = g.sorted_edges()
        for mask in range(2**top):
            code = _canonical_code(
                [b | (mask >> t & 1) << top for t, b in enumerate(bits)] + [mask]
            )
            if code in seen:
                continue
            seen.add(code)
            grown = edges + [(base[t], new_vertex) for t in range(top) if mask >> t & 1]
            out.append(Graph(base + (new_vertex,), grown))
    return tuple(out)


def connected_graphs(n: int) -> tuple[Graph, ...]:
    """The connected isomorphism classes on exactly n vertices.

    >>> [len(connected_graphs(n)) for n in range(1, 5)]
    [1, 1, 2, 6]
    """
    return tuple(g for g in enumerate_graphs(n) if is_connected(g))


def exhaustive_instances(max_n: int) -> Iterator[BaseInstance]:
    """Every connected graph on 2..max_n vertices (up to isomorphism) with
    every ordered endpoint pair."""
    for n in range(2, max_n + 1):
        for g in connected_graphs(n):
            for a in g.vertices:
                for b in g.vertices:
                    if a != b:
                        yield BaseInstance(g, a, b)


def random_instances(
    count: int, *, max_vertices: int = 10, seed: int = 0
) -> list[BaseInstance]:
    """Seeded random instances: G(n, p) with n in 4..max_vertices and
    p in {0.3, 0.5}, endpoints redrawn until connected."""
    if count < 0 or max_vertices < 4:
        raise GraphError("random instances need count >= 0 and max_vertices >= 4")
    rng = random.Random(seed)
    out: list[BaseInstance] = []
    while len(out) < count:
        n = rng.randint(4, max_vertices)
        p = rng.choice((0.3, 0.5))
        names = [str(t) for t in range(n)]
        edges = [
            (u, v) for u, v in combinations(names, 2) if rng.random() < p
        ]
        g = Graph(names, edges)
        a, b = rng.sample(names, 2)
        if distances(g, a)[b] == math.inf:
            continue
        out.append(BaseInstance(g, a, b))
    return out


def instance_label(inst: BaseInstance) -> str:
    return (
        f"{inst.graph.num_vertices}v{inst.graph.num_edges}e:"
        f"{inst.source}->{inst.target}"
    )


STANDARD_CHECKS: dict[str, Callable[..., CheckReport]] = {
    "p3-c4": check_p3_c4,
    "no-induced-c5": check_no_induced_c5,
    "claw-in-c4": check_claw_in_c4,
    "odd-cycle-c4": check_odd_cycle_c4,
    "girth5-classification": check_girth5_classification,
    "complete-iff-same-index": check_complete_iff_same_index,
}


@dataclass
class CheckRollup:
    ran: int = 0
    failed: int = 0
    first_failure: str | None = None


@dataclass
class CorpusSummary:
    instances: int
    rollups: dict[str, CheckRollup]

    @property
    def passed(self) -> bool:
        return all(r.failed == 0 for r in self.rollups.values())

    def table(self) -> str:
        width = max(len(name) for name in self.rollups) if self.rollups else 4
        lines = [f"instances: {self.instances}"]
        for name in sorted(self.rollups):
            r = self.rollups[name]
            verdict = "pass" if r.failed == 0 else f"FAIL ({r.failed})"
            lines.append(f"  {name:<{width}}  ran {r.ran:>6}  {verdict}")
            if r.first_failure is not None:
                lines.append(f"    first failure: {r.first_failure}")
        return "\n".join(lines)


def run_corpus(
    instances: Iterable[BaseInstance],
    *,
    checks: Iterable[str] | None = None,
    include_decomposition: bool = False,
    limit: int = DEFAULT_GEODESIC_LIMIT,
) -> CorpusSummary:
    """Run the named checks (default: all standard ones) over a corpus and
    aggregate the outcomes per check."""
    names = list(STANDARD_CHECKS) if checks is None else list(checks)
    unknown = [name for name in names if name not in STANDARD_CHECKS]
    if unknown:
        raise GraphError(f"unknown checks: {', '.join(unknown)}")
    rollups: dict[str, CheckRollup] = {name: CheckRollup() for name in names}
    if include_decomposition:
        rollups["decomposition"] = CheckRollup()
    total = 0
    for pos, inst in enumerate(instances):
        total += 1
        h = build_spg(inst, limit=limit)
        reports = [(name, STANDARD_CHECKS[name](h)) for name in names]
        if include_decomposition:
            reports.append(("decomposition", check_decomposition(inst, limit=limit)))
        for name, report in reports:
            roll = rollups[name]
            roll.ran += 1
            if not report.passed:
                roll.failed += 1
                if roll.first_failure is None:
                    roll.first_failure = (
                        f"#{pos} {instance_label(inst)}: {report.witness}"
                    )
    return CorpusSummary(total, rollups)


# -- whole-family checks -------------------------------------------------------


def check_grid_embedding(
    spec: GridSpec, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> CheckReport:
    """End-to-end check of one grid: ``phi`` is injective and meets the
    image constraints, the lattice steps inside its image are exactly the
    word switches, and the grid's shortest path graph is the word graph
    edge for edge.

    Every lattice step is checked to be a switch, and there must be as many
    steps as switches, so the two sets are equal. Each geodesic is decoded
    step by step into its word, so the final comparison certifies an
    isomorphism rather than searching for one. A grid whose lattice points
    do not pack into one int64 (radix n_i + 1 per coordinate) raises
    GraphError.
    """
    return _embed_grid(spec, limit)[0]


def _embed_grid(spec: GridSpec, limit: int) -> tuple[CheckReport, np.ndarray, np.ndarray]:
    """The body of ``check_grid_embedding``: its report, the ``phi``
    coordinates of the lexicographic words, and the word edges packed as
    ``u * words + v`` with ``u < v``, sorted. Only a passing report vouches
    for the arrays.

    The word list is checked to hold every word once, which the count of
    switches rests on. Geodesic k decodes to word ``total - 1 - k``: the
    grid's vertex ids are mixed radix, and geodesics come in increasing id
    sequence, which is decreasing word order.
    """
    name = "grid-embedding-" + "x".join(str(n) for n in spec.dims)
    count = spec.word_count()
    if count > limit:
        raise GeodesicOverflowError(count, limit)
    words = words_array(spec)
    total, n_moves = words.shape
    stats: dict[str, object] = {"words": total, "dimension": spec.embedding_dim}
    # every row has the symbol counts of a word, or phi_batch raises
    coords = phi_batch(spec, words)

    def fail(witness: str) -> tuple[CheckReport, np.ndarray, np.ndarray]:
        return CheckReport(name, False, witness, stats), coords, np.empty(0, dtype=np.int64)

    if total != count:
        return fail(f"{total} words listed, {count} expected")
    # uint8 rows as byte strings order lexicographically
    keys = np.ascontiguousarray(words).view(f"S{n_moves}").ravel()
    if not bool(np.all(keys[1:] > keys[:-1])):
        return fail("word enumeration is not strictly lexicographic")
    del keys  # a view: it would keep the words alive past the decode

    cols = np.ascontiguousarray(coords.T)
    witness = image_violation(spec, cols)
    if witness is not None:
        return fail(witness)
    word_edges = _lattice_edges(spec, words, cols)
    del cols
    if isinstance(word_edges, str):
        return fail(word_edges)
    stats["edges"] = int(word_edges.size)

    # the shortest path graph side, from the grid graph: a unit step along
    # axis a adds place[a] to the vertex id, so geodesic k must step by the
    # place values of word total - 1 - k. That map is a bijection whatever
    # the ids mean, so equal edge sets certify the isomorphism.
    dag = build_dag(grid_base(spec))
    n_geodesics = guarded_count(dag, limit)
    if n_geodesics != total:
        return fail(f"{n_geodesics} geodesics but {total} words")
    matrix = geodesic_matrix(dag)
    place = place_values([n + 1 for n in spec.dims]).astype(np.int32)
    steps = np.diff(matrix, axis=1)
    expected = place[words[::-1] - 1]
    del words
    if not np.array_equal(steps, expected):
        odd = ~np.isin(steps, place).all(axis=1)
        if bool(odd.any()):
            k = int(np.argmax(odd))
            return fail(f"geodesic {k} has a step that is not a unit step along one axis")
        k = int(np.argmax((steps != expected).any(axis=1)))
        return fail(f"geodesic {k} does not decode to word {total - 1 - k}")
    del steps, expected
    se_u, se_w, _ = matrix_adjacency(matrix)
    ru, rw = total - 1 - se_u, total - 1 - se_w
    spg_edges = np.sort(np.minimum(ru, rw) * total + np.maximum(ru, rw))
    if not np.array_equal(spg_edges, word_edges):
        return fail("shortest path graph edges differ from word switches")
    return CheckReport(name, True, None, stats), coords, word_edges


def _lattice_edges(spec: GridSpec, words: np.ndarray, cols: np.ndarray) -> np.ndarray | str:
    """The lattice steps inside the image, packed as ``_embed_grid``'s word
    edges once they are shown to be the switches, or a failure's witness.
    ``words`` must be every word once, each with a word's symbol counts,
    and ``cols`` their images one coordinate per row, meeting the
    conditions of ``image_violation``."""
    if not spec.embedding_dim:
        # one axis: a single word, with no switches
        return np.empty(0, dtype=np.int64)
    total = len(words)
    layout = spec.coordinate_layout()
    # coordinate (i, j, k) lies in 0..n_i, so radix n_i + 1 packs a point
    mult = place_values([spec.dims[i - 1] + 1 for (i, j, k) in layout])
    codes = np.zeros(total, dtype=np.int64)
    for col, place in zip(cols, mult):
        codes += col * place
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    del codes
    dup = sorted_codes[1:] == sorted_codes[:-1]
    if bool(dup.any()):
        r = int(np.nonzero(dup)[0][0])
        return f"embedding collides on words {int(order[r])} and {int(order[r + 1])}"
    # query from the lower end of each step only the points that can rise:
    # below the bound, so the raised coordinate carries into no other, and,
    # for k > 1, below coordinate k - 1
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    prev = None
    for c, (i, j, k) in enumerate(layout):
        col = cols[c][order]
        rise = col < spec.dims[i - 1]
        if k > 1:
            rise &= col < prev
        prev = col
        # queries in sorted order keep the binary searches cache-local
        at = np.flatnonzero(rise)
        qcodes = sorted_codes[at] + mult[c]
        pos = np.searchsorted(sorted_codes, qcodes)
        hit = sorted_codes[np.minimum(pos, total - 1)] == qcodes
        steps.append((order[at[hit]], order[pos[hit]]))
    lu, lv = (np.concatenate(ends) for ends in zip(*steps))
    # a step is a switch when its two words differ in exactly two positions
    # and those are adjacent: with equal symbol counts, the two symbols there
    # are swapped. Read one contiguous word column at a time
    wcols = np.ascontiguousarray(words.T)
    # a uint8 count could wrap back to 2 on a row of 258 or more moves
    differ = np.zeros(lu.size, dtype=np.int32)
    adjacent = np.zeros(lu.size, dtype=bool)
    before = None
    for col in wcols:
        here = col[lu] != col[lv]
        differ += here
        if before is not None:
            adjacent |= before & here
        before = here
    switch = (differ == 2) & adjacent
    if not bool(switch.all()):
        bad = int(np.argmin(switch))
        return f"the lattice step from word {int(lu[bad])} to {int(lv[bad])} is not a switch"
    # switching maps the word set onto itself, so each switch is counted
    # once from either end among unequal neighbouring symbols
    unequal = int(np.count_nonzero(wcols[1:] != wcols[:-1]))
    if 2 * lu.size != unequal:
        return f"{lu.size} lattice steps inside the image but {unequal // 2} word switches"
    return np.sort(np.minimum(lu, lv) * total + np.maximum(lu, lv))


def check_staircase(
    n1: int, n2: int, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> CheckReport:
    """The two-axis grid's shortest path graph is the staircase graph.

    The grid-embedding check certifies the shortest path graph as the
    word graph under ``phi``. For two axes the image of ``phi`` is exactly
    the weakly decreasing vectors, so each word names its staircase vertex
    by its coordinates, and the staircase must have exactly those vertices
    and exactly the word edges between them.
    """
    name = f"staircase-{n1}x{n2}"
    report, coords, word_edges = _embed_grid(GridSpec((n1, n2)), limit)
    stats = {**report.stats, "vertices": report.stats["words"]}
    if not report.passed:
        return CheckReport(name, False, report.witness, stats)
    stair = staircase(n1, n2)
    names = [coord_name(row) for row in coords.tolist()]
    u, w = np.divmod(word_edges, len(names))
    mapped = {frozenset((names[a], names[b])) for a, b in zip(u.tolist(), w.tolist())}
    if sorted(names) != sorted(stair.vertices):
        witness = "staircase vertices differ from the phi image"
    elif mapped != {frozenset(e) for e in stair.edges}:
        witness = "staircase edges differ from the word switches"
    else:
        return CheckReport(name, True, None, stats)
    return CheckReport(name, False, witness, stats)


def check_cayley(m: int, *, limit: int = DEFAULT_GEODESIC_LIMIT) -> CheckReport:
    """The hypercube-chain grid on m axes of length one has the permutation
    graph under adjacent switches as its shortest path graph."""
    name = f"cayley-{m}"
    h = build_spg(grid_base(GridSpec((1,) * m)), limit=limit)
    cay = cayley_adjacent_transpositions(m, limit=limit)
    stats = {"vertices": cay.num_vertices, "edges": cay.num_edges}
    if h.num_vertices != cay.num_vertices:
        return CheckReport(name, False, "vertex counts differ", stats)
    if find_isomorphism(h, cay) is None:
        return CheckReport(name, False, "not isomorphic to the switch graph", stats)
    return CheckReport(name, True, None, stats)


def check_tournament_bijection(m: int) -> CheckReport:
    """Words with every symbol once map one-to-one onto the transitive
    tournaments; the ranking recovers the word."""
    name = f"tournaments-{m}"
    spec = GridSpec((1,) * m)
    seen: set[tuple[bool, ...]] = set()
    total = 0
    for word in map(tuple, words_array(spec).tolist()):
        total += 1
        ms = MoveSequence(spec, word)
        t = tournament_of(ms)
        if t.ranking() != word:
            return CheckReport(
                name,
                False,
                f"ranking of {word} came back as {t.ranking()}",
                {"words": total},
            )
        seen.add(t.beats)
    stats = {"words": total, "tournaments": len(seen)}
    if len(seen) != total:
        return CheckReport(name, False, "two words share a tournament", stats)
    return CheckReport(name, True, None, stats)
