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
from itertools import combinations, permutations, product
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
    _geodesic_columns,
    build_dag,
    count_spg_edges,
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
    _phi_rows,
    phi_batch,
    place_values,
    staircase,
    tournament_of,
    words_array,
)
from .isomorphism import _canonical_code, _canonical_leaf, find_isomorphism
from .patterns import find_induced, has_induced
from .spg import (
    SpGraph,
    SpgStructureError,
    build_spg,
    decompose_at_index,
    difference_positions,
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
    masks, edge_index = h.adjacency_bits, h.edge_index
    triples = 0
    for mid in h.vertices:
        for u, w in combinations(iter_bits(masks[mid]), 2):
            if masks[u] >> w & 1:
                continue
            iu = edge_index[(u, mid) if u < mid else (mid, u)]
            iw = edge_index[(w, mid) if w < mid else (mid, w)]
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
    for u, w in combinations(h.geodesics, 2):
        diffs = difference_positions(u, w)
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
    geos = h.geodesics
    pair = {g: (lpos.get(geos[g][: i + 1]), rpos.get(geos[g][i:])) for g in members}
    # total, injective and onto the product's vertices
    cells = set(product(range(left.num_vertices), range(right.num_vertices)))
    if len(members) != len(cells) or set(pair.values()) != cells:
        return False
    left_edges, right_edges = left.edge_index, right.edge_index
    for u, w in edges:
        (lu, ru), (lw, rw) = pair[u], pair[w]
        if lu == lw:
            step = (min(ru, rw), max(ru, rw)) in right_edges
        else:
            step = ru == rw and (min(lu, lw), max(lu, lw)) in left_edges
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
    if i is not None and not 1 <= i < (h.d or 0):
        raise SpgStructureError(f"index {i} is not interior for d={h.d}")
    if h.num_vertices == 0 or h.d is None or h.d < 2:
        return CheckReport(name, True, None, stats)
    for idx in range(1, h.d) if i is None else (i,):
        try:
            dec = decompose_at_index(h, idx)
        except SpgStructureError as exc:
            return CheckReport(name, False, str(exc), stats)
        group_of = {vi: k for k, comp in enumerate(dec.components) for vi in comp}
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
    some graph g on n-1 vertices by adding one vertex with some neighborhood
    mask, so scanning all masks of all smaller classes is exhaustive. An
    automorphism of g maps a mask to one that gives an isomorphic graph, so
    only the smallest mask of each orbit of Aut(g) (generators from
    ``_canonical_leaf``) is canonized, after McKay, *Isomorph-free
    exhaustive generation* (1998). It is kept when its canonical code is
    new, so the first candidate of each class is the one kept.

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
        # each generator as the table of its images of all masks
        moves = []
        for perm in _canonical_leaf(bits)[1]:
            images = [0]
            for image in perm:
                images += [m | 1 << image for m in images]
            moves.append(images)
        done = bytearray(2**top)
        for mask in range(2**top):
            if done[mask]:
                continue
            # masks come in increasing order and each orbit is marked whole
            # when first met, so mask is the smallest of its orbit
            done[mask] = 1
            orbit = [mask]
            for m in orbit:
                for images in moves:
                    if not done[images[m]]:
                        done[images[m]] = 1
                        orbit.append(images[m])
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
            for a, b in permutations(g.vertices, 2):
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
    index: int | None = None,
    limit: int = DEFAULT_GEODESIC_LIMIT,
) -> CorpusSummary:
    """Run the named checks (default: all standard ones), and the
    decomposition if asked, over a corpus and aggregate the outcomes per
    check. With an ``index`` i the decomposition runs at position i only,
    where it is interior (1 <= i < d), and rolls up as ``decomposition@i``."""
    names = list(STANDARD_CHECKS) if checks is None else list(checks)
    unknown = [name for name in names if name not in STANDARD_CHECKS]
    if unknown:
        raise GraphError(f"unknown checks: {', '.join(unknown)}")
    if index is not None and index < 1:
        raise GraphError(f"decomposition index must be at least 1, got {index}")
    rollups: dict[str, CheckRollup] = {name: CheckRollup() for name in names}
    decomposition = "decomposition" if index is None else f"decomposition@{index}"
    if include_decomposition:
        rollups[decomposition] = CheckRollup()
    total = 0
    for pos, inst in enumerate(instances):
        total += 1
        h = build_spg(inst, limit=limit)
        reports = [(name, STANDARD_CHECKS[name](h)) for name in names]
        if include_decomposition and (index is None or index < (h.d or 0)):
            reports.append((decomposition, check_decomposition(inst, index, limit=limit)))
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
    word switches, and they are exactly the edges of the grid's shortest
    path graph.

    Every lattice step is checked to be a switch, and there must be as many
    steps as switches, so the two sets are equal. Each geodesic is decoded
    step by step into its word, which makes geodesics and words correspond
    one to one. The geodesics of the two ends of every lattice step must
    differ in exactly one vertex, so every step is a shortest path graph
    edge; and the grid's DAG must count as many shortest path graph edges
    as there are steps. The steps are distinct pairs, so they are all the
    edges: the correspondence is an isomorphism, certified rather than
    searched for. Lattice points pack in radix n_i + 1 per coordinate, as
    int64 codes when they fit and as Python ints when they do not (1x63).
    """
    return _embed_grid(spec, limit)[0]


# rows or lattice steps per pass of the grid certificate's blocked loops:
# no temporary of the decode, the differ test or the switch test covers
# more of them
_BLOCK = 1 << 16


def _embed_grid(
    spec: GridSpec, limit: int
) -> tuple[CheckReport, tuple[np.ndarray, np.ndarray]]:
    """The body of ``check_grid_embedding``: its report and the word edges
    as two arrays of word numbers, one pair per lattice step. Only a
    passing report vouches for the arrays.

    The word list is checked to hold every word once, which the count of
    switches rests on. Geodesic k decodes to word ``total - 1 - k``: the
    grid's vertex ids are mixed radix, and geodesics come in increasing id
    sequence, which is decreasing word order. Every fact about the shortest
    path graph comes from the grid graph (its geodesics and its DAG); the
    words only propose which pairs to test.

    No array of the working set is larger than one list of step ends. The
    ``phi`` coordinates are one array per coordinate (``_phi_rows``), and
    the step search takes each off its list once it is read. The
    geodesics are one array per path position (``_geodesic_columns``),
    read at geodesic ``total - 1 - word``. The decode, the switch test and
    the differ test compare one column at a time over ``_BLOCK`` rows or
    steps. A failing block is looked at again over the whole arrays only
    where the witness needs them.
    """
    name = "grid-embedding-" + "x".join(str(n) for n in spec.dims)
    count = spec.word_count()
    if count > limit:
        raise GeodesicOverflowError(count, limit)
    words = words_array(spec)
    total, n_moves = words.shape
    stats: dict[str, object] = {"words": total, "dimension": spec.embedding_dim}
    # every row has the symbol counts of a word, or _phi_rows raises
    coords = _phi_rows(spec, words)

    def fail(witness: str) -> tuple[CheckReport, tuple[np.ndarray, np.ndarray]]:
        no_edges = np.empty(0, dtype=np.int64)
        return CheckReport(name, False, witness, stats), (no_edges, no_edges)

    if total != count:
        return fail(f"{total} words listed, {count} expected")
    # uint8 rows as byte strings order lexicographically
    keys = np.ascontiguousarray(words).view(f"S{n_moves}").ravel()
    if not bool(np.all(keys[1:] > keys[:-1])):
        return fail("word enumeration is not strictly lexicographic")
    del keys  # a view: it would keep the words alive past the decode

    witness = image_violation(spec, coords)
    if witness is not None:
        return fail(witness)
    # the step search empties coords, one coordinate at a time
    ends = _lattice_step_ends(spec, coords)
    if isinstance(ends, str):
        return fail(ends)
    witness = _switch_violation(words, *ends)
    if witness is not None:
        return fail(witness)
    lu, lv = ends
    stats["edges"] = int(lu.size)

    # the shortest path graph side, from the grid graph: a unit step along
    # axis a adds place[a] to the vertex id, so geodesic k must step by the
    # place values of word total - 1 - k. That map is a bijection whatever
    # the ids mean.
    dag = build_dag(grid_base(spec))
    n_geodesics = guarded_count(dag, limit)
    if n_geodesics != total:
        return fail(f"{n_geodesics} geodesics but {total} words")
    columns = _geodesic_columns(dag)
    place = place_values([n + 1 for n in spec.dims]).astype(np.int32)
    backwards = words[::-1]
    for row in range(0, total, _BLOCK):
        rows = slice(row, row + _BLOCK)
        if not all(
            np.array_equal(columns[t + 1][rows] - columns[t][rows], place[backwards[rows, t] - 1])
            for t in range(n_moves)
        ):
            # the witness names the first odd row of all, then the first
            # row that decodes wrong
            odd = np.zeros(total, dtype=bool)
            wrong = np.zeros(total, dtype=bool)
            for t in range(n_moves):
                step = columns[t + 1] - columns[t]
                odd |= ~np.isin(step, place)
                wrong |= step != place[backwards[:, t] - 1]
            if bool(odd.any()):
                k = int(np.argmax(odd))
                return fail(f"geodesic {k} has a step that is not a unit step along one axis")
            k = int(np.argmax(wrong))
            return fail(f"geodesic {k} does not decode to word {total - 1 - k}")
    del words, backwards
    # every lattice step joins two geodesics that differ in exactly one
    # vertex; the end vertices are shared by all geodesics
    inner = columns[1:-1]
    del columns
    for step in range(0, lu.size, _BLOCK):
        # word w is geodesic total - 1 - w; intp indices spare numpy a
        # conversion at every gather
        gu, gv = (total - 1 - ends[step : step + _BLOCK].astype(np.intp) for ends in (lu, lv))
        differ = np.zeros(gu.size, dtype=np.int32)
        for col in inner:
            differ += col[gu] != col[gv]
        bad = np.flatnonzero(differ != 1)
        if bad.size:
            k = step + int(bad[0])
            return fail(
                f"words {int(lu[k])} and {int(lv[k])} are one lattice step apart "
                f"but their geodesics differ in {int(differ[bad[0]])} vertices"
            )
    del inner
    # and there are no other edges
    n_edges = count_spg_edges(dag)
    if n_edges != lu.size:
        return fail(f"{n_edges} shortest path graph edges but {lu.size} lattice steps")
    return CheckReport(name, True, None, stats), (lu, lv)


def _switch_violation(words: np.ndarray, lu: np.ndarray, lv: np.ndarray) -> str | None:
    """The witness of a lattice step that is not a word switch, or of a
    switch count that differs from the step count; None when the steps are
    exactly the switches. ``words`` must be every word once, each with a
    word's symbol counts, and ``(lu, lv)`` the steps as pairs of word
    numbers. The switch test reads ``_BLOCK`` steps at a time."""
    # a step is a switch when its two words differ in exactly two positions
    # and those are adjacent: with equal symbol counts, the two symbols there
    # are swapped. Read one contiguous word column at a time
    wcols = np.ascontiguousarray(words.T)
    for first in range(0, lu.size, _BLOCK):
        # intp indices spare numpy a conversion at every gather
        iu, iv = (ends[first : first + _BLOCK].astype(np.intp) for ends in (lu, lv))
        # a uint8 count could wrap back to 2 on a row of 258 or more moves
        differ = np.zeros(iu.size, dtype=np.int32)
        adjacent = np.zeros(iu.size, dtype=bool)
        before = None
        for col in wcols:
            here = col[iu] != col[iv]
            differ += here
            if before is not None:
                adjacent |= before & here
            before = here
        switch = (differ == 2) & adjacent
        if not bool(switch.all()):
            bad = first + int(np.argmin(switch))
            return f"the lattice step from word {int(lu[bad])} to {int(lv[bad])} is not a switch"
    # switching maps the word set onto itself, so each switch is counted
    # once from either end among unequal neighbouring symbols
    unequal = int(np.count_nonzero(wcols[1:] != wcols[:-1]))
    if 2 * lu.size != unequal:
        return f"{lu.size} lattice steps inside the image but {unequal // 2} word switches"
    return None


def _lattice_step_ends(
    spec: GridSpec, coords: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray] | str:
    """The lattice steps inside the image as two arrays of word numbers
    (int32 below 2**31 words), lower end and upper end; or the witness of
    a collision. Steps come coordinate by coordinate, each in the sorted
    order of its lower ends' lattice codes. ``coords`` holds the images,
    one array per coordinate, meeting the conditions of
    ``image_violation``; once the codes are sorted, each coordinate is
    taken off the list when it is read, so that the step ends take the
    place of the coordinates. The lattice codes and their sort live only
    in here."""
    if not coords:
        # one axis: a single word, with no switches
        return (np.empty(0, dtype=np.int64),) * 2
    total = coords[0].size
    layout = spec.coordinate_layout()
    # coordinate (i, j, k) lies in 0..n_i, so radix n_i + 1 packs a point
    radixes = [spec.dims[i - 1] + 1 for (i, j, k) in layout]
    if math.prod(radixes) < 2**63:
        mult = place_values(radixes)
        codes = np.zeros(total, dtype=np.int64)
        for col, place in zip(coords, mult):
            codes += col * place
    else:
        # too wide for int64 (1x63 needs 2^63 codes): exact Python ints
        mult = np.array([math.prod(radixes[c + 1:]) for c in range(len(radixes))], dtype=object)
        codes = np.zeros(total, dtype=object)
        for col, place in zip(coords, mult):
            codes += col.astype(object) * place
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    del codes
    dup = sorted_codes[1:] == sorted_codes[:-1]
    if bool(dup.any()):
        r = int(np.nonzero(dup)[0][0])
        return f"embedding collides on words {int(order[r])} and {int(order[r + 1])}"
    # int32 word numbers below 2**31 words halve every step end
    ends_of = order.astype(np.int32) if total < 2**31 else order
    # query from the lower end of each step only the points that can rise:
    # below the bound, so the raised coordinate carries into no other, and,
    # for k > 1, below coordinate k - 1
    lows: list[np.ndarray] = []
    highs: list[np.ndarray] = []
    prev = None
    for c, (i, j, k) in enumerate(layout):
        col = coords.pop(0)[order]
        rise = col < spec.dims[i - 1]
        if k > 1:
            rise &= col < prev
        prev = col
        # queries in sorted order keep the binary searches cache-local
        at = np.flatnonzero(rise)
        qcodes = sorted_codes[at] + mult[c]
        pos = np.searchsorted(sorted_codes, qcodes)
        hit = sorted_codes[np.minimum(pos, total - 1)] == qcodes
        lows.append(ends_of[at[hit]])
        highs.append(ends_of[pos[hit]])
    # drop the sort, then concatenate one end list at a time and drop it,
    # so that no end is held twice beside the other list
    del order, sorted_codes, ends_of
    lu = np.concatenate(lows)
    del lows
    return lu, np.concatenate(highs)


def check_staircase(
    n1: int, n2: int, *, limit: int = DEFAULT_GEODESIC_LIMIT
) -> CheckReport:
    """The two-axis grid's shortest path graph is the staircase graph.

    The grid-embedding check certifies the shortest path graph as the
    word graph under ``phi``. For two axes the image of ``phi`` is exactly
    the weakly decreasing vectors, so each word names its staircase vertex
    by its coordinates, and the staircase must have exactly those vertices
    and exactly the word edges between them. The certificate does not keep
    its coordinates, so the words are embedded once more here, for two
    axes a small array.
    """
    name = f"staircase-{n1}x{n2}"
    spec = GridSpec((n1, n2))
    report, (lu, lv) = _embed_grid(spec, limit)
    stats = {**report.stats, "vertices": report.stats["words"]}
    if not report.passed:
        return CheckReport(name, False, report.witness, stats)
    stair = staircase(n1, n2)
    names = [coord_name(row) for row in phi_batch(spec, words_array(spec)).tolist()]
    mapped = {frozenset((names[a], names[b])) for a, b in zip(lu.tolist(), lv.tolist())}
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
    # the switch graph refuses an m too large before the grid is built
    cay = cayley_adjacent_transpositions(m, limit=limit)
    h = build_spg(grid_base(GridSpec((1,) * m)), limit=limit)
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
