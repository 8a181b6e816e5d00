"""Graph isomorphism: a canonical form with automorphisms, and a witness search.

Both walk one tree, after McKay & Piperno, *Practical Graph Isomorphism
II* (2014): refine the ordered vertex partition until it is equitable
(``_refine``), then individualize a vertex of the first non-singleton cell
and refine again, down to discrete leaves, each read as a vertex order.
``_leaf_paths`` walks it with an explicit stack, pruned only by twins.

``_canonical_leaf`` keeps the largest adjacency code over the leaves and,
on request, automorphisms: the map from the best leaf to each leaf whose
code ties it, and the swap of each vertex with its smallest twin, which
covers every subtree the prune cuts. They generate the automorphism group,
which ``verify.enumerate_graphs`` uses to canonize one neighbourhood per
orbit. ``canonical_form`` reads the code (``_canonical_code``), so
duplicates are removed by set membership.
``find_isomorphism`` walks g2's tree against g1's first leaf and returns a
bijection checked on the edges; it refuses graphs above ``max_vertices``
(``DEFAULT_MAX_VERTICES`` = 200) with ``IsomorphismSizeError``. Both read
only ``num_vertices``, ``num_edges``, ``vertices`` and ``adjacency_bits``,
so they take a ``Graph`` or an ``SpGraph``.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, SpgError, iter_bits
from .spg import SpGraph

DEFAULT_MAX_VERTICES = 200


class IsomorphismSizeError(SpgError, ValueError):
    """Raised when an input exceeds the configured vertex cap."""


def _refine(bits: list[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine the ordered partition ``cells`` (one vertex bitmask per cell)
    of the graph with adjacency rows ``bits`` until it is equitable.

    Each splitter in turn splits every cell by its vertices' neighbour
    counts into the splitter, the parts ordered by count; each new part
    becomes a splitter, so at the end every cell has split every cell.
    ``splitters`` holds what the partition is not yet equitable against:
    all vertices at the root, the new singleton after individualizing
    (counts into the rest of its old cell follow by subtraction). Every
    step reads only counts and positions, never labels.
    """
    n = len(bits)
    queue = list(splitters)
    for splitter in queue:
        if len(cells) == n:
            break
        out: list[int] = []
        if not splitter & (splitter - 1):
            # one vertex: a count is 0 or 1, so split by its neighbourhood
            row = bits[splitter.bit_length() - 1]
            for cell in cells:
                inside = cell & row
                if inside and inside != cell:
                    out += (cell ^ inside, inside)
                    queue += (cell ^ inside, inside)
                else:
                    out.append(cell)
            cells = out
            continue
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                count = (bits[low.bit_length() - 1] & splitter).bit_count()
                parts[count] = parts.get(count, 0) | low
                rest ^= low
            if len(parts) == 1:
                out.append(cell)
            else:
                split = [parts[count] for count in sorted(parts)]
                out += split
                queue += split
        cells = out
    return cells


def _twin_reps(bits: list[int]) -> list[int]:
    """For each vertex v of the graph with adjacency rows ``bits``, the
    smallest twin of v: a vertex whose neighbourhood agrees with v's apart
    from each other, v itself when there is none.

    Twins of v have v's open neighbourhood (not adjacent to v) or its
    closed one (adjacent); v cannot have both kinds, since a true twin x
    of v would be adjacent to a false twin u of v (x is in N(v) = N(u)) and
    then u would be in N[x] = N[v], which it is not. So twinship is an
    equivalence, and swapping two twins is an automorphism.
    """
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    return [
        min(by_open.setdefault(row, v), by_closed.setdefault(row | 1 << v, v))
        for v, row in enumerate(bits)
    ]


def _leaf_paths(
    bits: list[int], sizes: list[list[int]] | None = None
) -> Iterator[list[list[int]]]:
    """Yield, at each discrete leaf of the individualization tree of the
    graph with adjacency rows ``bits``, depth first, the refined partitions
    from the root down to it (one list, reused: read it before the next).

    Below a node, each vertex of the first non-singleton cell is
    individualized in turn, but for twins: vertices u, w of that cell whose
    neighbourhoods agree apart from each other. Swapping them is an
    automorphism that fixes this node's partition (every individualized
    vertex is a singleton), so it maps the subtree of u onto that of w leaf
    for leaf, and only the first of a set of twins is kept. With ``sizes``
    (cell sizes per depth along a path of another graph), a node whose cell
    sizes differ from ``sizes`` at its depth is cut with its subtree.
    """
    n = len(bits)

    def children(cells: list[int]) -> Iterator[tuple[list[int], list[int]]]:
        k = next(k for k, cell in enumerate(cells) if cell & (cell - 1))
        target = cells[k]
        kept: list[int] = []
        for v in iter_bits(target):
            low = 1 << v
            if any(bits[v] & ~(1 << u) == bits[u] & ~low for u in kept):
                continue
            kept.append(v)
            yield cells[:k] + [low, target ^ low] + cells[k + 1 :], [low]

    everything = [(1 << n) - 1] if n else []
    path: list[list[int]] = []
    stack = [iter([(everything, everything)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            # the children of path[-1] are done (at the root, path is empty)
            stack.pop()
            del path[-1:]
            continue
        cells = _refine(bits, *node)
        if sizes is not None and [c.bit_count() for c in cells] != sizes[len(path)]:
            continue
        path.append(cells)
        if len(cells) == n:
            yield path
            path.pop()
        else:
            stack.append(children(cells))


def _canonical_leaf(
    bits: list[int], *, automorphisms: bool = True
) -> tuple[int, list[list[int]]]:
    """The largest adjacency code over the leaves of the individualization
    tree of the graph with adjacency rows ``bits``, and generators of the
    graph's automorphism group, each a list mapping vertex v to its image.

    A leaf is a discrete equitable partition, read as a vertex order; its
    code lists the upper triangle of the adjacency matrix in that order.
    Relabelling the graph relabels the whole tree, so the set of leaf codes,
    and its maximum, depend only on the isomorphism class, and the code
    determines the graph, so equal codes mean isomorphic graphs. A subtree
    cut by the twin prune has the codes of a kept one, leaf for leaf.

    Two leaves with equal codes differ by an automorphism, and the
    automorphisms map the best leaf onto each leaf with its code, one leaf
    each. A pruned leaf is a kept one moved by twin swaps, so the maps from
    the best leaf to the kept leaves that tie it, with the swap of each
    vertex and its smallest twin (``_twin_reps``), generate the whole group.
    Without ``automorphisms`` the list is empty and costs nothing.
    """
    n = len(bits)
    best, best_order, generators = -1, [], []
    for path in _leaf_paths(bits):
        order = [cell.bit_length() - 1 for cell in path[-1]]
        code = 0
        for i, v in enumerate(order):
            # one int per row: a shift per bit would copy the whole code
            row = bits[v]
            rest = order[i + 1 :]
            r = 0
            for w in rest:
                r = r << 1 | (row >> w & 1)
            code = code << len(rest) | r
        if code > best:
            best, best_order, generators = code, order, []
        elif code == best and automorphisms:
            image = [0] * n
            for v, w in zip(best_order, order):
                image[v] = w
            generators.append(image)
    if automorphisms:
        for w, u in enumerate(_twin_reps(bits)):
            if u != w:
                swap = list(range(n))
                swap[u], swap[w] = w, u
                generators.append(swap)
    return best, generators


def _canonical_code(bits: list[int]) -> int:
    """The code of ``_canonical_leaf``: equal for two graphs exactly when
    they are isomorphic."""
    return _canonical_leaf(bits, automorphisms=False)[0]


def canonical_form(g: Graph | SpGraph) -> tuple[int, int]:
    """``(n, code)``, equal for two graphs exactly when they are isomorphic.

    >>> p = Graph("abc", [("a", "b"), ("b", "c")])
    >>> canonical_form(p) == canonical_form(Graph("xyz", [("x", "z"), ("z", "y")]))
    True
    """
    return g.num_vertices, _canonical_code(g.adjacency_bits)


def iso_invariant(g: Graph | SpGraph) -> tuple:
    """``(n, m, cell sizes of the equitable partition at the root)``: equal
    for isomorphic graphs, so it buckets candidates for a search."""
    n = g.num_vertices
    everything = [(1 << n) - 1] if n else []
    cells = _refine(g.adjacency_bits, everything, everything)
    return n, g.num_edges, tuple(cell.bit_count() for cell in cells)


def find_isomorphism(
    g1: Graph | SpGraph, g2: Graph | SpGraph, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> dict | None:
    """Return a vertex bijection realizing g1 ~ g2, or None.

    g2's tree is walked against the cell sizes along g1's first leaf path
    (an isomorphism mapping one partition onto the other still does after
    refinement), and the first leaf whose bijection preserves edges is
    returned, keyed by g1's vertices: names, or an ``SpGraph``'s indices.

    >>> from .constructions import hypercube_base
    >>> from .graphs import hypercube_graph
    >>> from .spg import build_spg
    >>> sorted(find_isomorphism(build_spg(hypercube_base(3).instance), hypercube_graph(3)))
    [0, 1, 2, 3, 4, 5, 6, 7]

    Raises IsomorphismSizeError when either graph has more than
    ``max_vertices`` vertices.
    """
    if g1.num_vertices > max_vertices or g2.num_vertices > max_vertices:
        raise IsomorphismSizeError(f"isomorphism search capped at {max_vertices} vertices")
    n = g1.num_vertices
    if n != g2.num_vertices or g1.num_edges != g2.num_edges:
        return None
    bits1 = g1.adjacency_bits
    bits2 = g2.adjacency_bits
    path1 = next(_leaf_paths(bits1))
    sizes = [[c.bit_count() for c in cells] for cells in path1]
    for path2 in _leaf_paths(bits2, sizes):
        image = [0] * n
        for c1, c2 in zip(path1[-1], path2[-1]):
            image[c1.bit_length() - 1] = c2.bit_length() - 1
        if all(
            sum(1 << image[u] for u in iter_bits(row)) == bits2[image[v]]
            for v, row in enumerate(bits1)
        ):
            return {g1.vertices[v]: g2.vertices[image[v]] for v in range(n)}
    return None


def is_isomorphic(
    g1: Graph | SpGraph, g2: Graph | SpGraph, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> bool:
    return find_isomorphism(g1, g2, max_vertices=max_vertices) is not None
