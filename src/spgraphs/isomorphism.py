"""Graph isomorphism: a canonical form, and a witness search.

Both work on one tree, after McKay & Piperno, *Practical Graph
Isomorphism II* (2014): refine the ordered vertex partition until it is
equitable (``_refine``), then individualize a vertex of the first
non-singleton cell and refine again, down to discrete leaves. Each leaf
reads as a vertex order, and the tree is pruned only by twins.

``canonical_form`` keeps the largest adjacency code over the leaves. Two
graphs get equal forms exactly when they are isomorphic, so duplicates are
removed by set membership (``verify.enumerate_graphs``), not by pairwise
search; the argument is in ``_canonical_code``.

``find_isomorphism`` walks the same tree on two graphs side by side and
returns the first leaf whose vertex bijection preserves edges, so callers
can verify the witness independently. It refuses graphs above
``max_vertices`` (``DEFAULT_MAX_VERTICES`` = 200) with
``IsomorphismSizeError``.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, iter_bits

DEFAULT_MAX_VERTICES = 200


class IsomorphismSizeError(ValueError):
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


def _canonical_code(bits: list[int]) -> int:
    """The largest adjacency code over the leaves of the individualization
    tree of the graph with adjacency rows ``bits``.

    A leaf is a discrete equitable partition, read as a vertex order; its
    code lists the upper triangle of the adjacency matrix in that order.
    Relabelling the graph relabels the whole tree, so the set of leaf codes,
    and its maximum, depend only on the isomorphism class, and the code
    determines the graph, so equal codes mean isomorphic graphs.

    The only prune is by twins: vertices u, w of the target cell whose
    neighbourhoods agree apart from each other. Swapping them is then an
    automorphism, and it fixes every individualized vertex (those are
    singletons, and u and w share a larger cell), hence the partition at
    this node. It maps the subtree below individualizing u onto the one
    below w leaf for leaf, and the leaves it pairs have equal codes, so
    the subtree of w adds no new code.
    """
    n = len(bits)
    best = 0

    def search(cells: list[int], splitters: list[int]) -> None:
        nonlocal best
        cells = _refine(bits, cells, splitters)
        if len(cells) == n:
            order = [cell.bit_length() - 1 for cell in cells]
            code = 0
            for i, v in enumerate(order):
                row = bits[v]
                for w in order[i + 1 :]:
                    code = code << 1 | (row >> w & 1)
            best = max(best, code)
            return
        k = next(k for k, cell in enumerate(cells) if cell & (cell - 1))
        target = cells[k]
        kept: list[int] = []
        rest = target
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if any(bits[v] & ~(1 << u) == bits[u] & ~low for u in kept):
                continue
            kept.append(v)
            search(cells[:k] + [low, target ^ low] + cells[k + 1 :], [low])

    everything = [(1 << n) - 1] if n else []
    search(everything, everything)
    return best


def canonical_form(g: Graph) -> tuple[int, int]:
    """``(n, code)``, equal for two graphs exactly when they are isomorphic.

    >>> p = Graph("abc", [("a", "b"), ("b", "c")])
    >>> canonical_form(p) == canonical_form(Graph("xyz", [("x", "z"), ("z", "y")]))
    True
    """
    return g.num_vertices, _canonical_code(g.adjacency_bits)


def iso_invariant(g: Graph) -> tuple:
    """``(n, m, cell sizes of the equitable partition at the root)``: equal
    for isomorphic graphs, so it buckets candidates for a search."""
    n = g.num_vertices
    everything = [(1 << n) - 1] if n else []
    cells = _refine(g.adjacency_bits, everything, everything)
    return n, g.num_edges, tuple(cell.bit_count() for cell in cells)


def find_isomorphism(
    g1: Graph, g2: Graph, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> dict[str, str] | None:
    """Return a vertex bijection realizing g1 ~ g2, or None.

    A node pairs a partition of each graph. Below it, g1 individualizes
    the first vertex of its first non-singleton cell and g2 each vertex of
    the matching cell but twins (swapping a twin for a kept vertex is an
    automorphism of g2 that fixes the partition). An isomorphism that maps
    one partition onto the other still does after refinement, so a node
    whose cell sizes differ is cut; a discrete leaf is returned once its
    bijection is checked on the edges. The stack is explicit because the
    tree can be n levels deep, and children are made lazily, so a search
    whose first branches succeed never looks at the rest of a cell.

    Raises IsomorphismSizeError when either graph has more than
    ``max_vertices`` vertices.
    """
    if g1.num_vertices > max_vertices or g2.num_vertices > max_vertices:
        raise IsomorphismSizeError(
            f"isomorphism search capped at {max_vertices} vertices"
        )
    n = g1.num_vertices
    if n != g2.num_vertices or g1.num_edges != g2.num_edges:
        return None
    bits1 = g1.adjacency_bits
    bits2 = g2.adjacency_bits

    def children(cells1: list[int], cells2: list[int]) -> Iterator[tuple]:
        k = next(k for k, cell in enumerate(cells1) if cell & (cell - 1))
        target1, target2 = cells1[k], cells2[k]
        v = target1 & -target1
        split1 = cells1[:k] + [v, target1 ^ v] + cells1[k + 1 :]
        kept: list[int] = []
        for w in iter_bits(target2):
            low = 1 << w
            if any(bits2[w] & ~(1 << u) == bits2[u] & ~low for u in kept):
                continue
            kept.append(w)
            yield split1, [v], cells2[:k] + [low, target2 ^ low] + cells2[k + 1 :], [low]

    everything = [(1 << n) - 1] if n else []
    stack = [iter([(everything, everything, everything, everything)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        cells1 = _refine(bits1, node[0], node[1])
        cells2 = _refine(bits2, node[2], node[3])
        if [c.bit_count() for c in cells1] != [c.bit_count() for c in cells2]:
            continue
        if len(cells1) < n:
            stack.append(children(cells1, cells2))
            continue
        image = [0] * n
        for c1, c2 in zip(cells1, cells2):
            image[c1.bit_length() - 1] = c2.bit_length() - 1
        if all(
            sum(1 << image[u] for u in iter_bits(row)) == bits2[image[v]]
            for v, row in enumerate(bits1)
        ):
            return {g1.vertices[v]: g2.vertices[image[v]] for v in range(n)}
    return None


def is_isomorphic(
    g1: Graph, g2: Graph, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> bool:
    return find_isomorphism(g1, g2, max_vertices=max_vertices) is not None
