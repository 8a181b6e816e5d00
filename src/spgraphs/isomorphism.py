"""Graph isomorphism: a canonical form, and a witness search.

``canonical_form`` labels a graph canonically, after McKay & Piperno,
*Practical Graph Isomorphism II* (2014): refine the ordered vertex
partition until it is equitable, individualize each vertex of the first
non-singleton cell in turn, and keep the largest adjacency code over the
leaves of that search tree. Two graphs get equal forms exactly when they
are isomorphic, so duplicates are removed by set membership
(``verify.enumerate_graphs``), not by pairwise search. The tree is pruned
only by twins; the argument is in ``_canonical_code``.

``find_isomorphism`` is exact too (refinement only prunes it) and returns
a full vertex bijection, so callers can verify the witness independently.
Intended for desk-scale graphs (a few hundred vertices).
"""

from __future__ import annotations

from collections import Counter

from .graphs import Graph, iter_bits

DEFAULT_MAX_VERTICES = 200


class IsomorphismSizeError(ValueError):
    """Raised when an input exceeds the configured vertex cap."""


def _triangle_counts(g: Graph) -> list[int]:
    bits = g.adjacency_bits
    counts = [0] * g.num_vertices
    idx = g.index
    for u, v in g.edges:
        iu, iv = idx[u], idx[v]
        common = (bits[iu] & bits[iv]).bit_count()
        counts[iu] += common
        counts[iv] += common
    return counts


def color_refinement(g: Graph) -> list[int]:
    """Stable vertex coloring refined from (degree, triangle count).

    Color ids are canonical: two graphs related by an isomorphism receive
    identical color multisets, and matching vertices get equal ids.
    """
    n = g.num_vertices
    bits = g.adjacency_bits
    tri = _triangle_counts(g)
    signature: list[object] = [(bits[i].bit_count(), tri[i]) for i in range(n)]
    ranks = {sig: r for r, sig in enumerate(sorted(set(signature)))}
    colors = [ranks[sig] for sig in signature]
    neighbors = [list(iter_bits(b)) for b in bits]
    while True:
        signature = [
            (colors[i], tuple(sorted(colors[w] for w in neighbors[i]))) for i in range(n)
        ]
        ranks = {sig: r for r, sig in enumerate(sorted(set(signature)))}
        new_colors = [ranks[sig] for sig in signature]
        if len(set(new_colors)) == len(set(colors)):
            return new_colors
        colors = new_colors


def iso_invariant(g: Graph) -> tuple:
    """A hashable isomorphism invariant, useful for bucketing candidates."""
    n = g.num_vertices
    colors = color_refinement(g)
    neighbors = [list(iter_bits(b)) for b in g.adjacency_bits]
    profile = tuple(
        sorted((colors[i], tuple(sorted(colors[w] for w in neighbors[i]))) for i in range(n))
    )
    return (n, g.num_edges, profile)


def _search_order(g: Graph, colors: list[int]) -> list[int]:
    """Static variable order: rare colors first, then stay connected."""
    n = g.num_vertices
    bits = g.adjacency_bits
    class_size = Counter(colors)
    chosen: list[int] = []
    chosen_mask = 0
    remaining = set(range(n))
    while remaining:
        def key(i: int) -> tuple:
            mapped_nbrs = (bits[i] & chosen_mask).bit_count()
            return (-mapped_nbrs, class_size[colors[i]], i)

        pick = min(remaining, key=key)
        chosen.append(pick)
        chosen_mask |= 1 << pick
        remaining.discard(pick)
    return chosen


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


def find_isomorphism(
    g1: Graph, g2: Graph, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> dict[str, str] | None:
    """Return a vertex bijection realizing g1 ~ g2, or None.

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
    if n == 0:
        return {}
    colors1 = color_refinement(g1)
    colors2 = color_refinement(g2)
    if sorted(colors1) != sorted(colors2):
        return None

    bits1 = g1.adjacency_bits
    bits2 = g2.adjacency_bits
    order = _search_order(g1, colors1)
    # For each position, the earlier positions whose g1 vertex is adjacent.
    earlier_nbrs: list[list[int]] = []
    for pos, v in enumerate(order):
        earlier_nbrs.append([p for p in range(pos) if bits1[v] >> order[p] & 1])
    by_color: dict[int, list[int]] = {}
    for j in range(n):
        by_color.setdefault(colors2[j], []).append(j)

    image = [-1] * n  # g1 index -> g2 index
    used_mask = 0
    stack: list[list[int]] = []

    def candidates(pos: int) -> list[int]:
        v = order[pos]
        required = 0
        for p in earlier_nbrs[pos]:
            required |= 1 << image[order[p]]
        out = []
        for w in by_color.get(colors1[v], ()):
            if used_mask >> w & 1:
                continue
            if bits2[w] & used_mask == required:
                out.append(w)
        return out

    pos = 0
    stack.append(candidates(0))
    while stack:
        cands = stack[-1]
        if not cands:
            stack.pop()
            pos -= 1
            if pos >= 0:
                w = image[order[pos]]
                image[order[pos]] = -1
                used_mask ^= 1 << w
            continue
        w = cands.pop()
        image[order[pos]] = w
        used_mask |= 1 << w
        if pos == n - 1:
            return {g1.vertices[order[p]]: g2.vertices[image[order[p]]] for p in range(n)}
        pos += 1
        stack.append(candidates(pos))
    return None


def is_isomorphic(
    g1: Graph, g2: Graph, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> bool:
    return find_isomorphism(g1, g2, max_vertices=max_vertices) is not None
