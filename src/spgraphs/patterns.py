"""Enumeration of small induced subgraphs: paths, claws, and cycles.

The searches read only ``g.vertices`` and ``g.adjacency_bits``, so they
take a ``Graph`` (and report vertex names) or an ``SpGraph`` (and report
geodesic indices). Each occurrence is reported once, as a canonical vertex
tuple in the graph's vertex order:

* ``P3``: (u, m, w) with m the middle vertex and u < w,
* ``claw``: (c, x, y, z) with c the center and x < y < z,
* ``C<k>``: the cycle written from its smallest vertex, walking toward the
  smaller of that vertex's two cycle neighbors.

Searches count the candidate extensions they examine and abort once the
work limit is hit, so a pathological input fails loudly instead of hanging.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Iterator

from .graphs import Graph, GraphError, SpgError, iter_bits
from .spg import SpGraph

DEFAULT_WORK_LIMIT = 10**8

_CYCLE_RE = re.compile(r"^C(\d+)$")


class WorkLimitExceeded(SpgError, RuntimeError):
    def __init__(self, pattern: str, limit: int):
        super().__init__(f"work limit {limit} exceeded while searching for {pattern}")
        self.pattern = pattern
        self.limit = limit


class _Budget:
    __slots__ = ("left", "pattern", "limit")

    def __init__(self, pattern: str, limit: int):
        self.left = limit
        self.pattern = pattern
        self.limit = limit

    def spend(self, amount: int) -> None:
        self.left -= amount
        if self.left < 0:
            raise WorkLimitExceeded(self.pattern, self.limit)


def find_induced(
    g: Graph | SpGraph, pattern: str, *, work_limit: int = DEFAULT_WORK_LIMIT
) -> list[tuple]:
    """All induced occurrences of ``pattern`` in ``g``, sorted.

    ``pattern`` is one of ``"P3"``, ``"claw"`` or ``"C<k>"`` with k >= 3.

    >>> from .graphs import cycle_graph, star_graph
    >>> find_induced(cycle_graph(5), "C5")
    [('0', '1', '2', '3', '4')]
    >>> find_induced(star_graph(3), "claw")
    [('c', 'l0', 'l1', 'l2')]
    >>> find_induced(cycle_graph(4), "claw")
    []
    """
    names = g.vertices
    return [tuple(names[v] for v in t) for t in sorted(_search(g, pattern, work_limit))]


def has_induced(
    g: Graph | SpGraph, pattern: str, *, work_limit: int = DEFAULT_WORK_LIMIT
) -> bool:
    """Whether at least one induced occurrence exists; the search stops
    at the first one."""
    return next(_search(g, pattern, work_limit), None) is not None


def _search(g: Graph | SpGraph, pattern: str, work_limit: int) -> Iterator[tuple[int, ...]]:
    """The occurrences of ``pattern`` as index tuples, lazily; an unknown
    pattern is rejected at once."""
    budget = _Budget(pattern, work_limit)
    bits = g.adjacency_bits
    if pattern == "P3":
        return _induced_p3(bits, budget)
    if pattern == "claw":
        return _induced_claws(bits, budget)
    match = _CYCLE_RE.match(pattern)
    if not match:
        raise GraphError(f"unknown pattern {pattern!r}")
    k = int(match.group(1))
    if k < 3:
        raise GraphError("cycles need k >= 3")
    return _triangles(bits, budget) if k == 3 else _induced_cycles(bits, k, budget)


def _induced_p3(bits: list[int], budget: _Budget) -> Iterator[tuple[int, ...]]:
    for mid in range(len(bits)):
        nbrs = list(iter_bits(bits[mid]))
        budget.spend(len(nbrs) * max(len(nbrs) - 1, 0) // 2)
        for i, j in combinations(nbrs, 2):
            if not bits[i] >> j & 1:
                yield (i, mid, j)


def _induced_claws(bits: list[int], budget: _Budget) -> Iterator[tuple[int, ...]]:
    for center in range(len(bits)):
        nbrs = list(iter_bits(bits[center]))
        if len(nbrs) < 3:
            continue
        combos = len(nbrs) * (len(nbrs) - 1) * (len(nbrs) - 2) // 6
        budget.spend(combos)
        for i, j, l in combinations(nbrs, 3):
            if bits[i] >> j & 1 or bits[i] >> l & 1 or bits[j] >> l & 1:
                continue
            yield (center, i, j, l)


def _triangles(bits: list[int], budget: _Budget) -> Iterator[tuple[int, ...]]:
    for i in range(len(bits)):
        higher = bits[i] >> (i + 1) << (i + 1)
        for j in iter_bits(higher):
            both = bits[j] & higher
            budget.spend(1)
            for l in iter_bits(both >> (j + 1) << (j + 1)):
                budget.spend(1)
                yield (i, j, l)


def _induced_cycles(bits: list[int], k: int, budget: _Budget) -> Iterator[tuple[int, ...]]:
    """Induced k-cycles for k >= 4 by DFS over induced paths.

    A cycle is generated exactly once: its smallest vertex s is the DFS
    root, only vertices above s are used, and the orientation with
    path[1] < path[-1] is kept.
    """
    n = len(bits)
    all_mask = (1 << n) - 1
    for s in range(n):
        gt_mask = all_mask >> (s + 1) << (s + 1)
        adj_s = bits[s]
        first_steps = adj_s & gt_mask
        # path: [s, v1, ..., vt]; banned: union of adjacencies of interior
        # vertices p[1..t-1]; adjacency to s is excluded until the final step.
        stack = [([s, v1], 1 << s | 1 << v1, 0) for v1 in iter_bits(first_steps)]
        budget.spend(first_steps.bit_count())
        while stack:
            path, path_mask, banned = stack.pop()
            last = path[-1]
            if len(path) == k - 1:
                closers = bits[last] & adj_s & gt_mask & ~path_mask & ~banned
                budget.spend(closers.bit_count())
                v1 = path[1]
                for x in iter_bits(closers):
                    if v1 < x:
                        yield (*path, x)
                continue
            nxt = bits[last] & gt_mask & ~path_mask & ~banned & ~adj_s
            budget.spend(max(nxt.bit_count(), 1))
            new_banned = banned | bits[last]
            for x in iter_bits(nxt):
                stack.append((path + [x], path_mask | 1 << x, new_banned))
