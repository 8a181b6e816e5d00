"""Expected outputs and input files, computed without the spgraphs package.

Every value the benchmark compares a result against comes from here:
closed-form counts for grids and permutations, and a breadth-first
geodesic counter over plain adjacency dicts. Nothing in this module
imports spgraphs, so a defect in the package cannot hide in its own
reference values.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from itertools import combinations, product
from pathlib import Path
from typing import Iterable, Sequence


def compositions(total: int) -> Iterable[tuple[int, ...]]:
    """Ordered tuples of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest


def multinomial(dims: Sequence[int]) -> int:
    """Number of words with ``dims[k]`` copies of symbol k."""
    out = math.factorial(sum(dims))
    for n in dims:
        out //= math.factorial(n)
    return out


def word_graph_edges(dims: Sequence[int]) -> int:
    """Pairs of words one adjacent switch apart: (N-1)!/prod(n_k!) * sum_{i<j} n_i n_j.

    A switch of symbols i != j at positions (r, r+1) fixes the other N-2
    letters, giving (N-2)! n_i n_j / prod(n_k!) words per position and pair,
    over N-1 positions.
    """
    total = sum(dims)
    if total < 2:
        return 0
    pairs = sum(a * b for a, b in combinations(dims, 2))
    den = math.prod(math.factorial(n) for n in dims)
    count, rem = divmod(math.factorial(total - 1) * pairs, den)
    if rem:
        raise ArithmeticError(f"edge count for {dims} is not an integer")
    return count


def lattice_paths(dims: Sequence[int]) -> int:
    """Monotone corner-to-corner paths in the grid, counted point by point."""
    ways: dict[tuple[int, ...], int] = {}
    for point in product(*(range(n + 1) for n in dims)):
        if not any(point):
            ways[point] = 1
            continue
        total = 0
        for axis, c in enumerate(point):
            if c:
                total += ways[point[:axis] + (c - 1,) + point[axis + 1 :]]
        ways[point] = total
    return ways[tuple(dims)]


def count_geodesics(adj: dict[str, set[str]], source: str, target: str) -> int:
    """Shortest source-target paths by BFS layer counting; 0 when apart."""
    dist = {source: 0}
    ways = {source: 1}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                ways[w] = ways[u]
                queue.append(w)
            elif dist[w] == dist[u] + 1:
                ways[w] += ways[u]
    return ways.get(target, 0)


def is_connected(adj: dict[str, set[str]]) -> bool:
    if not adj:
        return True
    start = next(iter(adj))
    seen = {start}
    queue = deque([start])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(adj)


def adjacency(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# -- CLI input files -----------------------------------------------------------


def hypercube_edges(k: int) -> tuple[list[str], list[tuple[str, str]]]:
    verts = ["".join(bits) for bits in product("01", repeat=k)]
    edges = [
        (v, v[:i] + "1" + v[i + 1 :]) for v in verts for i in range(k) if v[i] == "0"
    ]
    return verts, edges


def grid_edges(dims: Sequence[int]) -> tuple[list[str], list[tuple[str, str]]]:
    def name(point: Sequence[int]) -> str:
        return "_".join(map(str, point))

    verts, edges = [], []
    for point in product(*(range(n + 1) for n in dims)):
        verts.append(name(point))
        for axis, c in enumerate(point):
            if c < dims[axis]:
                edges.append((name(point), name(point[:axis] + (c + 1,) + point[axis + 1 :])))
    return verts, edges


def write_graph_json(
    path: Path, verts: list[str], edges: list[tuple[str, str]], rng: random.Random
) -> None:
    """Vertex and edge order are shuffled by the seed; the graph is not."""
    verts, edges = list(verts), [list(e) for e in edges]
    rng.shuffle(verts)
    rng.shuffle(edges)
    path.write_text(json.dumps({"vertices": verts, "edges": edges}), encoding="utf-8")


def write_edge_list(path: Path, edges: list[tuple[str, str]], rng: random.Random) -> None:
    lines = [f"{u} {v}\n" for u, v in edges]
    rng.shuffle(lines)
    path.write_text("# benchmark input\n" + "".join(lines), encoding="utf-8")
