"""Shared hypothesis strategies for randomized graph tests, and the grid
shapes that the exhaustive grid tests run over."""

from __future__ import annotations

import math
from itertools import combinations

from hypothesis import assume
from hypothesis import strategies as st

from spgraphs import BaseInstance, Graph
from spgraphs.graphs import distances


@st.composite
def graphs(draw, min_vertices: int = 1, max_vertices: int = 7) -> Graph:
    """Arbitrary simple graph with digit-string vertex names."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    verts = [str(i) for i in range(n)]
    pairs = list(combinations(verts, 2))
    keep = draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    )
    edges = [pair for pair, flag in zip(pairs, keep) if flag]
    return Graph(verts, edges)


@st.composite
def instances(draw, max_vertices: int = 7) -> BaseInstance:
    """Graph plus endpoint pair with the endpoints connected."""
    g = draw(graphs(min_vertices=2, max_vertices=max_vertices))
    source = draw(st.sampled_from(g.vertices))
    target = draw(
        st.sampled_from([v for v in g.vertices if v != source])
    )
    assume(distances(g, source)[target] != math.inf)
    return BaseInstance(g, source, target)


def compositions(total: int):
    """Every tuple of positive integers with sum ``total``: the axis
    lengths of each grid with ``total`` moves."""
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest
