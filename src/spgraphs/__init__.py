"""Shortest path graphs: geodesics of a fixed vertex pair, adjacent when
they differ in exactly one position.

The package builds these graphs for arbitrary finite simple graphs,
provides base-graph constructions with known outcomes (paths, complete
graphs, cycles, hypercubes, sums of instances), embeds grid geodesics into
integer lattices, and ships mechanical checkers for the structural
theorems that govern all of it.

The names below are the public API, the ones the README, the demos and
the benchmark use; every other name is imported from its module.
"""

from .graphs import (
    BaseInstance,
    Graph,
    GraphError,
    SpgError,
    complete_bipartite_graph,
    connected_components,
    girth,
)
from .geodesics import build_dag, count_geodesics, enumerate_geodesics, reduce_instance
from .isomorphism import canonical_form, find_isomorphism
from .patterns import has_induced
from .spg import SpGraph, build_spg, spg_from_json, spg_to_dot, spg_to_json
from .constructions import (
    complete_base,
    even_cycle_base,
    hypercube_base,
    matches_prediction,
    odd_cycle_host_base,
    one_sum,
    parallel_paths,
    path_base,
)
from .grid import (
    GridSpec,
    LatticePoint,
    cayley_adjacent_transpositions,
    enumerate_sequences,
    grid_base,
    parse_move_sequence,
    phi,
    phi_batch,
    phi_inverse,
    staircase,
    words_array,
)
from .verify import (
    CheckReport,
    STANDARD_CHECKS,
    check_cayley,
    check_grid_embedding,
    check_staircase,
    check_sum_theorems,
    check_tournament_bijection,
    enumerate_graphs,
    exhaustive_instances,
    random_instances,
    run_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "BaseInstance", "Graph", "GraphError", "SpgError", "complete_bipartite_graph",
    "connected_components", "girth",
    "build_dag", "count_geodesics", "enumerate_geodesics", "reduce_instance",
    "canonical_form", "find_isomorphism",
    "has_induced",
    "SpGraph", "build_spg", "spg_from_json", "spg_to_dot", "spg_to_json",
    "complete_base", "even_cycle_base", "hypercube_base", "matches_prediction",
    "odd_cycle_host_base", "one_sum", "parallel_paths", "path_base",
    "GridSpec", "LatticePoint", "cayley_adjacent_transpositions",
    "enumerate_sequences", "grid_base", "parse_move_sequence", "phi",
    "phi_batch", "phi_inverse", "staircase", "words_array",
    "CheckReport", "STANDARD_CHECKS", "check_cayley", "check_grid_embedding",
    "check_staircase", "check_sum_theorems", "check_tournament_bijection",
    "enumerate_graphs", "exhaustive_instances", "random_instances", "run_corpus",
]
