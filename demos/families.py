"""Base constructions with known outcomes, checked on the spot.

Each construction returns a base instance together with the graph its
shortest path graph is predicted to be, and a map naming each geodesic by
its predicted vertex. This script realizes a sample of every family and
confirms the prediction by renaming the geodesics through that map. Run
with ``python3 demos/families.py``.
"""

from spgraphs import (
    build_spg,
    check_sum_theorems,
    complete_base,
    even_cycle_base,
    hypercube_base,
    matches_prediction,
    odd_cycle_host_base,
    one_sum,
    parallel_paths,
    path_base,
)


def show(result) -> None:
    h = build_spg(result.instance)
    matched = matches_prediction(h, result.predicted, result.vertex_of)
    verdict = "as predicted" if matched else "MISMATCH"
    print(
        f"  {result.name:22s} -> {h.num_vertices:3d} vertices,"
        f" {h.num_edges:3d} edges  ({verdict})"
    )


def main() -> None:
    print("families with predicted shortest path graphs:")
    show(path_base(4))
    show(complete_base(4))
    show(even_cycle_base(3))
    show(parallel_paths(4, 3))
    show(hypercube_base(3))

    # Odd cycles cannot be a whole shortest path graph of this kind, but
    # they appear inside one: the host below carries a 7-cycle witness.
    result = odd_cycle_host_base(3)
    h = build_spg(result.instance)
    print(
        f"\n{result.name}: {h.num_vertices} geodesics,"
        f" witness cycle of length {len(result.witness)}"
    )

    # Gluing two instances at a cut vertex multiplies their shortest path
    # graphs: every geodesic must cross the cut, so it splits into a left
    # half and a right half chosen independently.
    report = check_sum_theorems("one-sum", complete_base(3).instance, even_cycle_base(2).instance)
    glued = one_sum(complete_base(3).instance, even_cycle_base(2).instance)
    print(
        f"\none-sum of complete(3) and even-cycle(4): {report}"
        f"\n  predicted product has {glued.predicted.num_vertices} vertices"
    )


if __name__ == "__main__":
    main()
