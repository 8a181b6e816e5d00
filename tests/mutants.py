"""Hand-made mutants of ``src/spgraphs``, each with the tests that must
catch it, and a runner that shows that they do.

A mutant names a module of the package, an exact snippet of its source
(found there exactly once), the snippet's replacement, and the pytest ids
expected to fail once the replacement is made. The runner copies ``src/``
to a temporary directory, applies one mutant to the copy, runs only the
mutant's tests against the copy (``-o pythonpath=`` puts it in place of
``src/``) and reports the mutant caught when a test fails, survived when
they all pass.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # some of them, by name
    python tests/mutants.py --list      # the names

The exit status is 1 when a mutant survives or its snippet no longer
matches. Tier-1 runs no mutant: ``test_mutants.py`` only checks that every
snippet still occurs exactly once and that every named test exists, so the
table cannot rot unseen.

Stdlib only.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # a file of src/spgraphs
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root

    @property
    def path(self) -> Path:
        return SRC / "spgraphs" / self.module


MUTANTS = (
    # -- derivations of the one DAG class and the one SpGraph class ----------
    Mutant(
        "dag-edges-from-csr-reversed", "geodesics.py",
        "frozenset(_name_pairs(self.names, tail, indices))",
        "frozenset(_name_pairs(self.names, indices, tail))",
        ("tests/test_geodesics.py::test_id_and_name_paths_agree_on_both_sides_of_the_cutoff",),
    ),
    Mutant(
        "dag-stored-count-is-the-target's", "geodesics.py",
        'vars(dag)["count"] = paths_to_target(dag)[inst.source]',
        'vars(dag)["count"] = paths_to_target(dag)[inst.target]',
        ("tests/test_geodesics.py::test_count_and_enumerate_small",),
    ),
    Mutant(
        "path-counts-overwrite", "geodesics.py",
        "            ways[w] += here",
        "            ways[w] = here",
        ("tests/test_geodesics.py::test_id_and_name_paths_agree_on_both_sides_of_the_cutoff",),
    ),
    Mutant(
        "suffix-counts-in-source-order", "geodesics.py",
        "_path_counts(order[::-1], *dag._predecessors,",
        "_path_counts(order, *dag._predecessors,",
        ("tests/test_geodesics.py::test_spg_edge_count_matches_the_bucketed_edges_of_grids_and_hypercubes",),
    ),
    Mutant(
        "spg-edge-index-from-arrays-reversed", "spg.py",
        "dict(zip(zip(u.tolist(), w.tolist()), pos.tolist()))",
        "dict(zip(zip(w.tolist(), u.tolist()), pos.tolist()))",
        ("tests/test_spg.py::test_build_spg_switches_to_the_arrays_at_the_cutoff",
         "tests/test_spg.py::test_matrix_and_dict_paths_agree_on_families"),
    ),
    Mutant(
        "loaded-edge-index-in-sorted-order", "spg.py",
        "u, w, pos = self._edges if self._input_edges is None else self._input_edges",
        "u, w, pos = self._edges",
        ("tests/test_cli.py::test_a_loaded_spg_file_keeps_its_edge_order_and_its_first_witness",),
    ),
    Mutant(
        "spg-geodesics-from-rows-reversed", "spg.py",
        "tuple(map(names.__getitem__, row)) for row in rows)",
        "tuple(map(names.__getitem__, row[::-1])) for row in rows)",
        ("tests/test_spg.py::test_matrix_and_dict_paths_agree_on_families",),
    ),
    # -- the forced-run scan of the reduction and mandatory_edges -------------
    Mutant(
        "forced-runs-take-two-vertex-layers", "geodesics.py",
        "alone = (np.bincount(levels, minlength=dag.d + 1) == 1).tolist()",
        "alone = (np.bincount(levels, minlength=dag.d + 1) <= 2).tolist()",
        ("tests/test_geodesics.py::test_mandatory_edges_on_forced_and_free_instances",
         "tests/test_geodesics.py::test_reduction_of_either_dag_of_a_large_box_with_a_forced_tail"),
    ),
    Mutant(
        "forced-run-named-by-its-first-vertex", "geodesics.py",
        "        image[run] = min(run)",
        "        image[run] = run[0]",
        ("tests/test_geodesics.py::test_reduction_names_each_forced_run_by_its_smallest_vertex",),
    ),
    # -- certificates and tests from earlier changes ---------------------------
    Mutant(
        "is-product-count-at-most", "verify.py",
        "    return len(edges) == (",
        "    return len(edges) <= (",
        ("tests/test_verify.py::test_decomposition_fails_when_a_factor_is_not_the_product",),
    ),
    Mutant(
        "matches-prediction-without-injectivity", "constructions.py",
        "    if len(set(names)) != len(names):\n        return False\n",
        "",
        ("tests/test_constructions.py::test_a_naming_that_is_not_injective_never_matches",),
    ),
    Mutant(
        "girth5-ignores-odd-cycles", "verify.py",
        "(min(degrees) == 2 and len(comp) % 2)",
        "(min(degrees) == 2 and len(comp) % 1)",
        ("tests/test_verify.py::test_girth5_classification_on_cycles_and_paths",),
    ),
    Mutant(
        "girth-needs-three-parents", "graphs.py",
        "(bits[w] & seen).bit_count() > 1",
        "(bits[w] & seen).bit_count() > 2",
        ("tests/test_graphs.py::test_girth_known_values",),
    ),
    Mutant(
        "dot-labels-unquoted", "spg.py",
        "_name_columns(h, lambda v: quote(v)[1:-1], \" \")",
        "_name_columns(h, lambda v: v, \" \")",
        ("tests/test_cli.py::test_dot_quotes_like_json_dumps",),
    ),
    Mutant(
        "spg-edge-count-takes-triples", "geodesics.py",
        "    shared = middles > 1",
        "    shared = middles > 2",
        ("tests/test_geodesics.py::test_spg_edge_count_matches_the_bucketed_edges_of_grids_and_hypercubes",),
    ),
    Mutant(
        "lattice-step-switch-without-adjacency", "verify.py",
        "        switch = (differ == 2) & adjacent",
        "        switch = differ == 2",
        ("tests/test_verify.py::test_grid_embedding_check_fails_on_damaged_input",),
    ),
    Mutant(
        "grid-certificate-skips-the-edge-count", "verify.py",
        "    if n_edges != lu.size:",
        "    if False:",
        ("tests/test_verify.py::test_grid_embedding_check_fails_on_damaged_input",),
    ),
    Mutant(
        "staircase-skips-the-edges", "verify.py",
        "    elif mapped != {frozenset(e) for e in stair.edges}:",
        "    elif False:",
        ("tests/test_verify.py::test_staircase_check_fails_on_a_damaged_staircase",),
    ),
    Mutant(
        "enumeration-orbits-by-a-reflection", "verify.py",
        "images += [m | 1 << image for m in images]",
        "images += [m | 1 << (top - 1 - image) for m in images]",
        ("tests/test_verify.py::test_graph_class_counts_match_known_values",),
    ),
    Mutant(
        "twin-represented-by-the-largest", "isomorphism.py",
        "min(by_open.setdefault(row, v), by_closed.setdefault(row | 1 << v, v))",
        "max(by_open.setdefault(row, v), by_closed.setdefault(row | 1 << v, v))",
        ("tests/test_isomorphism.py::test_canonical_leaf_generates_the_automorphism_group_of_twin_rich_graphs",),
    ),
    # -- failure paths of the checkers and the corpus runner -------------------
    Mutant(
        "run-corpus-counts-no-failure", "verify.py",
        "                roll.failed += 1",
        "                roll.failed += 0",
        ("tests/test_verify.py::test_run_corpus_counts_a_failing_check_and_keeps_its_first_failure",),
    ),
    Mutant(
        "run-corpus-keeps-the-last-failure", "verify.py",
        "                if roll.first_failure is None:",
        "                if True:",
        ("tests/test_verify.py::test_run_corpus_counts_a_failing_check_and_keeps_its_first_failure",),
    ),
    Mutant(
        "odd-cycle-beside-a-four-cycle-fails", "verify.py",
        '            if has_induced(h, "C4"):\n'
        '                return CheckReport("odd-cycle-c4", True, None, stats)',
        '            if has_induced(h, "C4"):\n'
        '                return CheckReport("odd-cycle-c4", False, None, stats)',
        ("tests/test_verify.py::test_odd_cycle_c4_passes_an_odd_cycle_beside_a_four_cycle",),
    ),
    Mutant(
        "verify-decomp-spg-ignores-the-index", "cli.py",
        "reports.append(check_decomposition(h, args.index))",
        "reports.append(check_decomposition(h))",
        ("tests/test_cli.py::test_verify_decomp_spg_file_checks_the_given_index",),
    ),
    Mutant(
        "run-corpus-checks-a-non-interior-index", "verify.py",
        "index is None or index < (h.d or 0)",
        "index is None or index <= (h.d or 0)",
        ("tests/test_verify.py::test_run_corpus_checks_the_given_index_only_where_it_is_interior",
         "tests/test_cli.py::test_verify_decomp_over_a_corpus_checks_the_given_index"),
    ),
    Mutant(
        "run-corpus-takes-an-index-below-one", "verify.py",
        "    if index is not None and index < 1:",
        "    if False:",
        ("tests/test_cli.py::test_verify_decomp_over_a_corpus_refuses_an_index_below_one",),
    ),
    Mutant(
        "cayley-builds-the-grid-before-the-guard", "verify.py",
        "    cay = cayley_adjacent_transpositions(m, limit=limit)\n"
        "    h = build_spg(grid_base(GridSpec((1,) * m)), limit=limit)",
        "    h = build_spg(grid_base(GridSpec((1,) * m)), limit=limit)\n"
        "    cay = cayley_adjacent_transpositions(m, limit=limit)",
        ("tests/test_verify.py::test_cayley_check_refuses_m_before_building_the_grid",),
    ),
    Mutant(
        "cayley-skips-the-isomorphism", "verify.py",
        "    if find_isomorphism(h, cay) is None:",
        "    if find_isomorphism(h, h) is None:",
        ("tests/test_verify.py::test_cayley_check_fails_on_a_damaged_switch_graph",),
    ),
    Mutant(
        "cayley-skips-the-vertex-count", "verify.py",
        "    if h.num_vertices != cay.num_vertices:",
        "    if False:",
        ("tests/test_verify.py::test_cayley_check_fails_on_a_damaged_switch_graph",),
    ),
    Mutant(
        "tournaments-skip-the-ranking", "verify.py",
        "        if t.ranking() != word:",
        "        if False:",
        ("tests/test_verify.py::test_tournament_check_fails_on_damaged_tournaments",),
    ),
    Mutant(
        "tournaments-skip-the-injectivity", "verify.py",
        "    if len(seen) != total:",
        "    if False:",
        ("tests/test_verify.py::test_tournament_check_fails_on_damaged_tournaments",),
    ),
    # -- the one error root ----------------------------------------------------
    Mutant(
        "work-limit-outside-the-error-root", "patterns.py",
        "class WorkLimitExceeded(SpgError, RuntimeError):",
        "class WorkLimitExceeded(RuntimeError):",
        ("tests/test_cli.py::test_every_package_error_is_an_spg_error_and_exits_2",
         "tests/test_cli.py::test_every_error_class_of_the_package_is_an_spg_error"),
    ),
    Mutant(
        "corpus-file-json-error-outside-the-error-root", "graphs.py",
        "    except json.JSONDecodeError as exc:\n        raise error(",
        "    except KeyError as exc:\n        raise error(",
        ("tests/test_cli.py::test_verify_refuses_malformed_corpus_files",),
    ),
    # -- the automorphism generators of the canonical form ---------------------
    Mutant(
        "automorphisms-without-the-tie-maps", "isomorphism.py",
        "        elif code == best and automorphisms:",
        "        elif False:",
        ("tests/test_isomorphism.py::test_canonical_leaf_generates_the_automorphism_group",),
    ),
    Mutant(
        "automorphisms-without-the-twin-swaps", "isomorphism.py",
        "            if u != w:\n                swap = list(range(n))",
        "            if False:\n                swap = list(range(n))",
        ("tests/test_isomorphism.py::test_canonical_leaf_generates_the_automorphism_group_of_twin_rich_graphs",),
    ),
    # -- the column-wise writer and the SpGraph loader -------------------------
    Mutant(
        "writer-drops-the-tail-between-records", "graphs.py",
        "[*merged[1:], tail + rows.sep + lead]",
        "[*merged[1:], rows.sep + lead]",
        ("tests/test_cli.py::test_spg_writers_match_json_dumps_byte_for_byte",
         "tests/test_cli.py::test_graph_json_matches_json_dumps_byte_for_byte"),
    ),
    Mutant(
        "loader-skips-the-repeat-pass", "spg.py",
        "    if ((first[1:] == first[:-1]) & (second[1:] == second[:-1])).any():",
        "    if False:",
        ("tests/test_spg.py::test_json_roundtrip_and_errors",),
    ),
    Mutant(
        "loader-range-pass-takes-self-loops", "spg.py",
        "hi.max() < len(geos) and (lo < hi).all()",
        "hi.max() < len(geos)",
        ("tests/test_spg.py::test_the_loader_refuses_each_edge_out_of_range",),
    ),
    Mutant(
        "loader-range-pass-takes-index-d", "spg.py",
        "and pos.min() >= 1 and pos.max() < d):",
        "and pos.min() >= 1 and pos.max() <= d):",
        ("tests/test_spg.py::test_the_loader_refuses_each_edge_out_of_range",),
    ),
    # -- the grid certificate --------------------------------------------------
    Mutant(
        "grid-certificate-skips-the-word-count", "verify.py",
        "    if total != count:",
        "    if False:",
        ("tests/test_verify.py::test_grid_embedding_check_fails_on_damaged_input",),
    ),
    Mutant(
        "grid-certificate-skips-the-decoding", "verify.py",
        "            np.array_equal(columns[t + 1][rows] - columns[t][rows], place[backwards[rows, t] - 1])",
        "            True",
        ("tests/test_verify.py::test_grid_embedding_check_fails_on_damaged_input",),
    ),
    # -- the working set of the grid certificate -------------------------------
    Mutant(
        "coordinates-kept-through-the-switch-test", "verify.py",
        "        col = coords.pop(0)[order]",
        "        col = coords[c][order]",
        ("tests/test_verify.py::test_the_grid_certificate_traces_at_most_14_bytes_per_word_move",),
    ),
    Mutant(
        "phi-coordinates-widened-to-int16", "grid.py",
        "    dtype = np.min_scalar_type(max(spec.dims))\n",
        "    dtype = np.promote_types(np.int16, np.min_scalar_type(max(spec.dims)))\n",
        ("tests/test_grid.py::test_phi_batch_counts_in_the_smallest_unsigned_type_for_the_longest_axis",),
    ),
    # -- the blocked loops of the grid certificate -----------------------------
    Mutant(
        "switch-test-skips-the-last-partial-block", "verify.py",
        "    for first in range(0, lu.size, _BLOCK):",
        "    for first in range(0, lu.size - _BLOCK + 1, _BLOCK):",
        ("tests/test_verify.py::test_grid_embedding_check_fails_on_damaged_input_in_blocks_of_three",),
    ),
    Mutant(
        "differ-test-skips-the-last-partial-block", "verify.py",
        "    for step in range(0, lu.size, _BLOCK):",
        "    for step in range(0, lu.size - _BLOCK + 1, _BLOCK):",
        ("tests/test_verify.py::test_grid_embedding_check_needs_exactly_one_differing_vertex_in_blocks_of_three",),
    ),
    Mutant(
        "decode-checks-the-first-block-only", "verify.py",
        "    for row in range(0, total, _BLOCK):",
        "    for row in range(0, min(total, _BLOCK), _BLOCK):",
        ("tests/test_verify.py::test_grid_embedding_check_fails_on_damaged_input_in_blocks_of_three",),
    ),
    Mutant(
        "prefix-counts-not-cached", "geodesics.py",
        "    @cached_property\n    def _prefix_counts",
        "    @property\n    def _prefix_counts",
        ("tests/test_geodesics.py::test_a_grid_check_orders_the_layers_and_counts_prefixes_once",),
    ),
    # -- bulk end lookup of the id path and the sorted reduction ---------------
    Mutant(
        "endpoint-lookup-without-the-pair-lengths", "graphs.py",
        "        if set(map(len, pairs)) == {2}:",
        "        if True:",
        ("tests/test_graphs.py::test_an_edge_of_another_length_fails_on_the_id_path_as_on_the_short_one",),
    ),
    Mutant(
        "reduced-pair-keys-left-unsorted", "geodesics.py",
        "    keys.sort()\n",
        "",
        ("tests/test_geodesics.py::test_reduction_of_either_dag_of_a_large_box_with_a_forced_tail",),
    ),
)


def problems(mutant: Mutant) -> list[str]:
    """Why the mutant cannot be applied as written: its snippet is not in
    its module exactly once, or a named test is not defined."""
    found = []
    count = mutant.path.read_text(encoding="utf-8").count(mutant.snippet)
    if count != 1:
        found.append(f"{mutant.name}: snippet found {count} times in {mutant.module}")
    if mutant.replacement == mutant.snippet:
        found.append(f"{mutant.name}: the replacement is the snippet")
    for test in mutant.tests:
        file, _, function = test.partition("::")
        function = function.partition("[")[0]
        path = ROOT / file
        if not path.is_file() or not re.search(
            rf"^def {re.escape(function)}\(", path.read_text(encoding="utf-8"), re.M
        ):
            found.append(f"{mutant.name}: no test {test}")
    return found


def run(mutant: Mutant) -> bool:
    """Apply the mutant to a copy of ``src/`` and run its tests there;
    True when a test fails."""
    with tempfile.TemporaryDirectory(prefix="spgraphs-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        module = src / "spgraphs" / mutant.module
        text = module.read_text(encoding="utf-8")
        module.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        )
    if result.returncode not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout[-2000:]}")
    return result.returncode == 1


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    if argv == ["--list"]:
        print("\n".join(by_name))
        return 0
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or list(MUTANTS)
    broken = [p for m in chosen for p in problems(m)]
    if broken:
        print("\n".join(broken), file=sys.stderr)
        return 1
    survived = 0
    for mutant in chosen:
        start = time.perf_counter()
        caught = run(mutant)
        survived += not caught
        verdict = "caught  " if caught else "SURVIVED"
        print(f"{verdict} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
