"""Command-line interface: compute, reduce, construct, grid, cayley,
verify, export.

Exit codes: 0 on success or a passing check, 1 when a check fails (the
witness is printed), 2 on usage or input errors and when a resource guard
(geodesic limit, work limit, isomorphism vertex cap) refuses the input:
the package's errors (``graphs.SpgError``) and file errors (``OSError``).
Every run prints the limits (and seed, where one applies) on stderr, and
output is deterministic for fixed flags and seed. The environment
variable SPG_LIMIT overrides the default geodesic limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Mapping

import numpy as np

from .constructions import (
    complete_base,
    even_cycle_base,
    hypercube_base,
    odd_cycle_host_base,
    parallel_paths,
    path_base,
    ConstructionResult,
    _validate_witness_cycle,
    matches_prediction,
)
from .geodesics import (
    DEFAULT_GEODESIC_LIMIT,
    GeodesicOverflowError,
    NoGeodesicError,
    ReducedInstance,
    reduce_instance,
)
from .graphs import (
    BaseInstance,
    Gather,
    GraphError,
    Rows,
    SpgError,
    decimals,
    graph_fields,
    graph_from_edge_list,
    graph_from_json,
    graph_from_value,
    graph_to_json,
    join_rows,
    json_records,
    parse_json,
    quote,
)
from .grid import (
    GridSpec,
    LatticePoint,
    NotInImageError,
    cayley_adjacent_transpositions,
    coord_name,
    grid_base,
    parse_move_sequence,
    phi,
    phi_inverse,
    words_array,
)
from .patterns import DEFAULT_WORK_LIMIT
from .spg import (
    build_spg,
    spg_from_json,
    spg_of_reduced,
    spg_to_dot,
    spg_to_json,
)
from .verify import (
    STANDARD_CHECKS,
    CheckReport,
    check_cayley,
    check_decomposition,
    check_grid_embedding,
    check_staircase,
    check_sum_theorems,
    check_tournament_bijection,
    exhaustive_instances,
    random_instances,
    run_corpus,
)

CHECK_ALIASES = {
    "p3c4": "p3-c4",
    "noc5": "no-induced-c5",
    "claw": "claw-in-c4",
    "oddcycle": "odd-cycle-c4",
    "girth5": "girth5-classification",
    "complete": "complete-iff-same-index",
}


def _default_limit() -> int:
    raw = os.environ.get("SPG_LIMIT")
    if raw is None:
        return DEFAULT_GEODESIC_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise GraphError(f"SPG_LIMIT must be an integer, got {raw!r}") from exc
    if value < 1:
        raise GraphError("SPG_LIMIT must be positive")
    return value


def _banner(args: argparse.Namespace) -> None:
    seed = getattr(args, "seed_in_effect", None)
    seed_part = "none" if seed is None else str(seed)
    print(
        f"# limits: geodesics={args.limit} work={DEFAULT_WORK_LIMIT} seed={seed_part}",
        file=sys.stderr,
    )


def _read_text(path: str) -> str:
    """The contents of a UTF-8 text file, less a leading byte-order mark;
    other bytes are an input error."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path} is not UTF-8 text: {exc}") from exc


def load_instance(path: str, source: str, target: str) -> BaseInstance:
    """Read a graph file (JSON or edge list, by content) into an instance."""
    text = _read_text(path)
    parse = graph_from_json if text.lstrip().startswith("{") else graph_from_edge_list
    return BaseInstance(parse(text), source, target)


def _write_or_print(payload: str, out: str | None) -> None:
    """Write a payload that ends in its own newline to ``out`` or stdout."""
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload)


def _instance_json(inst: BaseInstance | ReducedInstance, **extra: object) -> str:
    """Instance or reduction JSON, keys sorted; ``extra`` holds encoded
    fields (see ``graphs.json_records``)."""
    fields = {"source": quote(inst.source), "target": quote(inst.target)}
    return json_records({**fields, "graph": graph_fields(inst.graph), **extra}, sort_keys=True)


def _vertex_map_rows(vertex_map: Mapping[str, str | None]) -> Rows:
    """A reduction's vertex map as the members of a JSON object, keys
    sorted, each name quoted once and an off-geodesic vertex mapped to
    ``null``."""
    keys = sorted(vertex_map)
    code: dict[str | None, str] = dict(zip(keys, map(quote, keys)))
    code[None] = "null"
    images = [code[vertex_map[v]] for v in keys]
    return Rows(len(keys), ([code[v] + ": " for v in keys], images), brackets="{}")


def _word_listing(spec: GridSpec, words: np.ndarray) -> str:
    """A word array as ``grid enum`` lists it: a ``count=`` line, then one
    word per line as ``MoveSequence`` writes it, a digit string when the
    grid has at most 9 axes and comma-separated otherwise."""
    symbols = decimals(spec.m + 1)
    spaced = symbols if spec.m <= 9 else [s + "," for s in symbols]
    width = words.shape[1]
    line = [Gather(spaced if p < width - 1 else symbols, words[:, p]) for p in range(width)]
    return join_rows([f"count={len(words)}\n", Rows(len(words), (*line, "\n"))])


def _report_exit(*reports: CheckReport) -> int:
    for report in reports:
        print(report)
    return 0 if all(r.passed for r in reports) else 1


# -- subcommand handlers -----------------------------------------------------


def cmd_compute(args: argparse.Namespace) -> int:
    inst = load_instance(args.input, args.a, args.b)
    try:
        red = reduce_instance(inst) if args.reduce else None
    except NoGeodesicError:
        # reduction keeps the shortest path graph: empty, as without --reduce
        red = None
    if red is None:
        h = build_spg(inst, limit=args.limit)
    else:
        if red.collapsed:
            print("reduced instance collapsed to a single vertex; "
                  "the shortest path graph is one lone geodesic")
        h = spg_of_reduced(red, limit=args.limit)
    print(f"geodesics={h.num_vertices} edges={h.num_edges} d={h.d}")
    _write_or_print(spg_to_json(h), args.out)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(spg_to_dot(h))
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    inst = load_instance(args.input, args.a, args.b)
    red = reduce_instance(inst)
    payload = _instance_json(
        red, collapsed=json.dumps(red.collapsed), vertex_map=_vertex_map_rows(red.vertex_map)
    )
    _write_or_print(payload, args.out)
    return 0


def _build_construction(args: argparse.Namespace) -> ConstructionResult:
    kind = args.what
    if kind == "path":
        return path_base(args.k)
    if kind == "complete":
        return complete_base(args.k)
    if kind == "cycle":
        if args.k % 2 != 0 or args.k < 4:
            raise GraphError("cycle length must be an even number >= 4")
        return even_cycle_base(args.k // 2)
    if kind == "oddhost":
        return odd_cycle_host_base(args.k)
    if kind == "hypercube":
        return hypercube_base(args.k)
    if kind == "parallel":
        return parallel_paths(args.k, args.length)
    raise GraphError(f"unknown construction {kind!r}")


def cmd_construct(args: argparse.Namespace) -> int:
    result = _build_construction(args)
    inst = result.instance
    _write_or_print(_instance_json(inst, name=quote(result.name)), args.out)
    if not args.check:
        return 0
    if result.predicted is not None:
        h = build_spg(inst, limit=args.limit)
        ok = matches_prediction(h, result.predicted, result.vertex_of)
        verdict = "pass" if ok else "FAIL"
        print(f"check {result.name}: shortest path graph as predicted: {verdict}")
        return 0 if ok else 1
    # witness-style construction: the listed geodesics must induce a cycle
    witness = result.witness or ()
    try:
        _validate_witness_cycle(inst, witness)
    except GraphError as exc:
        print(f"check {result.name}: FAIL ({exc})")
        return 1
    print(f"check {result.name}: witness induces a {len(witness)}-cycle: pass")
    return 0


def _parse_dims(text: str) -> GridSpec:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise GraphError(f"bad dims {text!r}: expected comma-separated integers") from exc
    return GridSpec(dims)


def cmd_grid(args: argparse.Namespace) -> int:
    sub = args.gridcmd
    if sub == "staircase":
        return _report_exit(check_staircase(args.n1, args.n2, limit=args.limit))
    spec = _parse_dims(args.dims)
    if sub == "phi":
        ms = parse_move_sequence(spec, args.seq)
        point = phi(ms)
        print(coord_name(point.coords))
        return 0
    if sub == "unphi":
        try:
            coords = tuple(int(part) for part in args.coords.split(","))
        except ValueError as exc:
            raise GraphError(f"bad coords {args.coords!r}") from exc
        if len(coords) != spec.embedding_dim:
            raise GraphError(f"expected {spec.embedding_dim} coordinates, got {len(coords)}")
        try:
            point = LatticePoint(spec, coords)
            ms = phi_inverse(point)
        except (NotInImageError, GraphError) as exc:
            print(f"not in image: {exc}")
            return 0
        print(ms)
        return 0
    if sub == "enum":
        count = spec.word_count()
        if count > args.limit:
            raise GeodesicOverflowError(count, args.limit)
        sys.stdout.write(_word_listing(spec, words_array(spec)))
        return 0
    if sub == "base":
        _write_or_print(_instance_json(grid_base(spec)), args.out)
        return 0
    if sub == "check":
        return _report_exit(check_grid_embedding(spec, limit=args.limit))
    raise GraphError(f"unknown grid subcommand {sub!r}")


def cmd_cayley(args: argparse.Namespace) -> int:
    if args.check:
        cayley = check_cayley(args.m, limit=args.limit)
        return _report_exit(cayley, check_tournament_bijection(args.m))
    g = cayley_adjacent_transpositions(args.m, limit=args.limit)
    _write_or_print(graph_to_json(g), args.out)
    return 0


def _int_or_usage(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise GraphError(f"{what} must be an integer, got {text!r}") from exc


def _random_spec(flag: str | None, usage: str) -> tuple[int, ...]:
    """COUNT, MAXN and SEED of a ``random:COUNT:MAXN:SEED`` flag; any other
    shape raises ``usage``."""
    kind, *fields = (flag or "").split(":")
    if kind != "random" or len(fields) != 3:
        raise GraphError(usage)
    return tuple(_int_or_usage(f, "random corpus field") for f in fields)


def _corpus_from_flag(args: argparse.Namespace) -> tuple[Iterable[BaseInstance], int | None]:
    """Instances plus the seed in effect (None when not seeded). An
    exhaustive corpus is a generator: every caller reads it once."""
    flag = args.corpus
    if flag is None:
        raise GraphError("verify needs --corpus (exhaustive:N, random:COUNT:MAXN:SEED, file:PATH)")
    kind, _, rest = flag.partition(":")
    if kind == "exhaustive":
        n = _int_or_usage(rest, "exhaustive corpus size")
        if not 2 <= n <= 8:
            raise GraphError("exhaustive corpus supports 2..8 vertices")
        return exhaustive_instances(n), None
    if kind == "random":
        count, max_n, seed = _random_spec(flag, "random corpus spec is random:COUNT:MAXN:SEED")
        return random_instances(count, max_vertices=max_n, seed=seed), seed
    if kind == "file":
        payload = parse_json(_read_text(rest))
        entries = payload if isinstance(payload, list) else [payload]
        out = []
        for entry in entries:
            if not isinstance(entry, dict) or {"graph", "source", "target"} - entry.keys():
                raise GraphError("corpus file entries need graph, source, and target fields")
            if not isinstance(entry["source"], str) or not isinstance(entry["target"], str):
                raise GraphError("corpus file entries need string source and target")
            graph = graph_from_value(entry["graph"])
            out.append(BaseInstance(graph, entry["source"], entry["target"]))
        return out, None
    raise GraphError(f"unknown corpus kind {kind!r}")


def _verify_sums(args: argparse.Namespace) -> int:
    usage = "verify sums needs --corpus random:COUNT:MAXN:SEED"
    count, max_n, seed = _random_spec(args.corpus, usage)
    args.seed_in_effect = seed
    _banner(args)
    parts = random_instances(2 * count, max_vertices=max_n, seed=seed)
    failures = 0
    for t in range(count):
        i1, i2 = parts[2 * t], parts[2 * t + 1]
        for sum_kind in ("one-sum", "union"):
            report = check_sum_theorems(sum_kind, i1, i2, limit=args.limit)
            if not report.passed:
                failures += 1
                print(report)
    print(f"sums: {2 * count} glueings, {failures} failures")
    return 0 if failures == 0 else 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.check == "sums":
        return _verify_sums(args)
    # one selection: standard checks by name, and whether the decomposition runs
    alias = CHECK_ALIASES.get(args.check)
    checks = list(STANDARD_CHECKS) if args.check == "all" else [alias] if alias else []
    decomposition = args.check in ("all", "decomp")
    if args.spg is not None:
        _banner(args)
        h = spg_from_json(_read_text(args.spg))
        reports = [STANDARD_CHECKS[name](h) for name in checks]
        if decomposition:
            reports.append(check_decomposition(h, args.index))
        return _report_exit(*reports)
    instances, seed = _corpus_from_flag(args)
    args.seed_in_effect = seed
    _banner(args)
    summary = run_corpus(
        instances,
        checks=checks,
        include_decomposition=decomposition,
        index=args.index,
        limit=args.limit,
    )
    print(summary.table())
    print("PASS" if summary.passed else "FAIL")
    return 0 if summary.passed else 1


def cmd_export(args: argparse.Namespace) -> int:
    h = spg_from_json(_read_text(args.spg))
    _write_or_print(spg_to_dot(h, args.name), args.out)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spgraphs",
        description="Shortest path graphs: construction, reduction, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_limit(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--limit",
            type=int,
            default=None,
            help="geodesic count guard (default: SPG_LIMIT or 1000000)",
        )

    p = sub.add_parser("compute", help="build the shortest path graph of an instance")
    p.add_argument("--in", dest="input", required=True, help="graph file (JSON or edge list)")
    p.add_argument("--a", required=True, help="source vertex")
    p.add_argument("--b", required=True, help="target vertex")
    p.add_argument("--out", help="write SpGraph JSON here (default: stdout)")
    p.add_argument("--dot", help="also write DOT with index-colored edges")
    p.add_argument("--reduce", action="store_true", help="reduce the instance first")
    add_limit(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("reduce", help="delete off-geodesic material, contract forced edges")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", help="write reduction JSON here (default: stdout)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("construct", help="emit a named base instance")
    p.add_argument(
        "what",
        choices=["path", "complete", "cycle", "oddhost", "hypercube", "parallel"],
    )
    p.add_argument("k", type=int, help="size parameter (cycle: even cycle length)")
    p.add_argument("length", type=int, nargs="?", default=3, help="path length (parallel only)")
    p.add_argument("--check", action="store_true", help="verify the predicted shortest path graph")
    p.add_argument("--out", help="write instance JSON here (default: stdout)")
    add_limit(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("grid", help="words, the lattice embedding, staircases")
    gridsub = p.add_subparsers(dest="gridcmd", required=True)
    g = gridsub.add_parser("phi", help="embed a move sequence")
    g.add_argument("--dims", required=True)
    g.add_argument("--seq", required=True)
    g.set_defaults(func=cmd_grid)
    g = gridsub.add_parser("unphi", help="invert the embedding")
    g.add_argument("--dims", required=True)
    g.add_argument("--coords", required=True)
    g.set_defaults(func=cmd_grid)
    g = gridsub.add_parser("enum", help="list all move sequences")
    g.add_argument("--dims", required=True)
    add_limit(g)
    g.set_defaults(func=cmd_grid)
    g = gridsub.add_parser("base", help="emit the grid instance as JSON")
    g.add_argument("--dims", required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_grid)
    g = gridsub.add_parser("staircase", help="check the two-axis staircase")
    g.add_argument("--n1", type=int, required=True)
    g.add_argument("--n2", type=int, required=True)
    add_limit(g)
    g.set_defaults(func=cmd_grid)
    g = gridsub.add_parser("check", help="full embedding check for one dims tuple")
    g.add_argument("--dims", required=True)
    add_limit(g)
    g.set_defaults(func=cmd_grid)

    p = sub.add_parser("cayley", help="permutations under adjacent switches")
    p.add_argument("m", type=int)
    p.add_argument("--check", action="store_true")
    p.add_argument("--out")
    add_limit(p)
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("verify", help="run theorem checkers over a corpus")
    p.add_argument(
        "check",
        choices=["all", *CHECK_ALIASES, "decomp", "sums"],
    )
    p.add_argument("--corpus", help="exhaustive:N | random:COUNT:MAXN:SEED | file:PATH")
    p.add_argument("--spg", help="check one SpGraph JSON file instead of a corpus")
    p.add_argument("--index", type=int, default=None, help="decomp, all: only this position")
    add_limit(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="SpGraph JSON to DOT")
    p.add_argument("--spg", required=True)
    p.add_argument("--out", help="write DOT here (default: stdout)")
    p.add_argument("--name", default="spg", help="DOT graph name")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # subcommands without --limit still report the limit in effect
        if getattr(args, "limit", None) is None:
            args.limit = _default_limit()
        if args.func is not cmd_verify:
            _banner(args)
        return args.func(args)
    except (SpgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
