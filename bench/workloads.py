"""The three benchmark workloads, built from a seed.

A workload's ``setup`` generates its inputs and expected outputs and
returns a list of operations. Each operation is one call into the
package's public API; its ``check`` compares the result with values from
``expected`` (which never imports spgraphs) and returns ``None`` when the
output is right, or ``(kind, detail)`` with kind ``"wrong"`` for a wrong
output and ``"refused"`` for a typed refusal (CLI exit code 2) of a valid
input.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager

import expected as ex

Verdict = tuple[str, str] | None

# Connected graphs on n vertices up to isomorphism (OEIS A001349), n = 2..7,
# each with n(n-1) ordered endpoint pairs: 39,692 instances.
CONNECTED_CLASSES = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
EXHAUSTIVE_INSTANCES = sum(c * n * (n - 1) for n, c in CONNECTED_CLASSES.items())
RANDOM_INSTANCES = 500
ONE_SUMS, UNIONS, TWO_SUMS = 50, 25, 50
SMALL_ROUNDS = 2  # grid-embed: rounds of the checks other than the 1^9 grid in a pass


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]
    work: int = 1


@dataclass
class Setup:
    ops: list[Op]
    problems: list[str]
    min_passes: int = 1


def _report_check(**stats: object) -> Callable[[Any], Verdict]:
    """A CheckReport must pass and carry exactly these stats values."""

    def check(report: Any) -> Verdict:
        if not report.passed:
            return ("wrong", f"{report.name} failed: {report.witness}")
        for key, want in stats.items():
            if report.stats.get(key) != want:
                return ("wrong", f"{report.name}: {key}={report.stats.get(key)}, expected {want}")
        return None

    return check


# -- corpus-verify ---------------------------------------------------------------


def _corpus_check(summary: Any) -> Verdict:
    if summary.instances != 1:
        return ("wrong", f"summary counts {summary.instances} instances, expected 1")
    for name, roll in summary.rollups.items():
        if roll.ran != 1 or roll.failed:
            return ("wrong", f"{name}: ran {roll.ran}, failed {roll.failed}: {roll.first_failure}")
    if len(summary.rollups) != 7:
        return ("wrong", f"{len(summary.rollups)} checks ran, expected 7")
    return None


def _adj_of(graph: Any) -> dict[str, set[str]]:
    return ex.adjacency(graph.vertices, graph.edges)


SHARED = ("x", "y")


def _side(prefix: str, v: str) -> str:
    """Vertex name in a two-sum, as the package glues it: the shared edge
    keeps its names, every other vertex is tagged with its side."""
    return v if v in SHARED else f"{prefix}:{v}"


def _sum_ops(sp: Any, seed: int) -> list[Op]:
    """Seeded one-sum, union and two-sum checks over a six-vertex pool, kept
    small enough (at most 150 geodesics) for the isomorphism search."""
    rng = random.Random(seed)
    pool = []
    for inst in sp.random_instances(130, max_vertices=6, seed=seed):
        c = ex.count_geodesics(_adj_of(inst.graph), inst.source, inst.target)
        if c <= 12:
            pool.append((inst, c))
    ops: list[Op] = []
    while len(ops) < ONE_SUMS:
        (i1, c1), (i2, c2) = rng.choice(pool), rng.choice(pool)
        if c1 * c2 <= 150:
            ops.append(Op("one-sum", lambda i1=i1, i2=i2: sp.check_sum_theorems("one-sum", i1, i2),
                          _report_check(vertices=c1 * c2)))
    for _ in range(UNIONS):
        (i1, c1), (i2, c2) = rng.choice(pool), rng.choice(pool)
        ops.append(Op("union", lambda i1=i1, i2=i2: sp.check_sum_theorems("union", i1, i2),
                      _report_check(vertices=c1 + c2)))
    graphs = [inst.graph for inst, _ in pool
              if inst.graph.num_edges >= 2 and ex.is_connected(_adj_of(inst.graph))]
    made = 0
    while made < TWO_SUMS:
        parts = []
        for g in (rng.choice(graphs), rng.choice(graphs)):
            x, y = rng.choice(g.sorted_edges())
            mapping = {v: "x" if v == x else "y" if v == y else f"v{v}" for v in g.vertices}
            relabeled = g.relabel(mapping)
            parts.append((relabeled, rng.choice([v for v in relabeled.vertices if v not in SHARED])))
        (g1, a), (g2, b) = parts
        glued = ex.adjacency(
            {_side("L", v) for v in g1.vertices} | {_side("R", v) for v in g2.vertices},
            [tuple(_side("L", v) for v in e) for e in g1.edges]
            + [tuple(_side("R", v) for v in e) for e in g2.edges],
        )
        count = ex.count_geodesics(glued, _side("L", a), _side("R", b))
        if not 0 < count <= 150:
            continue
        args = (g1, a, g2, b, *SHARED)
        ops.append(Op("two-sum", lambda args=args: sp.check_sum_theorems("two-sum", *args),
                      _report_check(vertices=count)))
        made += 1
    return ops


def setup_corpus(sp: Any, seed: int, workdir: Path, span: Callable[[str], ContextManager]) -> Setup:
    # the class list is lru_cached; clear it so every set-up pays for it
    clear = getattr(sp.enumerate_graphs, "cache_clear", None)
    if clear is not None:
        clear()
    with span("verify.corpus_gen"):
        instances = list(sp.exhaustive_instances(7))
        instances += sp.random_instances(RANDOM_INSTANCES, max_vertices=10, seed=seed)
        sums = _sum_ops(sp, seed)
    problems = []
    if len(instances) != EXHAUSTIVE_INSTANCES + RANDOM_INSTANCES:
        problems.append(f"corpus has {len(instances)} instances, "
                        f"expected {EXHAUSTIVE_INSTANCES + RANDOM_INSTANCES}")
    ops = [
        Op("instance", lambda inst=inst: sp.run_corpus([inst], include_decomposition=True),
           _corpus_check)
        for inst in instances
    ]
    # a pass takes about 15 s: two passes give wall_s a median over 30 s
    return Setup(ops + sums, problems, min_passes=2)


# -- grid-embed ----------------------------------------------------------------------


def setup_grid(sp: Any, seed: int, workdir: Path, span: Callable[[str], ContextManager]) -> Setup:
    """Every grid with at most 8 moves plus the 1^9 grid, the criterion-7
    staircases and the criterion-8 permutation families (m <= 5), in an
    order shuffled by the seed so that operations of one size are spread
    over the pass instead of meeting one stretch of machine noise.

    The 1^9 grid alone takes about 15 s, as long as all the other checks
    together. Those run SMALL_ROUNDS times in a pass, so that op_p50_ms,
    which they decide, is taken over as long a stretch of the run as the
    1^9 grid. A pass takes longer than --seconds, so a run makes one."""
    rng = random.Random(seed)
    problems = []

    def grid_op(dims: tuple[int, ...]) -> Op:
        words = ex.lattice_paths(dims)
        if words != ex.multinomial(dims):
            problems.append(f"{dims}: lattice paths {words} != multinomial {ex.multinomial(dims)}")
        spec = sp.GridSpec(dims)
        return Op("grid-" + "x".join(map(str, dims)), lambda: sp.check_grid_embedding(spec),
                  _report_check(words=words, edges=ex.word_graph_edges(dims)), words)

    ops = [grid_op(dims) for n in range(1, 9) for dims in ex.compositions(n)]
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            count = math.comb(n1 + n2, n1)
            ops.append(Op(f"staircase-{n1}x{n2}", lambda n1=n1, n2=n2: sp.check_staircase(n1, n2),
                          _report_check(vertices=count), count))
    for m in range(1, 6):
        perms = math.factorial(m)
        ops.append(Op(f"cayley-{m}", lambda m=m: sp.check_cayley(m),
                      _report_check(vertices=perms, edges=perms * (m - 1) // 2), perms))
        ops.append(Op(f"tournaments-{m}", lambda m=m: sp.check_tournament_bijection(m),
                      _report_check(words=perms, tournaments=perms), perms))
    ops = ops * SMALL_ROUNDS + [grid_op((1,) * 9)]
    rng.shuffle(ops)
    return Setup(ops, problems)


# -- cli-instances -------------------------------------------------------------------


GRID30 = (30, 30, 30)
PATH_LENGTH = 1500


def _run_cli(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_check(want_code: int, test: Callable[[str, str], str | None]) -> Callable[[Any], Verdict]:
    def check(result: tuple[int, str, str]) -> Verdict:
        code, out, err = result
        if code != want_code:
            kind = "refused" if code == 2 else "wrong"
            return (kind, f"exit {code}, expected {want_code}: {err.strip()[-200:]}")
        problem = test(out, err)
        return None if problem is None else ("wrong", problem)

    return check


def _first_line_is(line: str) -> Callable[[str, str], str | None]:
    def test(out: str, err: str) -> str | None:
        first = out.splitlines()[0] if out else ""
        return None if first == line else f"printed {first!r}, expected {line!r}"

    return test


def setup_cli(sp: Any, seed: int, workdir: Path, span: Callable[[str], ContextManager]) -> Setup:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    q8, grid, path = workdir / "q8.json", workdir / "grid30.json", workdir / "path.txt"
    ex.write_graph_json(q8, *ex.hypercube_edges(8), rng)
    ex.write_graph_json(grid, *ex.grid_edges(GRID30), rng)
    ex.write_edge_list(path, [(str(i), str(i + 1)) for i in range(PATH_LENGTH)], rng)
    q8_json, q8_dot, reduced = workdir / "q8.spg.json", workdir / "q8.dot", workdir / "grid30.red.json"
    perms = math.factorial(8)
    q8_edges = perms * 7 // 2
    grid_vertices = math.prod(n + 1 for n in GRID30)
    grid_edges = sum(n * grid_vertices // (n + 1) for n in GRID30)
    corner = "_".join(map(str, GRID30))

    def q8_outputs(out: str, err: str) -> str | None:
        problem = _first_line_is(f"geodesics={perms} edges={q8_edges} d=8")(out, err)
        if problem:
            return problem
        payload = json.loads(q8_json.read_text(encoding="utf-8"))
        geos = {tuple(g) for g in payload["geodesics"]}
        if len(geos) != perms or len(payload["edges"]) != q8_edges:
            return f"JSON has {len(geos)} geodesics and {len(payload['edges'])} edges"
        for geo in geos:  # each step sets one more bit, from 0^8 to 1^8
            if [v.count("1") for v in geo] != list(range(9)) or any(
                any(a > b for a, b in zip(u, w)) for u, w in zip(geo, geo[1:])
            ):
                return f"{geo} is not a geodesic of Q8"
        dot = q8_dot.read_text(encoding="utf-8")
        if dot.count(" -- ") != q8_edges or dot.count("[label=\"") != perms + q8_edges:
            return "DOT file has the wrong number of nodes or edges"
        return None

    def reduce_outputs(out: str, err: str) -> str | None:
        payload = json.loads(reduced.read_text(encoding="utf-8"))
        verts, edges = payload["graph"]["vertices"], payload["graph"]["edges"]
        if payload["collapsed"] or len(verts) != grid_vertices or len(edges) != grid_edges:
            return f"reduced to {len(verts)} vertices and {len(edges)} edges"
        return None

    refusal = math.factorial(sum(GRID30)) // math.prod(math.factorial(n) for n in GRID30)

    def refused_with_count(out: str, err: str) -> str | None:
        return None if f"{refusal} geodesics exceed" in err else f"stderr lacks the exact count: {err[-200:]!r}"

    def lines_pass(*names: str) -> Callable[[str, str], str | None]:
        def test(out: str, err: str) -> str | None:
            missing = [n for n in names if f"{n}: pass" not in out.splitlines()]
            return f"no pass line for {missing}" if missing else None

        return test

    commands = [
        ("compute-q8", ["compute", "--in", str(q8), "--a", "0" * 8, "--b", "1" * 8,
                        "--out", str(q8_json), "--dot", str(q8_dot)], 0, q8_outputs),
        ("reduce-grid30", ["reduce", "--in", str(grid), "--a", "0_0_0", "--b", corner,
                           "--out", str(reduced)], 0, reduce_outputs),
        ("compute-grid30", ["compute", "--in", str(grid), "--a", "0_0_0", "--b", corner],
         2, refused_with_count),
        ("compute-path1500", ["compute", "--in", str(path), "--a", "0", "--b", str(PATH_LENGTH)],
         0, _first_line_is(f"geodesics=1 edges=0 d={PATH_LENGTH}")),
        ("cayley-6-check", ["cayley", "6", "--check"], 0, lines_pass("cayley-6", "tournaments-6")),
        ("staircase-6x6", ["grid", "staircase", "--n1", "6", "--n2", "6"], 0,
         lines_pass("staircase-6x6")),
    ]
    ops = [
        Op(label, lambda argv=argv: _run_cli(sp.cli.main, argv), _cli_check(code, test))
        for label, argv, code, test in commands
    ]
    # six commands from 20 ms to 3 s, about 6.5 s a pass: four passes give
    # each per-pass statistic a median over 26 s
    return Setup(ops, [], min_passes=4)


WORKLOADS = {
    "corpus-verify": setup_corpus,
    "grid-embed": setup_grid,
    "cli-instances": setup_cli,
}
