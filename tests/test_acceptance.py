"""Acceptance suite: eight end-to-end checks, one printed verdict line each.

Every check is exact (set equality, isomorphism, or a zero failure count;
no tolerances) and runs against fixed seeds, so the suite is deterministic.
The printed lines bypass pytest capture so a plain ``pytest`` run shows one
PASS or FAIL line per criterion with its wall-clock time.
"""

import random
import time

import oracles
import strategies
from spgraphs import (
    BaseInstance,
    Graph,
    SpGraph,
    build_spg,
    count_geodesics,
    enumerate_geodesics,
    parse_move_sequence,
    phi,
)
from spgraphs.constructions import (
    CASE_MATCHING,
    CASE_OVERLAP,
    CASE_THROUGH_X,
    CASE_THROUGH_Y,
    complete_base,
    even_cycle_base,
    hypercube_base,
    odd_cycle_host_base,
    parallel_paths,
    path_base,
)
from spgraphs.geodesics import NoGeodesicError
from spgraphs.graphs import complete_graph, cycle_graph, empty_graph, hypercube_graph, path_graph
from spgraphs.grid import GridSpec
from spgraphs.isomorphism import is_isomorphic
from spgraphs.spg import difference_index
from spgraphs.verify import (
    STANDARD_CHECKS,
    check_cayley,
    check_decomposition,
    check_grid_embedding,
    check_staircase,
    check_sum_theorems,
    check_tournament_bijection,
    exhaustive_instances,
    instance_label,
    random_instances,
    run_corpus,
)

RANDOM_CORPUS_SEED = 2026
_ELAPSED: dict[int, float] = {}


def _verdict(capsys, number: int, ok: bool, started: float, detail: str) -> None:
    elapsed = time.time() - started
    _ELAPSED[number] = elapsed
    word = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{word}] criterion {number}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {detail}"


def _corpus() -> list[BaseInstance]:
    instances = list(exhaustive_instances(7))
    instances += random_instances(500, max_vertices=10, seed=RANDOM_CORPUS_SEED)
    return instances


def test_criterion_1_enumeration_matches_exhaustive_search(capsys):
    started = time.time()
    checked = 0
    bad = None
    for inst in exhaustive_instances(7):
        expected = oracles.brute_geodesics(inst.graph, inst.source, inst.target)
        if enumerate_geodesics(inst) != expected:
            bad = instance_label(inst)
            break
        checked += 1
    detail = (
        f"geodesic enumeration equals exhaustive DFS on all {checked} "
        f"instances up to 7 vertices"
        if bad is None
        else f"enumeration mismatch on {bad}"
    )
    _verdict(capsys, 1, bad is None, started, detail)
    assert _ELAPSED[1] < 300


def test_criterion_2_constructions_match_predictions(capsys):
    started = time.time()
    cases = []
    for k in range(1, 11):
        cases.append((path_base(k), path_graph(k)))
    for n in range(1, 7):
        cases.append((complete_base(n), complete_graph(n)))
    for n in range(2, 7):
        cases.append((even_cycle_base(n), cycle_graph(2 * n)))
    for t in range(1, 7):
        cases.append((parallel_paths(t, 3), empty_graph(t)))
    for k in range(1, 6):
        cases.append((hypercube_base(k), hypercube_graph(k)))
    bad = None
    for result, expected in cases:
        h = build_spg(result.instance)
        if not is_isomorphic(h.to_graph(), expected):
            bad = result.name
            break
    detail = (
        f"all {len(cases)} construction families produce the predicted "
        f"shortest path graphs"
        if bad is None
        else f"construction {bad} does not match its prediction"
    )
    _verdict(capsys, 2, bad is None, started, detail)
    assert _ELAPSED[2] < 60


def test_criterion_3_odd_cycle_hosts(capsys):
    started = time.time()
    bad = None
    for p in (3, 4, 5):
        result = odd_cycle_host_base(p)
        witness = result.witness
        h = build_spg(result.instance)
        have = set(h.geodesics)
        if witness is None or len(witness) != 2 * p + 1:
            bad = f"p={p}: wrong witness size"
            break
        if any(seq not in have for seq in witness):
            bad = f"p={p}: witness geodesic missing from the shortest path graph"
            break
        n = len(witness)
        for i in range(n):
            for j in range(i + 1, n):
                adjacent = difference_index(witness[i], witness[j]) is not None
                consecutive = j - i == 1 or (i == 0 and j == n - 1)
                if adjacent != consecutive:
                    bad = f"p={p}: witness pair ({i},{j}) breaks the cycle"
                    break
            if bad:
                break
        if bad:
            break
    detail = (
        "hosts for p in {3,4,5} contain induced odd cycles of length 7, 9, 11"
        if bad is None
        else bad
    )
    _verdict(capsys, 3, bad is None, started, detail)
    assert _ELAPSED[3] < 120


def _negative_controls() -> list[tuple[str, SpGraph]]:
    middles = lambda *names: [("a", v, "b") for v in names]
    five_cycle = SpGraph(
        middles("m0", "m1", "m2", "m3", "m4"),
        {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (0, 4): 1},
    )
    seven = middles(*[f"m{i}" for i in range(7)])
    seven_edges = {(i, i + 1): 1 for i in range(6)}
    seven_edges[(0, 6)] = 1
    claw = SpGraph(
        [("a", "m", "w", "b"), ("a", "x", "w", "b"), ("a", "y", "w", "b"), ("a", "m", "z", "b")],
        {(0, 1): 1, (0, 2): 1, (0, 3): 2},
    )
    return [
        (
            "p3-c4",
            SpGraph(
                [("a", "1", "2", "3", "b"), ("a", "9", "2", "3", "b"), ("a", "1", "2", "8", "b")],
                {(0, 1): 1, (0, 2): 3},
            ),
        ),
        ("no-induced-c5", five_cycle),
        ("claw-in-c4", claw),
        ("odd-cycle-c4", SpGraph(seven, seven_edges)),
        ("girth5-classification", claw),
        (
            "complete-iff-same-index",
            SpGraph(
                [("a", "1", "2", "b"), ("a", "9", "2", "b"), ("a", "9", "8", "b")],
                {(0, 1): 1, (1, 2): 2, (0, 2): 1},
            ),
        ),
    ]


def test_criterion_4_checkers_hold_over_the_corpus(capsys):
    started = time.time()
    summary = run_corpus(_corpus())
    failures = {
        name: roll.first_failure
        for name, roll in summary.rollups.items()
        if roll.failed
    }
    controls_ok = all(
        not STANDARD_CHECKS[name](fake).passed for name, fake in _negative_controls()
    )
    ok = summary.passed and controls_ok
    if not summary.passed:
        detail = f"checker failures: {failures}"
    elif not controls_ok:
        detail = "a negative control slipped through its checker"
    else:
        detail = (
            f"six structural checkers pass on all {summary.instances} corpus "
            f"instances and fail on every crafted counterexample"
        )
    _verdict(capsys, 4, ok, started, detail)
    assert _ELAPSED[4] < 600


def test_criterion_5_decompositions_hold_over_the_corpus(capsys):
    started = time.time()
    checked = 0
    bad = None
    for inst in _corpus():
        report = check_decomposition(inst)
        if not report.passed:
            bad = f"{instance_label(inst)}: {report.witness}"
            break
        checked += 1
    detail = (
        f"index decomposition (grouping, partial matchings, factor products) "
        f"holds on all {checked} corpus instances"
        if bad is None
        else f"decomposition failed on {bad}"
    )
    _verdict(capsys, 5, bad is None, started, detail)
    assert _ELAPSED.get(4, 0) + _ELAPSED[5] < 600


def _paired_pool(count: int, seed: int) -> list[BaseInstance]:
    pool = random_instances(count, max_vertices=6, seed=seed)
    return [inst for inst in pool if count_geodesics(inst) <= 12]


def _random_two_sum_args(rng: random.Random, pool: list[Graph]):
    g1, g2 = rng.choice(pool), rng.choice(pool)
    sides = []
    for g in (g1, g2):
        edge = rng.choice(g.sorted_edges())
        mapping = {}
        for v in g.vertices:
            mapping[v] = "x" if v == edge[0] else "y" if v == edge[1] else f"v{v}"
        relabeled = g.relabel(mapping)
        anchors = [v for v in relabeled.vertices if v not in ("x", "y")]
        if not anchors:
            return None
        sides.append((relabeled, rng.choice(anchors)))
    (r1, a), (r2, b) = sides
    return r1, a, r2, b, "x", "y"


def test_criterion_6_sum_theorems(capsys):
    started = time.time()
    rng = random.Random(77)
    pool = _paired_pool(130, seed=7)
    bad = None

    one_sums = 0
    for i in range(50):
        i1, i2 = pool[(2 * i) % len(pool)], pool[(2 * i + 1) % len(pool)]
        if count_geodesics(i1) * count_geodesics(i2) > 150:
            continue
        report = check_sum_theorems("one-sum", i1, i2)
        if not report.passed:
            bad = f"one-sum #{i}: {report.witness}"
            break
        one_sums += 1
    while bad is None and one_sums < 50:
        i1, i2 = rng.choice(pool), rng.choice(pool)
        if count_geodesics(i1) * count_geodesics(i2) > 150:
            continue
        report = check_sum_theorems("one-sum", i1, i2)
        if not report.passed:
            bad = f"one-sum extra: {report.witness}"
            break
        one_sums += 1

    unions = 0
    while bad is None and unions < 25:
        i1, i2 = rng.choice(pool), rng.choice(pool)
        report = check_sum_theorems("union", i1, i2)
        if not report.passed:
            bad = f"union #{unions}: {report.witness}"
            break
        unions += 1

    # Crafted two-sums pin one example of each distance case; random glueings
    # fill the count to fifty.
    tri_a = Graph(["a", "x", "y"], [("a", "x"), ("a", "y"), ("x", "y")])
    tri_b = Graph(["b", "x", "y"], [("b", "x"), ("b", "y"), ("x", "y")])
    near_x_1 = Graph(["a", "x", "y"], [("a", "x"), ("x", "y")])
    near_x_2 = Graph(["b", "x", "y"], [("b", "x"), ("x", "y")])
    near_y_1 = Graph(["a", "x", "y"], [("a", "y"), ("x", "y")])
    near_y_2 = Graph(["b", "x", "y"], [("b", "y"), ("x", "y")])
    crafted = [
        (tri_a, "a", tri_b, "b", "x", "y"),
        (near_x_1, "a", near_x_2, "b", "x", "y"),
        (near_y_1, "a", near_y_2, "b", "x", "y"),
        (near_x_1, "a", near_y_2, "b", "x", "y"),
    ]
    graph_pool = [inst.graph for inst in pool if inst.graph.num_edges >= 2]
    cases_seen = set()
    two_sums = 0
    queue = list(crafted)
    while bad is None and two_sums < 50:
        if queue:
            args = queue.pop(0)
        else:
            args = _random_two_sum_args(rng, graph_pool)
            if args is None:
                continue
        try:
            report = check_sum_theorems("two-sum", *args)
        except NoGeodesicError:
            continue
        if not report.passed:
            bad = f"two-sum ({report.stats['case']}): {report.witness}"
            break
        cases_seen.add(report.stats["case"])
        two_sums += 1
    expected_cases = {CASE_MATCHING, CASE_THROUGH_X, CASE_THROUGH_Y, CASE_OVERLAP}
    if bad is None and cases_seen != expected_cases:
        bad = f"two-sum cases seen: {sorted(cases_seen)}"

    detail = (
        f"{one_sums} one-sums, {unions} unions, and {two_sums} two-sums "
        f"(all four distance cases) match their predicted compositions"
        if bad is None
        else bad
    )
    _verdict(capsys, 6, bad is None, started, detail)
    assert _ELAPSED[6] < 300


def test_criterion_7_grid_embeddings(capsys):
    started = time.time()
    bad = None
    grids = 0
    for n in range(1, 10):
        for dims in strategies.compositions(n):
            report = check_grid_embedding(GridSpec(dims))
            if not report.passed:
                bad = f"{report.name}: {report.witness}"
                break
            grids += 1
        if bad:
            break
    stairs = 0
    if bad is None:
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                report = check_staircase(n1, n2)
                if not report.passed:
                    bad = f"staircase {n1}x{n2}: {report.witness}"
                    break
                stairs += 1
            if bad:
                break
    if bad is None:
        spec = GridSpec((3, 3, 2))
        point = phi(parse_move_sequence(spec, "32121231"))
        if point.coords != (3, 2, 1, 3, 1, 3, 0):
            bad = f"worked embedding value came out as {point.coords}"
    detail = (
        f"lattice embedding verified for all {grids} grids with up to 9 moves "
        f"plus {stairs} staircases and the worked example"
        if bad is None
        else bad
    )
    _verdict(capsys, 7, bad is None, started, detail)
    assert _ELAPSED[7] < 180


def test_criterion_8_permutation_graphs(capsys):
    started = time.time()
    bad = None
    for m in range(1, 6):
        report = check_cayley(m)
        if not report.passed:
            bad = f"cayley m={m}: {report.witness}"
            break
        bijection = check_tournament_bijection(m)
        if not bijection.passed:
            bad = f"tournaments m={m}: {bijection.witness}"
            break
    detail = (
        "permutation graphs under adjacent switches match the grid shortest "
        "path graphs for m up to 5, and words biject with transitive tournaments"
        if bad is None
        else bad
    )
    _verdict(capsys, 8, bad is None, started, detail)
    assert _ELAPSED[8] < 120
