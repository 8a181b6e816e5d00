"""Self-test of the benchmark harness (seconds, not a workload run).

    python3 -m pytest -q bench/test_bench.py

Checks that BENCHMARK.json, the harness and predictions.json name the
same workloads and metrics, that the result line has the fixed schema,
that a wrong output, a crash and a refusal each count as failed, and the
closed-form expected values on small cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import expected as ex  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PREDICTIONS = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_harness():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_predictions_cite_existing_names():
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    cited = set()
    for row in PREDICTIONS["layers"]:
        assert set(row["metrics"]) <= per_layer, row["layer"]
        assert set(row["should_move"]) <= end_to_end
        assert set(row["workloads"] + row["not_on"]) <= set(workloads.WORKLOADS)
        cited |= set(row["metrics"])
    assert cited == {name for name in per_layer if not name.startswith("trace.")}
    known = PREDICTIONS["known_failures"]["cli-instances"]
    workdir = run.OUT / "selftest"
    try:
        built = workloads.setup_cli(run.load_package(), 0, workdir, tracing.no_span)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert {k["operation"] for k in known} <= {op.label for op in built.ops}


class _Report(SimpleNamespace):
    pass


def _ok_report(**stats):
    return _Report(name="fake", passed=True, witness=None, stats=stats)


def test_wrong_outputs_crashes_and_refusals_count_as_failed():
    check = workloads._report_check(words=6)
    cli_check = workloads._cli_check(0, lambda out, err: None if out == "fine" else "bad output")

    def boom():
        raise RecursionError("deep")

    ops = [
        workloads.Op("right", lambda: _ok_report(words=6), check, 6),
        workloads.Op("wrong-stat", lambda: _ok_report(words=5), check, 6),
        workloads.Op("failed-report", lambda: _Report(name="f", passed=False, witness="w", stats={}), check),
        workloads.Op("raises", boom, check),
        workloads.Op("refused", lambda: (2, "", "error: too many"), cli_check),
        workloads.Op("wrong-exit", lambda: (1, "fine", ""), cli_check),
        workloads.Op("wrong-text", lambda: (0, "other", ""), cli_check),
        workloads.Op("cli-right", lambda: (0, "fine", ""), cli_check),
    ]
    result = run.run_pass(ops)
    kinds = {label: kind for label, kind, _ in result.failures}
    assert kinds == {
        "wrong-stat": "wrong",
        "failed-report": "wrong",
        "raises": "raised",
        "refused": "refused",
        "wrong-exit": "wrong",
        "wrong-text": "wrong",
    }
    assert result.work == 6 + 1
    assert len(result.latencies) == len(ops)


def _fake_workload(sp, seed, workdir, span):
    with span("verify.corpus_gen"):
        ops = [
            workloads.Op("cayley-3", lambda: sp.check_cayley(3), workloads._report_check(vertices=6, edges=6), 6),
            workloads.Op("cayley-3-miscounted", lambda: sp.check_cayley(3), workloads._report_check(vertices=7)),
        ]
    return workloads.Setup(ops, [])


def _run_main(trace: int) -> tuple[dict, str]:
    workloads.WORKLOADS["selftest"] = _fake_workload
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run.main(["--workload", "selftest", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    finally:
        del workloads.WORKLOADS["selftest"]
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def test_result_line_schema_and_a_wrong_output_is_counted():
    result, notes = _run_main(trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] * 2 == result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert result["metrics"]["ops_ok_ratio"]["value"] == 0.5
    assert "cayley-3-miscounted (wrong)" in notes


def test_traced_run_reports_every_layer_metric_and_restores_the_package():
    import spgraphs.verify

    original = spgraphs.verify.check_cayley
    result, _ = _run_main(trace=1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["verify.check.cayley.calls"] == 2
    assert metrics["isomorphism.found_ratio"] == 1.0
    assert metrics["verify.corpus_gen.s"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    assert spgraphs.verify.check_cayley is original
    assert spgraphs.STANDARD_CHECKS["p3-c4"] is spgraphs.verify.check_p3_c4


def test_each_interval_is_scaled_by_the_probes_near_it():
    speed = hostspeed.HostSpeed()
    nominal, n = hostspeed.NOMINAL_S, hostspeed.LOCAL_SAMPLES
    speed.wall = [nominal] * n + [2 * nominal] * n
    speed.cpu = [nominal / 2] * n + [nominal] * n
    assert speed.scales([(0, n), (n, 2 * n), (3, 4), (2 * n, 2 * n)]) == [
        (1.0, 2.0),  # its own samples
        (0.5, 1.0),
        (1.0, 2.0),  # too few samples: the n nearest, here the first n
        (0.5, 1.0),  # none after it: the last n
    ]


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_expected_values_on_small_cases():
    assert ex.multinomial((2, 1)) == 3 == ex.lattice_paths((2, 1))
    assert ex.multinomial((1,) * 4) == 24 == ex.lattice_paths((1,) * 4)
    assert ex.word_graph_edges((1, 1)) == 1
    assert ex.word_graph_edges((1, 1, 1)) == 6  # the hexagon of S_3
    assert ex.word_graph_edges((2, 2)) == 6  # aabb abab abba baab baba bbaa
    cycle = ex.adjacency("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert ex.count_geodesics(cycle, "a", "c") == 2
    assert ex.count_geodesics(ex.adjacency("ab", []), "a", "b") == 0
    assert workloads.EXHAUSTIVE_INSTANCES == 39692
