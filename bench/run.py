"""Benchmark for spgraphs: three fixed workloads through the public API.

    python3 bench/run.py --workload corpus-verify --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. With ``--trace 0`` the workload
is set up several times (``setup_s`` is the median), then run in whole
passes, one operation at a time from one thread (a closed loop), until
another pass would overrun ``--seconds``; at least ``Setup.min_passes``
run. Every time is scaled to a nominal host speed, measured by a probe
that interrupts the workload (see ``hostspeed.py``).
With ``--trace 1`` one untraced pass runs, then a fresh set-up and one
pass with spans around every public function (see ``tracing.py``).

Every operation's output is compared with values computed without the
package (``expected.py``). An operation fails when it raises, is refused
with exit code 2, or gives a wrong output; a wrong output also makes
``correct`` false. The last line of standard output is the result object;
lines before it (starting with ``#``) give the environment, the tail
percentile and every failed operation. The full record, and the spans of
a traced run, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# Set-up is timed in two batches, before and after the passes, so that
# setup_s samples two moments of a machine whose speed drifts over seconds.
# Each batch runs at least its minimum count and until SETUP_BATCH_S.
SETUP_RUNS_BEFORE = 2
SETUP_RUNS_AFTER = 1
SETUP_BATCH_S = 1.0
SETUP_MAX_RUNS = 25
TAIL_BEYOND = 10

import tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_ok_ratio": "1",
    "peak_rss_mb": "MB",
}


def load_package():
    src = ROOT / "src"
    if not (src / "spgraphs" / "__init__.py").is_file():
        sys.exit(f"error: no spgraphs package under {src}")
    sys.path.insert(0, str(src))
    import spgraphs
    import spgraphs.cli

    if Path(spgraphs.__file__).resolve().parent != (src / "spgraphs").resolve():
        sys.exit(f"error: spgraphs was imported from {spgraphs.__file__}, not {src}")
    return spgraphs


@dataclass
class Pass:
    labels: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # wall clock
    cpu: list[float] = field(default_factory=list)  # process CPU time
    # indices of the host-speed samples taken during each operation
    first_probe: array = field(default_factory=lambda: array("l"))
    end_probe: array = field(default_factory=lambda: array("l"))
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    work: int = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def spans(self) -> list[tuple[int, int]]:
        return list(zip(self.first_probe, self.end_probe))


@contextlib.contextmanager
def inputs_frozen() -> Iterator[None]:
    """Keep the workload's inputs out of the cyclic collector while timing.

    The harness holds every input for the whole run (40,192 instances on
    corpus-verify); a full collection inside some operation would scan
    them all and charge the harness's memory to that operation.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_pass(ops: list[workloads.Op], speed: HostSpeed | None = None) -> Pass:
    """One closed-loop pass; only the calls into the package are timed,
    less the time of any host-speed probe that interrupted them."""
    result = Pass()
    for op in ops:
        result.labels.append(op.label)
        if speed:
            probed_wall, probed_cpu, first_probe = speed.spent_wall, speed.spent_cpu, speed.mark()
        c0, t0 = process_time(), perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            out, error = None, f"{type(exc).__name__}: {str(exc)[:160]}"
        else:
            error = None
        wall, cpu = perf_counter() - t0, process_time() - c0
        if speed:
            wall -= speed.spent_wall - probed_wall
            cpu -= speed.spent_cpu - probed_cpu
            result.first_probe.append(first_probe)
            result.end_probe.append(speed.mark())
        result.latencies.append(wall)
        result.cpu.append(cpu)
        if error is not None:
            result.failures.append((op.label, "raised", error))
            continue
        verdict = op.check(out)
        if verdict is None:
            result.work += op.work
        else:
            result.failures.append((op.label, *verdict))
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it,
    and that percentile; with too few samples, the maximum at 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def op_medians(passes: list[Pass]) -> dict[str, float]:
    """Median latency per operation label, pooled over passes."""
    by_label: dict[str, list[float]] = {}
    for p in passes:
        for label, t in zip(p.labels, p.latencies):
            by_label.setdefault(label, []).append(t)
    return {label: 1e3 * statistics.median(ts) for label, ts in by_label.items()}


def environment() -> dict[str, object]:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


@dataclass
class Outcome:
    metrics: dict[str, float]
    passes: list[Pass]
    problems: list[str]  # set-up outputs that disagree with the expected values
    notes: list[str]


def set_up(setup, sp, args, workdir: Path, min_runs: int,
           speed: HostSpeed) -> tuple[Pass, workloads.Setup]:
    """Time one batch of set-ups, each as one operation of a Pass; the
    last one's inputs are returned."""
    times = Pass()
    built = None
    while len(times.latencies) < min_runs or (times.wall < SETUP_BATCH_S
                                             and len(times.latencies) < SETUP_MAX_RUNS):
        built = None
        gc.collect()
        probed, first_probe = speed.spent_wall, speed.mark()
        t0 = perf_counter()
        built = setup(sp, args.seed, workdir, tracing.no_span)
        times.latencies.append(perf_counter() - t0 - (speed.spent_wall - probed))
        times.first_probe.append(first_probe)
        times.end_probe.append(speed.mark())
    return times, built


def measure(setup, sp, args, workdir: Path) -> Outcome:
    with HostSpeed() as speed:
        setups, built = set_up(setup, sp, args, workdir, SETUP_RUNS_BEFORE, speed)
        passes: list[Pass] = []
        started = perf_counter()
        with inputs_frozen():
            while True:
                pass_start = perf_counter()
                passes.append(run_pass(built.ops, speed))
                now = perf_counter()
                if len(passes) >= built.min_passes and now - started + (now - pass_start) > args.seconds:
                    break
        problems = built.problems
        del built
        after = set_up(setup, sp, args, workdir, SETUP_RUNS_AFTER, speed)[0]
    setup_times = setups.latencies + after.latencies
    # Every interval is scaled by the host's speed while it ran (see
    # hostspeed.py): wall-clock times by the probes' wall time, CPU times
    # by their CPU time.
    setup_scaled = [t * w for t, (w, _) in zip(setup_times, speed.scales(setups.spans() + after.spans()))]
    scaled = []
    for p in passes:
        factors = speed.scales(p.spans())
        scaled.append(([t * w for t, (w, _) in zip(p.latencies, factors)],
                       [t * c for t, (_, c) in zip(p.cpu, factors)]))
    # Operation latency is CPU time: in a one-thread loop it is the wall time
    # minus the stretches the host takes the CPU away, which otherwise set
    # the tail. wall_s and work_per_s stay on the wall clock. Latency
    # statistics are taken per pass, then the median over passes, so the
    # number of passes that fit in --seconds does not change which
    # operation they land on; p50 is an observed latency (median_high),
    # never the mean of two unlike commands.
    attempted = sum(len(p.cpu) for p in passes)
    failed = sum(len(p.failures) for p in passes)

    def timing(setup_times, walls, cpus):
        return {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(sum(w) for w in walls),
            "work_per_s": statistics.median(p.work / sum(w) for p, w in zip(passes, walls)),
            "op_p50_ms": 1e3 * statistics.median(statistics.median_high(c) for c in cpus),
            "op_tail_ms": 1e3 * statistics.median(tail(c)[0] for c in cpus),
        }

    metrics = timing(setup_scaled, [w for w, _ in scaled], [c for _, c in scaled])
    metrics["ops_ok_ratio"] = (attempted - failed) / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unscaled = timing(setup_times, [p.latencies for p in passes], [p.cpu for p in passes])
    notes = [f"op_tail_ms is p{tail(passes[0].cpu)[1]:.4f} of the {len(passes[0].cpu)} operations "
             f"of a pass, median over {len(passes)} passes",
             f"setup_s is the median of {len(setup_times)} set-ups",
             f"{len(speed.wall)} host-speed probes, median {1e3 * statistics.median(speed.wall):.4f} ms",
             "unscaled: " + json.dumps(unscaled)]
    return Outcome(metrics, passes, problems, notes)


def traced(setup, sp, args, workdir: Path) -> Outcome:
    built = setup(sp, args.seed, workdir, tracing.no_span)
    with inputs_frozen():
        plain = run_pass(built.ops)
    del built
    gc.collect()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        built = setup(sp, args.seed, workdir, tracer.span)
        with inputs_frozen():
            with_spans = run_pass(built.ops)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_wall_s"] = plain.wall
    metrics["trace.wall_s"] = with_spans.wall
    metrics["trace.overhead_ratio"] = with_spans.wall / plain.wall
    spans_file = OUT / f"spans-{args.workload}.npz"
    tracer.save(spans_file)
    notes = [f"{len(tracer.start)} spans written to {spans_file.relative_to(ROOT)}"]
    return Outcome(metrics, [with_spans], built.problems, notes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sp = load_package()
    os.environ.pop("SPG_LIMIT", None)  # the CLI's default geodesic limit applies
    setup = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        outcome = (traced if args.trace else measure)(setup, sp, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes, problems = outcome.passes, outcome.problems
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    correct = not problems and all(kind != "wrong" for _, kind, _ in failures)
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()} if args.trace else END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "operations_per_pass": len(passes[0].latencies),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [sum(p.cpu) for p in passes],
        "op_median_wall_ms": op_medians(passes),
        "failed_operations": sorted(Counter(failures).items()),
        "problems": problems,
        "notes": outcome.notes,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": len(failures) + len(problems),
            "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"# {args.workload} seed={args.seed} env={json.dumps(record['environment'])}")
    print(f"# {record['passes']} passes of {record['operations_per_pass']} operations")
    for note in problems + outcome.notes:
        print(f"# {note}")
    for (label, kind, detail), count in record["failed_operations"]:
        print(f"# failed x{count}: {label} ({kind}) {detail}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
