"""Spans around the package's public functions, for the traced run.

``Tracer.install`` wraps each function listed in ``SPANS`` and rebinds the
wrapper at every place the original is reachable from: module globals of
every ``spgraphs`` module (``verify`` and ``spg`` import their own names
for ``enumerate_geodesics``, for instance), module-level dicts such as
``STANDARD_CHECKS``, and class attributes for methods. ``uninstall`` puts
every original back.

Spans live in flat arrays (label, parent, start, end) while the run
goes; ``layer_metrics`` derives calls, self time (span time minus the
time of child spans) and counters from them, and ``save`` writes them out.
Generators such as ``iter_geodesics`` are not wrapped: their time lands
in the function that consumes them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

CHECKERS = {
    "check_p3_c4": "p3-c4",
    "check_no_induced_c5": "no-induced-c5",
    "check_claw_in_c4": "claw-in-c4",
    "check_odd_cycle_c4": "odd-cycle-c4",
    "check_girth5_classification": "girth5-classification",
    "check_complete_iff_same_index": "complete-iff-same-index",
    "check_decomposition": "decomposition",
    "check_sum_theorems": "sums",
    "check_grid_embedding": "grid-embedding",
    "check_staircase": "staircase",
    "check_cayley": "cayley",
    "check_tournament_bijection": "tournaments",
}


def _count(counter: str, size: Callable[[Any], int]) -> Callable[[dict, Any], None]:
    def observe(counters: dict, result: Any) -> None:
        counters[counter] = counters.get(counter, 0) + size(result)

    return observe


# (span label, module, attribute path, optional counter fed by the result)
SPANS: list[tuple[str, str, str, Callable[[dict, Any], None] | None]] = [
    ("graphs.distances", "graphs", "distances", None),
    ("graphs.Graph", "graphs", "Graph.__init__", None),
    ("graphs.parse", "graphs", "graph_from_json", None),
    ("graphs.parse", "graphs", "graph_from_edge_list", None),
    ("geodesics.build_dag", "geodesics", "build_dag", None),
    ("geodesics.count_geodesics", "geodesics", "count_geodesics", None),
    ("geodesics.enumerate_geodesics", "geodesics", "enumerate_geodesics",
     _count("geodesics.geodesics_out", len)),
    ("geodesics.reduce_instance", "geodesics", "reduce_instance", None),
    ("geodesics.mandatory_edges", "geodesics", "mandatory_edges", None),
    ("spg.build_spg", "spg", "build_spg", None),
    ("spg.spg_from_geodesics", "spg", "spg_from_geodesics",
     _count("spg.edges_out", lambda h: h.num_edges)),
    ("spg.to_graph", "spg", "SpGraph.to_graph", None),
    ("spg.decompose_at_index", "spg", "decompose_at_index", None),
    ("spg.SpGraph", "spg", "SpGraph.__init__", None),
    ("spg.serialize", "spg", "spg_to_json", _count("spg.serialize.bytes_out", len)),
    ("spg.serialize", "spg", "spg_to_dot", _count("spg.serialize.bytes_out", len)),
    ("grid.words_array", "grid", "words_array", _count("grid.words_out", len)),
    ("grid.phi_batch", "grid", "phi_batch", None),
    ("grid.grid_base", "grid", "grid_base", None),
    ("patterns.find_induced", "patterns", "find_induced", None),
    ("patterns.has_induced", "patterns", "has_induced", None),
    ("isomorphism.find_isomorphism", "isomorphism", "find_isomorphism",
     _count("isomorphism.found", lambda m: m is not None)),
    ("isomorphism.iso_invariant", "isomorphism", "iso_invariant", None),
    ("constructions.sums", "constructions", "one_sum", None),
    ("constructions.sums", "constructions", "union_base", None),
    ("constructions.sums", "constructions", "two_sum", None),
    ("constructions.sums", "constructions", "predict_two_sum", None),
    *[(f"verify.check.{name}", "verify", fn, None) for fn, name in CHECKERS.items()],
    ("verify.run_corpus", "verify", "run_corpus", None),
    ("cli.main", "cli", "main", None),
    ("cli.load_instance", "cli", "load_instance", None),
]

COUNTERS = {"geodesics.geodesics_out", "spg.edges_out", "spg.serialize.bytes_out", "grid.words_out"}

# per-layer metric -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {}


def _metric(name: str, unit: str, better: str) -> None:
    PER_LAYER[name] = (unit, better)


for _label in ("graphs.distances", "graphs.Graph"):
    _metric(f"{_label}.calls", "count", "lower")
    _metric(f"{_label}.self_s", "s", "lower")
_metric("graphs.parse.self_s", "s", "lower")
for _fn in ("build_dag", "count_geodesics", "enumerate_geodesics", "reduce_instance"):
    _metric(f"geodesics.{_fn}.calls", "count", "lower")
    _metric(f"geodesics.{_fn}.self_s", "s", "lower")
_metric("geodesics.mandatory_edges.self_s", "s", "lower")
_metric("geodesics.geodesics_out", "count", "lower")
for _fn in ("build_spg", "spg_from_geodesics", "to_graph", "decompose_at_index"):
    _metric(f"spg.{_fn}.calls", "count", "lower")
    _metric(f"spg.{_fn}.self_s", "s", "lower")
_metric("spg.SpGraph.self_s", "s", "lower")
_metric("spg.edges_out", "count", "lower")
_metric("spg.serialize.self_s", "s", "lower")
_metric("spg.serialize.bytes_out", "bytes", "lower")
for _fn in ("words_array", "phi_batch", "grid_base"):
    _metric(f"grid.{_fn}.self_s", "s", "lower")
_metric("grid.words_out", "count", "lower")
_metric("patterns.find_induced.calls", "count", "lower")
_metric("patterns.find_induced.self_s", "s", "lower")
_metric("patterns.has_induced.calls", "count", "lower")
_metric("isomorphism.find_isomorphism.calls", "count", "lower")
_metric("isomorphism.find_isomorphism.self_s", "s", "lower")
_metric("isomorphism.found_ratio", "1", "higher")
_metric("isomorphism.iso_invariant.self_s", "s", "lower")
_metric("constructions.sums.self_s", "s", "lower")
for _name in CHECKERS.values():
    _metric(f"verify.check.{_name}.calls", "count", "lower")
    _metric(f"verify.check.{_name}.self_s", "s", "lower")
_metric("verify.run_corpus.self_s", "s", "lower")
_metric("verify.corpus_gen.s", "s", "lower")
_metric("cli.main.calls", "count", "lower")
_metric("cli.main.self_s", "s", "lower")
_metric("cli.load_instance.self_s", "s", "lower")
_metric("trace.untraced_wall_s", "s", "lower")
_metric("trace.wall_s", "s", "lower")
_metric("trace.overhead_ratio", "1", "lower")


def no_span(label: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters: dict[str, float] = {}
        self._undo: list[tuple[Any, str, Any]] = []

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    @contextlib.contextmanager
    def span(self, label: str) -> Iterator[None]:
        idx = self._open(self._id(label))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, label_id: int) -> int:
        idx = len(self.start)
        self.label.append(label_id)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = idx
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def wrap(self, label: str, fn: Callable, observe: Callable[[dict, Any], None] | None) -> Callable:
        label_id = self._id(label)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(label_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    def install(self, package: str = "spgraphs") -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for label, module, path, observe in SPANS:
            owner: Any = sys.modules[f"{package}.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            traced = self.wrap(label, original, observe)
            if outer:  # a method: one binding, on its class
                self._rebind(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        self._rebind(mod, key, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._undo.append((value, k, original))
                                value[k] = traced

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, "__dict__", {}).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        label = np.frombuffer(self.label, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return label, parent, dur

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: calls, self time and inclusive time, in seconds."""
        label, parent, dur = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        n = len(self.labels)
        calls = np.bincount(label, minlength=n)
        self_s = np.bincount(label, weights=dur - child, minlength=n)
        incl = np.bincount(label, weights=dur, minlength=n)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "s": float(incl[i])}
            for i, name in enumerate(self.labels)
        }

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric but the trace.* ones, from the spans and
        counters; 0 for a layer the workload never reached."""
        spans = self.summary()
        out: dict[str, float] = {}
        for name in PER_LAYER:
            if name in COUNTERS:
                out[name] = self.counters.get(name, 0)
            elif not name.startswith("trace.") and name != "isomorphism.found_ratio":
                label, _, field = name.rpartition(".")
                out[name] = spans.get(label, {}).get(field, 0)
        calls = out["isomorphism.find_isomorphism.calls"]
        found = self.counters.get("isomorphism.found", 0)
        out["isomorphism.found_ratio"] = found / calls if calls else 0.0
        return out

    def save(self, path: Path) -> None:
        label, parent, dur = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            label=label,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
