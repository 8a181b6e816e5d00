"""End-to-end tests of the command line interface, run in process."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spgraphs import (
    BaseInstance,
    Graph,
    GridSpec,
    SpGraph,
    build_spg,
    complete_base,
    complete_bipartite_graph,
    enumerate_sequences,
    grid_base,
    hypercube_base,
    parallel_paths,
    reduce_instance,
    spg_from_json,
    spg_to_dot,
    spg_to_json,
)
from spgraphs.cli import _vertex_map_rows, _word_listing, main
from spgraphs.geodesics import GeodesicOverflowError, NoGeodesicError
from spgraphs.graphs import (
    ID_CUTOFF,
    GraphError,
    SpgError,
    graph_fields,
    graph_from_json,
    graph_to_json,
    hypercube_graph,
    json_records,
    path_graph,
)
from spgraphs.grid import MoveSequence, NotInImageError
from spgraphs.isomorphism import IsomorphismSizeError
from spgraphs.patterns import WorkLimitExceeded
from spgraphs.spg import MATRIX_CUTOFF, SpgStructureError, index_color


@pytest.fixture()
def k23_file(tmp_path):
    path = tmp_path / "k23.json"
    path.write_text(graph_to_json(complete_bipartite_graph(2, 3)))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_from_json(capsys, k23_file, tmp_path):
    out_file = tmp_path / "spg.json"
    dot_file = tmp_path / "spg.dot"
    code, out, err = _run(
        capsys,
        [
            "compute",
            "--in", k23_file,
            "--a", "a0",
            "--b", "a1",
            "--out", str(out_file),
            "--dot", str(dot_file),
        ],
    )
    assert code == 0
    assert "geodesics=3 edges=3 d=2" in out
    assert err.startswith("# limits: geodesics=1000000 work=")
    assert "seed=none" in err
    payload = json.loads(out_file.read_text())
    assert len(payload["geodesics"]) == 3
    assert len(payload["edges"]) == 3
    assert dot_file.read_text().startswith("graph")


def test_compute_from_edge_list_to_stdout(capsys, tmp_path):
    path = tmp_path / "square.txt"
    path.write_text("a b\nb c\nc d\nd a\n")
    code, out, _ = _run(capsys, ["compute", "--in", str(path), "--a", "a", "--b", "c"])
    assert code == 0
    assert "geodesics=2 edges=1 d=2" in out
    assert '"geodesics"' in out


def test_compute_reduce_collapses_unique_geodesics(capsys, tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("a b\nb c\n")
    code, out, _ = _run(
        capsys, ["compute", "--in", str(path), "--a", "a", "--b", "c", "--reduce"]
    )
    assert code == 0
    assert "collapsed" in out
    assert "geodesics=1 edges=0 d=0" in out


def test_compute_respects_the_limit_flag(capsys, k23_file):
    code, _, err = _run(
        capsys, ["compute", "--in", k23_file, "--a", "a0", "--b", "a1", "--limit", "2"]
    )
    assert code == 2
    assert "error:" in err
    assert "exceed" in err


def test_limit_env_override(capsys, k23_file, monkeypatch):
    monkeypatch.setenv("SPG_LIMIT", "2")
    code, _, err = _run(capsys, ["compute", "--in", k23_file, "--a", "a0", "--b", "a1"])
    assert code == 2
    assert "geodesics=2" in err
    monkeypatch.setenv("SPG_LIMIT", "zero")
    code, _, err = _run(capsys, ["compute", "--in", k23_file, "--a", "a0", "--b", "a1"])
    assert code == 2
    assert "SPG_LIMIT" in err


def test_reduce_payload(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a m1\na m2\nm1 c\nm2 c\nc t\nt b\n")
    code, out, _ = _run(capsys, ["reduce", "--in", str(path), "--a", "a", "--b", "b"])
    assert code == 0
    payload = json.loads(out)
    assert payload["collapsed"] is False
    assert payload["source"] == "a"
    assert payload["target"] == "b"
    assert payload["vertex_map"]["c"] == "b"
    assert payload["graph"]["vertices"] == ["a", "b", "m1", "m2"]


def test_missing_input_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = _run(
        capsys, ["compute", "--in", str(tmp_path / "absent.json"), "--a", "x", "--b", "y"]
    )
    assert code == 2
    assert "error:" in err


def test_construct_with_check(capsys):
    code, out, _ = _run(capsys, ["construct", "path", "4", "--check"])
    assert code == 0
    assert '"name": "path(4)"' in out
    assert "check path(4): shortest path graph as predicted: pass" in out


def test_construct_oddhost_check(capsys):
    code, out, _ = _run(capsys, ["construct", "oddhost", "3", "--check"])
    assert code == 0
    assert "witness induces a 7-cycle: pass" in out


def test_construct_oddhost_check_fails_on_a_broken_witness(capsys, monkeypatch):
    import dataclasses

    import spgraphs.cli

    real = spgraphs.cli.odd_cycle_host_base

    def dropped_geodesic(p):
        result = real(p)
        return dataclasses.replace(result, witness=result.witness[:-1])

    monkeypatch.setattr(spgraphs.cli, "odd_cycle_host_base", dropped_geodesic)
    code, out, _ = _run(capsys, ["construct", "oddhost", "3", "--check"])
    assert code == 1
    assert "check odd-cycle-host(7): FAIL (witness pair (0, 5) breaks the cycle" in out


@pytest.mark.parametrize(
    "argv, line",
    [
        (["hypercube", "8"], "check hypercube(8): shortest path graph as predicted: pass"),
        (["complete", "250"], "check complete(250): shortest path graph as predicted: pass"),
    ],
    ids=["hypercube 8", "complete 250"],
)
def test_construct_check_reaches_past_the_isomorphism_cap(capsys, argv, line):
    code, out, _ = _run(capsys, ["construct", *argv, "--check"])
    assert code == 0
    assert line in out.splitlines()


@pytest.mark.parametrize(
    "family, argv, vertex_of",
    [
        ("path_base", ["path", "4"], lambda geo: str(int(geo[1][1:]) + int(geo[2][1:]) + 1)),
        ("complete_base", ["complete", "4"], lambda geo: "0"),
    ],
    ids=["off by one", "not injective"],
)
def test_construct_check_fails_on_a_wrong_correspondence(
    capsys, monkeypatch, family, argv, vertex_of
):
    import dataclasses

    import spgraphs.cli

    real = getattr(spgraphs.cli, family)

    def misnamed(k):
        return dataclasses.replace(real(k), vertex_of=vertex_of)

    monkeypatch.setattr(spgraphs.cli, family, misnamed)
    code, out, err = _run(capsys, ["construct", *argv, "--check"])
    assert code == 1
    assert "shortest path graph as predicted: FAIL" in out
    assert "error:" not in err


def test_construct_rejects_odd_cycle_lengths(capsys):
    code, _, err = _run(capsys, ["construct", "cycle", "7"])
    assert code == 2
    assert "even" in err
    code, out, _ = _run(capsys, ["construct", "cycle", "8", "--check"])
    assert code == 0
    assert "even-cycle(8)" in out


def test_construct_parallel_takes_a_length(capsys):
    code, out, _ = _run(capsys, ["construct", "parallel", "3", "4", "--check"])
    assert code == 0
    assert "parallel-paths(3,4)" in out


def test_grid_phi_and_unphi(capsys):
    code, out, _ = _run(capsys, ["grid", "phi", "--dims", "3,3,2", "--seq", "32121231"])
    assert code == 0
    assert out.strip() == "(3,2,1,3,1,3,0)"
    code, out, _ = _run(
        capsys, ["grid", "unphi", "--dims", "3,3,2", "--coords", "3,2,1,3,1,3,0"]
    )
    assert code == 0
    assert out.strip() == "32121231"


def test_grid_unphi_reports_non_image_points(capsys):
    code, out, _ = _run(
        capsys, ["grid", "unphi", "--dims", "1,1,1", "--coords", "0,1,0"]
    )
    assert code == 0
    assert out.startswith("not in image:")
    code, out, _ = _run(
        capsys, ["grid", "unphi", "--dims", "1,1,1", "--coords", "2,0,0"]
    )
    assert code == 0
    assert out.startswith("not in image:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["phi", "--dims", "3,3,2", "--seq", "3x"], "symbols must be integers"),
        (["unphi", "--dims", "3,3,2", "--coords", "3,2,1"], "expected 7 coordinates, got 3"),
    ],
    ids=["phi", "unphi"],
)
def test_grid_malformed_input_is_a_usage_error(capsys, argv, message):
    code, out, err = _run(capsys, ["grid", *argv])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error:") and message in err


def test_grid_enum(capsys):
    code, out, _ = _run(capsys, ["grid", "enum", "--dims", "2,2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count=6"
    assert lines[1] == "1122"
    assert lines[-1] == "2211"
    assert lines[1:] == sorted(lines[1:])


def test_grid_base_and_check(capsys):
    code, out, _ = _run(capsys, ["grid", "base", "--dims", "1,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["source"] == "(0,0)"
    assert len(payload["graph"]["vertices"]) == 4
    code, out, _ = _run(capsys, ["grid", "check", "--dims", "2,2"])
    assert code == 0
    assert "grid-embedding-2x2: pass" in out
    code, out, _ = _run(capsys, ["grid", "staircase", "--n1", "2", "--n2", "2"])
    assert code == 0
    assert "staircase-2x2: pass" in out


@pytest.mark.parametrize("dims", ["39,1", "63,1", "62,2", "1,40", "1,63", "2,40"])
def test_grid_check_on_long_axes(capsys, dims):
    # lattice codes in radix n_i + 1 fit int64 up to 2^40 on 1,40; the 2^63
    # of 1,63 and the 3^40 of 2,40 do not, and are packed as Python ints
    got, out, _ = _run(capsys, ["grid", "check", "--dims", dims])
    assert got == 0
    assert f"grid-embedding-{dims.replace(',', 'x')}: pass" in out.splitlines()


def test_grid_dims_validation(capsys):
    code, _, err = _run(capsys, ["grid", "enum", "--dims", "2,x"])
    assert code == 2
    assert "bad dims" in err


def test_cayley_check_and_export(capsys, tmp_path):
    code, out, _ = _run(capsys, ["cayley", "3", "--check"])
    assert code == 0
    assert "cayley-3: pass" in out
    assert "tournaments-3: pass" in out
    out_file = tmp_path / "cayley.json"
    code, _, _ = _run(capsys, ["cayley", "3", "--out", str(out_file)])
    assert code == 0
    assert len(json.loads(out_file.read_text())["vertices"]) == 6


@pytest.mark.parametrize(
    "error",
    [
        GraphError("bad graph"),
        SpgStructureError("bad shortest path graph"),
        NoGeodesicError("apart"),
        GeodesicOverflowError(7, 5),
        WorkLimitExceeded("C5", 3),
        IsomorphismSizeError("too many vertices"),
        NotInImageError("no word maps here"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_every_package_error_is_an_spg_error_and_exits_2(capsys, monkeypatch, error):
    import spgraphs.cli

    guard = isinstance(error, (GeodesicOverflowError, WorkLimitExceeded))
    assert isinstance(error, SpgError) and isinstance(error, RuntimeError if guard else ValueError)

    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(spgraphs.cli, "check_cayley", refuse)
    code, out, err = _run(capsys, ["cayley", "3", "--check"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: {error}"


def test_every_error_class_of_the_package_is_an_spg_error():
    import inspect

    import spgraphs

    modules = [m for m in vars(spgraphs).values() if inspect.ismodule(m)]
    classes = {
        cls for module in modules for name, cls in vars(module).items()
        if inspect.isclass(cls) and issubclass(cls, Exception)
        and cls.__module__ == module.__name__ and not name.startswith("_")
    }
    assert {SpgError, GraphError, WorkLimitExceeded} <= classes
    assert all(issubclass(cls, SpgError) for cls in classes)


def test_a_bug_in_the_package_is_not_an_exit_2(monkeypatch):
    # only SpgError and OSError mean exit 2; anything else propagates
    import spgraphs.cli

    monkeypatch.setattr(spgraphs.cli, "check_cayley", lambda *args, **kwargs: {}["missing"])
    with pytest.raises(KeyError):
        main(["cayley", "3", "--check"])


def test_cayley_check_refuses_a_huge_m_with_one_error_line(capsys):
    code, out, err = _run(capsys, ["cayley", str(10**20), "--check"])
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if not line.startswith("# limits:")] == [
        "error: permutation vertices are digit strings; m is capped at 9"
    ]


def test_isomorphism_cap_is_a_usage_error(capsys):
    code, _, err = _run(capsys, ["cayley", "6", "--check"])
    assert code == 2
    assert "error: isomorphism search capped at 200 vertices" in err


def test_verify_corpus_table(capsys):
    code, out, err = _run(capsys, ["verify", "p3c4", "--corpus", "exhaustive:3"])
    assert code == 0
    assert "instances: 14" in out
    assert "p3-c4" in out
    assert out.strip().endswith("PASS")
    assert "seed=none" in err


def test_verify_all_includes_decomposition(capsys):
    code, out, _ = _run(capsys, ["verify", "all", "--corpus", "exhaustive:3"])
    assert code == 0
    assert "decomposition" in out
    assert out.strip().endswith("PASS")


def test_verify_decomp_over_corpus(capsys):
    code, out, _ = _run(capsys, ["verify", "decomp", "--corpus", "exhaustive:3"])
    assert (code, out) == (0, "instances: 14\n  decomposition  ran     14  pass\nPASS\n")


def test_verify_decomp_over_a_corpus_checks_the_given_index(capsys):
    # only the instances at distance 3 or more have position 2 interior
    code, out, _ = _run(capsys, ["verify", "decomp", "--corpus", "exhaustive:6", "--index", "2"])
    assert (code, out) == (0, "instances: 3866\n  decomposition@2  ran    264  pass\nPASS\n")
    code, out, _ = _run(capsys, ["verify", "all", "--corpus", "exhaustive:4", "--index", "1"])
    ran = {line.split()[0]: int(line.split()[2]) for line in out.splitlines()[1:-1]}
    assert code == 0 and ran["p3-c4"] == 86
    assert 0 < ran["decomposition@1"] < 86  # not at distance 1


@pytest.mark.parametrize("index", ["0", "-3"])
def test_verify_decomp_over_a_corpus_refuses_an_index_below_one(capsys, index):
    argv = ["verify", "decomp", "--corpus", "exhaustive:3", "--index", index]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: decomposition index must be at least 1, got {index}"


@pytest.mark.parametrize("d", [6, 1], ids=["cube-chain", "one-edge"])
def test_verify_decomp_spg_file_refuses_an_index_that_is_not_interior(capsys, tmp_path, d):
    # a shortest path graph of distance 1 has no interior position at all
    h = build_spg(hypercube_base(3).instance) if d == 6 else SpGraph([("a", "b")], {})
    assert h.d == d
    spg_file = tmp_path / "h.json"
    spg_file.write_text(spg_to_json(h))
    for index in (0, d):
        argv = ["verify", "decomp", "--spg", str(spg_file), "--index", str(index)]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"error: index {index} is not interior for d={d}"


def test_verify_is_deterministic(capsys):
    _, first, _ = _run(capsys, ["verify", "all", "--corpus", "exhaustive:3"])
    _, second, _ = _run(capsys, ["verify", "all", "--corpus", "exhaustive:3"])
    assert first == second


def test_verify_random_corpus_reports_seed(capsys):
    code, out, err = _run(capsys, ["verify", "girth5", "--corpus", "random:5:6:9"])
    assert code == 0
    assert "seed=9" in err
    assert out.strip().endswith("PASS")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--corpus", "random:5:3:1"],
        ["verify", "all", "--corpus", "random:-1:5:1"],
        ["verify", "sums", "--corpus", "random:2:3:1"],
    ],
    ids=["maxn-below-4", "negative-count", "sums-maxn-below-4"],
)
def test_verify_random_corpus_out_of_range_is_a_usage_error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert "PASS" not in out
    assert err.splitlines()[-1] == (
        "error: random instances need count >= 0 and max_vertices >= 4"
    )


def test_verify_sums(capsys):
    code, out, err = _run(capsys, ["verify", "sums", "--corpus", "random:3:5:7"])
    assert code == 0
    assert "sums: 6 glueings, 0 failures" in out
    assert "seed=7" in err
    code, _, err = _run(capsys, ["verify", "sums", "--corpus", "exhaustive:3"])
    assert code == 2
    assert "random" in err


def test_verify_spg_file(capsys, tmp_path):
    h = build_spg(BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1"))
    good = tmp_path / "good.json"
    good.write_text(spg_to_json(h))
    code, out, _ = _run(capsys, ["verify", "all", "--spg", str(good)])
    assert code == 0

    fake = SpGraph(
        [("a", f"m{i}", "b") for i in range(5)],
        {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (0, 4): 1},
    )
    bad = tmp_path / "bad.json"
    bad.write_text(spg_to_json(fake))
    code, out, _ = _run(capsys, ["verify", "noc5", "--spg", str(bad)])
    assert code == 1
    assert "no-induced-c5: FAIL" in out


def test_verify_decomp_spg_file_checks_the_given_index(capsys, tmp_path):
    h = build_spg(hypercube_base(3).instance)
    good = tmp_path / "good.json"
    good.write_text(spg_to_json(h))
    code, out, _ = _run(capsys, ["verify", "decomp", "--spg", str(good), "--index", "2"])
    assert (code, out) == (0, "decomposition@2: pass\n")

    # the edge of index 1 relabelled 2: inconsistent with the grouping at 2
    fake = SpGraph([("a", "x", "y", "b"), ("a", "z", "y", "b")], {(0, 1): 2})
    bad = tmp_path / "bad.json"
    bad.write_text(spg_to_json(fake))
    code, out, _ = _run(capsys, ["verify", "decomp", "--spg", str(bad), "--index", "2"])
    assert code == 1
    assert out.startswith("decomposition@2: FAIL [edge (0, 1) with index 2 is inconsistent")


def test_a_loaded_spg_file_keeps_its_edge_order_and_its_first_witness(capsys, tmp_path):
    # the edges in reverse sorted order, the first and the last relabelled
    # so that each is inconsistent with the grouping at 2: the witness is
    # the edge that comes first in the file, not the first in sorted order
    h = build_spg(hypercube_base(3).instance)
    records = [
        {"u": u, "w": w, "index": p} for (u, w), p in sorted(h.edge_index.items(), reverse=True)
    ]
    for k in (0, -1):
        records[k]["index"] = 1 if records[k]["index"] == 2 else 2
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps({"geodesics": [list(g) for g in h.geodesics], "edges": records}))
    loaded = spg_from_json(path.read_text())
    assert list(loaded.edge_index) == [(e["u"], e["w"]) for e in records]
    assert loaded.sorted_edges() == sorted(h.edge_index)
    code, out, _ = _run(capsys, ["verify", "decomp", "--spg", str(path), "--index", "2"])
    first = records[0]
    assert code == 1
    assert out.startswith(
        f"decomposition@2: FAIL [edge ({first['u']}, {first['w']}) with index {first['index']} "
        "is inconsistent"
    )


BOM = "\ufeff"


@pytest.mark.parametrize("name, argv, text", [
    ("k23.json", ["compute", "--a", "a0", "--b", "a1"],
     graph_to_json(complete_bipartite_graph(2, 3))),
    ("k23.txt", ["compute", "--a", "a0", "--b", "a1"],
     "".join(f"{u} {v}\n" for u, v in complete_bipartite_graph(2, 3).sorted_edges())),
    ("k23.spg.json", ["verify", "all"],
     spg_to_json(build_spg(BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1")))),
], ids=["graph JSON", "edge list", "SpGraph JSON"])
def test_input_files_may_start_with_a_byte_order_mark(capsys, tmp_path, name, argv, text):
    # the mark is not part of the text: a marked JSON file is still JSON,
    # and an edge list's first name does not take the mark in
    runs = []
    for mark in ("", BOM):
        path = tmp_path / name
        path.write_text(mark + text, encoding="utf-8")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf") == bool(mark)
        flag = "--spg" if argv[0] == "verify" else "--in"
        runs.append(_run(capsys, [*argv, flag, str(path)]))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_verify_corpus_flag_validation(capsys):
    code, _, err = _run(capsys, ["verify", "all"])
    assert code == 2
    assert "--corpus" in err
    code, _, err = _run(capsys, ["verify", "all", "--corpus", "weird:3"])
    assert code == 2
    assert "unknown corpus kind" in err
    code, _, err = _run(capsys, ["verify", "all", "--corpus", "exhaustive:nine"])
    assert code == 2
    assert "integer" in err
    code, _, err = _run(capsys, ["verify", "all", "--corpus", "exhaustive:12"])
    assert code == 2
    assert "2..8" in err


def test_verify_file_corpus(capsys, tmp_path):
    entry = {
        "graph": json.loads(graph_to_json(complete_bipartite_graph(2, 2))),
        "source": "a0",
        "target": "a1",
    }
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([entry]))
    code, out, _ = _run(capsys, ["verify", "all", "--corpus", f"file:{corpus}"])
    assert code == 0
    assert "instances: 1" in out

    corpus.write_text(json.dumps([{"graph": entry["graph"]}]))
    code, _, err = _run(capsys, ["verify", "all", "--corpus", f"file:{corpus}"])
    assert code == 2
    assert "need graph, source, and target" in err

    for field in ("source", "target"):
        corpus.write_text(json.dumps([{**entry, field: ["a0"]}]))
        code, _, err = _run(capsys, ["verify", "all", "--corpus", f"file:{corpus}"])
        assert code == 2
        assert err.splitlines()[-1].startswith("error:") and "string source" in err


@pytest.mark.parametrize(
    "graph, error",
    [
        ([], "graph JSON must be an object"),
        ({"vertices": ["a"]}, "graph JSON is missing 'edges'"),
        ({"vertices": [1], "edges": []}, "'vertices' must be a list of strings"),
        ({"vertices": ["a", "b"], "edges": {}}, "'edges' must be a list of pairs"),
        ({"vertices": ["a", "b"], "edges": [["a", "b"], ["a"]]}, "edge #1 must be a pair of vertex ids"),
    ],
)
def test_a_malformed_graph_in_a_corpus_file_exits_2_with_its_error_line(
    capsys, tmp_path, graph, error
):
    # the reader hands each decoded graph over as it is, with the messages
    # of graph_from_json
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"graph": graph, "source": "a", "target": "b"}]))
    code, _, err = _run(capsys, ["verify", "all", "--corpus", f"file:{corpus}"])
    assert code == 2
    assert err.splitlines()[-1] == f"error: {error}"
    with pytest.raises(GraphError) as raised:
        graph_from_json(json.dumps(graph))
    assert str(raised.value) == error


def test_export_dot(capsys, tmp_path):
    h = build_spg(BaseInstance(complete_bipartite_graph(2, 2), "a0", "a1"))
    spg_file = tmp_path / "h.json"
    spg_file.write_text(spg_to_json(h))
    code, out, _ = _run(
        capsys, ["export", "--spg", str(spg_file), "--name", "mine"]
    )
    assert code == 0
    assert out.startswith('graph "mine" {')
    assert "--" in out


_TWO_GEODESICS = [["a", "x", "b"], ["a", "y", "b"]]


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"geodesics": [["a", "b"]], "edges": 5}, "'edges' must be a list"),
        ({"geodesics": _TWO_GEODESICS, "edges": [{"u": True, "w": 0, "index": 1}]}, "integers"),
        ({"geodesics": _TWO_GEODESICS, "edges": [{"u": 0, "w": True, "index": 1}]}, "integers"),
        ({"geodesics": _TWO_GEODESICS, "edges": [{"u": 0, "w": 1, "index": True}]}, "integers"),
    ],
    ids=["edges-not-a-list", "bool-u", "bool-w", "bool-index"],
)
def test_export_rejects_malformed_spg_files(capsys, tmp_path, payload, message):
    spg_file = tmp_path / "bad.json"
    spg_file.write_text(json.dumps(payload))
    code, out, err = _run(capsys, ["export", "--spg", str(spg_file)])
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error:") and message in err


# -- output layout -------------------------------------------------------------

ODD_NAMES = ['q"', "b\\x", "sp ace", "é", "ü/ß"]


def _odd_instance():
    """The 3-cube from 000 to 111, every name with an odd suffix, plus a
    vertex m off every geodesic."""
    q3 = hypercube_graph(3)
    names = {v: v + ODD_NAMES[int(v, 2) % len(ODD_NAMES)] for v in q3.vertices}
    g = q3.relabel(names)
    g = Graph([*g.vertices, "m"], [*g.edges, ("m", names["000"])])
    return BaseInstance(g, names["000"], names["111"])


def _old_form(payload, **kwargs):
    """The layout every writer used before: json.dumps with indent=2."""
    return json.dumps(payload, indent=2, **kwargs)


def _old_graph(g):
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.sorted_edges()]}


def _old_spg(h):
    return {
        "geodesics": [list(geo) for geo in h.geodesics],
        "edges": [{"u": i, "w": j, "index": h.edge_index[(i, j)]} for i, j in h.sorted_edges()],
    }


def _assert_same_json(new, old, names=()):
    assert json.loads(new) == json.loads(old)
    for name in names:  # escaped exactly as json.dumps escapes it
        assert json.dumps(name) in new


def test_spg_and_graph_json_read_as_the_old_layout():
    inst = _odd_instance()
    g = inst.graph
    _assert_same_json(graph_to_json(g), _old_form(_old_graph(g)), g.vertices)
    h = build_spg(inst)
    assert (h.num_vertices, h.num_edges, h.d) == (6, 6, 3)
    on_geodesics = g.vertices[:-1]  # all but m
    _assert_same_json(spg_to_json(h), _old_form(_old_spg(h)), on_geodesics)


def test_reduction_and_instance_json_read_as_the_old_layout(capsys, tmp_path):
    inst = _odd_instance()
    path = tmp_path / "odd.json"
    path.write_text(graph_to_json(inst.graph))
    argv = ["reduce", "--in", str(path), "--a", inst.source, "--b", inst.target]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    red = reduce_instance(inst)
    assert red.vertex_map["m"] is None
    old = {
        "collapsed": False,
        "source": red.source,
        "target": red.target,
        "vertex_map": dict(red.vertex_map),
        "graph": _old_graph(red.graph),
    }
    _assert_same_json(out, _old_form(old, sort_keys=True), inst.graph.vertices)

    result = hypercube_base(2)
    code, out, _ = _run(capsys, ["construct", "hypercube", "2"])
    assert code == 0
    inst = result.instance
    old = {
        "source": inst.source,
        "target": inst.target,
        "name": result.name,
        "graph": _old_graph(inst.graph),
    }
    _assert_same_json(out, _old_form(old, sort_keys=True))


def test_dot_quotes_like_json_dumps():
    h = build_spg(_odd_instance())
    name = 'q3 "odd"'
    old = [f"graph {json.dumps(name)} {{", "  node [shape=box, fontsize=10];"]
    old += [f"  {i} [label={json.dumps(' '.join(geo))}];" for i, geo in enumerate(h.geodesics)]
    for i, j in h.sorted_edges():
        pos = h.edge_index[(i, j)]
        old.append(f'  {i} -- {j} [label="{pos}", color={json.dumps(index_color(pos))}];')
    assert spg_to_dot(h, name) == "\n".join(old) + "\n}\n"


def test_old_layout_spg_files_still_load_verify_and_export(capsys, tmp_path):
    h = build_spg(BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1"))
    old = tmp_path / "old.json"
    old.write_text(_old_form(_old_spg(h)) + "\n")
    loaded = spg_from_json(old.read_text())
    assert (loaded.geodesics, loaded.edge_index) == (h.geodesics, h.edge_index)
    code, out, _ = _run(capsys, ["verify", "all", "--spg", str(old)])
    assert code == 0, out
    code, out, _ = _run(capsys, ["export", "--spg", str(old)])
    assert code == 0
    assert out == spg_to_dot(h)


def test_compute_writes_one_line_per_geodesic_and_per_edge(capsys, k23_file, tmp_path):
    out_file, dot_file = tmp_path / "spg.json", tmp_path / "spg.dot"
    code, _, _ = _run(
        capsys,
        ["compute", "--in", k23_file, "--a", "b0", "--b", "b1",
         "--out", str(out_file), "--dot", str(dot_file)],
    )
    assert code == 0
    h = build_spg(BaseInstance(complete_bipartite_graph(2, 3), "b0", "b1"))
    assert (h.num_vertices, h.num_edges) == (2, 1)
    lines = out_file.read_text().splitlines()
    # braces and the two array headers and closers frame one record a line
    assert len(lines) == h.num_vertices + h.num_edges + 6
    records = [json.loads(line.strip().rstrip(",")) for line in lines if line.startswith("    ")]
    assert records == [list(g) for g in h.geodesics] + [{"u": 0, "w": 1, "index": 1}]
    dot = dot_file.read_text()
    assert dot.count(" -- ") == h.num_edges
    assert dot.count('[label="') == h.num_vertices + h.num_edges


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--in", "{k23}", "--a", "a0", "--b", "a1"],
        ["reduce", "--in", "{k23}", "--a", "a0", "--b", "a1"],
        ["cayley", "3"],
        ["construct", "path", "3"],
        ["grid", "base", "--dims", "1,2"],
        ["export", "--spg", "{spg}"],
    ],
    ids=["compute", "reduce", "cayley", "construct", "grid base", "export"],
)
def test_every_writer_ends_in_one_newline(capsys, k23_file, tmp_path, argv):
    spg_file = tmp_path / "h.json"
    h = build_spg(BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1"))
    spg_file.write_text(spg_to_json(h))
    argv = [a.format(k23=k23_file, spg=spg_file) for a in argv]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out.endswith("\n") and not out.endswith("\n\n")
    out_file = tmp_path / "out"
    code, _, _ = _run(capsys, [*argv, "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_compute_reduce_agrees_with_compute_on_disconnected_endpoints(capsys, tmp_path):
    path = tmp_path / "dis.txt"
    path.write_text("a b\nc d\n")
    argv = ["compute", "--in", str(path), "--a", "a", "--b", "c"]
    plain = _run(capsys, argv)
    assert plain[0] == 0
    assert plain[1] == 'geodesics=0 edges=0 d=None\n{\n  "geodesics": [],\n  "edges": []\n}\n'
    assert _run(capsys, argv + ["--reduce"]) == plain
    code, out, err = _run(capsys, ["reduce", "--in", str(path), "--a", "a", "--b", "c"])
    assert (code, out) == (2, "")
    assert err.endswith("error: no path between 'a' and 'c'\n")


def test_a_shuffled_box_file_is_counted_exactly_and_reduces_to_itself(capsys, tmp_path):
    # the 12 x 12 x 12 box, built here, every list shuffled and every edge
    # written in a random orientation
    n = 12
    rng = random.Random(12)
    points = list(itertools.product(range(n + 1), repeat=3))
    name = "_".join
    vertices = [name(map(str, p)) for p in points]
    edges = []
    for p in points:
        for axis in range(3):
            if p[axis] < n:
                q = list(p)
                q[axis] += 1
                edges.append([name(map(str, p)), name(map(str, q))])
    for e in edges:
        rng.shuffle(e)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    corner = f"{n}_{n}_{n}"
    count = math.factorial(3 * n) // math.factorial(n) ** 3
    code, _, err = _run(capsys, ["compute", "--in", str(path), "--a", "0_0_0", "--b", corner])
    assert code == 2
    assert err.endswith(f"error: {count} geodesics exceed the limit of 1000000\n")
    out_file = tmp_path / "box.red.json"
    code, _, _ = _run(capsys, ["reduce", "--in", str(path), "--a", "0_0_0", "--b", corner,
                               "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["graph"] == {"vertices": sorted(vertices), "edges": sorted(map(sorted, edges))}
    assert payload["vertex_map"] == {v: v for v in vertices}
    assert (payload["source"], payload["target"], payload["collapsed"]) == ("0_0_0", corner, False)


# -- byte identity of the column-wise writers -----------------------------------
#
# The references are built record by record with json.dumps: every record
# on its own line, every container above the records indented as by
# json.dumps(..., indent=2).

ESCAPED_NAMES = ['q"', "b\\x", "t\x01ab", "é", "ü/ß", "sp ace"]
RECORD_FIELDS = {"geodesics", "edges", "vertices", "vertex_map"}


def _record_lines(payload, pad="", sort_keys=False):
    inner = pad + "  "
    keys = sorted(payload) if sort_keys else list(payload)
    fields = []
    for key in keys:
        value = payload[key]
        if key not in RECORD_FIELDS:
            text = (_record_lines(value, inner, sort_keys) if isinstance(value, dict)
                    else json.dumps(value))
        elif isinstance(value, dict):
            members = [f"{json.dumps(k)}: {json.dumps(value[k])}" for k in sorted(value)]
            text = "{\n" + ",\n".join(inner + "  " + m for m in members) + f"\n{inner}}}"
            text = text if members else "{}"
        else:
            records = [json.dumps(r) for r in value]
            text = "[\n" + ",\n".join(inner + "  " + r for r in records) + f"\n{inner}]"
            text = text if records else "[]"
        fields.append(f"{inner}{json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + f"\n{pad}}}" if fields else "{}"


def _reference(payload, sort_keys=False):
    return _record_lines(payload, sort_keys=sort_keys) + "\n"


def _dot_reference(h, name="spg"):
    lines = [f"graph {json.dumps(name)} {{", "  node [shape=box, fontsize=10];"]
    lines += [f"  {i} [label={json.dumps(' '.join(geo))}];" for i, geo in enumerate(h.geodesics)]
    for i, j in h.sorted_edges():
        pos = h.edge_index[(i, j)]
        lines.append(f'  {i} -- {j} [label="{pos}", color={json.dumps(index_color(pos))}];')
    return "\n".join(lines) + "\n}\n"


def _escaped(g):
    return g.relabel({v: v + ESCAPED_NAMES[k % len(ESCAPED_NAMES)] for k, v in enumerate(g.vertices)})


def _k2_instance(q):
    g = _escaped(complete_bipartite_graph(2, q))
    return BaseInstance(g, g.vertices[0], g.vertices[1])


@pytest.mark.parametrize(
    "inst",
    [
        _k2_instance(3),
        _k2_instance(MATRIX_CUTOFF - 1),  # the dict SpGraph
        _k2_instance(MATRIX_CUTOFF),  # the array SpGraph
        BaseInstance(Graph(["a", "m", 'z"'], [("a", "m"), ("m", 'z"')]), "a", 'z"'),  # one geodesic
        _odd_instance(),
    ],
    ids=["k23", "below-matrix-cutoff", "at-matrix-cutoff", "one-geodesic", "odd-names"],
)
def test_spg_writers_match_json_dumps_byte_for_byte(inst):
    h = build_spg(inst)
    assert spg_to_json(h) == _reference(_old_spg(h))
    assert spg_to_dot(h) == _dot_reference(h)
    assert spg_to_dot(h, 'a "b"\\') == _dot_reference(h, 'a "b"\\')


def test_lone_and_empty_spg_writers_match_json_dumps_byte_for_byte():
    for h in (SpGraph((("a\x01",),), {}, 0), SpGraph((), {}, None)):
        assert spg_to_json(h) == _reference(_old_spg(h))
        assert spg_to_dot(h) == _dot_reference(h)


@pytest.mark.parametrize(
    "g",
    [
        Graph([], []),
        Graph(["x\x7f", "é"], []),  # no edges
        _escaped(complete_bipartite_graph(2, ID_CUTOFF // 2 - 1)),  # stored as name pairs
        _escaped(complete_bipartite_graph(2, ID_CUTOFF // 2)),  # stored as ids
        _escaped(hypercube_graph(6)),
    ],
    ids=["no-vertices", "no-edges", "below-id-cutoff", "at-id-cutoff", "q6"],
)
def test_graph_json_matches_json_dumps_byte_for_byte(g):
    assert graph_to_json(g) == _reference(_old_graph(g))


@pytest.mark.parametrize(
    "inst",
    [
        _odd_instance(),  # an off-geodesic vertex maps to null
        _k2_instance(ID_CUTOFF // 2 - 1),
        _k2_instance(ID_CUTOFF // 2 + 8),
        grid_base(GridSpec((4, 4, 4))),
        BaseInstance(path_graph(70), "0", "70"),  # collapses
    ],
    ids=["odd-names", "below-id-cutoff", "above-id-cutoff", "grid-4x4x4", "collapsed"],
)
def test_reduce_output_matches_json_dumps_byte_for_byte(capsys, tmp_path, inst):
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(inst.graph))
    code, out, _ = _run(capsys, ["reduce", "--in", str(path), "--a", inst.source, "--b", inst.target])
    assert code == 0
    red = reduce_instance(inst)
    payload = {
        "collapsed": red.collapsed,
        "source": red.source,
        "target": red.target,
        "vertex_map": dict(red.vertex_map),
        "graph": _old_graph(red.graph),
    }
    assert out == _reference(payload, sort_keys=True)


@pytest.mark.parametrize(
    "argv, result",
    [
        (["construct", "hypercube", "4"], lambda: hypercube_base(4)),
        (["construct", "complete", "13"], lambda: complete_base(13)),  # 78 edges
        (["construct", "parallel", "3", "4"], lambda: parallel_paths(3, 4)),
    ],
    ids=["hypercube-4", "complete-13", "parallel-3-4"],
)
def test_construct_output_matches_json_dumps_byte_for_byte(capsys, argv, result):
    code, out, _ = _run(capsys, argv)
    assert code == 0
    result = result()
    inst = result.instance
    payload = {"source": inst.source, "target": inst.target, "name": result.name,
               "graph": _old_graph(inst.graph)}
    assert out == _reference(payload, sort_keys=True)


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (4, 4, 4)], ids=["1x1", "1x2", "4x4x4"])
def test_grid_base_output_matches_json_dumps_byte_for_byte(capsys, dims):
    code, out, _ = _run(capsys, ["grid", "base", "--dims", ",".join(map(str, dims))])
    assert code == 0
    inst = grid_base(GridSpec(dims))
    payload = {"source": inst.source, "target": inst.target, "graph": _old_graph(inst.graph)}
    assert out == _reference(payload, sort_keys=True)


def test_an_empty_vertex_map_is_an_empty_object():
    assert json_records({"vertex_map": _vertex_map_rows({})}) == _reference({"vertex_map": {}})
    assert json_records({"graph": graph_fields(Graph([], []))}) == _reference(
        {"graph": {"vertices": [], "edges": []}}
    )


@pytest.mark.parametrize("dims", [(1,) * 8, (2, 1, 2), (3,)], ids=["1^8", "2,1,2", "3"])
def test_grid_enum_lists_the_words_as_move_sequences_do(capsys, dims):
    code, out, _ = _run(capsys, ["grid", "enum", "--dims", ",".join(map(str, dims))])
    assert code == 0
    sequences = enumerate_sequences(GridSpec(dims))
    assert out == f"count={len(sequences)}\n" + "".join(f"{ms}\n" for ms in sequences)


def test_grid_enum_writes_commas_from_ten_axes_on():
    # every grid with ten axes has at least 10! words, so list a few by hand
    spec = GridSpec((1,) * 9 + (2,))
    rows = [[10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [9, 8, 7, 6, 5, 4, 3, 2, 1, 10, 10]]
    words = np.array(rows, dtype=np.uint8)
    expected = [str(MoveSequence(spec, row)) for row in rows]
    assert expected[0] == "10,1,2,3,4,5,6,7,8,9,10"
    assert _word_listing(spec, words) == "count=2\n" + "".join(f"{w}\n" for w in expected)
    short = GridSpec((1, 2))
    assert _word_listing(short, np.array([[2, 1, 2]], dtype=np.uint8)) == "count=1\n212\n"


# -- malformed input: exit 2, one error line, no traceback ---------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=10,
)
_NAMES = st.sampled_from(["a", "b", "c"])


def _with(poison):
    """Lists that hold ``poison`` somewhere among the drawn items."""
    return lambda items: st.integers(0, len(items)).map(lambda k: [*items[:k], poison, *items[k:]])


def _cut_or_undecodable(write):
    """A valid document (``write()``, made on first draw) cut inside its
    last bracket, so never valid JSON again, or bytes that are not UTF-8."""

    def cuts():
        document = write().rstrip()
        return st.integers(0, len(document) - 2).map(lambda k: document[:k])

    return st.deferred(cuts) | st.binary(max_size=20).map(lambda junk: b"\xff" + junk)


def _not_an_object(text: str) -> bool:
    # JSON whose first character is not "{" or "[" is a scalar at most
    return not text.lstrip().startswith(("{", "["))


_GRAPH_FILES = st.one_of(
    st.text(max_size=60),
    _JSON.map(json.dumps),
    st.fixed_dictionaries({"vertices": _JSON | st.lists(_NAMES), "edges": _JSON}).map(json.dumps),
    st.lists(st.text(alphabet="ab #\t", max_size=6), max_size=6).map("\n".join),
    _cut_or_undecodable(lambda: graph_to_json(complete_bipartite_graph(2, 2))),
)

_EDGE_RECORDS = st.fixed_dictionaries(
    {"u": st.integers(-2, 4), "w": st.integers(-2, 4), "index": st.integers(-1, 3)}
)
_SPG_FILES = st.one_of(
    st.text(max_size=40).filter(_not_an_object),
    st.dictionaries(st.sampled_from(["geodesics", "edges", "d"]), _JSON)
    .filter(lambda doc: not {"geodesics", "edges"} <= doc.keys())
    .map(json.dumps),
    # a self loop of index 0 is never a valid edge record
    st.fixed_dictionaries({
        "geodesics": _JSON | st.lists(st.lists(_NAMES, min_size=3, max_size=3), max_size=4),
        "edges": st.lists(_JSON | _EDGE_RECORDS, max_size=4).flatmap(
            _with({"u": 0, "w": 0, "index": 0})
        ),
    }).map(json.dumps),
    _cut_or_undecodable(
        lambda: spg_to_json(build_spg(BaseInstance(complete_bipartite_graph(2, 3), "a0", "a1")))
    ),
)

_ENTRIES = st.fixed_dictionaries({
    "graph": _JSON | st.fixed_dictionaries({
        "vertices": st.lists(_NAMES, max_size=3),
        "edges": st.lists(st.lists(_NAMES, min_size=2, max_size=2), max_size=3),
    }),
    "source": _JSON | _NAMES,
    "target": _JSON | _NAMES,
})
_CORPUS_FILES = st.one_of(
    st.text(max_size=40).filter(_not_an_object),
    # an entry whose endpoints coincide is never an instance
    st.lists(_JSON | _ENTRIES, max_size=3)
    .flatmap(_with({"graph": {"vertices": ["a"], "edges": []}, "source": "a", "target": "a"}))
    .map(json.dumps),
    _cut_or_undecodable(lambda: json.dumps([{
        "graph": json.loads(graph_to_json(complete_bipartite_graph(2, 2))),
        "source": "a0",
        "target": "a1",
    }])),
)


def _refused(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 2, (argv, err)
    assert err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err


def _write(path, contents):
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    else:
        path.write_text(contents, encoding="utf-8")
    return str(path)


_FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_FUZZ
@given(contents=_GRAPH_FILES)
def test_compute_refuses_malformed_graph_files(capsys, tmp_path, contents):
    # equal endpoints: a file that parses still makes no instance
    path = _write(tmp_path / "g.txt", contents)
    _refused(capsys, ["compute", "--in", path, "--a", "a", "--b", "a"])


@_FUZZ
@given(contents=_SPG_FILES)
def test_verify_and_export_refuse_malformed_spg_files(capsys, tmp_path, contents):
    path = _write(tmp_path / "h.json", contents)
    _refused(capsys, ["verify", "all", "--spg", path])
    _refused(capsys, ["export", "--spg", path])


@_FUZZ
@given(contents=_CORPUS_FILES)
def test_verify_refuses_malformed_corpus_files(capsys, tmp_path, contents):
    _refused(capsys, ["verify", "all", "--corpus", f"file:{_write(tmp_path / 'c.json', contents)}"])


@_FUZZ
@given(
    argv=st.one_of(
        st.integers(10, 10**20).map(lambda m: [str(m)]),
        st.integers(-(10**20), 0).map(lambda m: [str(m)]),
        st.integers(2, 9).flatmap(
            lambda m: st.integers(1, math.factorial(m) - 1).map(
                lambda cap: [str(m), "--limit", str(cap)]
            )
        ),
    )
)
def test_cayley_check_refuses_every_m_it_cannot_build(capsys, argv):
    _refused(capsys, ["cayley", *argv, "--check"])


@_FUZZ
@given(
    dims=st.one_of(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4)
        .filter(lambda dims: min(dims) < 1)
        .map(lambda dims: ",".join(map(str, dims))),
        st.text(alphabet="x.;", max_size=5),
    ),
    command=st.sampled_from(["check", "enum", "base"]),
)
def test_grid_commands_refuse_malformed_dims(capsys, dims, command):
    _refused(capsys, ["grid", command, f"--dims={dims}"])
