"""End-to-end tests of the command line interface, run in process."""

import json

import pytest

from spgraphs import (
    BaseInstance,
    Graph,
    SpGraph,
    build_spg,
    complete_bipartite_graph,
    graph_to_json,
    hypercube_base,
    hypercube_graph,
    index_color,
    reduce_instance,
    spg_from_json,
    spg_to_dot,
    spg_to_json,
)
from spgraphs.cli import main


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


@pytest.mark.parametrize(
    "dims, code", [("39,1", 0), ("63,1", 0), ("62,2", 0), ("1,40", 0), ("1,63", 2)]
)
def test_grid_check_on_long_axes(capsys, dims, code):
    # lattice codes in radix n_i + 1 fit int64 up to 2^40 on 1,40; the 2^63
    # of 1,63 do not, which is refused, not failed
    got, out, err = _run(capsys, ["grid", "check", "--dims", dims])
    assert got == code
    assert "FAIL" not in out
    if code == 0:
        assert f"grid-embedding-{dims.replace(',', 'x')}: pass" in out
    else:
        assert "too wide to pack" in err


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
    assert code == 0
    assert "decomposition: 14 instances, 0 failures" in out


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
