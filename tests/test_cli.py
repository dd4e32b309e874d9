import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import planetube
from planetube import invariant, tube
from planetube.cli import main
from planetube.graphs import complete_graph, star_graph, path_graph
from planetube.immersion import standard_curve, planar_k4
from planetube.moves import whitney_pair
from planetube.tube import (build_symmetric_tube, tube_spanning_tree, rank,
                            wu_basis, to_dot, to_json_dict)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def k4_graph_file(tmp_path):
    return write(tmp_path, "k4.json", planar_k4().graph.to_json_dict())


def test_rank_k4(tmp_path, capsys):
    assert main(["rank", k4_graph_file(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "7"


# K3-K6, a star and a path
GRAPHS = [complete_graph(n) for n in range(3, 7)] + [star_graph(4),
                                                     path_graph(5)]


def test_basis_k4(tmp_path, capsys):
    assert main(["basis", k4_graph_file(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 7
    assert out["basis"][:3] == ["X4", "X5", "X6"]
    # the whole output, against a direct build of the tube and its basis
    for g in GRAPHS:
        assert main(["basis", write(tmp_path, "g.json", g.to_json_dict())]) \
            == 0
        tc = tube_spanning_tree(build_symmetric_tube(g))
        assert json.loads(capsys.readouterr().out) == \
            {"basis": [b.name for b in wu_basis(tc)], "rank": rank(g)}


def test_tube_dot_and_json(tmp_path, capsys):
    gf = k4_graph_file(tmp_path)
    assert main(["tube", gf, "--dot"]) == 0
    assert capsys.readouterr().out.startswith("graph tube")
    assert main(["tube", gf]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["cells"]["vertices"]) == 24
    # the whole output, against a direct build of the tube
    for g in GRAPHS:
        gf = write(tmp_path, "g.json", g.to_json_dict())
        tc = tube_spanning_tree(build_symmetric_tube(g))
        assert main(["tube", gf, "--dot"]) == 0
        assert capsys.readouterr().out == to_dot(tc)
        assert main(["tube", gf]) == 0
        assert json.loads(capsys.readouterr().out) == \
            to_json_dict(tc, wu_basis(tc))


def test_tube_builds_the_basis_once(tmp_path, capsys, monkeypatch):
    # the plan's basis is printed, not built a second time
    calls = []
    build = tube.wu_basis

    def counted(tc):
        calls.append(tc)
        return build(tc)

    for module in (tube, invariant):
        monkeypatch.setattr(module, "wu_basis", counted)
    gf = write(tmp_path, "k5.json", complete_graph(5).to_json_dict())
    invariant.wu_plan.cache_clear()
    assert main(["tube", gf]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["rank"] == 21


def test_gen_curve_then_invariant(tmp_path, capsys):
    assert main(["gen", "curve", "--r", "1"]) == 0
    f = write(tmp_path, "curve.json", json.loads(capsys.readouterr().out))
    assert main(["invariant", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vector"] == [1] and out["basis"] == ["X3"]
    assert out["fingerprint"]


def test_gen_star_orders(tmp_path, capsys):
    assert main(["gen", "star", "--order", "1,3,2"]) == 0
    f = write(tmp_path, "star.json", json.loads(capsys.readouterr().out))
    assert main(["invariant", f]) == 0
    assert json.loads(capsys.readouterr().out)["vector"] == [-1]


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["gen", "k4"]) == 0
    f = write(tmp_path, "k4imm.json", json.loads(capsys.readouterr().out))
    assert main(["validate", f]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["crossings"] == 0

    bad = write(tmp_path, "bad.json", {"graph": {"vertices": 2,
                                                 "edges": [[1, 1]]},
                                       "positions": {}, "polylines": {}})
    assert main(["validate", bad]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"

    # a bend on vertex 1: the germ there has length 0 and no direction
    stub = write(tmp_path, "stub.json", {
        "graph": {"vertices": 2, "edges": [[1, 2]]},
        "positions": {"1": [0, 0], "2": [2, 0]},
        "polylines": {"1": [[0, 0], [0, 0], [1, 1], [2, 0]]}})
    assert main(["validate", stub]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == [
        ["degenerate-segment", "edge 1 segment 0 at (0.0, 0.0)"]]
    assert report["cyclic_orders"] == {"2": [1]}

    # tau 1e-9 is finer than the coordinates of K4 at (1e12, 1e12), and not
    # of K4 at the origin
    far = planar_k4().to_json_dict()
    far["positions"] = {v: [x + 1e12, y + 1e12]
                        for v, (x, y) in far["positions"].items()}
    far["polylines"] = {e: [[x + 1e12, y + 1e12] for x, y in pts]
                        for e, pts in far["polylines"].items()}
    for drawn, code in ((f, 0), (write(tmp_path, "far.json", far), 1)):
        assert main(["validate", "--tol", "1e-9", drawn]) == code
        report = json.loads(capsys.readouterr().out)
        assert [kind for kind, _ in report["violations"]] == \
            ([] if code == 0 else ["tolerance-below-resolution"])


def test_malformed_file_is_validation_failure(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    nan_bend = planar_k4().to_json_dict()
    nan_bend["polylines"]["1"].insert(1, [float("nan"), 1.0])
    # two edges crossing in an X through a bend point they share
    x_shared_bend = {
        "graph": {"vertices": 3, "edges": [[1, 2], [2, 3]]},
        "positions": {"1": [0, 0], "2": [6, 2], "3": [0, 4]},
        "polylines": {"1": [[0, 0], [2, 2], [4, 4], [6, 2]],
                      "2": [[6, 2], [4, 0], [2, 2], [0, 4]]}}
    # edge (3,4) ends on edge (1,2) at (1, 0): rejected once tau > 0
    touching = write(tmp_path, "touch.json", {
        "graph": {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
        "positions": {"1": [0, 0], "2": [2, 0], "3": [1, 2], "4": [1, 0]},
        "polylines": {"1": [[0, 0], [2, 0]], "2": [[2, 0], [1, 2]],
                      "3": [[1, 2], [1, 0]]}})
    for argv in (["invariant", str(p)],
                 ["invariant", write(tmp_path, "nan.json", nan_bend)],
                 ["invariant", write(tmp_path, "x.json", x_shared_bend)],
                 ["invariant", touching, "--tol", "-1"],
                 ["validate", touching, "--tol", "-1"]):
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "validation"


def test_huge_vertex_count_on_one_edge_exits_1_briefly(tmp_path, capsys):
    graph = {"vertices": 10**5, "edges": [[1, 2]]}
    drawing = {"graph": graph, "positions": {"1": [0, 0], "2": [1, 0]},
               "polylines": {"1": [[0, 0], [1, 0]]}}
    for argv in (["basis", write(tmp_path, "g.json", graph)],
                 ["invariant", write(tmp_path, "f.json", drawing)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.encode()) < 200, len(err)
        assert json.loads(err) == {
            "error": "validation", "message": "disconnected: 100000 vertices "
            "need at least 99999 edges, not 1"}


def assert_validation_errors(capsys, runs):
    """Each (argv, message part) run exits 1 with a JSON validation error
    whose message holds that part."""
    for argv, part in runs:
        assert main(argv) == 1, argv
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and part in err["message"], \
            (argv, err)


def test_malformed_input_gives_json_errors(tmp_path, capsys):
    k4 = planar_k4().to_json_dict()
    curve = write(tmp_path, "curve.json", standard_curve(1).to_json_dict())
    k4_file = write(tmp_path, "k4.json", k4)

    def k4_with(name, edit):
        d = json.loads(json.dumps(k4))
        edit(d)
        return write(tmp_path, name, d)

    def graph_file(name, vertices, edges):
        return write(tmp_path, name, {"vertices": vertices, "edges": edges})

    assert_validation_errors(capsys, [
        (["rotation", curve, "--cycle", "9", "1", "2"], "unknown edge 9"),
        (["validate", k4_with("short.json", lambda d: d["polylines"]["1"]
                              .insert(1, [1.0]))], "two coordinates"),
        (["validate", k4_with("long.json", lambda d: d["polylines"]["1"]
                              .insert(1, [1.0, 1.0, 1.0]))],
         "two coordinates"),
        (["rank", graph_file("frac.json", 4.5, [[1, 2]])], "vertex count"),
        (["rank", graph_file("text.json", 2, [[1, "2"]])], "not a pair"),
        (["rank", graph_file("triple.json", 3, [[1, 2, 3], [2, 3]])],
         "not a pair"),
        (["validate", k4_with("frac_imm.json", lambda d: d["graph"]
                              .update(vertices=4.5))], "vertex count"),
        # JSON values of the wrong shape
        (["rank", graph_file("num.json", 3, 5)], "malformed graph file"),
        (["basis", graph_file("num4.json", 4, 5)],
         "graph edges must be a list, not int"),
        (["validate", k4_with("edges.json", lambda d: d["graph"]
                              .update(edges=5))],
         "graph edges must be a list, not int"),
        (["rank", write(tmp_path, "list.json", [3, [[1, 2]]])],
         "malformed graph file"),
        (["validate", k4_with("pos.json", lambda d: d.update(
            positions=[[0, 0]]))], "positions must be an object, not list"),
        (["validate", k4_with("pl.json", lambda d: d["polylines"].update(
            {"1": 5}))], "edge 1 polyline: 5 is not a list of points"),
        (["validate", k4_with("pl_null.json", lambda d: d["polylines"].update(
            {"1": None}))], "edge 1 polyline: None is not a list of points"),
        (["validate", k4_with("pls.json", lambda d: d.update(
            polylines=list(d["polylines"].values())))],
         "polylines must be an object, not list"),
        (["validate", k4_with("graph.json", lambda d: d.update(graph="x"))],
         "graph must be an object, not str"),
        (["invariant", write(tmp_path, "top.json", [k4])],
         "immersion must be an object, not list"),
        # a missing table is named with the kind of file that lacks it
        (["basis", write(tmp_path, "empty_graph.json", {})],
         "graph file: missing key 'vertices'"),
        (["validate", write(tmp_path, "empty.json", {})],
         "immersion file: missing key 'graph'"),
        (["validate", k4_with("no_pl.json", lambda d: d.pop("polylines"))],
         "immersion file: missing key 'polylines'"),
        (["validate", k4_with("no_edges.json", lambda d: d["graph"]
                              .pop("edges"))],
         "immersion file: missing key 'edges'"),
        (["move", k4_file, write(tmp_path, "no_kind.json", [{"edge": 1}])],
         "missing key 'kind'"),
        (["move", k4_file, write(tmp_path, "one.json",
                                 {"kind": "curl", "edge": 1, "t": 0.5,
                                  "sign": 1})], "list of move objects"),
        (["move", k4_file, write(tmp_path, "str.json", ["curl"])],
         "not an object"),
        (["move", k4_file, write(tmp_path, "e9.json",
                                 [{"kind": "curl", "edge": 9, "t": 0.5,
                                   "sign": 1}])], "unknown edge 9"),
        (["move", k4_file, write(tmp_path, "null.json",
                                 [{"kind": "curl", "edge": None}])],
         "malformed move record"),
        # a fractional edge, sign or seed is refused by name, not truncated
        (["move", k4_file, write(tmp_path, "edge.json",
                                 [{"kind": "curl", "edge": 1.7, "t": 3.0,
                                   "sign": 1}])],
         "move edge must be a whole number"),
        (["move", k4_file, write(tmp_path, "sign.json",
                                 [{"kind": "curl", "edge": 1, "t": 3.0,
                                   "sign": 1.5}])],
         "move sign must be a whole number"),
        (["move", k4_file, write(tmp_path, "seed.json",
                                 [{"kind": "perturb", "seed": 2.5}])],
         "move seed must be a whole number"),
        (["rotation", k4_file, "--cycle", "0", "1", "2"],
         "cycle edge ids are signed and nonzero"),
    ])
    # a JSON string or boolean where a number belongs would pass float() or
    # int(); each is refused by its field
    curl = {"kind": "curl", "edge": 1, "t": 3.0, "sign": 1}

    def moves(name, record):
        return ["move", k4_file, write(tmp_path, name, [record])]

    def at_vertex_1(zero):
        def edit(d):
            d["positions"]["1"] = [zero, zero]
            for eid in ("1", "2", "3"):      # the edges that start at v1
                d["polylines"][eid][0] = [zero, zero]
        return edit

    def first_edge(pair):
        def edit(d):
            d["graph"]["edges"][0] = pair
        return edit

    def add(table, key, value):
        return lambda d: d[table].update({key: value})

    assert_validation_errors(capsys, [
        (moves("edge_text.json", dict(curl, edge="1")),
         "move edge must be a number, not '1'"),
        (moves("edge_frac_text.json", dict(curl, edge="1.5")),
         "move edge must be a number, not '1.5'"),
        (moves("t_text.json", dict(curl, t="3.0")),
         "move t must be a number"),
        (moves("sign_bool.json", dict(curl, sign=True)),
         "move sign must be a number, not True"),
        (moves("seed_bool.json", {"kind": "perturb", "seed": True}),
         "move seed must be a number"),
        (moves("delta_text.json", {"kind": "perturb", "delta": "0.01"}),
         "move delta must be a number"),
        (["invariant", k4_with("v1_text.json", at_vertex_1("0"))],
         "vertex 1 position: coordinate '0' is not a number"),
        (["invariant", k4_with("v1_bool.json", at_vertex_1(False))],
         "vertex 1 position: coordinate False is not a number"),
        (["validate", k4_with("bend_text.json", lambda d: d["polylines"]["4"]
                              .insert(1, [3.0, "0.5"]))],
         "edge 4 polyline: coordinate '0.5' is not a number"),
        # an integer too large for a float is refused by its field
        (["invariant", k4_with("v1_huge.json", at_vertex_1(10 ** 400))],
         "vertex 1 position: a coordinate is too large for a float"),
        (["validate", k4_with("bend_huge.json", lambda d: d["polylines"]["4"]
                              .insert(1, [3.0, -10 ** 400]))],
         "edge 4 polyline: a coordinate is too large for a float"),
        (moves("t_huge.json", dict(curl, t=10 ** 400)),
         "move t is too large for a float"),
        (moves("delta_huge.json", {"kind": "perturb", "delta": 10 ** 400}),
         "move delta is too large for a float"),
        (["rank", graph_file("end_bool.json", 2, [[True, 2]])],
         "edge 1: [True, 2] is not a pair of vertex ids"),
        (["rank", graph_file("count_bool.json", True, [[1, 2]])],
         "vertex count True is not an integer"),
        # an endpoint is an int: 1.0 would read as vertex 1, and 1.5 would
        # fail on its own, naming no edge
        (["rank", graph_file("end_whole.json", 2, [[1.0, 2]])],
         "edge 1: [1.0, 2] is not a pair of vertex ids"),
        (["rank", graph_file("end_frac.json", 2, [[1.5, 2]])],
         "edge 1: [1.5, 2] is not a pair of vertex ids"),
        (["invariant", k4_with("end_whole_imm.json", first_edge([1.0, 2]))],
         "edge 1: [1.0, 2] is not a pair of vertex ids"),
        (["invariant", k4_with("end_frac_imm.json", first_edge([1.5, 2]))],
         "edge 1: [1.5, 2] is not a pair of vertex ids"),
        # a table key is the decimal id of a vertex or edge of the graph
        (["invariant", k4_with("pos_x.json", add("positions", "x", [0, 0]))],
         "positions: key 'x' names no vertex"),
        (["invariant", k4_with("pos_1.0.json",
                               add("positions", "1.0", [0, 0]))],
         "positions: key '1.0' names no vertex"),
        (["invariant", k4_with("pos_9.json", add("positions", "9", [0, 0]))],
         "positions: key '9' names no vertex"),
        (["invariant", k4_with("pl_x.json",
                               add("polylines", "x", [[0, 0], [1, 1]]))],
         "polylines: key 'x' names no edge"),
        (["invariant", k4_with("pl_7.json",
                               add("polylines", "7", [[0, 0], [1, 1]]))],
         "polylines: key '7' names no edge"),
        # a polyline of one point, and a null point or position, name their
        # field
        (["validate", k4_with("pl_one.json", add("polylines", "1", [[0, 0]]))],
         "edge 1 polyline: needs at least two points"),
        (["validate", k4_with("pl_null.json", lambda d: d["polylines"]["4"]
                              .insert(1, None))],
         "edge 4 polyline: None is not a point"),
        (["validate", k4_with("pos_null.json", add("positions", "2", None))],
         "vertex 2 position: None is not a point"),
        (["validate", k4_with("coord_null.json", lambda d: d["polylines"]["4"]
                              .insert(1, [3.0, None]))],
         "edge 4 polyline: coordinate None is not a number"),
    ])


def test_move_delta_outside_range_is_refused(tmp_path, capsys):
    k4 = planar_k4()
    bent = whitney_pair(k4, 6, k4.polylines[6].length / 2)
    runs = []
    for name, f in (("k4", k4), ("bent", bent)):
        imm = write(tmp_path, f"{name}.json", f.to_json_dict())
        for delta in (-1, float("nan")):
            moves = write(tmp_path, f"{name}-{delta}.json",
                          [{"kind": "perturb", "seed": 3, "delta": delta}])
            runs.append((["move", imm, moves], "delta must lie in"))
    assert_validation_errors(capsys, runs)


def test_numeric_failure_exit_code(tmp_path, capsys):
    f = write(tmp_path, "c.json", standard_curve(1).to_json_dict())
    for eps in ("100.0", "nan"):
        assert main(["invariant", f, "--eps", eps]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"


def test_equiv_whitney(tmp_path, capsys):
    f = planar_k4()
    g = whitney_pair(f, 6, f.polylines[6].length / 2)
    fa = write(tmp_path, "a.json", f.to_json_dict())
    fb = write(tmp_path, "b.json", g.to_json_dict())
    assert main(["equiv", fa, fb]) == 0
    assert capsys.readouterr().out.strip() == "equivalent: true"


def test_equiv_distinguishes(tmp_path, capsys):
    fa = write(tmp_path, "a.json", standard_curve(1).to_json_dict())
    fb = write(tmp_path, "b.json", standard_curve(2).to_json_dict())
    assert main(["equiv", fa, fb]) == 0
    assert capsys.readouterr().out.strip() == "equivalent: false"


def test_rotation_command(tmp_path, capsys):
    f = write(tmp_path, "c.json", standard_curve(2).to_json_dict())
    assert main(["rotation", f, "--cycle", "3", "-2", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_move_command(tmp_path, capsys):
    f = planar_k4()
    imm = write(tmp_path, "k4.json", f.to_json_dict())
    moves = write(tmp_path, "moves.json", [
        {"kind": "curl", "edge": 4, "t": f.polylines[4].length / 2,
         "sign": 1},
    ])
    assert main(["move", imm, moves]) == 0
    moved = write(tmp_path, "moved.json",
                  json.loads(capsys.readouterr().out))
    assert main(["equiv", imm, moved]) == 0
    assert capsys.readouterr().out.strip() == "equivalent: false"


def test_render_svg(tmp_path, capsys):
    f = write(tmp_path, "c.json", standard_curve(2).to_json_dict())
    assert main(["render", f, "--svg"]) == 0
    assert capsys.readouterr().out.startswith("<svg")


def test_determinism(tmp_path, capsys):
    f = write(tmp_path, "k4.json", planar_k4().to_json_dict())
    main(["invariant", f])
    first = capsys.readouterr().out
    main(["invariant", f])
    assert capsys.readouterr().out == first


# what every command loads: the package root and the modules that read and
# validate a file
LOAD = {"planetube", "planetube.geometry", "planetube.graphs",
        "planetube.genericity", "planetube.immersion"}
COCHAIN = {"planetube.tube", "planetube.invariant"}


def test_each_command_loads_only_what_it_runs(tmp_path):
    """Every subcommand once in a fresh interpreter (-S: no site hook): its
    exit code, and the planetube modules it loaded, read from the lines
    `-v` writes per module loaded.  In-process tests load every module at
    collection, so only a fresh interpreter sees a command that lacks one
    of its own imports."""
    f = planar_k4()
    k4 = write(tmp_path, "k4.json", f.to_json_dict())
    graph = write(tmp_path, "k4-graph.json", f.graph.to_json_dict())
    curve = write(tmp_path, "curve.json", standard_curve(2).to_json_dict())
    moves = write(tmp_path, "moves.json", [
        {"kind": "curl", "edge": 4, "t": f.polylines[4].length / 2,
         "sign": 1}])
    # the benchmark's two fault files: a NaN bend, refused at load, and a
    # path whose edges cross in an X through a shared bend, not generic
    d = f.to_json_dict()
    d["polylines"]["1"].insert(1, [math.nan, 1.0])
    nan_bend = write(tmp_path, "nan-bend.json", d)
    x_bend = write(tmp_path, "x-bend.json", {
        "graph": {"vertices": 3, "edges": [[1, 2], [2, 3]]},
        "positions": {"1": [0.0, 0.0], "2": [6.0, 2.0], "3": [0.0, 4.0]},
        "polylines": {"1": [[0.0, 0.0], [2.0, 2.0], [4.0, 4.0], [6.0, 2.0]],
                      "2": [[6.0, 2.0], [4.0, 0.0], [2.0, 2.0], [0.0, 4.0]]}})
    runs = [
        (["validate", k4], 0, LOAD),
        (["invariant", nan_bend], 1, LOAD),
        (["invariant", x_bend], 1, LOAD),
        (["invariant", k4], 0, LOAD | COCHAIN),
        (["invariant", k4, "--eps", "0"], 2, LOAD | COCHAIN),
        (["tube", graph], 0, LOAD | COCHAIN),
        (["tube", "--dot", graph], 0, LOAD | COCHAIN),
        (["rank", graph], 0, LOAD | {"planetube.tube"}),
        (["basis", graph], 0, LOAD | COCHAIN),
        (["equiv", k4, k4], 0, LOAD | COCHAIN),
        (["rotation", curve, "--cycle", "3", "-2", "1"], 0, LOAD | COCHAIN),
        (["gen", "curve"], 0, LOAD),
        (["gen", "star"], 0, LOAD),
        (["gen", "k4"], 0, LOAD),
        (["move", k4, moves], 0, LOAD | {"planetube.moves"}),
        (["render", k4, "--svg"], 0, LOAD),
    ]
    env = dict(os.environ,
               PYTHONPATH=str(Path(planetube.__file__).parents[1]))
    for argv, code, modules in runs:
        out = subprocess.run(
            [sys.executable, "-S", "-v", "-m", "planetube.cli", *argv],
            capture_output=True, text=True, env=env)
        loaded = set(re.findall(r"^import '(planetube[.\w]*)'", out.stderr,
                                re.MULTILINE))
        assert (out.returncode, loaded) == (code, modules), argv
