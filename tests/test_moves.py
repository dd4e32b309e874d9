import ast
import importlib.util
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from planetube import genericity, immersion, moves
from planetube.geometry import (KINK_CLEARANCE, Polyline, kink_waypoints,
                                point_segment_distance)
from planetube.genericity import Tolerances, validate_generic
from planetube.immersion import (PlaneImmersion, standard_curve,
                                 standard_star, planar_k4, map_points, reflect)
from planetube.oracles import report_differences, trace_cycle, turning_number
from planetube.graphs import EdgeCycle, fundamental_cycle
from planetube.invariant import wu, prepare, equivalent
from planetube.moves import (MoveError, MoveRecord, insert_curl,
                             whitney_pair, perturb, apply_moves)

from conftest import counted_validations, drawing, random_bent_kn


def crossings(f):
    return len(validate_generic(f).crossings)


def test_curl_changes_rotation():
    f = standard_curve(1)
    t = f.polylines[3].length * 0.45
    assert wu(insert_curl(f, 3, t, +1)).coords == (2,)
    assert wu(insert_curl(f, 3, t, -1)).coords == (0,)


def test_curl_adds_one_crossing(k4):
    g = insert_curl(k4, 6, k4.polylines[6].length / 2, +1)
    assert crossings(g) == crossings(k4) + 1


def test_curl_rejects_vertex_positions():
    f = standard_curve(1)
    with pytest.raises(MoveError):
        insert_curl(f, 3, 0.0, +1)
    with pytest.raises(MoveError):
        insert_curl(f, 3, f.polylines[3].length, +1)
    with pytest.raises(MoveError):
        insert_curl(f, 3, 1.0, 2)
    # 1e-12 from the tail leaves no room between the vertex and the curl
    with pytest.raises(MoveError, match="insufficient clearance for a curl"):
        insert_curl(planar_k4(), 1, 1e-12, +1)


def test_a_chain_that_would_touch_itself_is_refused():
    # near vertex 1 a curl's radius r = room / 4 is a few tau: above tau,
    # but the chain's return leg would pass within KINK_CLEARANCE * r < tau
    # of its own bend
    k4 = planar_k4()
    report = validate_generic(k4)
    for t in (1e-4, 2e-4, 3e-4):
        pl, i, _ = moves._locate(k4, 1, t)
        r = moves._local_clearance(report, pl, 1, i, t) / 4.0
        assert report.tau < r and KINK_CLEARANCE * r <= report.tau
        with pytest.raises(MoveError, match="insufficient clearance for a "
                                            "curl"):
            insert_curl(k4, 1, t, +1)
        with pytest.raises(MoveError, match="insufficient clearance for a "
                                            "Whitney pair"):
            whitney_pair(k4, 1, t)


def test_a_loop_that_caps_the_scale_is_refused():
    # the strands of a curl loop's crossing lie 6.4 r apart along the edge,
    # which caps its output's epsilon at 1.6 r; near a vertex that leaves
    # the germ angles too shallow, and the move is refused up front.  Over
    # a sweep towards both ends of an edge every move either gives the
    # splice, which passes, or is refused for insufficient clearance, and
    # then the splice does not pass
    refused, capped = 0, 0
    for f in (planar_k4(), reflect(planar_k4())):
        report = validate_generic(f)
        length = f.polylines[1].length
        for t in [k * 5e-5 for k in range(1, 30)] \
                + [length - k * 5e-5 for k in range(1, 30)]:
            pl, i, u = moves._locate(f, 1, t)
            room = moves._local_clearance(report, pl, 1, i, t)
            for rec, chain in (
                    (MoveRecord("curl", edge=1, t=t, sign=+1),
                     kink_waypoints(pl.point_at(t), u, room / 4.0, +1)),
                    (MoveRecord("curl", edge=1, t=t, sign=-1),
                     kink_waypoints(pl.point_at(t), u, room / 4.0, -1)),
                    (MoveRecord("whitney_pair", edge=1, t=t),
                     moves._whitney_chain(pl.point_at(t), u, room / 6.0))):
                g = PlaneImmersion(f.graph, f.positions, {
                    **f.polylines, 1: Polyline(pl.points[:i + 1] + chain
                                               + pl.points[i + 1:])})
                try:
                    out = moves._move(f, rec, None)
                except MoveError as exc:
                    assert "insufficient clearance" in str(exc)
                    check = validate_generic(g)
                    assert not check.passed
                    refused += 1
                    capped += check.violations[-1][0] == "no-scale"
                else:
                    assert out.polylines == {**f.polylines,
                                             1: out.polylines[1]}
                    assert out.polylines[1].points == g.polylines[1].points
                    assert validate_generic(out).passed
    assert refused > 20 and capped > 10, (refused, capped)


def test_curl_sensitivity_exhaustive_k3_k4():
    for f in (standard_curve(1), planar_k4()):
        base = wu(f)
        tree = prepare(f).plan.complex.graph_tree
        for eid in range(1, f.graph.num_edges + 1):
            for sign in (+1, -1):
                t = f.polylines[eid].length * 0.41
                moved = wu(insert_curl(f, eid, t, sign))
                for name, a, b in zip(base.basis_names, base.coords,
                                      moved.coords):
                    if name.startswith("Y"):
                        assert a == b, (eid, sign, name)
                    else:
                        j = int(name[1:])
                        mult = sum(d for e2, d in
                                   fundamental_cycle(tree, j).steps
                                   if e2 == eid)
                        assert b - a == sign * mult, (eid, sign, name)


def test_whitney_pair_is_invisible(k4):
    for f in (k4, standard_curve(2), standard_star((1, 3, 2))):
        eid = f.graph.edges[-1].id
        g = whitney_pair(f, eid, f.polylines[eid].length / 2)
        assert crossings(g) == crossings(f) + 2
        assert equivalent(f, g)


def test_whitney_pair_keeps_turning():
    f = standard_curve(1)
    g = whitney_pair(f, 3, f.polylines[3].length * 0.5)
    cycle = EdgeCycle(f.graph, ((3, 1), (2, -1), (1, 1)))
    assert turning_number(trace_cycle(g, cycle)) == \
        turning_number(trace_cycle(f, cycle)) == 1


def test_perturb_identity_and_invariance(k4):
    assert perturb(k4, seed=5, delta=0.0) is k4
    base = wu(k4)
    for seed in range(10):
        assert wu(perturb(k4, seed)).coords == base.coords


def test_perturb_rejects_large_delta(k4):
    eps = validate_generic(k4).epsilon
    for delta in (eps, float("nan"), -1.0):
        with pytest.raises(MoveError, match="delta must lie in"):
            perturb(k4, seed=0, delta=delta)


def test_apply_moves_json(k4):
    t = k4.polylines[4].length / 2
    script = [
        {"kind": "curl", "edge": 4, "t": t, "sign": 1},
        {"kind": "whitney_pair", "edge": 6, "t": k4.polylines[6].length / 2},
        {"kind": "perturb", "seed": 9},
    ]
    g = apply_moves(k4, script)
    base = wu(k4)
    moved = wu(g)
    assert moved.coords != base.coords       # the curl shows up
    assert moved.coords[3:] == base.coords[3:]  # Y block untouched
    with pytest.raises(MoveError):
        apply_moves(k4, [{"kind": "slide"}])


def test_move_record_round_trip():
    rec = MoveRecord.from_json_dict({"kind": "curl", "edge": 2, "t": 0.5,
                                     "sign": -1})
    assert rec == MoveRecord("curl", edge=2, t=0.5, sign=-1)


def test_move_record_reads_whole_floats():
    rec = MoveRecord.from_json_dict({"kind": "curl", "edge": 2.0, "t": 0.5,
                                     "sign": -1.0, "seed": 3.0})
    assert rec == MoveRecord("curl", edge=2, t=0.5, sign=-1, seed=3)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6))
def test_random_curl_positions_shift_by_sign(seed):
    rng = random.Random(seed)
    f = standard_curve(rng.randint(-2, 2))
    base = wu(f).coords[0]
    sign = rng.choice((-1, 1))
    t = f.polylines[3].length * rng.uniform(0.35, 0.6)
    try:
        g = insert_curl(f, 3, t, sign)
    except MoveError:
        return                                # cramped spot; nothing to check
    assert wu(g).coords == (base + sign,)


def recorded_splices(monkeypatch):
    """List that records, from now on, each splice output of `moves` with
    the report derived for it (`moves.revalidate`) and whether deriving it
    fell back to a full validation (`genericity.validate_generic`)."""
    seen, fallbacks = [], []
    derive, full = moves.revalidate, genericity.validate_generic

    def counting(f, tol=None):
        fallbacks.append(f)
        return full(f, tol)

    def recording(g, f, report, tol=None):
        fallbacks.clear()
        out = derive(g, f, report, tol)
        seen.append((g, out, bool(fallbacks)))
        return out

    monkeypatch.setattr(genericity, "validate_generic", counting)
    monkeypatch.setattr(moves, "revalidate", recording)
    return seen


def whole_drawing_scans(monkeypatch):
    """List that records, from now on, each call of the whole-drawing
    clearance scan of a validation, by name."""
    calls = []

    def counted(name, real):
        def count(*args):
            calls.append(name)
            return real(*args)
        return count

    monkeypatch.setattr(genericity, "_min_clearance",
                        counted("_min_clearance", genericity._min_clearance))
    return calls


def k4_family_script(rng):
    """A script of 1-3 curls and maybe a Whitney pair on the embedded K4, as
    acceptance criterion 9 draws them, and the drawing that chaining the
    public moves makes of it."""
    f, script = planar_k4(), []
    for _ in range(rng.randint(1, 3)):
        eid, sign = rng.randint(1, 6), rng.choice((-1, 1))
        t = f.polylines[eid].length * rng.uniform(0.3, 0.7)
        f = insert_curl(f, eid, t, sign)
        script.append(MoveRecord("curl", edge=eid, t=t, sign=sign))
    if rng.random() < 0.5:
        eid = rng.randint(1, 6)
        t = f.polylines[eid].length * 0.15
        f = whitney_pair(f, eid, t)
        script.append(MoveRecord("whitney_pair", edge=eid, t=t))
    return script, f


def test_apply_moves_validates_each_drawing_once(monkeypatch):
    # a script validates its input in full once, and so each attempt of a
    # perturbation and each splice that falls back; each splice output gets
    # a report derived from its input's, equal to the full validation of
    # that output.  The output of the public moves keeps its report, so
    # perturbing it validates only the perturbation's attempts
    calls = counted_validations(monkeypatch)
    splices = recorded_splices(monkeypatch)
    rng = random.Random(5)
    for _ in range(12):
        script, chained = k4_family_script(rng)
        seed = rng.randint(0, 10**6)
        calls.clear()
        perturbed = perturb(chained, seed)
        attempts = len(calls)
        calls.clear()
        splices.clear()
        g = apply_moves(planar_k4(), script)
        fallbacks = sum(fell_back for *_, fell_back in splices)
        assert len(calls) == 1 + fallbacks and len(splices) == len(script)
        for h, report, _ in splices:
            assert report_differences(report, validate_generic(h)) == []
        assert json.dumps(g.to_json_dict()) == \
            json.dumps(chained.to_json_dict())
        calls.clear()
        g = apply_moves(planar_k4(), script + [{"kind": "perturb",
                                                "seed": seed}])
        assert len(calls) == 1 + fallbacks + attempts
        assert json.dumps(g.to_json_dict()) == \
            json.dumps(perturbed.to_json_dict())
    calls.clear()
    k4 = planar_k4()
    assert apply_moves(k4, []) is k4 and calls == []


def splice_sites(f, rng):
    """Curl and Whitney-pair records on f: inside the first and the last
    segment of an edge, and at a random point of three edges."""
    edges = rng.sample([e.id for e in f.graph.edges], 3)
    cum = f.polylines[edges[0]].cum
    sites = [(edges[0], cum[1] / 2), (edges[0], (cum[-2] + cum[-1]) / 2)]
    sites += [(eid, f.polylines[eid].length * rng.uniform(0.05, 0.95))
              for eid in edges]
    return [MoveRecord("curl", edge=eid, t=t, sign=rng.choice((-1, 1)))
            if rng.random() < 0.6 else
            MoveRecord("whitney_pair", edge=eid, t=t) for eid, t in sites]


def between_curls():
    """standard_curve(3) and sites on the straight segments of its curled
    edge 3: after, between and before its two curls, so that its old
    crossings lie on both sides of a splice, or on one, and on the base of
    each curl, which the curl's own loop crosses.  The sites go tail-ward,
    so that each still lies where it was found."""
    f = standard_curve(3)
    pts, cum = f.polylines[3].points, f.polylines[3].cum
    straight = [i for i in range(len(pts) - 1)
                if pts[i][1] == pts[i + 1][1] == 0.0]
    return f, [MoveRecord(kind, edge=3, t=cum[i] + at * (cum[i + 1] - cum[i]),
                          sign=1)
               for i in reversed(straight)
               for kind, at in (("curl", 0.6), ("whitney_pair", 0.25))]


def test_splice_reports_match_full_validation(monkeypatch):
    splices = recorded_splices(monkeypatch)
    rng = random.Random(3)
    bent = [random_bent_kn(rng, n) for n in (4, 5, 6)]
    cases = [(f, splice_sites(f, rng)) for f in bent + [planar_k4()]]
    cases.append(between_curls())
    # reflected and far from the origin: bent K4, K4 and the curled curve;
    # (1e9, 1e9) is as far as their default tau stays above 2^-48 times
    # the largest coordinate, and at (1e12, 1e12) they are refused
    cases += [(fn(f), records) for f, records in (cases[0], cases[3], cases[4])
              for fn in (reflect,
                         lambda f: map_points(f, lambda p: (p[0] + 1e6,
                                                            p[1] - 1e6)),
                         lambda f: map_points(f, lambda p: (p[0] + 1e9,
                                                            p[1] + 1e9)))]
    for f, _ in cases[-9:]:
        far = map_points(f, lambda p: (p[0] + 1e12, p[1] + 1e12))
        assert validate_generic(far).violations[0][0] == \
            "tolerance-below-resolution"
    for f, records in cases:
        for rec in records:
            # each move starts from the report derived for the one before;
            # a splice too close to a vertex or a germ may be refused, or
            # break genericity, and then its report is checked all the same
            try:
                f = moves._move(f, rec, None)
            except MoveError:
                pass
    for g, report, _ in splices:
        assert report_differences(report, validate_generic(g)) == []
    assert sum(not fell_back for _, _, fell_back in splices) > 50
    assert sum(len(r.crossings) for _, r, _ in splices) > 400


def test_interior_splices_check_only_what_they_added(monkeypatch):
    # a curl or Whitney pair inside an edge that leaves the bounding box as
    # it is gets its report with no full validation and no whole-drawing
    # clearance scan (`moves.revalidate`); when its input came from an
    # earlier derived splice, it takes that input's bounding box from the
    # input's report and never computes it
    splices = recorded_splices(monkeypatch)
    whole = whole_drawing_scans(monkeypatch)
    rng = random.Random(8)
    derived = chained = 0
    for f in [random_bent_kn(rng, n) for n in (4, 5, 6)] + [planar_k4()]:
        validate_generic(f)         # kept on f: no move validates it
        spliced = False
        records = []
        for eid in rng.sample([e.id for e in f.graph.edges], 3):
            cum = f.polylines[eid].cum
            # off the first and last segment where the edge has more, the
            # Whitney pair head-ward of the curl, so that the curl's site
            # still lies where it was found
            if len(cum) > 3:
                k, j = sorted(rng.sample(range(1, len(cum) - 2), 2))
                sites = [cum[i] + rng.uniform(0.2, 0.8) * (cum[i + 1] - cum[i])
                         for i in (j, k)]
            else:
                sites = [cum[-1] * 0.7, cum[-1] * 0.3]
            records += [MoveRecord("whitney_pair", edge=eid, t=sites[0]),
                        MoveRecord("curl", edge=eid, t=sites[1],
                                   sign=rng.choice((-1, 1)))]
        for rec in records:
            whole.clear()
            try:
                g = moves._move(f, rec, None)
            except MoveError:
                continue
            if spliced:
                assert f._bbox is None
                chained += 1
            # the checks read a new drawing with g's tables, so that g's
            # own bounding box stays uncomputed for the next splice
            h = PlaneImmersion(g.graph, g.positions, g.polylines)
            if h.bbox == f.bbox:
                assert whole == [] and not splices[-1][2]
                derived += 1
            assert report_differences(splices[-1][1],
                                      validate_generic(h)) == []
            f, spliced = g, not splices[-1][2]
    assert derived >= 15 and chained >= 10


def splice_checker():
    """scripts/check_splice_reports.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / \
        "check_splice_reports.py"
    spec = importlib.util.spec_from_file_location("check_splice_reports",
                                                  path)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


def benchmark_outputs():
    """The outputs of the edit_dense benchmark scripts of seed 1."""
    return [apply_moves(immersion.immersion_from_json_dict(e["drawing"]),
                        e["moves"])
            for e in splice_checker().load_corpus().edit_dense(1)]


def chained_outputs():
    """Each drawing that a chain of curls, Whitney pairs and perturbations
    makes of bent K4 and K5 and of the embedded K4, and the kind of the
    move that made it."""
    rng, out = random.Random(21), []
    for f in [random_bent_kn(rng, n) for n in (4, 5)] + [planar_k4()]:
        for rec in splice_sites(f, rng) + [
                MoveRecord("perturb", seed=rng.randint(0, 10**6))]:
            try:
                f = apply_moves(f, [rec])
            except MoveError:       # no room at the site
                continue
            out.append((f, rec.kind))
    return out


def test_wu_of_a_move_output_validates_nothing(monkeypatch):
    # a move's output keeps its report, and wu reads it.  The edit_dense
    # scripts of seed 1 validate in full each input and each perturbation
    # attempt, 16 drawings, as when move outputs kept no report
    calls = counted_validations(monkeypatch)
    outputs = benchmark_outputs()
    assert len(calls) == 16 and len(outputs) == 9
    for g in outputs + [g for g, _ in chained_outputs()]:
        calls.clear()
        wu(g)
        assert calls == []


def test_a_curl_on_a_move_output_validates_nothing(monkeypatch):
    # the next move reads its input's kept report too: a curl on a move's
    # output validates nothing in full, unless its own splice falls back
    calls = counted_validations(monkeypatch)
    splices = recorded_splices(monkeypatch)
    curled = 0
    for g in benchmark_outputs() + [g for g, _ in chained_outputs()]:
        for eid in range(1, g.graph.num_edges + 1):
            calls.clear()
            try:
                insert_curl(g, eid, g.polylines[eid].length * 0.37, +1)
            except MoveError:
                continue
            assert len(calls) == splices[-1][2]
            curled += not calls
            break
    assert curled > 20


def test_move_outputs_keep_their_full_reports():
    # the report each move output keeps, a curl's, a Whitney pair's or a
    # perturbation's, equals a full validation of a new drawing with the
    # output's tables
    outputs = chained_outputs()
    assert {kind for _, kind in outputs} == {"curl", "whitney_pair",
                                             "perturb"}
    for g in benchmark_outputs() + [g for g, _ in outputs]:
        h = PlaneImmersion(g.graph, g.positions, g.polylines)
        assert report_differences(g._reports[None], validate_generic(h)) == []
    assert len(outputs) > 15


def test_splice_checker_compares_with_a_new_validation(monkeypatch, capsys):
    # scripts/check_splice_reports.py checks each derived report against a
    # full validation of its own: a derived report one ulp off in epsilon
    # fails it, by name
    checker = splice_checker()
    derive = moves.revalidate

    def one_ulp_up(g, f, report, tol=None):
        out = derive(g, f, report, tol)
        return out._replace(epsilon=math.nextafter(out.epsilon, math.inf))

    def a_copy(g, f, report, tol=None):
        return derive(g, f, report, tol)._replace()

    # and a derived report that its output does not keep fails it too
    for wrong, differ in ((one_ulp_up, ["epsilon"]), (a_copy, ["kept"])):
        monkeypatch.setattr(moves, "revalidate", wrong)
        assert checker.main(["--seeds", "1"]) == 1
        line = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert line["seed"] == 1 and line["differ"] == differ
        assert moves.revalidate is wrong
    # and it counts each splice that falls back to a full validation: with
    # the derivation forced to give up, every splice does
    monkeypatch.setattr(moves, "revalidate", derive)
    monkeypatch.setattr(genericity, "_splice_report", lambda *args: None)
    assert checker.main(["--seeds", "1"]) == 0
    scripts, bends = map(json.loads, capsys.readouterr().out.splitlines())
    assert scripts["fallbacks"] == scripts["splices"] == 12
    assert bends["derived"] == 0 and bends["fallbacks"] == bends["splices"]


def test_genericity_report_has_one_owner():
    # the genericity report has one owner: `moves` imports no underscore
    # name from a planetube module, `genericity` imports nothing from
    # `immersion`, and `immersion.validate_generic`, which the benchmark
    # traces, is the genericity module's validator
    src = Path(moves.__file__).parent
    for module, banned in (("moves", lambda m, name: name.startswith("_")),
                           ("genericity",
                            lambda m, name: "immersion" in (m, name))):
        tree = ast.parse((src / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.startswith("planetube")):
                m = (node.module or "").rpartition(".")[2]
                assert not [a.name for a in node.names if banned(m, a.name)]
    assert immersion.validate_generic is genericity.validate_generic


def test_splice_fallbacks_match_full_validation(monkeypatch):
    splices = recorded_splices(monkeypatch)
    k4 = planar_k4()
    low = map_points(k4, lambda p: (p[0] - 3.0, p[1] - 6.0))
    fixed = Tolerances(tau_abs=1e-6)
    curl = MoveRecord("curl", edge=1, t=3.0, sign=-1)
    # the curl below edge 1 grows the bounding box: tau changes at the
    # default tolerance, and so does the largest absolute coordinate where
    # edge 1 sets it (y = -6), so those fall back; at a fixed tau with the
    # largest coordinate unchanged the report is still derived
    for f, tol, fell_back in ((k4, None, True), (low, fixed, True),
                              (k4, fixed, False)):
        splices.clear()
        g = apply_moves(f, [curl], tol)
        assert g.bbox != f.bbox
        (h, report, fallback), = splices
        assert fallback == fell_back
        assert report_differences(report, validate_generic(h, tol)) == []
    # a curl next to vertex 1 whose own loop leaves a scale too small for
    # the germ angles there is refused up front; its splice, made here,
    # gets a full validation's failing report, as every splice that does
    # not pass does, whether tau changes or not
    at_k4 = Tolerances(tau_abs=validate_generic(k4).tau)
    for t in (4e-4, 5e-4):
        for tol in (None, at_k4):
            report = validate_generic(k4, tol)
            pl, i, u = moves._locate(k4, 1, t)
            r = moves._local_clearance(report, pl, 1, i, t) / 4.0
            chain = kink_waypoints(pl.point_at(t), u, r, +1)
            g = PlaneImmersion(k4.graph, k4.positions, {
                **k4.polylines,
                1: Polyline(pl.points[:i + 1] + chain + pl.points[i + 1:])})
            with pytest.raises(MoveError, match="insufficient clearance for "
                                                "a curl"):
                insert_curl(k4, 1, t, +1, tol)
            derived = moves.revalidate(g, k4, report, tol)
            assert not derived.passed
            assert report_differences(derived, validate_generic(g, tol)) == []
            assert splices[-1][2]
    # splices built by hand at a fixed tau, one for each check of the new
    # features, fall back; the last two get derived reports: a splice in
    # the only segment of an edge, which turns its germs (step (e) runs
    # again), and one whose least new clearance term is not below the
    # input's epsilon (`_min_clearance` of the output)
    whole = whole_drawing_scans(monkeypatch)
    hairpin = drawing({1: (-1.0, 0.0), 2: (2.0, 0.0)}, [(1, 2)],
                      {1: [(0.0, 0.0), (0.1, 0.1), (1.0, 0.0)]})
    shallow = drawing({1: (-1.0, 0.0), 2: (-2.0, -1.0), 3: (-2.0, -0.004),
                       4: (2.0, 0.004)}, [(1, 2), (3, 4), (2, 3)],
                      {1: [(0.6, 0.0), (0.6, -1.0)]})
    for kind, f, eid, i, chain, tau in (
            # a new crossing within tau of the old bend (0, 0), which no
            # clearance term measures
            ("crossing-at-bend", hairpin, 1, 2,
             [(-0.101, -0.1), (0.5, -0.5)], 1e-3),
            # a chain bend within tau of the old crossing (0, 0), with its
            # new crossings at least 50 tau from it and from each other
            ("crossing-at-bend", shallow, 1, 1,
             [(-5e-6, 2e-6), (-0.5, -0.002), (-0.5, -0.5)], 1e-5),
            ("crossing-at-vertex", hairpin, 1, 2,
             [(-0.9995, 0.5), (-0.9995, -0.5), (0.5, -0.5)], 1e-3),
            ("triple-point", shallow, 1, 1, [(3e-6, 0.3), (3e-6, -0.3)],
             1e-5),
            (None, k4, 6, 0, [(3.05, 3.3)], 1e-5),
            ("least term", k4, 1, 0, [(3.0, -0.001)], 1e-5)):
        tol = Tolerances(tau_abs=tau)
        report = validate_generic(f, tol)
        pts = f.polylines[eid].points
        g = PlaneImmersion(f.graph, f.positions, {
            **f.polylines, eid: Polyline(pts[:i + 1] + chain + pts[i + 1:])})
        whole.clear()
        derived, scans = moves.revalidate(g, f, report, tol), list(whole)
        full = validate_generic(g, tol)
        assert report_differences(derived, full) == []
        fell_back = kind not in (None, "least term")
        assert splices[-1][2] == fell_back
        assert [v for v, _ in full.violations][:1] == \
            ([kind] if fell_back else [])
        if not fell_back:
            tail = f.graph.edge(eid).tail
            assert derived.germs[tail][eid] != report.germs[tail][eid]
            assert scans == (["_min_clearance"] if kind else [])


def test_apply_moves_rejects_non_generic_input():
    f = drawing({1: (0, 0), 2: (2, 0)}, [(1, 2)], {1: [(1, 0), (0.5, 0)]})
    t = 0.25
    for rec, move, text in (
            (MoveRecord("curl", edge=1, t=t, sign=1),
             lambda: insert_curl(f, 1, t, 1),
             "cannot move a non-generic immersion: "),
            (MoveRecord("whitney_pair", edge=1, t=t),
             lambda: whitney_pair(f, 1, t),
             "cannot move a non-generic immersion: "),
            (MoveRecord("perturb", seed=3), lambda: perturb(f, 3),
             "cannot perturb a non-generic immersion: ")):
        with pytest.raises(MoveError) as direct:
            move()
        with pytest.raises(MoveError) as scripted:
            apply_moves(f, [rec, rec])
        assert str(scripted.value) == str(direct.value)
        assert str(direct.value) == \
            text + str(validate_generic(f).violations)


def test_pruned_local_clearance_matches_every_segment():
    rng = random.Random(11)
    nearer = 0
    for n in (4, 5, 6):
        f = random_bent_kn(rng, n)
        report = validate_generic(f)
        assert report.passed
        sites = [(e.id, f.polylines[e.id].length * k / 23)
                 for e in f.graph.edges for k in range(1, 23)]
        # beside each crossing, on both strands, the other strand is nearer
        # than epsilon
        for c in report.crossings:
            for p in (c.first, c.second):
                sites += [(p.edge, p.arclength + k * report.epsilon / 4)
                          for k in (-3, -1, 0, 1, 3)]
        for eid, t in sites:
            pl, i, _ = moves._locate(f, eid, t)
            center = pl.point_at(t)
            brute = min(t - pl.cum[i], pl.cum[i + 1] - t)
            for e in f.graph.edges:
                pts = f.polylines[e.id].points
                for j in range(len(pts) - 1):
                    if (e.id, j) != (eid, i):
                        brute = min(brute, point_segment_distance(
                            center, pts[j], pts[j + 1]))
            assert moves._local_clearance(report, pl, eid, i, t) == \
                min(report.epsilon, brute)
            nearer += brute < report.epsilon
    assert nearer > 100
