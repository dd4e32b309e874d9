import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from planetube import moves
from planetube.geometry import point_segment_distance
from planetube.immersion import (validate_generic, turning_number,
                                 trace_cycle, standard_curve, standard_star,
                                 planar_k4)
from planetube.graphs import EdgeCycle, fundamental_cycle
from planetube.invariant import wu, prepare, equivalent
from planetube.moves import (MoveError, MoveRecord, insert_curl,
                             whitney_pair, perturb, apply_moves)

from conftest import drawing, random_bent_kn


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


def counted_validations(monkeypatch):
    """List that records each drawing `moves` validates from now on."""
    calls = []
    real = moves.validate_generic

    def counting(f, tol=None):
        calls.append(f)
        return real(f, tol)

    monkeypatch.setattr(moves, "validate_generic", counting)
    return calls


def k4_family_script(rng):
    """A script of 1-3 curls and maybe a Whitney pair on the embedded K4, as
    scripts/run_k4_family.py draws them, and the drawing that chaining the
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
    calls = counted_validations(monkeypatch)
    rng = random.Random(5)
    for _ in range(12):
        script, chained = k4_family_script(rng)
        seed = rng.randint(0, 10**6)
        perturbed = perturb(chained, seed)
        calls.clear()
        g = apply_moves(planar_k4(), script)
        assert len(calls) == len(script) + 1
        assert json.dumps(g.to_json_dict()) == \
            json.dumps(chained.to_json_dict())
        g = apply_moves(planar_k4(), script + [{"kind": "perturb",
                                                "seed": seed}])
        assert json.dumps(g.to_json_dict()) == \
            json.dumps(perturbed.to_json_dict())
    calls.clear()
    k4 = planar_k4()
    assert apply_moves(k4, []) is k4 and calls == []


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
            assert moves._local_clearance(f, report, eid, i, t) == \
                min(report.epsilon, brute)
            nearer += brute < report.epsilon
    assert nearer > 100
