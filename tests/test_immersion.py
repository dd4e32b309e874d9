import copy
import math
import pickle
import random
from itertools import accumulate

import pytest

from planetube import geometry as geo, genericity
from planetube.geometry import Polyline, kink_waypoints
from planetube.graphs import EdgeCycle, complete_graph, star, validate_graph
from planetube.genericity import (ImmersionError, NotGenericError, Tolerances,
                                  CyclicOrder, validate_generic,
                                  find_crossings, _read_edges, _min_clearance,
                                  _pairs_meeting, _edge_pass, ANGLE_TOL)
from planetube.immersion import (PlaneImmersion, immersion_from_json_dict,
                                 restrict, reflect, map_points,
                                 standard_curve, standard_star, planar_k4,
                                 to_svg)
from planetube.invariant import wu
from planetube.moves import MoveError, insert_curl, whitney_pair
from planetube.oracles import (all_pairs_crossings, min_clearance_oracle,
                               report_differences, trace_cycle,
                               turning_number)

from conftest import (resample_midpoints, straight_line_immersion, random_k4,
                      drawing, random_bent_kn)


def test_polylines_must_match_endpoints():
    g = validate_graph(2, [[1, 2]])
    with pytest.raises(ImmersionError, match="start at tail"):
        PlaneImmersion(g, {1: (0, 0), 2: (1, 0)},
                       {1: Polyline([(0.1, 0), (1, 0)])})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ImmersionError, match="non-finite"):
            PlaneImmersion(g, {1: (0, 0), 2: (1, 0)},
                           {1: Polyline([(0, 0), (bad, 1), (1, 0)])})
        with pytest.raises(ImmersionError, match="non-finite"):
            PlaneImmersion(g, {1: (0, bad), 2: (1, 0)},
                           {1: Polyline([(0, bad), (1, 0)])})


def test_overflowing_edge_length_is_non_finite():
    # every coordinate is finite, but the edge is longer than the largest
    # float: the edge is rejected by name, as for a non-finite coordinate
    g = validate_graph(2, [[1, 2]])
    with pytest.raises(ImmersionError, match="edge 1: non-finite coordinate"):
        PlaneImmersion(g, {1: (-1e308, 0.0), 2: (1e308, 0.0)},
                       {1: Polyline([(-1e308, 0.0), (1e308, 0.0)])})
    with pytest.raises(ImmersionError, match="edge 1: non-finite coordinate"):
        PlaneImmersion(g, {1: (0.0, 0.0), 2: (1.0, 0.0)},
                       {1: Polyline([(0.0, 0.0), (1e308, 1e308),
                                     (-1e308, 1e308), (1.0, 0.0)])})
    huge = PlaneImmersion(g, {1: (-1e300, 0.0), 2: (1e300, 0.0)},
                          {1: Polyline([(-1e300, 0.0), (1e300, 0.0)])})
    assert huge.polylines[1].length == 2e300


def test_polyline_points_are_pairs():
    for p in ((0, 0, 5), (1,), 5):
        for points in ([(0, 0), p, (1, 1)], iter([(0, 0), p, (1, 1)])):
            with pytest.raises(ValueError) as exc:
                Polyline(points)
            assert str(exc.value) == \
                f"polyline point {p!r} is not an (x, y) pair"
    # an int past the floats is refused as a ValueError naming its point
    for p in ((10 ** 400, 0.0), (0, -10 ** 400)):
        with pytest.raises(ValueError) as exc:
            Polyline([p, (0.0, 0.0)])
        assert str(exc.value) == f"polyline point {p!r} has a coordinate " \
            "too large for a float"
    assert Polyline([[0, 0], ("1.5", 2)]).points == [(0.0, 0.0), (1.5, 2.0)]


def test_polyline_cum_is_the_stepwise_sum_of_dist():
    # bit for bit, overflowing and near-overflowing coordinates included
    rng = random.Random(17)
    cases = [[(-1e300, 0.0), (1e300, 0.0)], [(-1e308, 0.0), (1e308, 0.0)],
             [(0.0, 0.0), (1e308, 1e308), (-1e308, 1e308), (1.0, 0.0)],
             [(0.0, 0.0), (0.0, 0.0), (-0.0, 3.0)]]
    cases += [[(rng.uniform(-1, 1) * scale + shift,
                rng.uniform(-1, 1) * scale - shift) for _ in range(40)]
              for scale in (1e-9, 1.0, 1e6) for shift in (0.0, 1e12)]
    cases += [pl.points for pl in random_bent_kn(rng, 5).polylines.values()]
    for pts in cases:
        cum = [0.0]
        for a, b in zip(pts, pts[1:]):
            cum.append(cum[-1] + geo.dist(a, b))
        pl = Polyline(pts)
        assert list(map(float.hex, pl.cum)) == list(map(float.hex, cum))
        assert pl.length.hex() == cum[-1].hex()


def _bits(x):
    """x with every float written as float.hex: equal bits, signs of zero
    and NaN included, read equal."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    return x


def test_kernels_match_the_helper_formulas():
    # the inlined kernels against the same formulas composed from the
    # small helpers, bit for bit, on random points at several scales and
    # offsets, zero-length, axis-parallel and collinear segments, -0.0
    # coordinates, projections at and past the clamp bounds (t = -0.0 and a
    # NaN t at 1e300 included), and 1e300 magnitudes
    def turn(u, w):
        return math.atan2(geo.cross(u, w), geo.dot(u, w))

    def distance(p, a, b):
        ab = geo.sub(b, a)
        L2 = geo.dot(ab, ab)
        if L2 == 0.0:
            return geo.dist(p, a)
        t = max(0.0, min(1.0, geo.dot(geo.sub(p, a), ab) / L2))
        return geo.dist(p, geo.add(a, geo.scale(ab, t)))

    def meet(a, b, c, d):
        r, s = geo.sub(b, a), geo.sub(d, c)
        denom = geo.cross(r, s)
        if denom == 0.0:
            return None
        qp = geo.sub(c, a)
        t, u = geo.cross(qp, s) / denom, geo.cross(qp, r) / denom
        if 0.0 < t < 1.0 and 0.0 < u < 1.0:
            return (geo.add(a, geo.scale(r, t)), t, u)
        return None

    rng = random.Random(23)
    axes = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (-1.0, -0.0),
            (-0.0, 1.0), (0.0, -0.0), (-0.0, -0.0)]
    units = axes + [geo.unit((rng.gauss(0, 1), rng.gauss(0, 1)))
                    for _ in range(40)]
    for u in units:
        for w in units:
            assert _bits(geo.turn_angle(u, w)) == _bits(turn(u, w))
    quads = [((0.0, 0.0), (1.0, 0.0), (0.5, -1.0), (0.5, 1.0)),
             ((0.0, 0.0), (0.0, 0.0), (-0.0, 1.0), (0.0, -1.0)),
             ((0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (3.0, 0.0)),
             ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)),
             ((-0.0, -0.0), (0.0, 1.0), (-1.0, 0.5), (1.0, 0.5)),
             ((0.0, 0.0), (1.0, -0.0), (-0.0, 1.0), (2.0, 0.0)),
             ((-1e300, -1e300), (1e300, 1e300), (1e300, 0.0), (0.0, 1e300)),
             ((-1e300, 0.0), (1e300, 0.0), (0.0, -1e300), (0.0, 1e300))]
    for scale in (1e-9, 1.0, 1e6, 1e300):
        for shift in (0.0, 1e12):
            quads += [tuple((rng.uniform(-1, 1) * scale + shift,
                             rng.uniform(-1, 1) * scale - shift)
                            for _ in range(4)) for _ in range(60)]
    for a, b, c, d in quads:
        assert _bits(geo.segment_intersection(a, b, c, d)) == \
            _bits(meet(a, b, c, d))
        for p, q, r in ((a, b, c), (a, c, d), (c, a, b), (d, a, a), (a, b, a),
                        (b, a, b)):
            assert _bits(geo.point_segment_distance(p, q, r)) == \
                _bits(distance(p, q, r))
    # t at -0.0, 0, 1 and past both ends, and a NaN t
    a, b = (0.0, 0.0), (1.0, -0.0)
    for p in ((-0.0, 1.0), (0.0, 1.0), (1.0, 1.0), (-2.0, 1.0), (3.0, -1.0)):
        assert _bits(geo.point_segment_distance(p, a, b)) == \
            _bits(distance(p, a, b))
    big = ((1e300, 0.0), (-1e300, -1e300), (1e300, 1e300))
    assert math.isnan(geo.dot(geo.sub(big[0], big[1]),
                              geo.sub(big[2], big[1]))
                      / geo.dot(geo.sub(big[2], big[1]),
                                geo.sub(big[2], big[1])))
    assert _bits(geo.point_segment_distance(*big)) == _bits(distance(*big))


def test_fixtures_are_generic():
    for f in (standard_curve(0), standard_curve(3), standard_star((1, 2, 3)),
              standard_star((2, 1, 4, 3)), planar_k4()):
        report = validate_generic(f)
        assert report.passed, report.violations
        assert report.epsilon > 0


def kinds(report):
    return {kind for kind, _ in report.violations}


# 99 to 399 curls: 600 to 2400 segments
LARGE_R = (100, -100, 400)


def test_standard_curve_crossing_count():
    for r in (*range(-12, 13), *LARGE_R):
        report = validate_generic(standard_curve(r))
        assert len(report.crossings) == abs(r - 1)


def test_doubling_back_is_not_generic():
    g = validate_graph(2, [[1, 2]])
    f = PlaneImmersion(g, {1: (0, 0), 2: (2, 0)},
                       {1: Polyline([(0, 0), (1, 0), (0.5, 0), (2, 0)])})
    report = validate_generic(f)
    assert not report.passed
    assert any(kind == "not-an-immersion" for kind, _ in report.violations)


def test_strand_through_vertex_is_not_generic():
    # edge 3 of the triangle passes exactly through vertex 1
    g = complete_graph(3)
    pos = {1: (1.0, 1.0), 2: (0.0, 0.0), 3: (2.0, 2.0)}
    f = PlaneImmersion(g, pos, {
        1: Polyline([pos[1], (0.0, 2.0), pos[2]]),
        2: Polyline([pos[1], (2.0, 0.0), pos[3]]),
        3: Polyline([pos[2], pos[3]]),
    })
    report = validate_generic(f)
    assert not report.passed
    assert "near-contact" in kinds(report)


def test_coincident_germs_are_not_generic():
    f = standard_star((1, 2, 3), germ_angles={1: 0.0, 2: 1e-9, 3: 2.0})
    report = validate_generic(f)
    assert any(kind == "germ-collision" for kind, _ in report.violations)


def test_near_parallel_crossing_flagged():
    g = validate_graph(4, [[1, 2], [3, 4], [1, 3], [2, 4]])
    pos = {1: (0.0, 0.0), 2: (10.0, 0.0), 3: (0.0, 1e-8), 4: (10.0, -1e-8)}
    f = straight_line_immersion(g, pos)
    report = validate_generic(f)
    assert not report.passed
    assert "non-transversal" in kinds(report)


# one drawing per violation kind: (kind, message text, builder)
VIOLATION_DRAWINGS = [
    ("degenerate-segment", "segment 1",
     lambda: drawing({1: (0, 0), 2: (2, 0)}, [(1, 2)], {1: [(1, 0), (1, 0)]})),
    # a bend on its own vertex: the germ there has length 0 and no direction
    ("degenerate-segment", "segment 0",
     lambda: drawing({1: (0, 0), 2: (2, 0)}, [(1, 2)], {1: [(0, 0), (1, 1)]})),
    # edge (3,4) ends on edge (1,2)
    ("near-contact", "edges 1/3",
     lambda: drawing({1: (0, 0), 2: (2, 0), 3: (1, 2), 4: (1, 0)},
                     [(1, 2), (2, 3), (3, 4)])),
    ("non-transversal", "edges 1/2",
     lambda: drawing({1: (0, 0), 2: (10, 0), 3: (0, 1e-8), 4: (10, -1e-8)},
                     [(1, 2), (3, 4), (1, 3), (2, 4)])),
    ("crossing-at-vertex", "near vertex",
     lambda: drawing({1: (0, 0), 2: (2, 0), 3: (1e-7, -1), 4: (1e-7, 1)},
                     [(1, 2), (3, 4), (2, 4)])),
    ("crossing-at-bend", "near bend (1.0, 0.0)",
     lambda: drawing({1: (0, 0), 2: (2, 1), 3: (1 + 1e-7, -1),
                      4: (1 + 1e-7, 2)},
                     [(1, 2), (3, 4), (2, 4)], {1: [(1, 0)]})),
    # three straight edges through the origin
    ("triple-point", "coincide near",
     lambda: drawing({1: (-1, 0), 2: (1, 0), 3: (0, -1), 4: (0, 1),
                      5: (-1, -1), 6: (1, 1)},
                     [(1, 2), (3, 4), (5, 6), (2, 6), (4, 6)])),
    # a first segment longer than tau but shorter than 2 tau
    ("no-scale", "clearances",
     lambda: drawing({1: (0, 0), 2: (3, 4)}, [(1, 2)], {1: [(7.5e-6, 0)]})),
    # germs 1e-5 apart: distinct, but too close for any pair scale
    ("no-scale", "germ angles",
     lambda: standard_star((1, 2, 3), germ_angles={1: 0.0, 2: 1e-5, 3: 2.0})),
]


@pytest.mark.parametrize("kind, message, build", VIOLATION_DRAWINGS)
def test_each_violation_kind_is_named(kind, message, build):
    report = validate_generic(build())
    assert not report.passed and report.epsilon == 0.0
    assert any(k == kind and message in text
               for k, text in report.violations), report.violations


def test_shallow_germs_alone_leave_no_scale():
    # germs 2e-5 apart at vertex 1, each of length 1 before the strands
    # part: every clearance is large, only the germ angle is too shallow
    a = 2e-5
    f = drawing({1: (0, 0), 2: (2, -1), 3: (2, 1)}, [(1, 2), (1, 3)],
                {1: [(1, 0)], 2: [(math.cos(a), math.sin(a))]})
    assert validate_generic(f).violations == [
        ("no-scale", "germ angles too shallow for the drawing tolerance")]
    # each germ is 1 long: the clearance alone would give epsilon 0.5
    assert validate_generic(f, Tolerances(tau_abs=1e-7)).epsilon == 0.5


def test_near_contact_names_where_strands_touch():
    # edge (3,4) ends on edge (1,2) at (1, 0); the crossing-at-bend drawing
    # bends edge 1 at (1, 0), 1e-7 beside the straight edge 2
    ends_on_edge, at_bend = (build for kind, _, build in VIOLATION_DRAWINGS
                             if kind in ("near-contact", "crossing-at-bend"))
    assert ("near-contact", "edges 1/3 touch without transversal crossing "
            "near (1.0, 0.0)") in validate_generic(ends_on_edge()).violations
    assert [text for kind, text in validate_generic(at_bend()).violations
            if kind == "near-contact"] == [
        "edges 1/2 touch without transversal crossing near (1.0, 0.0)"]


def pruning_cases():
    """(drawing, tau) pairs for the pruned scans: random bent K4-K6, plain
    and snapped to a grid, at their own tau, one at a coarse tau and one at
    tau 1e-12; parallel and collinear segments just inside and outside tau
    and 2 tau; a zero-length interior segment beside another strand; a
    ladder of zero-width and zero-height boxes with ties on the left edge;
    curled drawings; and the drawing of every violation kind.  Each comes
    as drawn, translated by (1e6, -1e6) and by (1e12, 1e12), and those two
    reflected, where rounding is coarse against tau.  Sizes keep the
    all-pairs oracle to a few seconds."""
    rng = random.Random(7)
    k4, k4_snapped = random_bent_kn(rng, 4), random_bent_kn(rng, 4, snap=0.5)
    k5_snapped, k6 = random_bent_kn(rng, 5, snap=0.5), random_bent_kn(rng, 6)
    # curled drawings, where half the arclength gap of a self-crossing sets
    # the clearance: 0.32, 0.645 and 0.0593
    flat = planar_k4()
    curled = (standard_curve(5),
              insert_curl(flat, 1, flat.polylines[1].length / 2, +1),
              whitney_pair(insert_curl(k4, 5, k4.polylines[5].length / 2, +1),
                           6, k4.polylines[6].length / 2))
    cases = [(f, Tolerances().tau_for(f.bbox))
             for f in (k4, k4_snapped, k5_snapped, k6, *curled)]
    cases += [(k4, 0.05), (k4, 1e-12)]
    tau = 1e-3
    for gap in (0.5, 0.999, 1.001, 1.999, 2.0, 2.001):
        d = gap * tau
        for a, b, c, e in (((0, 0), (1, 0), (0.5, d), (1.5, d)),
                           ((0, 0), (0, 1), (d, 0.5), (d, 1.5)),
                           ((0, 0), (1, 0), (1 + d, 0), (2, 0)),
                           ((0, 0), (1, 0), (1 + d, d), (2, 1))):
            cases.append((drawing({1: a, 2: b, 3: c, 4: e},
                                  [(1, 2), (3, 4), (2, 4)],
                                  {3: [(3, 3)]}), tau))
    # edge 1 has a segment of length 0 at (1, 0), which has no line
    for gap in (0.5, 2.5):
        cases.append((drawing({1: (0, 0), 2: (2, 0), 3: (0.5, gap * tau),
                               4: (1.5, gap * tau)}, [(1, 2), (3, 4), (2, 4)],
                              {1: [(1, 0), (1, 0)], 3: [(3, 3)]}), tau))
    # near (1e12, 1e12) strands about 6 tau apart, at tau 1e-5, where
    # `point_segment_distance` rounds their distance below tau: a reject
    # threshold of 2 tau alone would skip this near-contact
    o = 1e12
    cases.append((drawing({1: (o, o), 2: (o + 0.28, o + 0.96),
                           3: (o + 0.07, o + 0.24), 4: (o + 0.21, o + 0.72)},
                          [(1, 2), (3, 4), (2, 4)], {3: [(o + 3, o + 3)]}),
                  1e-5))
    ladder = {k + 1: (0.0, float(k)) for k in range(4)}
    ladder.update({k + 5: (1.0, float(k)) for k in range(4)})
    ladder.update({9: (0.5, -1.0), 10: (0.5, 4.0), 11: (1 + 0.999 * tau, -1.0),
                   12: (1 + 0.999 * tau, 4.0)})
    rungs = [(k, k + 4) for k in range(1, 5)]
    rails = [(k, k + 1) for k in (1, 2, 3, 5, 6, 7)]
    cases.append((drawing(ladder, rungs + rails + [(9, 10), (11, 12), (1, 9),
                                                   (8, 12)]), tau))
    for _, _, build in VIOLATION_DRAWINGS:
        f = build()
        cases.append((f, Tolerances().tau_for(f.bbox)))
    moved = [(map_points(f, lambda p: (p[0] + dx, p[1] + dy)), tau)
             for dx, dy in ((1e6, -1e6), (1e12, 1e12)) for f, tau in cases]
    return cases + moved + [(reflect(f), tau) for f, tau in moved]


def test_pruned_scans_match_all_pairs(monkeypatch):
    # the oracles read their segments from the points, so they agree with
    # the validator with its edge pass broken
    cases = []
    for f, tau in pruning_cases():
        index = _read_edges(f, tau)[0]
        crossings, _, violations = find_crossings(index)
        cases.append((f, tau, crossings, violations,
                      _min_clearance(f, index, crossings)))

    def broken(*args):
        raise AssertionError("an oracle read the validator's rows")

    monkeypatch.setattr(genericity, "_edge_pass", broken)
    for f, tau, crossings, violations, best in cases:
        assert (crossings, violations) == all_pairs_crossings(f, tau)
        assert best == min_clearance_oracle(f, crossings)


def test_sweep_drops_graph_neighbours(monkeypatch):
    # only pairs that may fire reach the pair test: no consecutive
    # segments of one edge, no segments that end at a common vertex
    seen = []

    def check_pair(s, t, *rest):
        seen.append((s, t))
        return pair_test(s, t, *rest)

    pair_test = genericity._check_pair
    monkeypatch.setattr(genericity, "_check_pair", check_pair)
    for f, tau in pruning_cases():
        find_crossings(_read_edges(f, tau)[0])
    assert seen
    for s, t in seen:
        assert not (s.edge == t.edge and abs(t.index - s.index) <= 1)
        assert not s.ends & t.ends


def test_splice_query_finds_the_sweeps_pairs(monkeypatch):
    # the pairs a splice tests for the boxes of one edge are the pairs the
    # full sweep keeps that have a segment of that edge
    seen = []

    def check_pair(s, t, *rest):
        seen.append((s, t))
        return pair_test(s, t, *rest)

    pair_test = genericity._check_pair
    monkeypatch.setattr(genericity, "_check_pair", check_pair)
    found = 0
    for f, tau in pruning_cases():
        seen.clear()
        index = _read_edges(f, tau)[0]
        find_crossings(index)
        for e in f.graph.edges:
            fresh = [box for box in index.boxes if box[4].edge == e.id]
            pairs = _pairs_meeting(index, fresh)
            assert pairs == [(s, t) for s, t in seen
                             if e.id in (s.edge, t.edge)]
            found += len(pairs)
    assert found > 1000


def test_edge_pass_matches_the_plain_formulas():
    # the one pass per edge against the formulas it fuses, on random bent
    # K_n with curls and their reflections and on the pruning cases (far
    # translations and zero-length segments among them): each row's box is
    # the min and max of its ends widened by tau, its length is
    # `geometry.dist`, the turn sum adds `geometry.turn_angle` over the
    # bends tail to head, the violations come in step (a)'s order, and the
    # germs are the angles (`geometry.angle_of`) of the first segment's
    # direction and of the last one's reversed, None at length 0
    rng = random.Random(15)
    cases, curls = pruning_cases(), 0
    for n in (3, 4, 5):
        f = random_bent_kn(rng, n)
        for eid in range(1, n + 1):
            try:
                f = insert_curl(f, eid, f.polylines[eid].length / 2,
                                (-1) ** eid)
            except MoveError:       # no room at the middle of the edge
                continue
            curls += 1
        cases += [(g, Tolerances().tau_for(g.bbox)) for g in (f, reflect(f))]
    assert curls >= 3
    # an edge that doubles back, then runs through a zero-length segment,
    # whose two bends have no turn
    cases.append((drawing({1: (0, 0), 2: (2, 0)}, [(1, 2)],
                          {1: [(1, 0), (0.5, 0), (0.5, 0), (1.5, 0)]}), 1e-6))
    seen = {"degenerate-segment": 0, "not-an-immersion": 0, "bends": 0}
    for f, tau in cases:
        for e in f.graph.edges:
            pl = f.polylines[e.id]
            pts, last = pl.points, len(pl.points) - 2
            violations = []
            rows, boxes, total, tail, head = _edge_pass(e, pl, tau,
                                                        violations)
            assert [box[4] for box in boxes] == rows
            dirs, degenerate = [], []
            for i, (a, b) in enumerate(zip(pts, pts[1:])):
                s, n = rows[i], geo.dist(a, b)
                ends = {e.tail} if i == 0 else set()
                ends |= {e.head} if i == last else set()
                assert s[:7] == (e.id, i, a, b, ends, pl.cum[i],
                                 pl.cum[i + 1])
                assert s.length.hex() == n.hex()
                assert repr(s.u) == repr(geo.unit(geo.sub(b, a)) if n
                                         else None)
                assert repr(boxes[i][:4]) == repr((
                    min(a[0], b[0]) - tau, max(a[0], b[0]) + tau,
                    min(a[1], b[1]) - tau, max(a[1], b[1]) + tau))
                dirs.append(s.u)
                if n <= tau:
                    degenerate.append(("degenerate-segment",
                                       f"edge {e.id} segment {i} at {a}"))
            turns, back = [], []
            for k, (u, w) in enumerate(zip(dirs, dirs[1:]), start=1):
                if u is not None and w is not None:
                    turns.append(geo.turn_angle(u, w))
                    if abs(turns[-1]) >= math.pi - ANGLE_TOL:
                        back.append(("not-an-immersion", f"edge {e.id} "
                                     f"doubles back at bend {pts[k]}"))
            *_, stepwise = accumulate(turns, initial=0.0)
            assert total.hex() == stepwise.hex()
            assert violations == degenerate + back
            a, b = pts[-1], pts[-2]
            germs = (dirs[0], geo.unit(geo.sub(b, a)) if geo.dist(a, b)
                     else None)
            assert repr((tail, head)) == repr(tuple(
                u and geo.angle_of(u) for u in germs))
            for kind, _ in violations:
                seen[kind] += 1
            seen["bends"] += len(turns)
    assert min(seen.values()) > 0 and seen["bends"] > 5000, seen


def test_cyclic_order_anchors():
    orders = validate_generic(planar_k4()).cyclic_orders
    assert orders[4].edges == (3, 5, 6)
    assert orders[1].edges == (1, 3, 2)


def test_reflection_reverses_cyclic_orders():
    f = planar_k4()
    orders = validate_generic(f).cyclic_orders
    mirrored = validate_generic(reflect(f)).cyclic_orders
    for v in f.graph.vertices():
        assert mirrored[v] == orders[v].mirrored()


def test_cyclic_order_rotation_invariance():
    assert CyclicOrder.from_sequence(1, (3, 1, 2)) == \
        CyclicOrder.from_sequence(1, (1, 2, 3))


def test_turning_number_squares():
    sq = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    assert turning_number(sq) == 1
    assert turning_number(list(reversed(sq))) == -1
    with pytest.raises(ImmersionError):
        turning_number([(0, 0), (1, 0), (0, 0)])  # straight back


def test_standard_curve_turning_matches_r():
    for r in (*range(-12, 13), *LARGE_R):
        f = standard_curve(r)
        cycle = EdgeCycle(f.graph, ((3, 1), (2, -1), (1, 1)))
        assert turning_number(trace_cycle(f, cycle)) == r
    for r in LARGE_R:
        assert wu(standard_curve(r)).coords == (r,)


def test_kink_template_adds_one_turn():
    # closed square with one positive curl: turning 2
    pts = [(0.0, 0.0)]
    pts += kink_waypoints((2.0, 0.0), (1.0, 0.0), 0.3, +1)
    pts += [(4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]
    assert turning_number(pts) == 2


def test_validate_invariant_under_similarity(k4):
    base = validate_generic(k4)
    th = 0.83

    def sim(p):
        return (2.0 * (p[0] * math.cos(th) - p[1] * math.sin(th)) + 5.0,
                2.0 * (p[0] * math.sin(th) + p[1] * math.cos(th)) - 7.0)

    moved = validate_generic(map_points(k4, sim))
    assert moved.passed
    assert len(moved.crossings) == len(base.crossings)
    for v in k4.graph.vertices():
        assert moved.cyclic_orders[v] == base.cyclic_orders[v]
    assert moved.epsilon == pytest.approx(2.0 * base.epsilon, rel=1e-6)


def test_restrict_star_of_k4(k4):
    sub = star(k4.graph, 4)
    f = restrict(k4, sub)
    assert validate_generic(f).passed
    assert f.positions[4] == k4.positions[4]  # center keeps its point


def test_resampling_preserves_report(k4):
    report = validate_generic(resample_midpoints(k4))
    assert report.passed and len(report.crossings) == 0


def test_random_k4_fixtures_are_generic():
    for seed in range(5):
        f = random_k4(seed)
        assert validate_generic(f).passed


def test_json_round_trip(k4):
    f = immersion_from_json_dict(k4.to_json_dict())
    assert f.graph == k4.graph
    assert validate_generic(f).passed


def test_absolute_tolerance_override():
    f = standard_curve(1)
    report = validate_generic(f, Tolerances(tau_abs=1e-9))
    assert report.tau == 1e-9 and report.passed
    # an int is kept as a float, which the report and its floats' text read
    whole = validate_generic(planar_k4(), Tolerances(1))
    assert type(whole.tau) is float
    assert report_differences(whole, validate_generic(planar_k4(),
                                                      Tolerances(1.0))) == []
    for bad in (-1.0, 0.0, float("nan"), float("inf"), True, False, "1e-3",
                [1e-3], 10 ** 400, -1):
        with pytest.raises(ImmersionError, match="finite and positive"):
            Tolerances(tau_abs=bad)


def test_validation_recomputes_and_keeps_its_report():
    # every call validates in full and keeps its new report on the drawing,
    # over the last one, one per tolerance; copies and pickles keep none
    f = standard_curve(3)
    first, again = validate_generic(f), validate_generic(f)
    assert first is not again and f._reports == {None: again}
    assert report_differences(first, again) == []
    fixed = validate_generic(f, Tolerances(tau_abs=1e-7))
    assert fixed.tau == 1e-7 and f._reports == {None: again, 1e-7: fixed}
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g._reports == {} and g.bbox == f.bbox
        assert g.to_json_dict() == f.to_json_dict()
        assert report_differences(validate_generic(g), again) == []
        assert list(g._reports) == [None]
    # a failing report is kept as well
    stub = drawing({1: (0, 0), 2: (2, 0)}, [(1, 2)], {1: [(0, 0), (1, 1)]})
    report = validate_generic(stub)
    assert not report.passed and stub._reports == {None: report}


def test_a_drawings_tables_are_read_only_copies():
    # a write into a drawing's tables would leave its kept report, and so
    # its wu, describing a drawing it no longer is
    bent = Polyline([(0, 0), (3, -2), (3, 5), (6, 0)])
    f = planar_k4()
    v = wu(f)
    with pytest.raises(TypeError):
        f.polylines[1] = bent
    with pytest.raises(TypeError):
        f.positions[1] = (0.0, 1.0)
    # a change to the dicts the caller passed in leaves the drawing as built
    positions, polylines = dict(f.positions), dict(f.polylines)
    g = PlaneImmersion(f.graph, positions, polylines)
    positions[4], polylines[1] = (9.0, 9.0), bent
    assert g.to_json_dict() == f.to_json_dict() and wu(g) == v
    for h in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert wu(h) == v and h.to_json_dict() == f.to_json_dict()
        with pytest.raises(TypeError):
            h.polylines[1] = bent


def test_tolerance_below_coordinate_resolution_is_refused():
    # a tau at or below 2^-48 M, M the largest absolute coordinate, is
    # finer than the coordinates, and refused before the other steps
    k4 = planar_k4()
    far = map_points(k4, lambda p: (p[0] + 1e12, p[1] + 1e12))
    tiny = Tolerances(tau_abs=1e-9)
    assert validate_generic(k4, tiny).passed
    report = validate_generic(far, tiny)
    assert not report.passed and report.epsilon == 0.0
    assert [kind for kind, _ in report.violations] == \
        ["tolerance-below-resolution"]
    # at the default tau far K4 is refused too, and the floor is sharp
    assert validate_generic(far).violations[0][0] == \
        "tolerance-below-resolution"
    floor = 2.0 ** -48 * (1e12 + 6.0)
    for tau, refused in ((floor, True), (math.nextafter(floor, 1.0), False)):
        kinds = [kind for kind, _ in
                 validate_generic(far, Tolerances(tau_abs=tau)).violations]
        assert ("tolerance-below-resolution" in kinds) == refused


def test_svg_smoke(k4):
    svg = to_svg(k4, validate_generic(k4))
    assert svg.startswith("<svg") and "polyline" in svg
