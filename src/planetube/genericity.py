"""Genericity of polyline plane immersions: the report a full validation
builds for a drawing (`validate_generic`), and the one a splice's output
gets from its input's report (`revalidate`), with the records, tolerances
and errors they share.

A drawing is read duck-typed, as `immersion.PlaneImmersion` holds it: its
graph, positions, polylines and bounding box, and the report it keeps
(`_report`).  So this module imports nothing from `immersion`, which
builds and keeps the drawings.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from itertools import groupby, islice, repeat
from operator import attrgetter, itemgetter, sub
from typing import NamedTuple

from . import geometry as geo
from .geometry import Polyline, Point


class ImmersionError(ValueError):
    pass


class NotGenericError(ImmersionError):
    pass


TAU_REL = 1e-6
"""Distance tolerance of the genericity predicates, relative to the drawing:
tau = TAU_REL * bounding-box diagonal, unless `Tolerances.tau_abs` is set."""

TAU_FLOOR = 2.0 ** -48
"""Least tau, relative to the drawing's largest absolute coordinate, that
`validate_generic` accepts: 2^4 units of 2^-52."""

ANGLE_TOL = 1e-6
"""Angular tolerance of the genericity predicates, in radians, for colliding
germs, bends that double back and near-parallel crossings."""


class Tolerances:
    """Numeric policy for genericity predicates: an absolute distance
    tolerance tau_abs, a finite and positive int or float kept as a float,
    replaces TAU_REL * bbox diagonal when set."""
    __slots__ = ("tau_abs",)

    def __init__(self, tau_abs: float | None = None):
        if tau_abs is not None:
            # not a bool, a string (a bare TypeError) or an int past floats
            if (isinstance(tau_abs, bool)
                    or not isinstance(tau_abs, (int, float))
                    or not 0.0 < tau_abs <= sys.float_info.max):
                raise ImmersionError(
                    f"tolerance must be finite and positive, got {tau_abs!r}")
            tau_abs = float(tau_abs)
        self.tau_abs = tau_abs

    def tau_for(self, bbox) -> float:
        """tau of a drawing whose bounding box is bbox, (least x, greatest
        x, least y, greatest y)."""
        if self.tau_abs is not None:
            return self.tau_abs
        x0, x1, y0, y1 = bbox
        return TAU_REL * max(math.hypot(x1 - x0, y1 - y0), 1e-300)


class StrandPoint(NamedTuple):
    edge: int
    arclength: float    # along the edge from its tail


class Crossing(NamedTuple):
    point: Point
    first: StrandPoint        # ordered by (edge, arclength)
    second: StrandPoint


class CyclicOrder(NamedTuple):
    vertex: int
    edges: tuple[int, ...]    # counterclockwise, rotated so smallest id first

    @staticmethod
    def from_sequence(vertex: int, seq) -> "CyclicOrder":
        seq = list(seq)
        k = seq.index(min(seq))
        return CyclicOrder(vertex, tuple(seq[k:] + seq[:k]))

    def mirrored(self) -> "CyclicOrder":
        rev = list(reversed(self.edges))
        return CyclicOrder.from_sequence(self.vertex, rev)


class GenericityReport(NamedTuple):
    """What `validate_generic` found, and the drawing as it read it.  The
    hidden fields are all the moves and the invariant's cochain read of
    the drawing: its segment index, the angle of each germ by vertex and
    edge id, the least angle between two germs at a vertex, each edge's
    bend turns summed tail to head, and the segment rows (s, t), s first
    edge by edge, tail to head, of each crossing, by which `revalidate`
    keys a splice's crossings."""
    passed: bool
    violations: list
    crossings: list
    cyclic_orders: dict         # vertex -> CyclicOrder
    epsilon: float
    tau: float
    index: _SegmentIndex
    germs: dict                 # v -> e -> radians
    theta: float                # radians, at most pi
    turns: dict                 # edge id -> radians
    pairs: list                 # (s, t) per crossing


class _Segment(NamedTuple):
    edge: int
    index: int                  # position along the edge's polyline
    a: Point
    b: Point
    ends: frozenset             # graph vertices the segment ends at
    s0: float                   # arclength of a and b from the edge's tail
    s1: float
    length: float               # geometry.dist(a, b), bit for bit
    u: Point | None             # geometry.unit(b - a); None at length 0


_NO_ENDS = frozenset()


def _edge_pass(e, pl: Polyline, tau: float, violations: list):
    """Edge e drawn as pl, read once, tail to head: (its segment rows, each
    row's bounding box widened by tau on every side as (least x, greatest
    x, least y, greatest y, row), its bend turns summed, its tail germ, its
    head germ), each germ the angle of its unit vector
    (`geometry.angle_of`), or None at length 0.  Rows sort as the edge id,
    then the position along the edge: edge by edge, tail to head.  Step
    (a) of `validate_generic` rides along: the edge's degenerate segments,
    then the bends where it doubles back, are appended to `violations`."""
    pts, cum = pl.points, pl.cum
    last = len(pts) - 2
    first_ends = frozenset((e.tail, e.head) if last == 0 else (e.tail,))
    last_ends = frozenset((e.head,))
    rows, boxes, back = [], [], []
    total, u = 0.0, None
    for i, (a, b) in enumerate(zip(pts, islice(pts, 1, None))):
        (ax, ay), (bx, by) = a, b
        dx, dy = bx - ax, by - ay
        n = math.hypot(dx, dy)
        before, u = u, ((dx / n, dy / n) if n else None)
        # the row without the generated __new__'s frame
        s = tuple.__new__(_Segment, (
            e.id, i, a, b, first_ends if i == 0 else last_ends if i == last
            else _NO_ENDS, cum[i], cum[i + 1], n, u))
        rows.append(s)
        # the box, by comparisons: min() and max() calls cost a third of
        # the pass
        if ax <= bx:
            x0, x1 = ax - tau, bx + tau
        else:
            x0, x1 = bx - tau, ax + tau
        if ay <= by:
            boxes.append((x0, x1, ay - tau, by + tau, s))
        else:
            boxes.append((x0, x1, by - tau, ay + tau, s))
        if n <= tau:
            violations.append(("degenerate-segment",
                               f"edge {e.id} segment {i} at {a}"))
        if before is not None and u is not None:
            turn = geo.turn_angle(before, u)
            if abs(turn) >= math.pi - ANGLE_TOL:
                back.append(("not-an-immersion",
                             f"edge {e.id} doubles back at bend {a}"))
            total += turn
    violations += back
    # the head germ is (a - b) / length, not -u: a germ along -x then reads
    # (-1.0, 0.0), at angle pi, and not (-1.0, -0.0), at -pi
    return rows, boxes, total, rows[0].u and geo.angle_of(rows[0].u), (
        geo.angle_of(((ax - bx) / n, (ay - by) / n)) if n else None)


class _SegmentIndex(NamedTuple):
    """The segments of a drawing (`_edge_pass`), each in a box widened by
    tau on every side, the boxes sorted by left edge once for every scan of
    segments near a point or a segment: `find_crossings`, `_min_clearance`
    and `moves._local_clearance`.  One constructor (`_index`) builds it,
    for a full validation from every edge's rows (`_read_edges`) and for a
    splice from its input's rows and the one changed edge's
    (`revalidate`): as a box holds its row, not the row's position, the
    boxes of the other edges carry over as they are.  `big`, the largest
    absolute coordinate, scales the rounding allowance of `find_crossings`'
    line-side reject."""
    segs: list                  # edge by edge, tail to head
    boxes: list                 # (x0, x1, y0, y1, row), sorted
    lefts: list                 # x0 of each box
    tau: float
    bbox: tuple                 # the drawing's `bbox`
    wide: float                 # the widest box's x1 - x0

    @property
    def big(self) -> float:
        return max(-self.bbox[0], self.bbox[1], -self.bbox[2], self.bbox[3])

    def nearest(self, pos: Point, best: float, skip) -> float:
        """The least of best and the distance from pos to each segment s
        with `skip(s)` false, box-testing (`_nearest`) only the boxes whose
        left edges lie from best plus the widest box's width left of pos to
        best right of it.  tau covers the rounding of those bounds and of
        `geometry.point_segment_distance`, in absolute coordinates, while it
        exceeds a few units of 2^-53 M, M = `big`, as `validate_generic`
        requires (`TAU_FLOOR`)."""
        lo = bisect_left(self.lefts, pos[0] - best - self.wide - self.tau)
        hi = bisect_right(self.lefts, pos[0] + best + self.tau)
        return _nearest(self.boxes[lo:hi], pos, best, skip)


def _nearest(boxes, pos: Point, best: float, skip) -> float:
    """The least of best and the distance from pos to the segment s of each
    box nearer pos than the least so far, with `skip(s)` false."""
    px, py = pos
    for x0, x1, y0, y1, s in boxes:
        if (x0 - px < best and px - x1 < best and y0 - py < best
                and py - y1 < best and not skip(s)):
            best = min(best, geo.point_segment_distance(pos, s.a, s.b))
    return best


def _read_edges(f, tau: float):
    """`_edge_pass` on each edge of f, in order: (f's segment index under
    tau, step (a)'s violations, bend turns by edge id, germ angles by
    (vertex, edge id))."""
    segs, boxes, violations, turns, ends = [], [], [], {}, {}
    for e in f.graph.edges:
        rows, bx, turns[e.id], ends[e.tail, e.id], ends[e.head, e.id] = \
            _edge_pass(e, f.polylines[e.id], tau, violations)
        segs += rows
        boxes += bx
    return _index(segs, boxes, tau, f.bbox), violations, turns, ends


def _index(segs: list, boxes: list, tau: float, bbox) -> _SegmentIndex:
    """The segment index of the rows segs, edge by edge, tail to head, and
    their tau-widened boxes, in a drawing whose bounding box is bbox: the
    boxes sorted in place, their left edges and the widest box's width."""
    boxes.sort()
    lefts = list(map(itemgetter(0), boxes))
    wide = max(map(sub, map(itemgetter(1), boxes), lefts))
    return _SegmentIndex(segs, boxes, lefts, tau, bbox, wide)


def _beside(s: _Segment, p: Point, q: Point, far: float) -> bool:
    """Whether p and q both lie on one side of the line of s, at least far
    from it; False when s has no direction."""
    if s.u is None:
        return False
    (ux, uy), (ax, ay) = s.u, s.a
    hp = ux * (p[1] - ay) - uy * (p[0] - ax)
    hq = ux * (q[1] - ay) - uy * (q[0] - ax)
    return (hp >= far and hq >= far) or (hp <= -far and hq <= -far)


def _may_touch(s: _Segment, t: _Segment) -> bool:
    """Whether s and t are not graph neighbours, the only segments that may
    touch: consecutive segments of one edge, or segments that end at a
    common graph vertex."""
    return s.ends.isdisjoint(t.ends) and (s.edge != t.edge
                                          or abs(s.index - t.index) != 1)


def _check_pair(s: _Segment, t: _Segment, tau: float, far: float,
                violations) -> Crossing | None:
    """Pair test of two segments that are not graph neighbours, s before t
    edge by edge, tail to head: their proper transversal crossing, or None
    with a near-contact or non-transversal violation appended to
    `violations` when they come closer than tau without one.

    A pair that does not cross is measured, by the distance from each
    endpoint to the other segment, only when neither segment's line has
    the other segment at least `far` to one side of it (`_beside`): then
    every point of the one lies at least about far from every point of
    the other.  With far = 2 tau + 2^-40 M, M the largest absolute
    coordinate (`_SegmentIndex.big`), the reject is exact.  The 2 tau keeps
    it away from the d < tau boundary, and 2^-40 M covers the rounding of
    the signed distances and of `geometry.point_segment_distance`, both
    taken in absolute coordinates, which is a few units of 2^-53 M.  So the
    four distances of a rejected pair would all have read at least tau,
    however far from the origin the drawing lies and however small tau
    is."""
    a1, b1, a2, b2 = s.a, s.b, t.a, t.b
    hit = geo.segment_intersection(a1, b1, a2, b2)
    if hit is None:
        if _beside(s, a2, b2, far) or _beside(t, a1, b1, far):
            return None
        # flag tangential / endpoint contact of unrelated strands, at the
        # endpoint that comes closest to the other segment
        d, p = min(((geo.point_segment_distance(a1, a2, b2), a1),
                    (geo.point_segment_distance(b1, a2, b2), b1),
                    (geo.point_segment_distance(a2, a1, b1), a2),
                    (geo.point_segment_distance(b2, a1, b1), b2)),
                   key=lambda dp: dp[0])
        if d < tau:
            violations.append(
                ("near-contact", f"edges {s.edge}/{t.edge} touch without "
                 f"transversal crossing near {p}"))
        return None
    pt, t1, t2 = hit
    if abs(geo.cross(s.u, t.u)) < ANGLE_TOL:
        violations.append(
            ("non-transversal", f"edges {s.edge}/{t.edge} cross at {pt} "
             "with near-parallel strands"))
        return None
    return Crossing(pt, StrandPoint(s.edge, s.s0 + t1 * (s.s1 - s.s0)),
                    StrandPoint(t.edge, t.s0 + t2 * (t.s1 - t.s0)))


def _test_pairs(index: _SegmentIndex, pairs):
    """`_check_pair` on each pair (s, t) of the index's segments, in the
    given order: (crossings, their pairs, violations)."""
    crossings, crossed, violations = [], [], []
    tau = index.tau
    far = 2.0 * tau + 2.0 ** -40 * index.big
    for s, t in pairs:
        c = _check_pair(s, t, tau, far, violations)
        if c is not None:
            crossings.append(c)
            crossed.append((s, t))
    return crossings, crossed, violations


def find_crossings(index: _SegmentIndex):
    """Proper transversal crossings, the segment pair (s, t) of each, and
    degeneracy violations of the index's segments, in the order of a test
    of every pair (s, t), s before t, of the segments taken edge by edge,
    tail to head.

    Only pairs whose bounding boxes, widened by tau on every side, overlap
    are tested: with the boxes sorted by left edge, each box is paired with
    the later boxes up to the first one whose left edge lies past its right
    edge, where their y-ranges meet.  This is exact, because every pair the
    test flags is closer than tau: a proper crossing puts a common point in
    both boxes, and a near-contact puts an endpoint within tau of the other
    segment, so the widened boxes overlap with a margin of tau.

    Graph neighbours are dropped in the sweep, before a pair is kept
    (`_may_touch`).  A kept pair that does not cross is then measured only
    when neither segment lies at least 2 tau + 2^-40 M to one side of the
    other's line (`_check_pair`).
    """
    boxes, lefts = index.boxes, index.lefts
    pairs = []
    for m, (_, x1, y0, y1, s) in enumerate(boxes):
        for _, _, v0, v1, t in boxes[m + 1:bisect_right(lefts, x1, m + 1)]:
            if v0 <= y1 and y0 <= v1 and _may_touch(s, t):
                pairs.append((s, t) if s < t else (t, s))
    pairs.sort()
    return _test_pairs(index, pairs)


def _pairs_meeting(index: _SegmentIndex, fresh) -> list:
    """The pairs the sweep of `find_crossings` keeps that have a segment
    among the boxes `fresh`, sorted, each once.

    Each fresh box is tested against the boxes whose left edges lie no
    further right than its right edge and no further left than its left
    edge less the widest box's width and tau, which covers the rounding of
    that bound.  Two boxes that the sweep pairs overlap in x, so this finds
    every pair the sweep keeps; a pair of two fresh boxes is found from
    both."""
    boxes, lefts, reach = index.boxes, index.lefts, index.wide + index.tau
    pairs = []
    for x0, x1, y0, y1, s in fresh:
        for _, u1, v0, v1, t in boxes[bisect_left(lefts, x0 - reach):
                                      bisect_right(lefts, x1)]:
            if (x0 <= u1 and v0 <= y1 and y0 <= v1 and t is not s
                    and _may_touch(s, t)):
                pairs.append((s, t) if s < t else (t, s))
    pairs.sort()
    return [p for p, _ in groupby(pairs)]


def _near(points, r: float):
    """Function mapping a point q to the indices, ascending, of the `points`
    closer than r to q.  Only points within 2 r of q in x are measured: a
    distance below r needs an x-offset below r, and the second r keeps a
    rounded bound from dropping a point at the threshold."""
    xs = [p[0] for p in points]
    order = sorted(range(len(points)), key=xs.__getitem__)
    xs = [xs[k] for k in order]

    def near(q):
        lo = bisect_left(xs, q[0] - 2.0 * r)
        hi = bisect_right(xs, q[0] + 2.0 * r)
        return sorted(k for k in order[lo:hi] if geo.dist(q, points[k]) < r)
    return near


def _cyclic_orders(germs: dict, violations: list) -> tuple[dict, float]:
    """Step (e): the counterclockwise order of the germ angles (vertex ->
    edge id -> radians) at each vertex, and theta, the least angle between
    two germs at a vertex, capped at pi.  Where two germs collide, closer
    than ANGLE_TOL, the vertex gets a "germ-collision" violation instead."""
    orders, theta = {}, math.pi
    for v, angles in germs.items():
        ring = sorted((a, e) for e, a in angles.items())
        least = math.pi
        for (a1, e1), (a2, e2) in zip(ring, ring[1:] + [
                (ring[0][0] + 2 * math.pi, ring[0][1])]):
            if a2 - a1 < ANGLE_TOL:     # sorted, so no gap is negative
                violations.append(("germ-collision", "coincident germ angles "
                                   f"at vertex {v}: edges {e1}, {e2}"))
                break
            least = min(least, a2 - a1)
        else:
            orders[v] = CyclicOrder.from_sequence(v, [e for _, e in ring])
            theta = min(theta, least)
    return orders, theta


def _no_scale(eps: float, theta: float, tau: float) -> str | None:
    """Why no scale eps fits a drawing whose least germ angle is theta, or
    None when it fits."""
    if eps <= tau:
        return "feature clearances below tolerance"
    # pair samples near a vertex sit at scale eps along two germs; their
    # separation 2 eps sin(theta/2) must clear tau with room for
    # downscaling eps
    if 2.0 * eps * math.sin(theta / 2.0) <= 8.0 * tau:
        return "germ angles too shallow for the drawing tolerance"
    return None


def validate_generic(f, tol: Tolerances | None = None) -> GenericityReport:
    """Genericity report of f: its violations in the order of the steps
    below, its crossings, cyclic orders, tau and, when it passes, the
    suggested scale epsilon.

    A tau at or below 2^-48 M, M the drawing's largest absolute coordinate
    (`_SegmentIndex.big`), is refused first, as
    "tolerance-below-resolution".  That floor is c 2^-52 M with c = 2^4:
    the distances and sides that the predicates compare with tau are taken
    in absolute coordinates, spaced up to 2^-52 M apart, and round by a few
    units of 2^-53 M (`_SegmentIndex.nearest`, `_check_pair`).  A tau
    closer to that rounding than a factor of about four is finer than the
    coordinates: a translate of a drawing would then be a different
    drawing, not a rounding of it.

    Each segment is read once, in one pass per edge (`_edge_pass`) that
    builds the segment's row (its length and direction) and tau-widened
    box, runs step (a), sums the edge's bend turns and takes the angles of
    its two germs; the rows and boxes, sorted once, make the segment index
    (`_read_edges`, `_index`).  Step (e) keeps the germ angles in a table per vertex
    and edge: the cyclic orders, the germ-collision test and the least germ
    angle, which bounds the scale, are read from it, and the invariant's
    cochain reads it and the turns off the report, as the moves read the
    segment index and the least germ angle.  The scans over pairs of
    features are pruned.  Segments are pair-tested only where their widened
    boxes overlap and they are not graph neighbours, which are dropped in
    the sweep (`find_crossings`); a pair that does not cross has its four
    endpoint-to-segment distances measured only when neither segment lies
    at least 2 tau + 2^-40 M to one side of the other's line, an exact
    reject (`_check_pair`).  A crossing is measured only against the
    vertices, bends and crossings within 2 tau of it in x, and
    `_min_clearance` skips the distances its running minimum already
    bounds.  Each skipped test could not have fired or lowered the minimum,
    so the report is that of the all-pairs scans.

    `revalidate` derives a splice's report from its input's report and the
    one changed edge alone, with the same edge pass, index constructor and
    pair test; this function is its fallback and oracle.  Every call validates f in
    full and keeps the report on f, over the one kept before
    (`PlaneImmersion._report`).
    """
    tol = tol or Tolerances()
    tau = tol.tau_for(f.bbox)
    # (a) local injectivity of each polyline, in the pass that reads its
    # rows, boxes, bend turns and the germs at both ends
    index, violations, turns, ends = _read_edges(f, tau)
    if tau <= TAU_FLOOR * index.big:
        violations.insert(0, (
            "tolerance-below-resolution",
            f"tau {tau} is at most 2^-48 M = {TAU_FLOOR * index.big}, M = "
            f"{index.big} the largest absolute coordinate"))
    # the germ angles at the vertices where every germ has a direction (a
    # germ of length 0 is a degenerate segment)
    stubs = {v for (v, _), a in ends.items() if a is None}
    germs = {v: {e: ends[v, e] for e in f.graph.incident_edges(v)}
             for v in f.graph.vertices() if v not in stubs}

    # (b) crossings transversal, interior; their violations follow (e)'s
    crossings, pairs, cviol = find_crossings(index)
    orders, theta = _cyclic_orders(germs, violations)
    violations.extend(cviol)

    if crossings:
        # (c) crossings clear of vertices and bends
        features = [tuple(f.positions[v]) for v in f.graph.vertices()]
        bends = [s.a for s in index.segs if s.index]
        near_feature, near_bend = _near(features, tau), _near(bends, tau)
        for c in crossings:
            for k in near_feature(c.point):
                violations.append(
                    ("crossing-at-vertex",
                     f"crossing {c.point} near vertex {features[k]}"))
            for k in near_bend(c.point):
                violations.append(
                    ("crossing-at-bend",
                     f"crossing {c.point} near bend {bends[k]}"))

        # (d) no triple points
        near_crossing = _near([c.point for c in crossings], tau)
        for i, c in enumerate(crossings):
            for j in near_crossing(c.point):
                if j > i:
                    violations.append(
                        ("triple-point", f"crossings coincide near {c.point}"))

    eps = 0.0
    if not violations:
        eps = 0.5 * _min_clearance(f, index, crossings)
        why = _no_scale(eps, theta, tau)
        if why:
            violations.append(("no-scale", why))
            eps = 0.0

    return f._report(tol, GenericityReport(
        passed=not violations, violations=violations, crossings=crossings,
        cyclic_orders=orders, epsilon=eps, tau=tau, index=index, germs=germs,
        theta=theta, turns=turns, pairs=pairs))


def _min_clearance(f, index: _SegmentIndex, crossings) -> float:
    """Scale at which every vertex disk meets the image only in embedded
    germs and every pair sample stays unambiguous: the least of the germ
    lengths, half edge lengths, crossing-crossing and crossing-vertex
    distances, and vertex-segment distances.

    The cheap terms come first.  Crossing pairs are then measured in
    x-order only while their x-offset is below the least distance so far,
    which no skipped pair could lower.  The vertex-segment distances come
    from the segment index (`_SegmentIndex.nearest`), with the germs at
    the vertex skipped: they leave it by definition.
    """
    best = math.inf
    for e in f.graph.edges:
        pl = f.polylines[e.id]
        best = min(best,
                   geo.dist(pl.points[0], pl.points[1]),
                   geo.dist(pl.points[-2], pl.points[-1]),
                   pl.length / 2.0)
    positions = [tuple(f.positions[v]) for v in f.graph.vertices()]
    for c in crossings:
        # math.dist is `geometry.dist` bit for bit
        best = min(best, *map(math.dist, repeat(c.point), positions))
        if c.first.edge == c.second.edge:
            best = min(best, abs(c.first.arclength - c.second.arclength) / 2.0)
    points = sorted(c.point for c in crossings)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[j][0] - points[i][0] >= best:
                break
            best = min(best, geo.dist(points[i], points[j]))
    for v, pos in zip(f.graph.vertices(), positions):
        best = index.nearest(pos, best, lambda s: v in s.ends)
    return best


def revalidate(g, f, report: GenericityReport,
               tol: Tolerances | None = None) -> GenericityReport:
    """`validate_generic(g, tol)`, derived from `report`, f's
    report under tol, where g has f's graph and positions and differs from
    f in the polyline of one edge, as a curl or Whitney pair splices a
    chain into one segment.  Its only inputs are `report` and the changed
    edge: of f it reads only which polyline changed.  A passing report
    costs its new rows, crossings and bends, plus one sort of a nearly
    sorted list of boxes.  The spliced edge is read again (`_edge_pass`);
    its rows that match f's at either end by geometry (a, b, ends) stand
    for them, and the validator's constructor (`_index`) builds g's index
    from f's boxes with the edge's boxes from the first new row on
    replaced by g's, and from f's bounding box grown by the new points.
    Only pairs with a new row are tested (`_pairs_meeting`).  Steps (c) and (d) test the new
    crossings against the vertices, nearby bends and every crossing, and
    the new bends against every crossing; step (e) runs only when a germ
    angle changed.  Epsilon is half the least new clearance term when that
    is below f's epsilon, exact since every term the splice left alone is
    at least 2 epsilon_f, else half `_min_clearance` of g.

    Any other case gets the full validation's report: f's report did not
    pass, not one edge changed, tau or the largest coordinate changed, or a
    step finds a violation among the new features.  So the report always
    equals a full one field for field, and g keeps it
    (`PlaneImmersion._report`)."""
    tol = tol or Tolerances()
    return g._report(tol, _splice_report(g, f, report, tol)
                     or validate_generic(g, tol))


def _splice_report(g, f, report, tol) -> GenericityReport | None:
    """g's passing report as `revalidate` derives it, or None."""
    edges = [e for e in g.graph.edges
             if g.polylines[e.id] is not f.polylines[e.id]]
    if not report.passed or len(edges) != 1:
        return None
    e, old, tau, violations = edges[0], report.index, report.tau, []
    eid, pl = e.id, g.polylines[e.id]
    rows, boxes, turn, tail, head = _edge_pass(e, pl, tau, violations)
    lo = bisect_left(old.segs, eid, key=attrgetter("edge"))
    was = old.segs[lo:bisect_right(old.segs, eid, lo, key=attrgetter("edge"))]
    # the first p and the last q rows match f's; f's rows from p up to
    # `after` are those the splice replaced
    n, p, q = min(len(rows), len(was)), 0, 0
    while p < n and rows[p][2:5] == was[p][2:5]:
        p += 1
    while q < n - p and rows[~q][2:5] == was[~q][2:5]:
        q += 1
    new, fresh, after = rows[p:len(rows) - q], boxes[p:len(rows) - q], \
        len(was) - q
    # g's bounding box is f's, from its report, and the new points', unless
    # the splice dropped some of f's
    x0, x1, y0, y1 = g.bbox if after > p + 1 else old.bbox
    xs, ys = [x0, x1] + [s.b[0] for s in new], [y0, y1] + [s.b[1] for s in new]
    bbox = x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    if (violations or tol.tau_for(bbox) != tau
            or max(-x0, x1, -y0, y1) != old.big):
        return None

    # f's rows and boxes of the edge from p on give way to g's; renew maps
    # each such row of f to g's, or to None
    index = _index(old.segs[:lo + p] + rows[p:] + old.segs[lo + len(was):],
                   [box for box in old.boxes
                    if box[4].edge != eid or box[4].index < p] + boxes[p:],
                   tau, bbox)
    renew = dict(zip(map(id, was[p:]),
                     [None] * (after - p) + rows[len(rows) - q:]))

    kept, moved = [], []
    for (s, t), c in zip(report.pairs, report.crossings):
        s2, t2 = renew.get(id(s), s), renew.get(id(t), t)
        if s2 is s and t2 is t:
            kept.append(((s, t), c))
        elif s2 and t2:
            moved.append((s2, t2))
    found, pairs, cviol = _test_pairs(index, _pairs_meeting(index, fresh))
    again, repairs, rviol = _test_pairs(index, moved)
    if cviol or rviol:
        return None
    merged = sorted(kept + list(zip(repairs, again)) + list(zip(pairs, found)),
                    key=itemgetter(0))
    crossings = [c for _, c in merged]

    # (e) only when a germ of the edge changed its angle
    germs, orders, theta = report.germs, report.cyclic_orders, report.theta
    angles = {e.tail: tail, e.head: head}
    if any(germs[v][eid].hex() != a.hex() for v, a in angles.items()):
        germs = {**germs, **{v: {**germs[v], eid: a}
                             for v, a in angles.items()}}
        orders, theta = _cyclic_orders(germs, violations)
        if violations:
            return None

    # (c), (d) and the new clearance terms, below f's least term
    points = [c.point for c in crossings]
    positions = [g.positions[v] for v in g.graph.vertices()]
    best = min(2.0 * report.epsilon, geo.dist(pl.points[0], pl.points[1]),
               geo.dist(pl.points[-2], pl.points[-1]), pl.length / 2.0)
    for c in again + found:
        if c.first.edge == c.second.edge:
            best = min(best, abs(c.first.arclength - c.second.arclength)
                       / 2.0)
    for c in found:
        k = crossings.index(c)
        apart = min(map(math.dist, repeat(c.point),
                        points[:k] + points[k + 1:]), default=math.inf)
        clear = min(map(math.dist, repeat(c.point), positions))
        if apart < tau or clear < tau:
            return None
        best = min(best, apart, clear)
        # a bend within tau of the crossing has its box in this window
        if any(s.index and math.dist(c.point, s.a) < tau for *_, s in
               index.boxes[bisect_left(index.lefts,
                                       c.point[0] - index.wide - tau):
                           bisect_right(index.lefts, c.point[0] + tau)]):
            return None
    bends = [s.a for s in new if s.index]
    if any(min(map(math.dist, repeat(q), bends), default=math.inf) < tau
           for q in points):
        return None
    for v, pos in zip(g.graph.vertices(), positions):
        best = _nearest(fresh, pos, best, lambda s: v in s.ends)
    eps = 0.5 * best
    if eps >= report.epsilon:
        eps = 0.5 * _min_clearance(g, index, crossings)
    if _no_scale(eps, theta, tau):
        return None
    return report._replace(
        crossings=crossings, cyclic_orders=orders, epsilon=eps, index=index,
        germs=germs, theta=theta, turns={**report.turns, eid: turn},
        pairs=[pair for pair, _ in merged])
