"""Low-level planar geometry: segments, intersections, polylines, angles.

Everything works on plain (x, y) float tuples.  Tolerances are passed in
explicitly by callers; nothing here invents a scale.  The kernels
turn_angle, point_segment_distance and segment_intersection do the small
helpers' arithmetic inline, in the same order: the same floats, one frame.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, islice

Point = tuple[float, float]


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def add(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def scale(a: Point, k: float) -> Point:
    return (a[0] * k, a[1] * k)


def dot(a: Point, b: Point) -> float:
    return a[0] * b[0] + a[1] * b[1]


def cross(a: Point, b: Point) -> float:
    return a[0] * b[1] - a[1] * b[0]


def norm(a: Point) -> float:
    return math.hypot(a[0], a[1])


def dist(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def unit(a: Point) -> Point:
    n = norm(a)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    return (a[0] / n, a[1] / n)


def rot90(a: Point) -> Point:
    """Counterclockwise quarter turn."""
    return (-a[1], a[0])


def angle_of(a: Point) -> float:
    return math.atan2(a[1], a[0])


def turn_angle(u_in: Point, u_out: Point) -> float:
    """Signed exterior angle from direction u_in to u_out, in (-pi, pi]:
    atan2(cross(u_in, u_out), dot(u_in, u_out))."""
    (ax, ay), (bx, by) = u_in, u_out
    return math.atan2(ax * by - ay * bx, ax * bx + ay * by)


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """dist(p, a + t (b - a)), t the projection of p clamped as
    max(0.0, min(1.0, t)) clamps it; dist(p, a) when a == b."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    if not t < 1.0:         # NaN too, as min(1.0, t) reads it
        t = 1.0
    elif not t > 0.0:       # -0.0 too, as max(0.0, t) reads it
        t = 0.0
    return math.hypot(px - (ax + dx * t), py - (ay + dy * t))


def segment_intersection(a: Point, b: Point, c: Point, d: Point):
    """Proper transversal intersection of open segments ab and cd.

    Returns (point, t_ab, t_cd) with both parameters strictly inside (0, 1),
    or None if the segments do not cross transversally in their interiors.
    Touching endpoints and collinear overlaps return None; callers that need
    to flag near-degenerate contact must check clearances separately.
    """
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = rx * sy - ry * sx
    if denom == 0.0:
        return None
    qx, qy = cx - ax, cy - ay
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    if 0.0 < t < 1.0 and 0.0 < u < 1.0:
        return ((ax + rx * t, ay + ry * t), t, u)
    return None


class Polyline:
    """A sampled open curve with arclength parameterization."""

    __slots__ = ("points", "cum", "length")

    def __init__(self, points):
        points = list(points)       # read again below to name a bad point
        try:
            pts = [(float(x), float(y)) for x, y in points]
        except (TypeError, ValueError, OverflowError):
            for p in points:
                try:
                    x, y = p
                except (TypeError, ValueError):
                    raise ValueError(f"polyline point {p!r} is not an "
                                     "(x, y) pair") from None
                try:
                    float(x), float(y)
                except OverflowError:   # an int too large for a float
                    raise ValueError(f"polyline point {p!r} has a coordinate "
                                     "too large for a float") from None
            raise
        if len(pts) < 2:
            raise ValueError("polyline needs at least two points")
        self.points: list[Point] = pts
        # math.dist is `dist` bit for bit, and so is each running sum
        self.cum = list(accumulate(map(math.dist, pts, islice(pts, 1, None)),
                                   initial=0.0))
        self.length = self.cum[-1]

    def point_at(self, s: float) -> Point:
        """Point at arclength s from the start (clamped to [0, length])."""
        if s <= 0.0:
            return self.points[0]
        if s >= self.length:
            return self.points[-1]
        i = bisect_right(self.cum, s) - 1
        i = min(i, len(self.points) - 2)
        seg_len = self.cum[i + 1] - self.cum[i]
        t = (s - self.cum[i]) / seg_len
        a, b = self.points[i], self.points[i + 1]
        return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)

    def reversed(self) -> "Polyline":
        return Polyline(list(reversed(self.points)))


KINK_CLEARANCE = 0.5 / math.sqrt(9.25)
"""The least distance between two segments of a `kink_waypoints` chain
that do not share an end, in units of its radius: from the bend at (1, 0)
to the return leg from (-1, -0.5) to (2, 0), about 0.164."""


def kink_waypoints(center: Point, u: Point, radius: float, sign: int):
    """Waypoints of a small curl replacing the straight run of length 4*radius
    centered at `center` with incoming direction `u`.

    The returned open chain starts at center - 2r*u and ends at center + 2r*u,
    crosses itself exactly once, and adds `sign` to the turning number of a
    curve traversed in the direction of u.  sign must be +1 or -1.  Two of
    its segments that share no end and do not cross come no closer than
    KINK_CLEARANCE * radius, in this chain and in two of them end to end.
    """
    if sign not in (+1, -1):
        raise ValueError("curl sign must be +1 or -1")
    r = float(radius)
    n = rot90(u) if sign > 0 else scale(rot90(u), -1.0)

    def at(x: float, y: float) -> Point:
        return add(center, add(scale(u, x * r), scale(n, y * r)))

    # Forward along the base, counterclockwise loop (in the u,n frame) that
    # crosses the base segment once at (-r, 0), rejoin the base at (2r, 0).
    return [at(-2.0, 0.0), at(1.0, 0.0), at(1.0, 1.2), at(-1.0, 1.2),
            at(-1.0, -0.5), at(2.0, 0.0)]
