"""Geometric moves on polyline immersions.

insert_curl adds a small self-crossing loop (changes the invariant; used as
a sensitivity probe).  whitney_pair inserts two opposite curls, which is a
regular-homotopy move and must leave the invariant fixed.  perturb jitters
interior bend points.  All moves re-validate genericity and fail loudly.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import geometry as geo
from .geometry import Polyline, kink_waypoints
from .immersion import (PlaneImmersion, Tolerances, ImmersionError,
                        validate_generic)


class MoveError(ImmersionError):
    pass


@dataclass(frozen=True)
class MoveRecord:
    kind: str               # "curl" | "whitney_pair" | "perturb"
    edge: int = 0
    t: float = 0.0          # arclength from the edge tail
    sign: int = 0
    seed: int = 0
    delta: float = -1.0     # negative means "use the default"

    @staticmethod
    def from_json_dict(d: dict) -> "MoveRecord":
        return MoveRecord(
            kind=d["kind"],
            edge=int(d.get("edge", 0)),
            t=float(d.get("t", 0.0)),
            sign=int(d.get("sign", 0)),
            seed=int(d.get("seed", 0)),
            delta=float(d.get("delta", -1.0)),
        )


def _locate(f: PlaneImmersion, eid: int, t: float):
    """Containing segment index and unit direction at arclength t."""
    pl = f.polylines[eid]
    if not 0.0 < t < pl.length:
        raise MoveError(f"position {t} is not in the interior of edge {eid}")
    i = 0
    while pl.cum[i + 1] < t:
        i += 1
    a, b = pl.points[i], pl.points[i + 1]
    return pl, i, geo.unit(geo.sub(b, a))


def _local_clearance(f: PlaneImmersion, eid: int, i: int, t: float) -> float:
    """Room around arclength t of edge eid: slack to the containing
    segment's ends and distance to every other strand."""
    pl = f.polylines[eid]
    center = pl.point_at(t)
    best = min(t - pl.cum[i], pl.cum[i + 1] - t)
    for e in f.graph.edges:
        other = f.polylines[e.id]
        for j, (a, b) in enumerate(other.segments()):
            if e.id == eid and j == i:
                continue
            best = min(best, geo.point_segment_distance(center, a, b))
    return best


def _generic(f: PlaneImmersion, tol: Tolerances | None, what: str):
    """Genericity report of f; raises MoveError starting with `what` when f
    is not generic."""
    report = validate_generic(f, tol)
    if not report.passed:
        raise MoveError(f"{what}: {report.violations}")
    return report


def _insert(f: PlaneImmersion, eid: int, t: float, tol: Tolerances | None,
            what: str, room: float, chain) -> PlaneImmersion:
    """Splice `chain(center, u, r)` into edge eid at arclength t, where u is
    the edge direction there and r the room there (the smaller of epsilon
    and the local clearance) divided by `room`."""
    report = _generic(f, tol, "cannot move a non-generic immersion")
    pl, i, u = _locate(f, eid, t)
    r = min(report.epsilon, _local_clearance(f, eid, i, t)) / room
    if r <= report.tau:
        raise MoveError(
            f"insufficient clearance for a {what} at {t} on edge {eid}")
    polylines = dict(f.polylines)
    polylines[eid] = Polyline(pl.points[:i + 1] + chain(pl.point_at(t), u, r)
                              + pl.points[i + 1:])
    g = PlaneImmersion(f.graph, dict(f.positions), polylines)
    _generic(g, tol, f"{what} broke genericity")
    return g


def insert_curl(f: PlaneImmersion, eid: int, t: float, sign: int,
                tol: Tolerances | None = None) -> PlaneImmersion:
    """One small loop at arclength t of edge eid, adding `sign` to the
    turning of any traversal that runs the edge tail to head."""
    if sign not in (+1, -1):
        raise MoveError("curl sign must be +1 or -1")
    return _insert(f, eid, t, tol, "curl", 4.0,
                   lambda c, u, r: kink_waypoints(c, u, r, sign))


def _whitney_chain(center, u, r):
    c1 = geo.add(center, geo.scale(u, -2.5 * r))
    c2 = geo.add(center, geo.scale(u, +2.5 * r))
    return kink_waypoints(c1, u, r, +1) + kink_waypoints(c2, u, r, -1)


def whitney_pair(f: PlaneImmersion, eid: int, t: float,
                 tol: Tolerances | None = None) -> PlaneImmersion:
    """Two opposite curls side by side; a regular-homotopy move."""
    return _insert(f, eid, t, tol, "Whitney pair", 6.0, _whitney_chain)


def perturb(f: PlaneImmersion, seed: int, delta: float | None = None,
            tol: Tolerances | None = None) -> PlaneImmersion:
    """Jitter every interior bend point by at most delta, keeping vertices
    fixed; halves delta and retries (up to 8 times) if genericity breaks."""
    report = _generic(f, tol, "cannot perturb a non-generic immersion")
    if delta is None:
        delta = report.epsilon / 8.0
    if delta < 0 or delta >= report.epsilon / 4.0 + 1e-30:
        raise MoveError(f"delta must lie in [0, epsilon/4 = {report.epsilon / 4.0}]")
    if delta == 0.0:
        return f
    rng = random.Random(seed)
    for _ in range(9):
        polylines = {}
        for e in f.graph.edges:
            pts = list(f.polylines[e.id].points)
            for k in range(1, len(pts) - 1):
                a = rng.uniform(0.0, 2.0 * math.pi)
                d = delta * math.sqrt(rng.uniform(0.0, 1.0))
                pts[k] = (pts[k][0] + d * math.cos(a),
                          pts[k][1] + d * math.sin(a))
            polylines[e.id] = Polyline(pts)
        g = PlaneImmersion(f.graph, dict(f.positions), polylines)
        check = validate_generic(g, tol)
        if check.passed and len(check.crossings) == len(report.crossings):
            return g
        delta /= 2.0
    raise MoveError("perturbation could not preserve genericity")


def apply_moves(f: PlaneImmersion, records,
                tol: Tolerances | None = None) -> PlaneImmersion:
    """Apply MoveRecords (or their JSON dicts) in order."""
    for rec in records:
        if isinstance(rec, dict):
            rec = MoveRecord.from_json_dict(rec)
        if rec.kind == "curl":
            f = insert_curl(f, rec.edge, rec.t, rec.sign, tol)
        elif rec.kind == "whitney_pair":
            f = whitney_pair(f, rec.edge, rec.t, tol)
        elif rec.kind == "perturb":
            delta = None if rec.delta < 0 else rec.delta
            f = perturb(f, rec.seed, delta, tol)
        else:
            raise MoveError(f"unknown move kind {rec.kind!r}")
    return f
