"""Geometric moves on polyline immersions.

insert_curl adds a small self-crossing loop (changes the invariant; used as
a sensitivity probe).  whitney_pair inserts two opposite curls, which is a
regular-homotopy move and must leave the invariant fixed.  perturb jitters
interior bend points.  Every move starts and ends on a generic drawing and
fails loudly otherwise; each drawing of a script is validated exactly once,
because each move hands the genericity report of its output to the next.
The room a curl or Whitney pair needs is measured through that report's
segment index, so no move walks the polylines to find its clearance.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from . import geometry as geo
from .geometry import Polyline, kink_waypoints
from .immersion import (PlaneImmersion, Tolerances, ImmersionError,
                        GenericityReport, validate_generic)


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
    i = bisect_left(pl.cum, t) - 1
    a, b = pl.points[i], pl.points[i + 1]
    return pl, i, geo.unit(geo.sub(b, a))


def _local_clearance(f: PlaneImmersion, report: GenericityReport, eid: int,
                     i: int, t: float) -> float:
    """Room around arclength t of edge eid: the least of the report's
    epsilon, the slack to the containing segment's ends and the distance to
    every other strand, measured through the report's segment index
    (`immersion._SegmentIndex.nearest`) with the containing segment
    skipped."""
    pl = f.polylines[eid]
    best = min(report.epsilon, t - pl.cum[i], pl.cum[i + 1] - t)
    return report.index.nearest(pl.point_at(t), best,
                                lambda s: s.edge == eid and s.index == i)


def _generic(f: PlaneImmersion, tol: Tolerances | None, what: str):
    """Genericity report of f; raises MoveError starting with `what` when f
    is not generic."""
    report = validate_generic(f, tol)
    if not report.passed:
        raise MoveError(f"{what}: {report.violations}")
    return report


def _insert(f: PlaneImmersion, report: GenericityReport | None, eid: int,
            t: float, tol: Tolerances | None, what: str, room: float, chain):
    """(g, report of g): splice `chain(center, u, r)` into edge eid at
    arclength t, where u is the edge direction there and r the room there
    (`_local_clearance`) divided by `room`.  `report` is f's genericity
    report under tol, or None to validate f here."""
    if report is None:
        report = _generic(f, tol, "cannot move a non-generic immersion")
    pl, i, u = _locate(f, eid, t)
    r = _local_clearance(f, report, eid, i, t) / room
    if r <= report.tau:
        raise MoveError(
            f"insufficient clearance for a {what} at {t} on edge {eid}")
    polylines = dict(f.polylines)
    polylines[eid] = Polyline(pl.points[:i + 1] + chain(pl.point_at(t), u, r)
                              + pl.points[i + 1:])
    g = PlaneImmersion(f.graph, dict(f.positions), polylines)
    return g, _generic(g, tol, f"{what} broke genericity")


def _curl(f, report, eid, t, sign, tol):
    """(g, report of g) for `insert_curl`; `report` as in `_insert`."""
    if sign not in (+1, -1):
        raise MoveError("curl sign must be +1 or -1")
    return _insert(f, report, eid, t, tol, "curl", 4.0,
                   lambda c, u, r: kink_waypoints(c, u, r, sign))


def insert_curl(f: PlaneImmersion, eid: int, t: float, sign: int,
                tol: Tolerances | None = None) -> PlaneImmersion:
    """One small loop at arclength t of edge eid, adding `sign` to the
    turning of any traversal that runs the edge tail to head."""
    return _curl(f, None, eid, t, sign, tol)[0]


def _whitney_chain(center, u, r):
    c1 = geo.add(center, geo.scale(u, -2.5 * r))
    c2 = geo.add(center, geo.scale(u, +2.5 * r))
    return kink_waypoints(c1, u, r, +1) + kink_waypoints(c2, u, r, -1)


def _whitney(f, report, eid, t, tol):
    """(g, report of g) for `whitney_pair`; `report` as in `_insert`."""
    return _insert(f, report, eid, t, tol, "Whitney pair", 6.0,
                   _whitney_chain)


def whitney_pair(f: PlaneImmersion, eid: int, t: float,
                 tol: Tolerances | None = None) -> PlaneImmersion:
    """Two opposite curls side by side; a regular-homotopy move."""
    return _whitney(f, None, eid, t, tol)[0]


def _perturb(f, report, seed, delta, tol):
    """(g, report of g) for `perturb`; `report` as in `_insert`."""
    if report is None:
        report = _generic(f, tol, "cannot perturb a non-generic immersion")
    if delta is None:
        delta = report.epsilon / 8.0
    if delta < 0 or delta >= report.epsilon / 4.0 + 1e-30:
        raise MoveError(f"delta must lie in [0, epsilon/4 = {report.epsilon / 4.0}]")
    if delta == 0.0:
        return f, report
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
            return g, check
        delta /= 2.0
    raise MoveError("perturbation could not preserve genericity")


def perturb(f: PlaneImmersion, seed: int, delta: float | None = None,
            tol: Tolerances | None = None) -> PlaneImmersion:
    """Jitter every interior bend point by at most delta, keeping vertices
    fixed; halves delta and retries (up to 8 times) if genericity breaks."""
    return _perturb(f, None, seed, delta, tol)[0]


def apply_moves(f: PlaneImmersion, records,
                tol: Tolerances | None = None) -> PlaneImmersion:
    """Apply MoveRecords (or their JSON dicts) in order.  The input is
    validated by the first move, and every later move starts from the
    report of the drawing the move before it validated."""
    report = None
    for rec in records:
        if isinstance(rec, dict):
            rec = MoveRecord.from_json_dict(rec)
        if rec.kind == "curl":
            f, report = _curl(f, report, rec.edge, rec.t, rec.sign, tol)
        elif rec.kind == "whitney_pair":
            f, report = _whitney(f, report, rec.edge, rec.t, tol)
        elif rec.kind == "perturb":
            delta = None if rec.delta < 0 else rec.delta
            f, report = _perturb(f, report, rec.seed, delta, tol)
        else:
            raise MoveError(f"unknown move kind {rec.kind!r}")
    return f
