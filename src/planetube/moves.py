"""Geometric moves on polyline immersions.

insert_curl adds a small self-crossing loop (changes the invariant; used as
a sensitivity probe).  whitney_pair inserts two opposite curls, which is a
regular-homotopy move and must leave the invariant fixed.  perturb jitters
interior bend points.  Each is a one-record call into the one move engine,
`_move`, which `apply_moves` runs once per record of a script, so a move
does the same alone and in a script.  Every move starts and ends on a
generic drawing and fails loudly otherwise.  A move reads its input's
genericity report off the input (`PlaneImmersion._report`), which validates
in full only when it keeps none, and its output keeps its own, so neither a
later move nor `invariant.wu` validates it again: a curl or Whitney pair
changes one edge, and its output's report is derived from its input's
(`genericity.revalidate`).  The room a curl or Whitney pair needs is
measured through the input report's segment index, so no move walks the
polylines to find its clearance, and a chain too small for that room is
refused before it is spliced.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import NamedTuple

from . import geometry as geo
from .genericity import (GenericityReport, ImmersionError, Tolerances,
                         revalidate, validate_generic)
from .geometry import KINK_CLEARANCE, Polyline, kink_waypoints
from .immersion import PlaneImmersion


class MoveError(ImmersionError):
    pass


class MoveRecord(NamedTuple):
    """One move of a script.  A curl or Whitney pair goes at arclength `t`
    of `edge`; a perturbation jitters bends by at most `delta`, which must
    lie in [0, epsilon/4), or by epsilon/8 when `delta` is None."""
    kind: str               # "curl" | "whitney_pair" | "perturb"
    edge: int = 0
    t: float = 0.0          # arclength from the edge tail
    sign: int = 0
    seed: int = 0
    delta: float | None = None

    @staticmethod
    def from_json_dict(d: dict) -> "MoveRecord":
        def number(key, default=0):
            x = d.get(key, default)
            # a JSON string or boolean would pass float() and int()
            if isinstance(x, (str, bool)):
                raise MoveError(f"move {key} must be a number, not {x!r}")
            return x

        def real(key):
            try:
                return float(number(key, 0.0))
            except OverflowError:       # an int too large for a float
                raise MoveError(f"move {key} is too large for a float") from None

        def whole(key):
            x = number(key)
            if isinstance(x, float) and not x.is_integer():
                raise MoveError(f"move {key} must be a whole number, not {x}")
            return int(x)

        try:
            return MoveRecord(
                kind=d["kind"],
                edge=whole("edge"),
                t=real("t"),
                sign=whole("sign"),
                seed=whole("seed"),
                delta=real("delta") if "delta" in d else None,
            )
        except TypeError as exc:        # a null, list or object for a number
            raise MoveError(f"malformed move record {d}: {exc}") from None
        except KeyError as exc:
            raise MoveError(f"move record {d}: missing key {exc}") from None


def _locate(f: PlaneImmersion, eid: int, t: float):
    """Containing segment index and unit direction at arclength t."""
    pl = f.polylines.get(eid)
    if pl is None:
        raise MoveError(f"unknown edge {eid}")
    if not 0.0 < t < pl.length:
        raise MoveError(f"position {t} is not in the interior of edge {eid}")
    i = bisect_left(pl.cum, t) - 1
    a, b = pl.points[i], pl.points[i + 1]
    return pl, i, geo.unit(geo.sub(b, a))


def _local_clearance(report: GenericityReport, pl: Polyline, eid: int,
                     i: int, t: float) -> float:
    """Room around arclength t of edge eid, drawn as pl: the least of the
    report's epsilon, the slack to the containing segment's ends and the
    distance to every other strand, measured through the report's segment
    index (`genericity._SegmentIndex.nearest`) with the containing segment
    skipped."""
    best = min(report.epsilon, t - pl.cum[i], pl.cum[i + 1] - t)
    return report.index.nearest(pl.point_at(t), best,
                                lambda s: s.edge == eid and s.index == i)


def _generic(report: GenericityReport, what: str) -> GenericityReport:
    """The report; raises MoveError starting with `what` when its drawing
    is not generic."""
    if not report.passed:
        raise MoveError(f"{what}: {report.violations}")
    return report


def _whitney_chain(center, u, r):
    c1 = geo.add(center, geo.scale(u, -2.5 * r))
    c2 = geo.add(center, geo.scale(u, +2.5 * r))
    return kink_waypoints(c1, u, r, +1) + kink_waypoints(c2, u, r, -1)


def _move(f: PlaneImmersion, rec: MoveRecord,
          tol: Tolerances | None) -> PlaneImmersion:
    """The drawing rec makes of f: the one move engine.  It reads f's
    report under tol (`PlaneImmersion._report`) once the record's kind and
    a curl's sign are known to be good.  A curl or Whitney pair splices its
    chain into rec.edge at arclength rec.t, sized by the room there
    (`_local_clearance`) over 4 or 6, and derives the output's report from
    f's (`revalidate`), which the output keeps.  It is refused for
    insufficient clearance when its chain's own strands would come within
    tau (`geometry.KINK_CLEARANCE`), or when its own loops leave the
    output's germ angles too shallow for its scale: the two strands of each
    loop's crossing lie 6.4 r apart along the edge, which caps the output's
    epsilon at 1.6 r, and its germs are f's, so the germ-angle test of
    `genericity.validate_generic` would fail once 2 (1.6 r) sin(theta / 2)
    is at most 8 tau, theta f's least germ angle (`GenericityReport`).  A
    perturbation runs `_perturb`."""
    kind, eid, t = rec.kind, rec.edge, rec.t
    if kind == "curl" and rec.sign not in (+1, -1):
        raise MoveError("curl sign must be +1 or -1")
    if kind not in ("curl", "whitney_pair", "perturb"):
        raise MoveError(f"unknown move kind {kind!r}")
    verb = "perturb" if kind == "perturb" else "move"
    report = _generic(f._report(tol), f"cannot {verb} a non-generic immersion")
    if kind == "perturb":
        return _perturb(f, rec.seed, rec.delta, tol)
    what, room = ("curl", 4.0) if kind == "curl" else ("Whitney pair", 6.0)
    pl, i, u = _locate(f, eid, t)
    r = _local_clearance(report, pl, eid, i, t) / room
    if (KINK_CLEARANCE * r <= report.tau
            or 3.2 * r * math.sin(report.theta / 2.0) <= 8.0 * report.tau):
        raise MoveError(
            f"insufficient clearance for a {what} at {t} on edge {eid}")
    c = pl.point_at(t)
    chain = (kink_waypoints(c, u, r, rec.sign) if kind == "curl"
             else _whitney_chain(c, u, r))
    polylines = dict(f.polylines)
    polylines[eid] = Polyline(pl.points[:i + 1] + chain + pl.points[i + 1:])
    g = PlaneImmersion(f.graph, f.positions, polylines)
    _generic(revalidate(g, f, report, tol), f"{what} broke genericity")
    return g


def _perturb(f, seed, delta, tol):
    """The engine's perturbation branch: f jittered, keeping the report of
    the attempt that passed."""
    report = f._report(tol)
    if delta is None:
        delta = report.epsilon / 8.0
    # written so that NaN fails too
    if not 0.0 <= delta < report.epsilon / 4.0 + 1e-30:
        raise MoveError(f"delta must lie in [0, epsilon/4 = {report.epsilon / 4.0}]")
    if delta == 0.0:
        return f
    # uniform(lo, hi) is lo + (hi - lo) * random(), so these draws are
    # uniform(0, 2 pi) and uniform(0, 1) bit for bit, without their frames
    r, turn = random.Random(seed).random, 2.0 * math.pi
    for _ in range(9):
        polylines = {}
        for e in f.graph.edges:
            pts = list(f.polylines[e.id].points)
            for k in range(1, len(pts) - 1):
                a = turn * r()
                d = delta * math.sqrt(r())
                pts[k] = (pts[k][0] + d * math.cos(a),
                          pts[k][1] + d * math.sin(a))
            polylines[e.id] = Polyline(pts)
        g = PlaneImmersion(f.graph, f.positions, polylines)
        check = validate_generic(g, tol)
        if check.passed and len(check.crossings) == len(report.crossings):
            return g
        delta /= 2.0
    raise MoveError("perturbation could not preserve genericity")


def insert_curl(f: PlaneImmersion, eid: int, t: float, sign: int,
                tol: Tolerances | None = None) -> PlaneImmersion:
    """One small loop at arclength t of edge eid, adding `sign` to the
    turning of any traversal that runs the edge tail to head."""
    return _move(f, MoveRecord("curl", edge=eid, t=t, sign=sign), tol)


def whitney_pair(f: PlaneImmersion, eid: int, t: float,
                 tol: Tolerances | None = None) -> PlaneImmersion:
    """Two opposite curls side by side; a regular-homotopy move."""
    return _move(f, MoveRecord("whitney_pair", edge=eid, t=t), tol)


def perturb(f: PlaneImmersion, seed: int, delta: float | None = None,
            tol: Tolerances | None = None) -> PlaneImmersion:
    """Jitter every interior bend point by at most delta, keeping vertices
    fixed; halves delta and retries (up to 8 times) if genericity breaks.
    delta must lie in [0, epsilon/4); None means epsilon/8."""
    return _move(f, MoveRecord("perturb", seed=seed, delta=delta), tol)


def apply_moves(f: PlaneImmersion, records,
                tol: Tolerances | None = None) -> PlaneImmersion:
    """Apply MoveRecords (or their JSON dicts) in order, each through
    `_move`, each move's output the next one's input."""
    for rec in records:
        if isinstance(rec, dict):
            rec = MoveRecord.from_json_dict(rec)
        elif not isinstance(rec, MoveRecord):
            raise MoveError(f"move record {rec!r} is not an object")
        f = _move(f, rec, tol)
    return f
