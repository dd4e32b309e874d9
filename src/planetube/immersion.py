"""Polyline plane immersions of graphs: the drawing and the report it
keeps, the JSON loader, relabelings and point maps, fixtures and the SVG
rendering.  Genericity is validated in `genericity`.
"""
from __future__ import annotations

import math
import sys
from itertools import chain
from types import MappingProxyType

from . import geometry as geo
from .geometry import Polyline, Point
from .genericity import (GenericityReport, ImmersionError, NotGenericError,
                         Tolerances, validate_generic)
from .graphs import (Frozen, Graph, SubgraphMap, complete_graph, star_graph,
                     validate_graph)


class PlaneImmersion(Frozen):
    """A graph drawn in the plane: a position per vertex and a polyline per
    edge, never changed once built.  `positions` and `polylines` are
    read-only copies (`MappingProxyType`) of the tables passed in, so
    neither an item assignment nor a later change to the caller's dicts
    reaches the drawing; a `Polyline`'s own `points` list stays mutable,
    and readers leave it as it is.

    A drawing keeps one genericity report per tolerance (`_report`): the
    last that `genericity.validate_generic` computed for it, or that
    `genericity.revalidate` derived for it as a splice's output.
    `invariant.prepare` and the moves
    read it instead of validating again; `validate_generic` always
    recomputes, as the oracle, and overwrites it.  A kept report is shared
    with every later reader: its fields are read-only by type (a
    NamedTuple), and readers leave the lists and dicts in them as they are.
    It holds the drawing's segment index for as long as the drawing lives.
    Copies and pickles start with no report."""
    __slots__ = ("graph", "positions", "polylines", "_bbox", "_reports")

    def __init__(self, graph: Graph, positions: dict, polylines: dict):
        object.__setattr__(self, "graph", graph)
        # read-only copies: vertex id -> Point, edge id -> Polyline
        positions, polylines = dict(positions), dict(polylines)
        object.__setattr__(self, "positions", MappingProxyType(positions))
        object.__setattr__(self, "polylines", MappingProxyType(polylines))
        object.__setattr__(self, "_bbox", None)
        object.__setattr__(self, "_reports", {})   # see _report
        for v in graph.vertices():
            if v not in positions:
                raise ImmersionError(f"missing position for vertex {v}")
            if not all(map(math.isfinite, positions[v])):
                raise ImmersionError(f"vertex {v}: non-finite position")
        for e in graph.edges:
            pl = polylines.get(e.id)
            if pl is None:
                raise ImmersionError(f"missing polyline for edge {e.id}")
            # a segment with a non-finite end has a non-finite length
            if not math.isfinite(pl.length):
                raise ImmersionError(f"edge {e.id}: non-finite coordinate")
            if pl.points[0] != tuple(positions[e.tail]):
                raise ImmersionError(
                    f"edge {e.id}: polyline does not start at tail position")
            if pl.points[-1] != tuple(positions[e.head]):
                raise ImmersionError(
                    f"edge {e.id}: polyline does not end at head position")

    def _report(self, tol: Tolerances | None,
                report: GenericityReport | None = None) -> GenericityReport:
        """The report kept under tol, by `Tolerances.tau_abs` (None for the
        default tau): `report`, kept over the last, when given; else the one
        kept, or when none is, `validate_generic`'s, which it keeps."""
        key = tol and tol.tau_abs
        if report is not None:
            self._reports[key] = report
        return self._reports.get(key) or validate_generic(self, tol)

    def generic_report(self, tol: Tolerances | None = None
                       ) -> GenericityReport:
        """The report kept under tol (`_report`), once it passed; a drawing
        that did not raises NotGenericError naming its violations."""
        report = self._report(tol)
        if not report.passed:
            raise NotGenericError("immersion is not generic: " + "; ".join(
                f"{kind}: {msg}" for kind, msg in report.violations))
        return report

    def __getstate__(self):
        """What `copy` and `pickle` save: every slot but the reports, the
        two tables as plain dicts, as a mappingproxy does not pickle."""
        return None, {"graph": self.graph, "positions": dict(self.positions),
                      "polylines": dict(self.polylines), "_bbox": self._bbox}

    def __setstate__(self, state):
        slots = state[1]
        super().__setstate__((None, dict(
            slots, positions=MappingProxyType(slots["positions"]),
            polylines=MappingProxyType(slots["polylines"]), _reports={})))

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        """(least x, greatest x, least y, greatest y) of the polylines, read
        once per drawing: validation takes tau and its segment index from
        it."""
        if self._bbox is None:
            xs = [p[0] for pl in self.polylines.values() for p in pl.points]
            ys = [p[1] for pl in self.polylines.values() for p in pl.points]
            object.__setattr__(self, "_bbox",
                               (min(xs), max(xs), min(ys), max(ys)))
        return self._bbox

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "positions": {str(v): list(self.positions[v])
                          for v in self.graph.vertices()},
            "polylines": {str(e.id): [list(p)
                                      for p in self.polylines[e.id].points]
                          for e in self.graph.edges},
        }


def _key_ids(table: dict, name: str, what: str, ids: range) -> dict:
    """Decimal key -> id for the ids in `ids`, once every key of the JSON
    table is one of them; any other key, such as "x", "1.0" or an id the
    graph lacks, is refused by the table's name."""
    by_key = {str(i): i for i in ids}
    for k in table:
        if k not in by_key:
            raise ImmersionError(f"{name}: key {k!r} names no {what} of the "
                                 f"graph ({ids.start}..{ids.stop - 1})")
    return by_key


_NOT_NUMBERS = {str, bool, type(None)}


def _object(value, name: str) -> dict:
    """value, once it is a JSON object; anything else is refused by name."""
    if not isinstance(value, dict):
        raise ImmersionError(
            f"{name} must be an object, not {type(value).__name__}")
    return value


def _search_points(data: dict) -> None:
    """Refuses, by field, the first point not of two numbers a float holds."""
    for where, pts in chain(
            ((f"vertex {k} position", [p])
             for k, p in data["positions"].items()),
            ((f"edge {k} polyline", pl)
             for k, pl in data["polylines"].items())):
        for p in pts:
            if not isinstance(p, (list, tuple)):
                raise ImmersionError(f"{where}: {p!r} is not a point")
            if len(p) != 2:
                raise ImmersionError(f"{where}: point {p!r} needs exactly "
                                     "two coordinates")
            for x in p:
                if type(x) in _NOT_NUMBERS:
                    raise ImmersionError(
                        f"{where}: coordinate {x!r} is not a number")
                if type(x) is int and abs(x) > sys.float_info.max:
                    raise ImmersionError(
                        f"{where}: a coordinate is too large for a float")


def immersion_from_json_dict(data: dict) -> PlaneImmersion:
    gd = _object(_object(data, "immersion")["graph"], "graph")
    g = validate_graph(gd["vertices"], gd["edges"])
    for k, pl in _object(data["polylines"], "polylines").items():
        if not isinstance(pl, (list, tuple)):
            raise ImmersionError(
                f"edge {k} polyline: {pl!r} is not a list of points")
        if len(pl) < 2:
            raise ImmersionError(
                f"edge {k} polyline: needs at least two points")
    points = list(chain(_object(data["positions"], "positions").values(),
                        *data["polylines"].values()))
    # a point that is not a pair, or a JSON string, boolean or null where a
    # number belongs (a string or boolean would pass float()); the fields
    # are searched for it only when the points' types or sizes show one
    if (set(map(type, points)) - {list, tuple} or set(map(len, points)) - {2}
            or _NOT_NUMBERS & set(map(type, chain.from_iterable(points)))):
        _search_points(data)
    vid = _key_ids(data["positions"], "positions", "vertex", g.vertices())
    eid = _key_ids(data["polylines"], "polylines", "edge",
                   range(1, g.num_edges + 1))
    try:
        positions = {vid[k]: (float(x), float(y))
                     for k, (x, y) in data["positions"].items()}
        polylines = {eid[k]: Polyline(v) for k, v in data["polylines"].items()}
    except (OverflowError, ValueError):     # an int past the floats
        _search_points(data)
        raise
    return PlaneImmersion(g, positions, polylines)




def restrict(f: PlaneImmersion, sub: SubgraphMap) -> PlaneImmersion:
    """Copy positions and polylines onto a relabeled subgraph."""
    positions = {v: tuple(f.positions[sub.vertex_to_parent[v]])
                 for v in sub.graph.vertices()}
    polylines = {}
    for e in sub.graph.edges:
        parent_eid = sub.edge_to_parent[e.id]
        parent_edge = f.graph.edge(parent_eid)
        pl = f.polylines[parent_eid]
        if sub.vertex_to_parent[e.tail] == parent_edge.tail:
            polylines[e.id] = Polyline(pl.points)
        else:
            polylines[e.id] = pl.reversed()
    return PlaneImmersion(sub.graph, positions, polylines)


def map_points(f: PlaneImmersion, fn) -> PlaneImmersion:
    """Apply a point transformation to every coordinate."""
    positions = {v: fn(tuple(f.positions[v])) for v in f.graph.vertices()}
    polylines = {e.id: Polyline([fn(p) for p in f.polylines[e.id].points])
                 for e in f.graph.edges}
    return PlaneImmersion(f.graph, positions, polylines)


def reflect(f: PlaneImmersion) -> PlaneImmersion:
    return map_points(f, lambda p: (p[0], -p[1]))


# ---------------------------------------------------------------------------
# fixtures


def standard_curve(r: int) -> PlaneImmersion:
    """A plane curve (K3 immersion) whose invariant coordinate is r.

    The canonical evaluation cycle traverses v2 -> v3 -> v1 -> v2; the base
    triangle makes that loop counterclockwise, and |r - 1| curls on edge e3
    adjust the turning.
    """
    g = complete_graph(3)
    v1, v2, v3 = (2.0, 3.0), (0.0, 0.0), (4.0, 0.0)
    positions = {1: v1, 2: v2, 3: v3}
    e3_points: list[Point] = [v2]
    kinks = abs(r - 1)
    sign = 1 if r > 1 else -1
    # curl centers stay within [0.6, 3.6] on the length-4 edge: beyond four
    # curls they move closer together and shrink with their spacing
    spacing = min(0.9, 3.0 / max(kinks - 1, 1))
    radius = min(0.1, spacing / 9)
    for k in range(kinks):
        center = (0.6 + spacing * k, 0.0)
        e3_points.extend(geo.kink_waypoints(center, (1.0, 0.0), radius, sign))
    e3_points.append(v3)
    polylines = {
        1: Polyline([v1, v2]),          # e1 = (1,2)
        2: Polyline([v1, v3]),          # e2 = (1,3)
        3: Polyline(e3_points),         # e3 = (2,3)
    }
    return PlaneImmersion(g, positions, polylines)


def standard_star(order, germ_angles=None) -> PlaneImmersion:
    """Straight-spoke star immersion realizing a cyclic order of edge germs.

    `order` lists edge ids counterclockwise; evenly spaced germs unless
    explicit angles (per edge id) are given.
    """
    order = list(order)
    d = len(order)
    if sorted(order) != list(range(1, d + 1)):
        raise ImmersionError("order must be a permutation of 1..d")
    g = star_graph(d)
    if germ_angles is None:
        germ_angles = {eid: math.pi / 2 + 2 * math.pi * k / d
                       for k, eid in enumerate(order)}
    center = (0.0, 0.0)
    positions = {d + 1: center}
    polylines = {}
    for eid in range(1, d + 1):
        a = germ_angles[eid]
        tip = (math.cos(a), math.sin(a))
        positions[eid] = tip
        polylines[eid] = Polyline([tip, center])   # e = (leaf, center)
    return PlaneImmersion(g, positions, polylines)


def planar_k4() -> PlaneImmersion:
    """Embedded K4: outer triangle v1 v2 v3 with v4 inside."""
    g = complete_graph(4)
    positions = {1: (0.0, 0.0), 2: (6.0, 0.0), 3: (3.0, 5.0), 4: (3.1, 1.7)}
    polylines = {e.id: Polyline([positions[e.tail], positions[e.head]])
                 for e in g.edges}
    return PlaneImmersion(g, positions, polylines)


# ---------------------------------------------------------------------------
# rendering


def to_svg(f: PlaneImmersion, report: GenericityReport | None = None) -> str:
    size = 480
    x0, x1, y0, y1 = f.bbox
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = 0.05 * span

    def sx(p):
        return (p[0] - x0 + pad) / (span + 2 * pad) * size

    def sy(p):
        return size - (p[1] - y0 + pad) / (span + 2 * pad) * size

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">']
    for e in f.graph.edges:
        pts = " ".join(f"{sx(p):.2f},{sy(p):.2f}" for p in f.polylines[e.id].points)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                     'stroke-width="1.5"/>')
        mid = f.polylines[e.id].point_at(f.polylines[e.id].length / 2)
        parts.append(f'<text x="{sx(mid):.2f}" y="{sy(mid)-4:.2f}" '
                     f'font-size="11" fill="blue">e{e.id}</text>')
    for v in f.graph.vertices():
        p = tuple(f.positions[v])
        parts.append(f'<circle cx="{sx(p):.2f}" cy="{sy(p):.2f}" r="3.5" '
                     'fill="black"/>')
        parts.append(f'<text x="{sx(p)+5:.2f}" y="{sy(p)-5:.2f}" '
                     f'font-size="12">v{v}</text>')
    if report is not None:
        for c in report.crossings:
            parts.append(f'<circle cx="{sx(c.point):.2f}" cy="{sy(c.point):.2f}" '
                         'r="3" fill="none" stroke="red" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
