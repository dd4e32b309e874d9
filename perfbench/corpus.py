#!/usr/bin/env python3
"""Seeded drawing corpora for the planetube benchmark.

Every drawing is built here from raw coordinates with the standard library
alone.  Nothing is imported from planetube, so a change to the program's
moves, fixtures or validator cannot change what a workload measures.

    python3 perfbench/corpus.py --seed 7 --out perfbench/out/corpus-7

writes `wu_curls.json`, `edit_dense.json` and `cli_small.json` into the
output directory.  The same seed always gives the same files.  The make-up
of each corpus (graph sizes, bends, curls, move scripts) is fixed; the seed
only moves vertices and bends, and picks curl and move positions and signs.
"""
from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

# Drawings are redrawn until their features (vertices, crossings) clear a
# floor and nothing comes within a margin of touching (see `clearance`).
# In wu_curls every edge leaves its ends along a straight germ of length
# WU_GERM and the floor sits just below it, so the shortest distance the
# program's tracing scale depends on is a germ, and its suggested scale
# (half of that) is the same on every drawing.  The tracer's work, edge
# length / eps, then depends on the recipe and hardly on the seed.
WU_GERM = 0.4
WU_CLEARANCE = 0.999 * WU_GERM
WU_MARGIN = 0.1
WU_CURL = 0.55              # curl size: its loop is far longer than a germ
DENSE_CLEARANCE = 0.01
MIN_ANGLE = 0.25            # radians: germ separation, crossing angle, bends
MAX_ATTEMPTS = 2000
CURL_ATTEMPTS = 50

# (n, bends per edge, curls) for wu_curls; the seed never changes this list.
WU_RECIPES = [(3, 0, 0), (3, 1, 2), (3, 2, 4),
              (4, 0, 1), (4, 1, 3), (4, 2, 0),
              (5, 0, 2), (5, 1, 4), (5, 2, 1),
              (6, 0, 3), (6, 1, 0), (6, 2, 2)]
# (n, bends, curls, eps divisor): the suggested scale divided by 10 and 100
WU_EPS_RECIPES = [(4, 1, 0, 10), (4, 1, 0, 100), (5, 0, 0, 10), (5, 0, 0, 100)]
WU_COPIES = 3               # drawings per WU_RECIPES entry: damps the seed
# (n, bends per edge, script) for edit_dense; segments = edges * (bends + 1).
# Each move validates about twice and a validation scans all segment pairs,
# so the cost of a script goes as moves x segments^2: longer scripts run on
# smaller drawings, and every operation costs about the same.
DENSE_RECIPES = [(6, 22, ("curl",)),
                 (6, 21, ("whitney_pair",)),
                 (6, 20, ("perturb",)),
                 (5, 24, ("curl", "perturb")),
                 (5, 23, ("whitney_pair", "perturb")),
                 (6, 15, ("curl", "whitney_pair")),
                 (4, 25, ("curl", "whitney_pair", "perturb")),
                 (5, 19, ("curl", "whitney_pair", "perturb")),
                 (6, 12, ("perturb", "curl", "whitney_pair"))]


# ---------------------------------------------------------------- geometry

def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def turn(u, v):
    return math.atan2(_cross(u, v), u[0] * v[0] + u[1] * v[1])


def _point_segment(p, a, b):
    ab = sub(b, a)
    l2 = ab[0] * ab[0] + ab[1] * ab[1]
    t = 0.0 if l2 == 0.0 else max(0.0, min(1.0, (
        (p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / l2))
    return _dist(p, (a[0] + t * ab[0], a[1] + t * ab[1]))


def crossing(a, b, c, d):
    """Interior intersection point of segments ab and cd, or None."""
    r, s = sub(b, a), sub(d, c)
    den = _cross(r, s)
    if den == 0.0:
        return None
    qp = sub(c, a)
    t, u = _cross(qp, s) / den, _cross(qp, r) / den
    if 0.0 < t < 1.0 and 0.0 < u < 1.0:
        return (a[0] + t * r[0], a[1] + t * r[1])
    return None


def _unit(a):
    n = math.hypot(a[0], a[1])
    return (a[0] / n, a[1] / n)


# ---------------------------------------------------------------- drawings

def complete_edges(n):
    """Edges of K_n in the program's canonical order: (i, j), i < j."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def to_json(n, edges, pos, lines):
    return {"graph": {"vertices": n, "edges": [list(e) for e in edges]},
            "positions": {str(v): list(pos[v]) for v in sorted(pos)},
            "polylines": {str(k + 1): [list(p) for p in lines[k + 1]]
                          for k in range(len(edges))}}


def kn_drawing(rng, n, bends, germ):
    """K_n with jittered vertices near a radius-10 circle.  Each edge leaves
    both ends along its chord for `germ` (when positive), with `bends`
    jittered bends in between, offset sideways from the chord by up to a
    quarter of their spacing."""
    edges = complete_edges(n)
    step = 2.0 * math.pi / n
    pos = {}
    for v in range(1, n + 1):
        a = step * (v - 1) + rng.uniform(-0.2, 0.2) * step
        r = 10.0 * rng.uniform(0.9, 1.1)
        pos[v] = (r * math.cos(a), r * math.sin(a))
    lines = {}
    for k, (t, h) in enumerate(edges, start=1):
        p, q = pos[t], pos[h]
        d = sub(q, p)
        length = math.hypot(*d)
        normal = _unit((-d[1], d[0]))
        gap = 1.0 / (bends + 1)
        pts = [p]
        for i in range(1, bends + 1):
            f = gap * (i + rng.uniform(-0.2, 0.2))
            off = rng.uniform(-0.25, 0.25) * gap * length
            pts.append((p[0] + f * d[0] + off * normal[0],
                        p[1] + f * d[1] + off * normal[1]))
        pts.append(q)
        if germ > 0.0:
            g = germ / length
            pts[1:1] = [(p[0] + g * d[0], p[1] + g * d[1])]
            pts[-1:-1] = [(q[0] - g * d[0], q[1] - g * d[1])]
        lines[k] = pts
    return edges, pos, lines


def add_curl(rng, line, sign, r):
    """Splice a small self-crossing loop of size r into the longest segment
    of an edge polyline, adding `sign` to the turning of a tail-to-head
    traversal; None when that segment is shorter than 6 r."""
    i = max(range(len(line) - 1), key=lambda j: _dist(line[j], line[j + 1]))
    a, b = line[i], line[i + 1]
    seg = _dist(a, b)
    if seg < 6.0 * r:
        return None
    u = _unit(sub(b, a))
    nrm = (-u[1] * sign, u[0] * sign)
    c = rng.uniform(2.0 * r, seg - 3.0 * r)
    centre = (a[0] + c * u[0], a[1] + c * u[1])

    def at(x, y):
        return (centre[0] + r * (x * u[0] + y * nrm[0]),
                centre[1] + r * (x * u[1] + y * nrm[1]))

    loop = [at(-2.0, 0.0), at(1.0, 0.0), at(1.0, 1.2), at(-1.0, 1.2),
            at(-1.0, -0.8), at(1.5, -0.8), at(2.5, 0.0)]
    return line[:i + 1] + loop + line[i + 1:]


def clearance(edges, pos, lines):
    """(feature clearance, touch clearance) of a drawing; (0, 0) when two
    germs at a vertex, two crossing strands or the two sides of a bend come
    within MIN_ANGLE of degenerate.

    Feature clearance is the smallest distance between two crossings, a
    crossing and a vertex, or a vertex and a segment that is not its germ:
    the distances a tracing scale has to stay below.  Touch clearance is
    the smallest distance between a crossing and a bend, between two
    segments that neither cross nor meet, and the shortest segment: how far
    the drawing is from a tangency or a crossing through a bend.  The first
    two segments of edges leaving a common vertex only have to miss each
    other.
    """
    segs = []
    for k in range(1, len(edges) + 1):
        pts = lines[k]
        last = len(pts) - 2
        t, h = edges[k - 1]
        for i in range(last + 1):
            germ = ({t} if i == 0 else set()) | ({h} if i == last else set())
            near = ({t} if i <= 1 else set()) | ({h} if i >= last - 1 else set())
            segs.append((k, i, pts[i], pts[i + 1], germ, near))
    for pts in lines.values():
        for i in range(1, len(pts) - 1):
            bend = turn(sub(pts[i], pts[i - 1]), sub(pts[i + 1], pts[i]))
            if abs(bend) > math.pi - MIN_ANGLE:
                return 0.0, 0.0
    for v in pos:
        germs = [sub(lines[k][1], lines[k][0]) if v == t else
                 sub(lines[k][-2], lines[k][-1])
                 for k, (t, h) in enumerate(edges, start=1) if v in (t, h)]
        for i in range(len(germs)):
            for j in range(i + 1, len(germs)):
                if abs(turn(germs[i], germs[j])) < MIN_ANGLE:
                    return 0.0, 0.0
    touch = min(_dist(a, b) for _, _, a, b, _, _ in segs)
    feature = min(_point_segment(pos[v], a, b)
                  for v in pos for _, _, a, b, germ, _ in segs
                  if v not in germ and pos[v] not in (a, b))
    crossings = []
    for x in range(len(segs)):
        e1, i1, a1, b1, g1, n1 = segs[x]
        for y in range(x + 1, len(segs)):
            e2, i2, a2, b2, g2, n2 = segs[y]
            if e1 == e2 and abs(i1 - i2) <= 1 or g1 & g2:
                continue
            # bounding boxes farther apart than the touch clearance so far
            # can neither lower it nor cross
            if (min(a1[0], b1[0]) - max(a2[0], b2[0]) > touch
                    or min(a2[0], b2[0]) - max(a1[0], b1[0]) > touch
                    or min(a1[1], b1[1]) - max(a2[1], b2[1]) > touch
                    or min(a2[1], b2[1]) - max(a1[1], b1[1]) > touch):
                continue
            hit = crossing(a1, b1, a2, b2)
            if hit is None:
                if not (e1 != e2 and n1 & n2):
                    touch = min(touch, _point_segment(a1, a2, b2),
                                _point_segment(b1, a2, b2),
                                _point_segment(a2, a1, b1),
                                _point_segment(b2, a1, b1))
                continue
            if abs(math.sin(turn(sub(b1, a1), sub(b2, a2)))) < math.sin(
                    MIN_ANGLE):
                return 0.0, 0.0
            crossings.append(hit)
    bends = [p for pts in lines.values() for p in pts[1:-1]]
    for i, c in enumerate(crossings):
        touch = min([touch] + [_dist(c, p) for p in bends])
        feature = min([feature] + [_dist(c, p) for p in pos.values()]
                      + [_dist(c, d) for d in crossings[i + 1:]])
    return feature, touch


def _draw(rng, n, bends, curls, germ, floor, margin):
    """A drawing whose feature clearance is at least `floor` and touch
    clearance at least `margin`.  The base K_n is redrawn until it clears
    both, each curl is placed until the drawing still does, and the whole
    drawing is redrawn when a curl finds no room."""

    def clears(lines):
        feature, touch = clearance(edges, pos, lines)
        return feature >= floor and touch >= margin

    for _ in range(MAX_ATTEMPTS):
        edges, pos, lines = kn_drawing(rng, n, bends, germ)
        if not clears(lines):
            continue
        # curl i goes on the i-th longest edge: which cycles a curl
        # lengthens sets much of its cost, so that is not left to the seed
        longest = sorted(range(1, len(edges) + 1),
                         key=lambda k: -_dist(*(pos[v] for v in edges[k - 1])))
        for i in range(curls):
            k = longest[i % len(edges)]
            for _ in range(CURL_ATTEMPTS):
                line = add_curl(rng, lines[k], rng.choice((-1, 1)), WU_CURL)
                if line and clears({**lines, k: line}):
                    lines[k] = line
                    break
            else:
                break
        else:
            return edges, pos, lines
    raise RuntimeError(f"no drawing of K{n} clears {floor}")


# ----------------------------------------------------------------- corpora

def wu_curls(seed):
    """Drawings for `wu`: K3-K6 with 0-2 bends between the germs of each
    edge and 0-4 curls, plus K4 and K5 drawings to be evaluated at the
    suggested scale / 10 and / 100."""
    rng = random.Random(f"wu_curls/{seed}")
    out = []
    recipes = [(n, b, c, 1) for n, b, c in WU_RECIPES] * WU_COPIES \
        + WU_EPS_RECIPES
    for i, (n, bends, curls, div) in enumerate(recipes):
        edges, pos, lines = _draw(rng, n, bends, curls, WU_GERM, WU_CLEARANCE,
                                  WU_MARGIN)
        name = f"K{n}-b{bends}-c{curls}" + (f"-eps/{div}" if div > 1 else "")
        out.append({"name": f"{i}-{name}", "eps_div": div,
                    "drawing": to_json(n, edges, pos, lines)})
    return out


def _move_site(lines, k):
    """Arclength of the segment midpoint on edge k, between 25% and 75% of
    its length, farthest from every other segment: a curl or Whitney pair
    there has room."""
    pts = lines[k]
    cum = [0.0]
    for a, b in zip(pts, pts[1:]):
        cum.append(cum[-1] + _dist(a, b))
    best, where = -1.0, 0.0
    for i in range(1, len(pts) - 2):
        mid = ((pts[i][0] + pts[i + 1][0]) / 2, (pts[i][1] + pts[i + 1][1]) / 2)
        room = min(_point_segment(mid, a, b)
                   for j, other in lines.items()
                   for s, (a, b) in enumerate(zip(other, other[1:]))
                   if not (j == k and s == i))
        t = (cum[i] + cum[i + 1]) / 2
        if room > best and 0.25 < t / cum[-1] < 0.75:
            best, where = room, t
    return where


def edit_dense(seed):
    """Densely bent K4-K6 drawings (150-350 segments), each with a 1-3 move
    script of curls, Whitney pairs and perturbations on distinct edges."""
    rng = random.Random(f"edit_dense/{seed}")
    out = []
    for n, bends, script in DENSE_RECIPES:
        edges, pos, lines = _draw(rng, n, bends, 0, 0.0, DENSE_CLEARANCE,
                                  DENSE_CLEARANCE)
        chosen = rng.sample(range(1, len(edges) + 1), len(script))
        moves = []
        for kind, k in zip(script, chosen):
            if kind == "perturb":
                moves.append({"kind": "perturb", "seed": rng.randint(0, 10**6)})
                continue
            move = {"kind": kind, "edge": k,
                    "t": _move_site(lines, k)}
            if kind == "curl":
                move["sign"] = rng.choice((-1, 1))
            moves.append(move)
        segments = sum(len(p) - 1 for p in lines.values())
        out.append({"name": f"K{n}-b{bends}-s{segments}-"
                            + "+".join(m["kind"] for m in moves),
                    "drawing": to_json(n, edges, pos, lines), "moves": moves})
    return out


def _similarity(rng, drawing):
    """Rotate, scale and shift a drawing; its invariant does not change."""
    a = rng.uniform(0.0, 2.0 * math.pi)
    s = rng.uniform(0.5, 2.0)
    dx, dy = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    c, si = s * math.cos(a), s * math.sin(a)

    def f(p):
        return [c * p[0] - si * p[1] + dx, si * p[0] + c * p[1] + dy]

    return {"graph": drawing["graph"],
            "positions": {k: f(p) for k, p in drawing["positions"].items()},
            "polylines": {k: [f(p) for p in pts]
                          for k, pts in drawing["polylines"].items()}}


def _planar_k4():
    edges = complete_edges(4)
    pos = {1: (0.0, 0.0), 2: (6.0, 0.0), 3: (3.0, 5.0), 4: (3.1, 1.7)}
    lines = {k: [pos[t], pos[h]] for k, (t, h) in enumerate(edges, start=1)}
    return to_json(4, edges, pos, lines)


def _curve_r2():
    """Triangle with one counterclockwise curl: rotation number 2."""
    edges = complete_edges(3)
    pos = {1: (2.0, 3.0), 2: (0.0, 0.0), 3: (4.0, 0.0)}
    lines = {1: [pos[1], pos[2]], 2: [pos[1], pos[3]],
             3: add_curl(random.Random(0), [pos[2], pos[3]], 1, 0.2)}
    return to_json(3, edges, pos, lines)


def _star4(order):
    pos = {5: (0.0, 0.0)}
    lines = {}
    for k, eid in enumerate(order):
        a = math.pi / 2 + 2 * math.pi * k / 4
        pos[eid] = (math.cos(a), math.sin(a))
        lines[eid] = [pos[eid], pos[5]]
    return to_json(5, [(i, 5) for i in range(1, 5)], pos, lines)


def fault_nan_bend():
    """The planar K4 with a NaN bend on edge 1: not a drawing at all."""
    d = _planar_k4()
    d["polylines"]["1"].insert(1, [math.nan, 1.0])
    return d


def fault_x_shared_bend():
    """Path graph whose two edges cross in an X through a common bend at
    (2, 2): a crossing at a bend, which is not generic."""
    return to_json(3, [(1, 2), (2, 3)],
                   {1: (0.0, 0.0), 2: (6.0, 2.0), 3: (0.0, 4.0)},
                   {1: [(0.0, 0.0), (2.0, 2.0), (4.0, 4.0), (6.0, 2.0)],
                    2: [(6.0, 2.0), (4.0, 0.0), (2.0, 2.0), (0.0, 4.0)]})


def cli_small(seed):
    """Small CLI inputs (seeded similarity copies of planar K4, a rotation
    number 2 curve and a 4-star) plus two fixed fault inputs that the
    validator should reject with exit 1."""
    rng = random.Random(f"cli_small/{seed}")
    order = [1, 2, 3, 4]
    rng.shuffle(order)
    files = {"k4": _similarity(rng, _planar_k4()),
             "curve2": _similarity(rng, _curve_r2()),
             "star4": _similarity(rng, _star4(order))}
    out = [{"name": f"{cmd}-{name}", "command": cmd, "drawing": d,
            "fault": False}
           for name, d in files.items() for cmd in ("invariant", "validate")]
    out.append({"name": "fault-nan-bend", "command": "invariant",
                "drawing": fault_nan_bend(), "fault": True})
    out.append({"name": "fault-x-shared-bend", "command": "invariant",
                "drawing": fault_x_shared_bend(), "fault": True})
    return out


CORPORA = {"wu_curls": wu_curls, "edit_dense": edit_dense,
           "cli_small": cli_small}


def write(seed, out_dir, names=tuple(CORPORA)):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        (out_dir / f"{name}.json").write_text(json.dumps(CORPORA[name](seed)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    write(args.seed, args.out)


if __name__ == "__main__":
    main()
