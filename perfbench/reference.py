"""Wu vectors computed apart from the program's tracer, from raw coordinates.

For a drawing given as the program's JSON dict:

- `X{e}` is Whitney's rotation number (Whitney 1937, Compositio Math. 4):
  the turning sum / 2 pi of the closed polyline around the fundamental
  cycle `fundamental_cycle(canonical_spanning_tree(g), e)`.
- `Y{v}[k,j]` is +1 exactly when the germs of the incident edges
  `(inc[j-1], inc[k-1], inc[d-1])` at v run counterclockwise, else -1;
  `inc` lists the edge ids at v in increasing order.

The basis has rank `1 - 2n + sum(d^2) / 2`.  Only the graph conventions
(spanning tree, fundamental cycles) come from `planetube.graphs`; every
angle is computed here.
"""
from __future__ import annotations

import math

from planetube.graphs import (canonical_spanning_tree, fundamental_cycle,
                              validate_graph)

from corpus import crossing, sub, turn


def incident(drawing):
    """Vertex -> incident edge ids in increasing order."""
    inc = {v: [] for v in range(1, drawing["graph"]["vertices"] + 1)}
    for k, (t, h) in enumerate(drawing["graph"]["edges"], start=1):
        inc[t].append(k)
        inc[h].append(k)
    return inc


def germ(drawing, v, eid):
    """Direction of the first segment leaving vertex v along edge eid."""
    pts = drawing["polylines"][str(eid)]
    t, _ = drawing["graph"]["edges"][eid - 1]
    return sub(pts[1], pts[0]) if v == t else sub(pts[-2], pts[-1])


def rotation_number(drawing, steps):
    """Turning sum / 2 pi of the closed polyline over (edge, +1/-1) steps."""
    pts = []
    for eid, d in steps:
        seq = drawing["polylines"][str(eid)]
        seq = seq if d > 0 else seq[::-1]
        pts.extend(seq if not pts else seq[1:])
    dirs = [sub(b, a) for a, b in zip(pts, pts[1:])]
    total = sum(turn(u, w) for u, w in zip(dirs, dirs[1:] + dirs[:1]))
    k = total / (2.0 * math.pi)
    if abs(k - round(k)) > 1e-6:
        raise ValueError(f"turning sum {total} is not a whole number of turns")
    return round(k)


def counterclockwise(a, b, c):
    """True when directions a, b, c are met in this order turning
    counterclockwise from a."""
    tb = math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])
    tc = math.atan2(c[1], c[0]) - math.atan2(a[1], a[0])
    return tb % (2.0 * math.pi) < tc % (2.0 * math.pi)


def graph_of(drawing):
    g = drawing["graph"]
    return validate_graph(g["vertices"], g["edges"])


def wu_reference(drawing):
    """Basis name -> coordinate, in the program's basis order."""
    g = graph_of(drawing)
    tree = canonical_spanning_tree(g)
    out = {}
    for eid in tree.non_tree_edges:
        out[f"X{eid}"] = rotation_number(
            drawing, fundamental_cycle(tree, eid).steps)
    for v, inc in incident(drawing).items():
        d = len(inc)
        for j in range(1, d):
            for k in range(j + 1, d):
                ccw = counterclockwise(germ(drawing, v, inc[j - 1]),
                                       germ(drawing, v, inc[k - 1]),
                                       germ(drawing, v, inc[d - 1]))
                out[f"Y{v}[{k},{j}]"] = 1 if ccw else -1
    degrees = [len(inc) for inc in incident(drawing).values()]
    rank = 1 - 2 * len(drawing["graph"]["edges"]) + sum(x * x for x in degrees) // 2
    if len(out) != rank:
        raise ValueError(f"{len(out)} basis labels, rank formula says {rank}")
    return out


def curl_shift(drawing, eid, sign):
    """How a curl of `sign` on edge eid shifts each X coordinate: sign times
    the signed multiplicity of eid in that X's fundamental cycle."""
    tree = canonical_spanning_tree(graph_of(drawing))
    return {f"X{x}": sign * sum(d for e, d in fundamental_cycle(tree, x).steps
                                if e == eid)
            for x in tree.non_tree_edges}


def crossing_count(drawing):
    """Interior crossings between segments that share no point in the
    topology (brute force over all segment pairs)."""
    segs = []
    for k, (t, h) in enumerate(drawing["graph"]["edges"], start=1):
        pts = drawing["polylines"][str(k)]
        for i in range(len(pts) - 1):
            segs.append((k, i, pts[i], pts[i + 1],
                         t if i == 0 else None,
                         h if i == len(pts) - 2 else None))
    count = 0
    for x, (e1, i1, a, b, t1, h1) in enumerate(segs):
        for e2, i2, c, d, t2, h2 in segs[x + 1:]:
            if e1 == e2 and abs(i1 - i2) <= 1:
                continue
            if e1 != e2 and ({t1, h1} & {t2, h2}) - {None}:
                continue
            count += crossing(a, b, c, d) is not None
    return count


def cyclic_orders(drawing):
    """Vertex -> incident edge ids counterclockwise by germ angle, rotated
    so the smallest id comes first."""
    out = {}
    for v, inc in incident(drawing).items():
        seq = sorted(inc, key=lambda e: math.atan2(*reversed(germ(drawing, v, e))))
        k = seq.index(min(seq))
        out[v] = seq[k:] + seq[:k]
    return out
