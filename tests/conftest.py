import itertools
import math
import random

import pytest

from planetube import genericity
from planetube.geometry import Polyline
from planetube.graphs import (Graph, GraphError, validate_graph,
                              complete_graph, tree_path)
from planetube.genericity import ImmersionError, validate_generic
from planetube.immersion import PlaneImmersion
from planetube.oracles import adjacency, tube_tree


def counted_validations(monkeypatch):
    """List that records each drawing validated in full from now on,
    whatever the entry path: a full validation reads the drawing's edges
    once (`genericity._read_edges`)."""
    calls, real = [], genericity._read_edges

    def counting(f, tau):
        calls.append(f)
        return real(f, tau)

    monkeypatch.setattr(genericity, "_read_edges", counting)
    return calls


def resample_midpoints(f: PlaneImmersion) -> PlaneImmersion:
    """Insert the midpoint of every polyline segment (a no-op reparam)."""
    polylines = {}
    for e in f.graph.edges:
        pts = f.polylines[e.id].points
        out = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            out.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
            out.append(b)
        polylines[e.id] = Polyline(out)
    return PlaneImmersion(f.graph, dict(f.positions), polylines)


def straight_line_immersion(g: Graph, positions) -> PlaneImmersion:
    polylines = {e.id: Polyline([positions[e.tail], positions[e.head]])
                 for e in g.edges}
    return PlaneImmersion(g, dict(positions), polylines)


def random_k4(seed: int) -> PlaneImmersion:
    """Straight-line K4 on random points, retried until generic."""
    rng = random.Random(seed)
    g = complete_graph(4)
    while True:
        positions = {v: (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
                     for v in g.vertices()}
        try:
            f = straight_line_immersion(g, positions)
        except ImmersionError:
            continue
        if validate_generic(f).passed:
            return f


def connected_graphs_upto(max_vertices: int):
    """All connected simple labeled graphs with 2..max_vertices vertices."""
    for m in range(2, max_vertices + 1):
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        for bits in range(1, 1 << len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            try:
                yield validate_graph(m, chosen)
            except GraphError:
                continue


def random_connected_graph(rng: random.Random, max_vertices: int) -> Graph:
    while True:
        m = rng.randint(2, max_vertices)
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        k = rng.randint(min(m - 1, len(pairs)), len(pairs))
        try:
            return validate_graph(m, rng.sample(pairs, k))
        except GraphError:
            continue


def drawing(positions, edges, bends=None):
    """Immersion of the graph on `edges` with the given vertex positions and
    interior bend points per edge id."""
    g = validate_graph(len(positions), edges)
    bends = bends or {}
    return PlaneImmersion(g, positions, {
        e.id: Polyline([positions[e.tail], *bends.get(e.id, ()),
                        positions[e.head]])
        for e in g.edges})


def random_bent_kn(rng, n, snap=0.0):
    """K_n on a jittered radius-10 circle, each edge bent 10-25 times about
    its chord.  A positive `snap` rounds every coordinate to that grid, so
    that strands touch, overlap and cross at bends."""
    def at(x, y):
        return (round(x / snap) * snap, round(y / snap) * snap) if snap \
            else (x, y)

    pos = {v: at(10 * math.cos(2 * math.pi * v / n) + rng.uniform(-1, 1),
                 10 * math.sin(2 * math.pi * v / n) + rng.uniform(-1, 1))
           for v in range(1, n + 1)}
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    bends = {}
    for eid, (i, j) in enumerate(edges, start=1):
        (ax, ay), (bx, by), k = pos[i], pos[j], rng.randint(10, 25)
        bends[eid] = [at(ax + (bx - ax) * m / (k + 1) + rng.uniform(-.3, .3),
                         ay + (by - ay) * m / (k + 1) + rng.uniform(-.3, .3))
                      for m in range(1, k + 1)]
    return drawing(pos, edges, bends)


def random_tube_cycle(tc, rng, max_len=40):
    """Random closed walk in a tube complex: wander, then close through the
    tree."""
    adj = adjacency(tc.tube)
    start = rng.choice(tc.tube.vertices)
    cur = start
    steps = []
    for _ in range(rng.randint(1, max_len)):
        e, sgn = rng.choice(adj[cur])
        steps.append((e, sgn))
        cur = e.v if sgn > 0 else e.u
    steps += tree_path(tube_tree(tc), cur, start)
    return steps


@pytest.fixture
def k4():
    from planetube.immersion import planar_k4
    return planar_k4()
