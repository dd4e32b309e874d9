"""The symmetric tube of a graph: cells, canonical spanning tree, basis.

Cell naming:
  Z(v, e)     -- pair {vertex v, point on edge e near v};  e incident to v
  W(v, a, b)  -- pair of near-v points on two incident edges a < b
  X(e)        -- sweep of a near-tangent pair along edge e
  Y(v, a, b)  -- the point on incident edge a stays put, the partner moves
                 between v and the near-v point of incident edge b

X(e) is oriented tail -> head with e.  Y(v, a, b) is oriented by edge b:
from Z toward W when v is b's tail, from W toward Z when v is b's head.

Cells and tube edges are plain NamedTuples, equal when all their fields
are.  Each tube edge has one position, its place in `SymmetricTube.edges`,
and `SymmetricTube.index` maps the edge's cell data `e[:4]`, a plain tuple
such as ("Y", v, fixed, moving), to it: it is the one lookup of a tube
edge, both from its cell data (`x_edge`, `y_edge`) and into the rows that
`invariant` sums.  The basis is the tuple of `BasisLabel`s that `wu_basis`
returns, one per non-tree tube edge.

Both kinds of basis cycle are written by rule (`basis_cycle`): an X label's
is its graph fundamental cycle lifted to the tube, a Y label's the 6-step
triangle at its vertex.  The canonical spanning tree of the tube only
names the basis and feeds the conventions fingerprint and the `tube`
output; nothing here walks it.  The breadth-first walk through it, which
closes any non-tree tube edge into its fundamental cycle, is a reference
in `oracles`.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graphs import (Graph, SpanningTree, EdgeCycle, GraphError,
                     canonical_spanning_tree, fundamental_cycle)


class TubeError(ValueError):
    pass


class TubeVertex(NamedTuple):
    """A tube cell: Z(v, e), or W(v, a, b) with a < b, which `W` orders."""
    kind: str          # "Z" or "W"
    vertex: int
    edge_a: int
    edge_b: int = 0    # unused for Z; for W, edge_a < edge_b

    def label(self) -> str:
        if self.kind == "Z":
            return f"Z[v{self.vertex};e{self.edge_a}]"
        return f"W[v{self.vertex};e{self.edge_a},e{self.edge_b}]"


def Z(v: int, e: int) -> TubeVertex:
    return TubeVertex("Z", v, e)


def W(v: int, a: int, b: int) -> TubeVertex:
    lo, hi = min(a, b), max(a, b)
    return TubeVertex("W", v, lo, hi)


class TubeEdge(NamedTuple):
    """A tube edge: its cell data (kind, vertex, edge_a, edge_b), then its
    end cells; traversal u -> v is the positive direction."""
    kind: str          # "X" or "Y"
    vertex: int        # 0 for X
    edge_a: int        # X: the edge id; Y: the fixed-side edge
    edge_b: int        # X: 0; Y: the moving-side edge
    u: TubeVertex
    v: TubeVertex

    def label(self) -> str:
        if self.kind == "X":
            return f"X[e{self.edge_a}]"
        return f"Y[v{self.vertex};fix e{self.edge_a},move e{self.edge_b}]"


class SymmetricTube(NamedTuple):
    graph: Graph
    vertices: tuple[TubeVertex, ...]
    edges: tuple[TubeEdge, ...]
    # a tube edge's cell data e[:4] -> its position in `edges`; the one
    # lookup of a tube edge
    index: dict

    def x_edge(self, eid: int) -> TubeEdge:
        return self.edges[self.index["X", 0, eid, 0]]

    def y_edge(self, v: int, fixed: int, moving: int) -> TubeEdge:
        return self.edges[self.index["Y", v, fixed, moving]]


class BasisLabel(NamedTuple):
    """One generator: a non-tree tube edge, normalized name included."""
    kind: str              # "X" or "Y"
    edge: TubeEdge
    name: str


class TubeComplex(NamedTuple):
    """Symmetric tube together with its canonical spanning tree."""
    tube: SymmetricTube
    tree_edges: frozenset       # of TubeEdge
    graph_tree: SpanningTree

    @property
    def non_tree_edges(self) -> list[TubeEdge]:
        return [e for e in self.tube.edges if e not in self.tree_edges]


def build_symmetric_tube(g: Graph) -> SymmetricTube:
    cells: list[TubeVertex] = []
    for e in g.edges:
        cells.append(Z(e.tail, e.id))
        cells.append(Z(e.head, e.id))
    for v in g.vertices():
        for a, b in combinations(g.incident_edges(v), 2):
            cells.append(W(v, a, b))
    edges: list[TubeEdge] = []
    for e in g.edges:
        edges.append(TubeEdge("X", 0, e.id, 0, Z(e.tail, e.id), Z(e.head, e.id)))
    for v in g.vertices():
        inc = g.incident_edges(v)
        for a in inc:
            for b in inc:
                if a == b:
                    continue
                zc, wc = Z(v, a), W(v, a, b)
                if g.edge(b).tail == v:     # moving point leaves v with b
                    edges.append(TubeEdge("Y", v, a, b, zc, wc))
                else:
                    edges.append(TubeEdge("Y", v, a, b, wc, zc))
    return SymmetricTube(g, tuple(cells), tuple(edges),
                         {e[:4]: i for i, e in enumerate(edges)})


def tube_spanning_tree(tube: SymmetricTube) -> TubeComplex:
    """Canonical spanning tree: X edges over the graph's canonical spanning
    tree plus, per vertex, the star-pattern tree transported along the
    neighbor order.  `invariant.wu_plan` caches the result per graph."""
    g = tube.graph
    graph_tree = canonical_spanning_tree(g)
    tree: set[TubeEdge] = set()
    for eid in graph_tree.edge_ids:
        tree.add(tube.x_edge(eid))
    for v in g.vertices():
        inc = g.incident_edges(v)     # i_1 < i_2 < ... < i_d
        d = len(inc)
        if d < 2:
            continue
        last = inc[-1]
        for j in range(d - 1):
            tree.add(tube.y_edge(v, last, inc[j]))      # fixed = i_d
            tree.add(tube.y_edge(v, inc[j], last))      # moving = i_d
        for j in range(d - 1):
            for k in range(j + 1, d - 1):
                tree.add(tube.y_edge(v, inc[j], inc[k]))  # fixed j < moving k
    tc = TubeComplex(tube, frozenset(tree), graph_tree)
    expected = len(tube.vertices) - 1
    if len(tree) != expected:
        raise TubeError(f"tube tree has {len(tree)} edges, expected {expected}")
    return tc


def rank(g: Graph) -> int:
    """Number of independent generators of the tube's first cohomology."""
    total = sum(g.degree(v) ** 2 for v in g.vertices())
    value = 1 - 2 * g.num_edges + total // 2
    if total % 2:
        raise TubeError("degree-square sum must be even")   # handshake lemma
    return value


def wu_basis(tc: TubeComplex) -> tuple[BasisLabel, ...]:
    """The basis labels of tc, one per non-tree tube edge: X labels by
    non-tree graph edge, then Y labels by vertex and local index pair."""
    g = tc.tube.graph
    labels: list[BasisLabel] = []
    for eid in tc.graph_tree.non_tree_edges:
        e = tc.tube.x_edge(eid)
        labels.append(BasisLabel("X", e, f"X{eid}"))
    for v in g.vertices():
        inc = g.incident_edges(v)
        d = len(inc)
        if d < 3:
            continue
        for j in range(1, d):           # local indices 1..d-1, j < k
            for k in range(j + 1, d):
                edge = tc.tube.y_edge(v, inc[k - 1], inc[j - 1])
                labels.append(BasisLabel("Y", edge, f"Y{v}[{k},{j}]"))
    # sanity: labels are exactly the non-tree tube edges
    non_tree = set(tc.non_tree_edges)
    if {b.edge for b in labels} != non_tree or len(labels) != len(non_tree):
        raise TubeError("basis labels do not match non-tree tube edges")
    if len(labels) != rank(g):
        raise TubeError("basis size disagrees with rank formula")
    return tuple(labels)


def basis_cycle(tc: TubeComplex, label: BasisLabel):
    """The evaluation cycle for a basis label, written by rule.

    X labels: the tube cycle realizing the graph fundamental cycle of the
    non-tree graph edge (pair sweeps around that cycle once).
    Y labels: the triangle at the label's vertex v through the cells of its
    moving edge a, its fixed edge b and v's last incident edge c,
    Z(b) -> W(a,b) -> Z(a) -> W(a,c) -> Z(c) -> W(b,c) -> Z(b).  Its first
    step is the non-tree Y edge from its Z cell to its W cell (moving point
    leaving the vertex); the other five are tree edges.  This fixed
    geometric direction, not the stored edge orientation, pins the sign
    convention.
    """
    if label.kind == "X":
        gamma = fundamental_cycle(tc.graph_tree, label.edge.edge_a)
        return tube_cycle_over_graph_cycle(tc.tube, gamma)
    v, b, a = label.edge.vertex, label.edge.edge_a, label.edge.edge_b
    c = tc.tube.graph.incident_edges(v)[-1]
    steps = []
    # (fixed, moving) per step; even steps leave Z(fixed), odd steps W
    for i, (fixed, moving) in enumerate(
            ((b, a), (a, b), (a, c), (c, a), (c, b), (b, c))):
        e = tc.tube.y_edge(v, fixed, moving)
        steps.append((e, +1 if e.u.kind == "ZW"[i % 2] else -1))
    return steps


def tube_cycle_over_graph_cycle(tube: SymmetricTube, c: EdgeCycle):
    """Tube cycle projecting onto a simple graph cycle: X sweeps joined by
    two-step W transits at each vertex."""
    if len(c.steps) < 3:
        raise GraphError("simple graphs have no cycles shorter than 3 edges")
    if len({eid for eid, _ in c.steps}) != len(c.steps):
        raise GraphError("cycle must be simple (no repeated edges)")
    g = tube.graph
    out = []
    n = len(c.steps)
    for idx, (eid, d) in enumerate(c.steps):
        out.append((tube.x_edge(eid), d))
        nxt_eid, _ = c.steps[(idx + 1) % n]
        e = g.edge(eid)
        v = e.head if d > 0 else e.tail        # meeting vertex
        # Z(v, eid) -> W(v, {eid, nxt}) -> Z(v, nxt)
        y1 = tube.y_edge(v, eid, nxt_eid)      # moving point leaves v on nxt
        out.append((y1, +1 if y1.u.kind == "Z" else -1))
        y2 = tube.y_edge(v, nxt_eid, eid)      # moving point returns to v
        out.append((y2, +1 if y2.u.kind == "W" else -1))
    return out


def cycle_is_closed(steps) -> bool:
    cur = None
    first = None
    for e, d in steps:
        a, b = (e.u, e.v) if d > 0 else (e.v, e.u)
        if first is None:
            first = a
        elif a != cur:
            return False
        cur = b
    return cur == first


def swap_parity(steps) -> int:
    """0 if the closed pair path returns with the two points in the same
    roles, 1 if they come back swapped.

    Each cell orders its pair by a local convention (Z: vertex then
    near-point; W: lower then higher edge id; X: tail-side then head-side;
    Y: fixed then moving).  Crossing an X cell always exchanges which
    physical point sits in the first slot of the bounding Z cells; crossing
    Y(v, a, b) exchanges it exactly when a < b.  The parity of these
    exchanges around a closed path is the swap parity, independent of
    traversal direction.
    """
    flips = 0
    for e, _ in steps:
        if e.kind == "X" or e.edge_a < e.edge_b:
            flips += 1
    return flips % 2


def to_dot(tc: TubeComplex) -> str:
    lines = ["graph tube {", "  node [fontsize=10];"]
    for c in tc.tube.vertices:
        color = "lightblue" if c.kind == "Z" else "lightsalmon"
        lines.append(f'  "{c.label()}" [style=filled, fillcolor={color}];')
    for e in tc.tube.edges:
        style = "solid" if e in tc.tree_edges else "dashed"
        color = "black" if e.kind == "X" else "gray40"
        lines.append(
            f'  "{e.u.label()}" -- "{e.v.label()}" '
            f'[style={style}, color={color}, label="{e.label()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(tc: TubeComplex, labels) -> dict:
    """The tube complex and its basis labels (`wu_basis(tc)`), as JSON."""
    return {
        "graph": tc.tube.graph.to_json_dict(),
        "cells": {
            "vertices": [c.label() for c in tc.tube.vertices],
            "edges": [e.label() for e in tc.tube.edges],
        },
        "tree": [e.label() for e in tc.tube.edges if e in tc.tree_edges],
        "basis": [b.name for b in labels],
        "rank": rank(tc.tube.graph),
    }
