"""Independent brute-force checks for the main pipeline.

cell_census enumerates the cells of the quotient of the deleted product by
the point swap from their definition, with each tube edge's end cells, and
census_matches_tube checks a built tube and the closed forms against it.
all_pairs_crossings and min_clearance_oracle rerun the genericity
validator's crossing scan and feature clearance over every pair, without
its pruning, on segments read from the polylines' points (`_segments`),
not from the validator's rows; all_pairs_crossings keeps its own copy of
the full pair test, without the validator's line-side reject.
report_differences names the fields, hidden ones included, in which two
genericity reports differ: it checks a splice's derived report
(`genericity.revalidate`) against the full `validate_generic`.
betti_oracle recomputes the tube's first Betti number from the boundary
matrix by exact elimination.
tube_tree walks the canonical spanning tree of the tube breadth first,
with the generic `graphs.bfs_tree`: fundamental_cycle_tube closes a
non-tree tube edge through it, raw_basis_windings sums those cycles and
decompose_over_basis reads a closed cycle's non-tree multiplicities.  The
package writes both kinds of basis cycle by rule instead
(`tube.basis_cycle`: the lifted graph cycle for X, the vertex triangle for
Y), and its tube tree only names the basis and feeds the fingerprint and
the `tube` output; this walk is the independent reference the rules are
checked against.
omega recomputes one tube edge's exact angle from the polyline points,
step by step, apart from the cochain `invariant` builds out of the
genericity report.  The windings that `invariant` sums exactly are
realized here as closed paths of point pairs at scale eps:
`winding` traces a PairPath with certified Lipschitz refinement, and
dense_winding_oracle re-traces it with fixed uniform sampling and naive
angle accumulation.  Both are references only; their cost grows as 1/eps.
wrap_to_half_pi is their step increment.  trace_cycle walks a drawing
along a graph cycle and turning_number counts that closed polyline's full
turns: the classical rotation number, the reference for X coordinates.

Nothing on the package's own paths imports this module, and the package
root does not re-export it: tests and scripts import `planetube.oracles`,
so `import planetube` and the CLI never compile it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import geometry as geo
from .geometry import Point
from .graphs import EdgeCycle, Graph, bfs_tree, tree_path
from .genericity import (ANGLE_TOL, Crossing, GenericityReport,
                         ImmersionError, StrandPoint)
from .immersion import PlaneImmersion
from .tube import (SymmetricTube, TubeComplex, TubeEdge, TubeError,
                   cycle_is_closed)
from .invariant import (WindingError, INTEGER_TOL, InvariantContext, _row,
                        evaluate_on_tube_cycle)


class CellCensus(NamedTuple):
    diagonal_cells: int          # one per vertex plus one per edge
    disjoint_pairs: int          # ordered pairs of disjoint closed simplices
    tube_vertices: int           # Z and W cells enumerated below
    tube_edges: int              # X and Y cells enumerated below
    tube_vertices_formula: int   # 2n + sum C(d,2)
    tube_edges_formula: int      # n + 2 sum C(d,2)
    betti_formula: int           # 1 - 2n + (sum d^2)/2
    # tube edge key -> its two end cell keys; a key is (kind, vertex,
    # edge_a, edge_b) as on `tube.TubeVertex` and `tube.TubeEdge`
    edge_ends: dict


def cell_census(g: Graph) -> CellCensus:
    """Counts the tube's cells from their definition, by scanning pairs of
    closed simplices: a Z cell per vertex on an edge, a W cell per unordered
    pair of edges that share a vertex, an X cell per edge and a Y cell per
    ordered pair of edges that share a vertex.  Each X or Y cell's two end
    cells are derived the same way, and the counts sit beside their closed
    forms."""
    m, n = g.num_vertices, g.num_edges
    # ordered pairs of disjoint closed simplices (vertex or closed edge)
    simplices = [("v", frozenset((v,))) for v in g.vertices()]
    simplices += [("e", e.ends()) for e in g.edges]
    disjoint = sum(1 for a in simplices for b in simplices
                   if a is not b and not (a[1] & b[1]))
    z_cells = {("Z", v, e.id, 0) for v in g.vertices() for e in g.edges
               if v in e.ends()}
    w_cells, ends = set(), {}
    for e in g.edges:
        ends[("X", 0, e.id, 0)] = frozenset(
            (("Z", e.tail, e.id, 0), ("Z", e.head, e.id, 0)))
    for a in g.edges:
        for b in g.edges:
            shared = a.ends() & b.ends()
            if a is b or not shared:
                continue
            (v,) = shared
            w = ("W", v, min(a.id, b.id), max(a.id, b.id))
            w_cells.add(w)
            ends[("Y", v, a.id, b.id)] = frozenset((("Z", v, a.id, 0), w))
    pairs = sum(math.comb(g.degree(v), 2) for v in g.vertices())
    sq = sum(g.degree(v) ** 2 for v in g.vertices())
    return CellCensus(
        diagonal_cells=m + n,
        disjoint_pairs=disjoint,
        tube_vertices=len(z_cells) + len(w_cells),
        tube_edges=len(ends),
        tube_vertices_formula=2 * n + pairs,
        tube_edges_formula=n + 2 * pairs,
        betti_formula=1 - 2 * n + sq // 2,
        edge_ends=ends,
    )


def census_matches_tube(census: CellCensus, tube: SymmetricTube) -> bool:
    """The built tube has the census's cell counts and joins each tube edge
    to the census's end cells, and the census counts meet their closed
    forms."""
    # cells and tube edges are tuples that start with their cell data
    built = {e[:4]: frozenset((e.u, e.v)) for e in tube.edges}
    return (len(tube.vertices) == census.tube_vertices
            == census.tube_vertices_formula
            and len(tube.edges) == census.tube_edges
            == census.tube_edges_formula
            and built == census.edge_ends)


def _matrix_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix with all minors in {-1, 0, 1}.

    For such (totally unimodular) matrices the rank over any prime field
    equals the rational rank, so elimination mod p is exact.  Graph
    incidence matrices, our only input, are totally unimodular.  Each row
    is kept sparse and reduced against the pivot rows found so far, each
    scaled to a leading 1; a row that does not vanish adds a pivot.
    """
    p = 2_147_483_647
    pivots: dict[int, dict[int, int]] = {}     # leading column -> its row
    for row in rows:
        r = {j: x % p for j, x in enumerate(row) if x % p}
        while r:
            col = min(r)
            if col not in pivots:
                inv = pow(r[col], p - 2, p)
                pivots[col] = {j: x * inv % p for j, x in r.items()}
                break
            k = r[col]
            for j, x in pivots[col].items():
                y = (r.get(j, 0) - k * x) % p
                if y:
                    r[j] = y
                else:
                    r.pop(j, None)
    return len(pivots)


def betti_oracle(tube: SymmetricTube) -> int:
    """First Betti number of the tube from its boundary matrix."""
    index = {c: i for i, c in enumerate(tube.vertices)}
    rows = [[0] * len(tube.edges) for _ in tube.vertices]
    for j, e in enumerate(tube.edges):
        rows[index[e.u]][j] -= 1
        rows[index[e.v]][j] += 1
    r = _matrix_rank(rows)
    components = len(tube.vertices) - r
    return len(tube.edges) - len(tube.vertices) + components


def adjacency(tube: SymmetricTube, edge_subset=None) -> dict:
    """cell -> list of (tube edge, +1 if leaving via u->v), over every tube
    edge or over `edge_subset`."""
    adj: dict = {c: [] for c in tube.vertices}
    for e in tube.edges if edge_subset is None else edge_subset:
        adj[e.u].append((e, +1))
        adj[e.v].append((e, -1))
    return adj


def tube_tree(tc: TubeComplex) -> dict:
    """The tree edges of tc walked breadth first from the tube's first cell,
    as `graphs.bfs_tree` returns it: cell -> (tube edge, direction, parent
    cell).  The tree spans the tube iff every cell is a key."""
    adj = adjacency(tc.tube, tc.tree_edges)
    return bfs_tree(tc.tube.vertices[0], lambda c: [
        (e, sgn, e.v if sgn > 0 else e.u) for e, sgn in adj[c]])


def fundamental_cycle_tube(tc: TubeComplex, edge: TubeEdge):
    """Non-tree tube edge traversed positively, closed by the tree path
    v -> u.  Returns (tube edge, direction) steps."""
    if edge in tc.tree_edges:
        raise TubeError(f"{edge.label()} is a tree edge")
    return [(edge, +1)] + tree_path(tube_tree(tc), edge.v, edge.u)


def raw_basis_windings(ctx: InvariantContext) -> dict:
    """Winding of the fundamental tube cycle of each non-tree edge, keyed by
    basis label name (stored-orientation convention)."""
    return {b.name: evaluate_on_tube_cycle(
                ctx, fundamental_cycle_tube(ctx.plan.complex, b.edge))
            for b in ctx.plan.labels}


def decompose_over_basis(ctx: InvariantContext, steps) -> dict:
    """Signed multiplicity of each non-tree tube edge in a closed cycle."""
    index = ctx.plan.complex.tube.index
    row = dict(_row(index, steps))
    return {b.name: row.get(index[b.edge[:4]], 0) for b in ctx.plan.labels}


class _Segment(NamedTuple):
    edge: int
    index: int                  # position along the edge's polyline
    a: Point
    b: Point
    ends: frozenset             # graph vertices the segment ends at
    s0: float                   # arclength of a and b from the edge's tail
    s1: float


def _segments(f: PlaneImmersion) -> list[_Segment]:
    """Every polyline segment of f, edge by edge, tail to head, from the
    points and `Polyline.cum`."""
    segs = []
    for e in f.graph.edges:
        pl = f.polylines[e.id]
        last = len(pl.points) - 2
        for i, (a, b) in enumerate(zip(pl.points, pl.points[1:])):
            ends = frozenset([e.tail] * (i == 0) + [e.head] * (i == last))
            segs.append(_Segment(e.id, i, a, b, ends, pl.cum[i],
                                 pl.cum[i + 1]))
    return segs


def _pair_test(s, t, tau: float, crossings, violations) -> None:
    """The genericity pair test of two segments, s before t, with none of
    `genericity._check_pair`'s shortcuts: graph neighbours pass, any other
    pair either crosses properly or has its four endpoint-to-segment
    distances measured."""
    if (s.edge == t.edge and t.index - s.index <= 1) or s.ends & t.ends:
        return
    a1, b1, a2, b2 = s.a, s.b, t.a, t.b
    hit = geo.segment_intersection(a1, b1, a2, b2)
    if hit is None:
        d, p = min(((geo.point_segment_distance(a1, a2, b2), a1),
                    (geo.point_segment_distance(b1, a2, b2), b1),
                    (geo.point_segment_distance(a2, a1, b1), a2),
                    (geo.point_segment_distance(b2, a1, b1), b2)),
                   key=lambda dp: dp[0])
        if d < tau:
            violations.append(
                ("near-contact", f"edges {s.edge}/{t.edge} touch without "
                 f"transversal crossing near {p}"))
        return
    pt, t1, t2 = hit
    # a segment that crosses has a length, so a direction
    if abs(geo.cross(geo.unit(geo.sub(s.b, s.a)),
                     geo.unit(geo.sub(t.b, t.a)))) < ANGLE_TOL:
        violations.append(
            ("non-transversal", f"edges {s.edge}/{t.edge} cross at {pt} "
             "with near-parallel strands"))
        return
    crossings.append(Crossing(pt,
                              StrandPoint(s.edge, s.s0 + t1 * (s.s1 - s.s0)),
                              StrandPoint(t.edge, t.s0 + t2 * (t.s1 - t.s0))))


def all_pairs_crossings(f: PlaneImmersion, tau: float):
    """`genericity.find_crossings` without pruning or shortcuts: the full
    pair test (`_pair_test`) on every segment pair (i, j), i < j, in
    order."""
    segs = _segments(f)
    crossings, violations = [], []
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            _pair_test(segs[i], segs[j], tau, crossings, violations)
    return crossings, violations


def min_clearance_oracle(f: PlaneImmersion, crossings) -> float:
    """`genericity._min_clearance` without pruning: the least of every
    vertex-segment, crossing-vertex and crossing-crossing distance, half
    arclength gap of a self-crossing, germ length and half edge length."""
    best = math.inf
    segs = _segments(f)
    for v in f.graph.vertices():
        pos = tuple(f.positions[v])
        for s in segs:
            if v not in s.ends:
                best = min(best, geo.point_segment_distance(pos, s.a, s.b))
        for c in crossings:
            best = min(best, geo.dist(c.point, pos))
    for i, c in enumerate(crossings):
        for d in crossings[i + 1:]:
            best = min(best, geo.dist(c.point, d.point))
        if c.first.edge == c.second.edge:
            best = min(best, abs(c.first.arclength - c.second.arclength) / 2.0)
    for e in f.graph.edges:
        pl = f.polylines[e.id]
        best = min(best, geo.dist(pl.points[0], pl.points[1]),
                   geo.dist(pl.points[-2], pl.points[-1]), pl.length / 2.0)
    return best


def report_differences(a: GenericityReport, b: GenericityReport) -> list:
    """Names of the fields in which two genericity reports differ, in field
    order; empty when they agree.  Floats are compared by their exact text
    (`repr`, `float.hex`), so -0.0 and 0.0 differ; the hidden fields (germ
    angles, turns, crossing pairs and the segment index) are compared
    too, the index's bounding box by value: the sign of a zero in it
    depends on the order its points were read, and nothing reads it."""
    def table(d):
        return repr(sorted(d.items()))

    fields = {
        "passed": lambda r: r.passed,
        "violations": lambda r: r.violations,
        "crossings": lambda r: repr(r.crossings),
        "cyclic_orders": lambda r: r.cyclic_orders,
        "epsilon": lambda r: r.epsilon.hex(),
        "tau": lambda r: r.tau.hex(),
        "germs": lambda r: repr(sorted((v, table(at))
                                       for v, at in r.germs.items())),
        "theta": lambda r: r.theta.hex(),
        "turns": lambda r: table(r.turns),
        "pairs": lambda r: repr(r.pairs),
        "index.segs": lambda r: repr(r.index.segs),
        "index.boxes": lambda r: repr(r.index.boxes),
        "index.lefts": lambda r: repr(r.index.lefts),
        "index.wide": lambda r: r.index.wide.hex(),
        "index.bbox": lambda r: r.index.bbox,
        "index.big": lambda r: r.index.big.hex(),
    }
    return [name for name, read in fields.items() if read(a) != read(b)]


def _germ(f: PlaneImmersion, v: int, eid: int):
    """Unit direction in which edge eid leaves vertex v, from its points."""
    pts = f.polylines[eid].points
    a, b = (pts[0], pts[1]) if f.graph.edge(eid).tail == v else \
        (pts[-1], pts[-2])
    return geo.unit(geo.sub(b, a))


def omega(f: PlaneImmersion, edge: TubeEdge) -> float:
    """Exact turn of the pair chord across a tube edge, traversed u -> v,
    from f's points: for X(e), the turns between e's raw segment vectors,
    tail to head; for Y(v, a, b), the direction of g_b - g_a less that of
    -g_a, reduced modulo 2 pi to [-pi, pi], for the unit germs g read off
    the points next to v, negated when u is the W cell."""
    if edge.kind == "X":
        pts = f.polylines[edge.edge_a].points
        dirs = [geo.sub(b, a) for a, b in zip(pts, pts[1:])]
        return sum(geo.turn_angle(u, w) for u, w in zip(dirs, dirs[1:]))
    ga, gb = (_germ(f, edge.vertex, e) for e in (edge.edge_a, edge.edge_b))
    turn = math.remainder(geo.angle_of(geo.sub(gb, ga))
                          - geo.angle_of(geo.scale(ga, -1.0)), 2.0 * math.pi)
    return -turn if edge.u.kind == "W" else turn


MAX_REFINE_DEPTH = 40


def _point_from(f: PlaneImmersion, eid: int, v: int, s: float) -> Point:
    """Point at arclength s along edge eid measured from endpoint v."""
    e = f.graph.edge(eid)
    pl = f.polylines[eid]
    if v == e.tail:
        return pl.point_at(s)
    if v == e.head:
        return pl.point_at(pl.length - s)
    raise ImmersionError(f"edge {eid} is not incident to vertex {v}")


class PairPath(NamedTuple):
    """Closed path of unordered point pairs realizing a tube cycle."""
    immersion: PlaneImmersion
    tube: SymmetricTube
    steps: list                 # (TubeEdge, +1/-1)
    eps: float
    tau: float

    def pair_at(self, idx: int, t: float):
        """Unordered pair for traversal parameter t in [0,1] of step idx."""
        edge, d = self.steps[idx]
        if d < 0:
            t = 1.0 - t
        f = self.immersion
        if edge.kind == "X":
            pl = f.polylines[edge.edge_a]
            s = t * (pl.length - self.eps)
            return pl.point_at(s), pl.point_at(s + self.eps)
        v = edge.vertex
        fixed = _point_from(f, edge.edge_a, v, self.eps)
        # positive direction runs from edge.u to edge.v
        if edge.u.kind == "Z":
            moving = _point_from(f, edge.edge_b, v, t * self.eps)
        else:
            moving = _point_from(f, edge.edge_b, v, (1.0 - t) * self.eps)
        return fixed, moving

    def seed_parameters(self, idx: int) -> list[float]:
        """Initial sample parameters for a step: cell endpoints, parameters
        where either pair point crosses a polyline bend, and a uniform
        refinement of each gap."""
        edge, _ = self.steps[idx]
        seeds = {0.0, 1.0}
        if edge.kind == "X":
            pl = self.immersion.polylines[edge.edge_a]
            span = pl.length - self.eps
            for c in pl.cum[1:-1]:
                for s in (c, c - self.eps):
                    if 0.0 < s < span:
                        seeds.add(s / span)
        ordered = sorted(seeds)
        out = []
        for a, b in zip(ordered, ordered[1:]):
            for k in range(8):
                out.append(a + (b - a) * k / 8.0)
        out.append(1.0)
        return out

    def rate_bound(self, idx: int) -> float:
        """Upper bound on the speed of the relative vector q - p with
        respect to the traversal parameter of step idx."""
        edge, _ = self.steps[idx]
        if edge.kind == "X":
            return 2.0 * (self.immersion.polylines[edge.edge_a].length
                          - self.eps)
        return self.eps

    def samples(self, per_cell: int):
        """Uniform samples: (step index, t, pair) triples."""
        out = []
        for idx in range(len(self.steps)):
            for k in range(per_cell):
                t = k / per_cell
                out.append((idx, t, self.pair_at(idx, t)))
        last = len(self.steps) - 1
        out.append((last, 1.0, self.pair_at(last, 1.0)))
        return out


def pair_path(tube: SymmetricTube, steps, f: PlaneImmersion, eps: float,
              tau: float = 0.0) -> PairPath:
    if not cycle_is_closed(steps):
        raise WindingError("tube cycle is not closed")
    for e in f.graph.edges:
        if f.polylines[e.id].length <= 2 * eps:
            raise WindingError(
                f"eps {eps} too large for edge {e.id} of length "
                f"{f.polylines[e.id].length}")
    return PairPath(f, tube, list(steps), eps, tau)


def _chord(pair, tau: float):
    """(direction angle, length) of the pair's difference vector."""
    p, q = pair
    d = geo.sub(q, p)
    n = geo.norm(d)
    if n <= max(tau, 1e-300):
        raise WindingError(f"coincident pair near {p}")
    return math.atan2(d[1], d[0]), n


def winding(path: PairPath) -> int:
    """Total advance of the undirected pair direction, in units of pi.

    Intervals are refined until the certified rotation bound (pair speed
    bound over a certified chord-length lower bound) rules out aliasing of
    the half-pi wrap; every accepted increment is then exact.  The closed
    total must be an integer multiple of pi within tolerance.
    """
    total = 0.0
    for idx in range(len(path.steps)):
        rate = path.rate_bound(idx)
        seeds = path.seed_parameters(idx)
        probes = [_chord(path.pair_at(idx, t), path.tau) for t in seeds]
        for (t0, p0), (t1, p1) in zip(zip(seeds, probes),
                                      zip(seeds[1:], probes[1:])):
            total += _refine(path, idx, rate, t0, p0, t1, p1,
                             MAX_REFINE_DEPTH)
    k = total / math.pi
    if abs(k - round(k)) > INTEGER_TOL:
        raise WindingError(
            f"trace total {total} is not an integer multiple of pi")
    return int(round(k))


# largest certified per-half-interval rotation we accept; must stay below
# pi/2, where the mod-pi wrap of an increment becomes ambiguous
ROTATION_CAP = 1.4


def _refine(path: PairPath, idx: int, rate: float, t0: float, p0, t1: float,
            p1, depth: int) -> float:
    a0, l0 = p0
    a1, l1 = p1
    tm = 0.5 * (t0 + t1)
    am, lm = _chord(path.pair_at(idx, tm), path.tau)
    w = t1 - t0
    # chord length is Lipschitz in t with constant `rate`; every parameter
    # is within w/4 of one of the three probes
    floor = min(l0, lm, l1) - rate * w / 4.0
    if floor > 0.0 and rate * (w / 2.0) / floor <= ROTATION_CAP:
        # true rotation over each half interval is below pi/2, so the
        # wrapped increments are the true ones
        return wrap_to_half_pi(am - a0) + wrap_to_half_pi(a1 - am)
    if depth <= 0:
        raise WindingError(
            f"refinement depth exhausted in cell {path.steps[idx][0].label()}")
    return (_refine(path, idx, rate, t0, p0, tm, (am, lm), depth - 1)
            + _refine(path, idx, rate, tm, (am, lm), t1, p1, depth - 1))




def dense_winding_oracle(path: PairPath, per_cell: int = 10_000,
                         tol: float = 1e-6) -> int:
    """Naive fixed-step accumulation of the pair direction, in units of pi."""
    total = 0.0
    prev = None
    for _, _, pair in path.samples(per_cell):
        a, _ = _chord(pair, path.tau)
        if prev is not None:
            total += wrap_to_half_pi(a - prev)
        prev = a
    k = total / math.pi
    if abs(k - round(k)) > tol:
        raise WindingError(
            f"dense trace total {total} is not an integer multiple of pi")
    return int(round(k))


def wrap_to_half_pi(theta: float) -> float:
    """Representative of theta modulo pi lying in (-pi/2, pi/2].

    This is the step increment for tracking an undirected line direction.
    """
    t = math.fmod(theta, math.pi)
    if t <= -math.pi / 2.0:
        t += math.pi
    elif t > math.pi / 2.0:
        t -= math.pi
    return t


def trace_cycle(f: PlaneImmersion, c: EdgeCycle) -> list[Point]:
    """Closed point sequence of f restricted to a simple cycle, traversed in
    the cycle's direction.  Last point equals the first."""
    pts: list[Point] = []
    for eid, d in c.steps:
        seq = f.polylines[eid].points
        if d < 0:
            seq = list(reversed(seq))
        if pts:
            pts.extend(seq[1:])
        else:
            pts.extend(seq)
    return pts


def turning_number(points: list[Point]) -> int:
    """Total signed turning of a closed polyline, in full turns.

    The input is cyclic: the last point must equal the first.  Corner turns
    of +-pi are rejected.
    """
    if len(points) < 4 or points[0] != points[-1]:
        raise ImmersionError("turning number needs a closed polyline")
    dirs = []
    for a, b in zip(points, points[1:]):
        if geo.dist(a, b) == 0:
            raise ImmersionError("zero-length step in closed polyline")
        dirs.append(geo.unit(geo.sub(b, a)))
    total = 0.0
    for u_in, u_out in zip(dirs, dirs[1:] + dirs[:1]):
        turn = geo.turn_angle(u_in, u_out)
        if abs(turn) >= math.pi - ANGLE_TOL:
            raise ImmersionError("straight-back corner in closed polyline")
        total += turn
    k = total / (2.0 * math.pi)
    if abs(k - round(k)) > 1e-9:
        raise ImmersionError(f"turning total {total} is not a full-turn multiple")
    return int(round(k))
