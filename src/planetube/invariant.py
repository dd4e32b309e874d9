"""Wu invariant of a generic plane immersion.

The invariant is a 1-cochain on the symmetric tube.  Across each tube edge
the chord of the point pair turns by one exact angle omega: for X(e), the
sum of the turn angles at e's bends, tail to head; for Y(v, a, b), the angle
from -g_a to g_b - g_a (g the unit germs at v), from the Z cell to the W
cell.  The winding of a tube cycle is the signed sum of omega over its
steps, in units of pi, and must be an integer.  Coordinates over the
cohomology basis:

  X labels: the pair sweeps once around the graph cycle attached to the
            non-tree edge; that winding is always even and half of it is the
            classical rotation number of the restricted curve, which is the
            stored coordinate.
  Y labels: the block cycle at the vertex, traversed so the moving point of
            the non-tree cell leaves the vertex first; the winding is odd
            and stored as-is.  A counterclockwise three-spoke star gives +1.

No angle depends on the pair scale eps, which is only range-checked.  The
certified pair-path tracer and the dense sampler in `oracles` realize the
same windings at scale eps and serve as references.

These normalizations, together with the canonical orderings and edge
orientations, are hashed into a conventions fingerprint; vectors are only
comparable when fingerprints match.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from . import geometry as geo
from .graphs import EdgeCycle
from .immersion import (PlaneImmersion, Tolerances, GenericityReport,
                        NotGenericError, validate_generic, standard_star)
from .tube import (SymmetricTube, TubeComplex, TubeEdge, WuBasis, BasisLabel,
                   build_symmetric_tube, tube_spanning_tree, wu_basis,
                   basis_cycle, fundamental_cycle_tube,
                   tube_cycle_over_graph_cycle, cycle_is_closed, swap_parity)


class WindingError(ArithmeticError):
    """A tube cycle's winding is not an integer number of half-turns."""


INTEGER_TOL = 1e-6          # of pi, for the closed-cycle certificate


def omega(f: PlaneImmersion, edge: TubeEdge) -> float:
    """Exact turn of the pair chord across a tube edge, traversed u -> v."""
    if edge.kind == "X":
        pts = f.polylines[edge.edge_a].points
        return sum(geo.turn_angle(geo.sub(b, a), geo.sub(c, b))
                   for a, b, c in zip(pts, pts[1:], pts[2:]))
    ga = f.germ_direction(edge.vertex, edge.edge_a)
    gb = f.germ_direction(edge.vertex, edge.edge_b)
    turn = geo.turn_angle(geo.scale(ga, -1.0), geo.sub(gb, ga))
    return -turn if edge.u.kind == "W" else turn


@dataclass(frozen=True)
class WuVector:
    basis_names: tuple[str, ...]
    coords: tuple[int, ...]
    fingerprint: str

    def __getitem__(self, name: str) -> int:
        return self.coords[self.basis_names.index(name)]

    def to_json_dict(self) -> dict:
        return {
            "basis": list(self.basis_names),
            "vector": list(self.coords),
            "fingerprint": self.fingerprint,
        }

    def __neg__(self) -> "WuVector":
        return WuVector(self.basis_names, tuple(-c for c in self.coords),
                        self.fingerprint)


def conventions_fingerprint(tc: TubeComplex, basis: WuBasis) -> str:
    payload = {
        "graph": tc.tube.graph.to_json_dict(),
        "graph_tree": sorted(tc.graph_tree.edge_ids),
        "tube_tree": sorted(e.label() for e in tc.tree_edges),
        "basis": basis.names(),
        "x_rule": "graph-fundamental-cycle winding / 2",
        "y_rule": "block cycle, non-tree moving point leaves vertex first",
        "eps_rule": "half minimum feature clearance",
        "orientation": "edges tail<head; X by edge; Y by moving edge",
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class InvariantContext:
    """Everything reusable across evaluations of one immersion."""
    immersion: PlaneImmersion
    report: GenericityReport
    complex: TubeComplex
    basis: WuBasis
    eps: float

    @property
    def tube(self) -> SymmetricTube:
        return self.complex.tube


def prepare(f: PlaneImmersion, tol: Tolerances | None = None,
            eps: float | None = None) -> InvariantContext:
    report = validate_generic(f, tol)
    if not report.passed:
        raise NotGenericError(
            "immersion is not generic: "
            + "; ".join(f"{kind}: {msg}" for kind, msg in report.violations))
    tc = tube_spanning_tree(build_symmetric_tube(f.graph))
    basis = wu_basis(tc)
    use_eps = report.epsilon if eps is None else eps
    if use_eps <= 0 or use_eps > report.epsilon:
        raise WindingError(
            f"eps {use_eps} outside (0, {report.epsilon}]")
    return InvariantContext(f, report, tc, basis, use_eps)


def evaluate_on_tube_cycle(ctx: InvariantContext, steps) -> int:
    """Winding of a closed tube cycle, in units of pi.

    This is the cochain's value on the cycle: it is additive, and equals the
    signed sum of non-tree-edge multiplicities times the windings of their
    fundamental tube cycles.
    """
    if not cycle_is_closed(steps):
        raise WindingError("tube cycle is not closed")
    total = sum(d * omega(ctx.immersion, e) for e, d in steps)
    k = total / math.pi
    if not math.isfinite(k) or abs(k - round(k)) > INTEGER_TOL:
        raise WindingError(
            f"cochain total {total} is not an integer multiple of pi")
    return int(round(k))


def coordinate(ctx: InvariantContext, label: BasisLabel) -> int:
    steps = basis_cycle(ctx.complex, label)
    k = evaluate_on_tube_cycle(ctx, steps)
    parity = swap_parity(steps)
    if label.kind == "X":
        if parity != 0 or k % 2 != 0:
            raise WindingError(
                f"graph-cycle trace for {label.name} is not swap-even")
        return k // 2
    if parity != 1 or k % 2 == 0:
        raise WindingError(f"block trace for {label.name} is not swap-odd")
    return k


def wu(f: PlaneImmersion, tol: Tolerances | None = None,
       eps: float | None = None) -> WuVector:
    ctx = prepare(f, tol, eps)
    coords = tuple(coordinate(ctx, b) for b in ctx.basis.labels)
    names = tuple(ctx.basis.names())
    return WuVector(names, coords, conventions_fingerprint(ctx.complex, ctx.basis))


def raw_basis_windings(ctx: InvariantContext) -> dict:
    """Winding of the fundamental tube cycle of each non-tree edge, keyed by
    basis label name (stored-orientation convention)."""
    return {b.name: evaluate_on_tube_cycle(
                ctx, fundamental_cycle_tube(ctx.complex, b.edge))
            for b in ctx.basis.labels}


def decompose_over_basis(ctx: InvariantContext, steps) -> dict:
    """Signed multiplicity of each non-tree tube edge in a cycle."""
    non_tree = {b.edge: b.name for b in ctx.basis.labels}
    out = {name: 0 for name in ctx.basis.names()}
    for e, d in steps:
        if e in non_tree:
            out[non_tree[e]] += d
    return out


def rotation_number_on_cycle(ctx: InvariantContext, c: EdgeCycle) -> int:
    """Rotation number of the immersed closed curve over a simple graph
    cycle, computed from the tube cochain (winding is even; half of it)."""
    steps = tube_cycle_over_graph_cycle(ctx.tube, c)
    k = evaluate_on_tube_cycle(ctx, steps)
    if k % 2 != 0:
        raise WindingError("graph-cycle trace winding must be even")
    return k // 2


def equivalent(f: PlaneImmersion, g: PlaneImmersion,
               tol: Tolerances | None = None) -> bool:
    """Regular-homotopy equivalence test by invariant comparison."""
    if f.graph != g.graph:
        raise ValueError("immersions must share the same labeled graph")
    wf, wg = wu(f, tol), wu(g, tol)
    if wf.fingerprint != wg.fingerprint:
        raise ValueError("conventions fingerprints do not match")
    return wf.coords == wg.coords


def star_wu(order, tol: Tolerances | None = None) -> tuple[int, ...]:
    """Wu coordinates of a canonical star immersion realizing a cyclic order
    of d >= 1 edges (empty for d < 3)."""
    f = standard_star(order)
    if len(list(order)) < 3:
        return ()
    return wu(f, tol).coords

