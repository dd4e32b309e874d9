"""Wu invariant of a generic plane immersion.

The invariant is a 1-cochain on the symmetric tube.  Across each tube edge
the chord of the point pair turns by one exact angle omega: for X(e), the
sum of the turn angles at e's bends, tail to head; for Y(v, a, b), the angle
from -g_a to g_b - g_a (g the unit germs at v), from the Z cell to the W
cell.  The two unit germs and their chord make an isosceles triangle, so
with delta the counterclockwise gap from g_a to g_b that angle is
delta/2 - pi/2: a Y angle depends on the germs' angles alone, and a Y
coordinate on their cyclic order alone.  The winding of a tube cycle is
the signed sum of omega over its steps, in units of pi, and must be an
integer.  Coordinates over the cohomology basis:

  X labels: the pair sweeps once around the graph cycle attached to the
            non-tree edge, lifted to the tube; that winding is always even
            and half of it is the classical rotation number of the
            restricted curve, which is the stored coordinate.
  Y labels: the triangle of three germ pairs at the vertex, traversed so
            the moving point of the non-tree cell leaves the vertex first;
            the winding is odd and stored as-is.  A counterclockwise
            three-spoke star gives +1.

Both cycles are written by rule (`tube.basis_cycle`); the tube's spanning
tree only names the basis and feeds the fingerprint.  The fundamental
cycles closed through that tree, and the windings and decompositions over
them, are references in `oracles`.

What depends on the graph alone is built once per graph into one plan
object and cached (`wu_plan`, a `WuPlan`): the tube complex, whose tube's
`index` places each tube edge, the basis labels and their names, the
conventions fingerprint, each basis cycle collapsed to a sparse row of
signed tube-edge multiplicities (`_row`), with its swap parity checked,
and each tube edge's omega recipe, the report fields its omega reads.
Nothing here reads a drawing's coordinates: a Wu vector is a function of
the genericity report and the plan.  The report carries each edge's bend
turns, summed, and each germ's angle, all read off its segment table, so
the cochain (`prepare`) costs one omega per tube edge, O(n + sum of d^2)
for n edges and vertex degrees d.  Every row, a coordinate's or any closed
cycle's, is summed against it and certified integral by one function
(`_half_turns`).

No angle depends on the pair scale eps, which is only range-checked.  The
certified pair-path tracer and the dense sampler in `oracles` realize the
same windings at scale eps and serve as references.

These normalizations, together with the canonical orderings and edge
orientations, are hashed into a conventions fingerprint; vectors are only
comparable when fingerprints match.
"""
from __future__ import annotations

import functools
import json
import math
from types import MappingProxyType
from typing import NamedTuple

try:    # the interpreter's own SHA-256; hashlib would load OpenSSL
    from _sha2 import sha256 as _sha256           # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256     # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .graphs import EdgeCycle, Graph
from .genericity import GenericityReport, NotGenericError, Tolerances
from .immersion import PlaneImmersion, standard_star
from .tube import (TubeComplex, BasisLabel,
                   build_symmetric_tube, tube_spanning_tree, wu_basis,
                   basis_cycle, tube_cycle_over_graph_cycle,
                   cycle_is_closed, swap_parity)


class WindingError(ArithmeticError):
    """A tube cycle's winding is not an integer number of half-turns."""


INTEGER_TOL = 1e-6          # of pi, for the closed-cycle certificate
_TWO_PI = 2.0 * math.pi


def _cochain(plan: WuPlan, report: GenericityReport) -> list[float]:
    """omega of every tube edge, in `tube.edges` order, from the genericity
    report alone, by the plan's recipe of each (`WuPlan.recipes`).  An X
    edge's recipe (None, edge id) reads the edge's bend turns as the
    validation summed them.  A Y edge's (vertex, fixed edge, moving edge,
    h) reads the angles a, b of its germs (vertex -> edge id -> radians):
    with delta the counterclockwise gap from a to b, the unit germs and
    their chord make an isosceles triangle, so the chord g_b - g_a points
    at a + delta/2 + pi/2 and the turn from -g_a is delta/2 - pi/2, which
    is h (delta - pi) with h = 0.5, or -0.5 when the edge leaves its W
    cell."""
    turns, germs = report.turns, report.germs
    return [turns[r[1]] if r[0] is None else
            r[3] * ((germs[r[0]][r[2]] - germs[r[0]][r[1]]) % _TWO_PI
                    - math.pi)
            for r in plan.recipes]


class WuVector(NamedTuple):
    """Coordinates over a graph's basis names, with the conventions
    fingerprint they are comparable under; equal when all three are.
    Indexing takes a basis name, not a position."""
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


def _conventions_blob(tc: TubeComplex, names) -> bytes:
    """What the conventions fingerprint hashes."""
    payload = {
        "graph": tc.tube.graph.to_json_dict(),
        "graph_tree": sorted(tc.graph_tree.edge_ids),
        "tube_tree": sorted(e.label() for e in tc.tree_edges),
        "basis": names,
        "x_rule": "graph-fundamental-cycle winding / 2",
        "y_rule": "block cycle, non-tree moving point leaves vertex first",
        "eps_rule": "half minimum feature clearance",
        "orientation": "edges tail<head; X by edge; Y by moving edge",
    }
    return json.dumps(payload, sort_keys=True).encode()


class WuPlan(NamedTuple):
    """What `wu` needs of a graph, independent of any drawing: the tube
    complex (whose tube's `index` places each tube edge), the basis labels
    and their names, which every WuVector of the graph shares, the
    conventions fingerprint, each label's row and each tube edge's omega
    recipe.  One plan serves every caller with an equal graph, so its
    tables are read-only."""
    complex: TubeComplex
    labels: tuple[BasisLabel, ...]
    names: tuple[str, ...]
    fingerprint: str
    terms: MappingProxyType     # basis label name -> its basis cycle's row
    # each tube edge's omega recipe (`_cochain`), in `tube.edges` order
    recipes: tuple


# graphs whose plans stay cached: few, as a plan holds its graph's whole tube
PLAN_CACHE_SIZE = 8


# what a basis cycle or coordinate of the wrong parity raises, by label kind
_PARITY_ERRORS = {"X": "graph-cycle trace for %s is not swap-even",
                  "Y": "block trace for %s is not swap-odd"}


def _row(index, steps) -> tuple:
    """A closed tube cycle collapsed to its row: (tube-edge position,
    signed multiplicity) pairs in order of first visit, zeros dropped."""
    if not cycle_is_closed(steps):
        raise WindingError("tube cycle is not closed")
    row: dict[int, int] = {}
    for e, d in steps:
        i = index[e[:4]]
        row[i] = row.get(i, 0) + d
    return tuple((i, m) for i, m in row.items() if m)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def wu_plan(g: Graph) -> WuPlan:
    """The plan of g, built once per graph: its canonical tube complex and
    basis, conventions fingerprint, and each basis cycle as a row.  Swap
    parity depends on the graph alone, so it is checked here, once per
    basis cycle: even for an X label, odd for a Y label."""
    tc = tube_spanning_tree(build_symmetric_tube(g))
    labels = wu_basis(tc)
    names = tuple(b.name for b in labels)
    terms = {}
    for label in labels:
        steps = basis_cycle(tc, label)
        terms[label.name] = _row(tc.tube.index, steps)
        if swap_parity(steps) != (label.kind == "Y"):
            raise WindingError(_PARITY_ERRORS[label.kind] % label.name)
    fingerprint = _sha256(_conventions_blob(tc, names)).hexdigest()[:16]
    recipes = tuple((None, e.edge_a) if e.kind == "X" else
                    (e.vertex, e.edge_a, e.edge_b,
                     -0.5 if e.u.kind == "W" else 0.5) for e in tc.tube.edges)
    return WuPlan(tc, labels, names, fingerprint, MappingProxyType(terms),
                  recipes)


def conventions_fingerprint(g: Graph) -> str:
    """Hash of the conventions behind the Wu vectors of g: its canonical
    trees, basis names and normalization rules."""
    return wu_plan(g).fingerprint


class InvariantContext(NamedTuple):
    """Everything reusable across evaluations of one immersion: its report,
    its graph's plan and one omega per tube edge."""
    immersion: PlaneImmersion
    report: GenericityReport
    plan: WuPlan
    eps: float
    cochain: list       # omega of each tube edge, in tube.edges order


def prepare(f: PlaneImmersion, tol: Tolerances | None = None,
            eps: float | None = None) -> InvariantContext:
    """Fetch f's genericity report and its graph's plan, and compute the
    cochain from the report: the bend turns and germs the validation read.

    The report is the one f keeps under tol (`PlaneImmersion._report`),
    validated and kept there only when f has none.  So a drawing that was
    validated, or that a move made, is not validated again to be
    evaluated.  The context shares that report, whose fields are
    read-only by type and whose lists and dicts it leaves as they are.

    `eps` defaults to the suggested scale and must lie in (0, suggested];
    NaN lies in no range and is refused.  The check bounds a positive eps
    from above only: one at or below the drawing tolerance tau passes too,
    because no exact angle depends on it; only the tracer in `oracles`
    works at scale eps.
    """
    report = f._report(tol)
    if not report.passed:
        raise NotGenericError(
            "immersion is not generic: "
            + "; ".join(f"{kind}: {msg}" for kind, msg in report.violations))
    plan = wu_plan(f.graph)
    use_eps = report.epsilon if eps is None else eps
    if not 0.0 < use_eps <= report.epsilon:
        raise WindingError(
            f"eps {use_eps} outside (0, {report.epsilon}]")
    return InvariantContext(f, report, plan, use_eps, _cochain(plan, report))


def _half_turns(ctx: InvariantContext, row) -> int:
    """A row summed against the cochain, in units of pi, certified
    integral."""
    w = ctx.cochain
    total = sum([m * w[i] for i, m in row])
    k = total / math.pi
    if not math.isfinite(k) or abs(k - round(k)) > INTEGER_TOL:
        raise WindingError(
            f"cochain total {total} is not an integer multiple of pi")
    return int(round(k))


def evaluate_on_tube_cycle(ctx: InvariantContext, steps) -> int:
    """Winding of a closed tube cycle, in units of pi.

    This is the cochain's value on the cycle: it is additive, and equals the
    signed sum of non-tree-edge multiplicities times the windings of their
    fundamental tube cycles.
    """
    return _half_turns(ctx, _row(ctx.plan.complex.tube.index, steps))


def coordinate(ctx: InvariantContext, label: BasisLabel) -> int:
    """The label's coordinate: its row's winding, halved for an X label."""
    k = _half_turns(ctx, ctx.plan.terms[label.name])
    if k % 2 != (label.kind == "Y"):
        raise WindingError(_PARITY_ERRORS[label.kind] % label.name)
    return k // 2 if label.kind == "X" else k


def wu(f: PlaneImmersion, tol: Tolerances | None = None,
       eps: float | None = None) -> WuVector:
    ctx = prepare(f, tol, eps)
    # tuple() of a list: of a generator, it is allocated at a guessed size
    # and shrunk, stranding memory in CPython's tuple free lists
    coords = tuple([coordinate(ctx, b) for b in ctx.plan.labels])
    return WuVector(ctx.plan.names, coords, conventions_fingerprint(f.graph))


def rotation_number_on_cycle(ctx: InvariantContext, c: EdgeCycle) -> int:
    """Rotation number of the immersed closed curve over a simple graph
    cycle, computed from the tube cochain (winding is even; half of it)."""
    steps = tube_cycle_over_graph_cycle(ctx.plan.complex.tube, c)
    k = evaluate_on_tube_cycle(ctx, steps)
    if k % 2 != 0:
        raise WindingError("graph-cycle trace winding must be even")
    return k // 2


def equivalent(f: PlaneImmersion, g: PlaneImmersion,
               tol: Tolerances | None = None) -> bool:
    """Regular-homotopy equivalence test by invariant comparison."""
    if f.graph != g.graph:
        raise ValueError("immersions must share the same labeled graph")
    return wu(f, tol).coords == wu(g, tol).coords


def star_wu(order, tol: Tolerances | None = None) -> tuple[int, ...]:
    """Wu coordinates of a canonical star immersion realizing a cyclic order
    of d >= 1 edges, from any iterable (empty for d < 3)."""
    order = list(order)
    f = standard_star(order)
    if len(order) < 3:
        return ()
    return wu(f, tol).coords

