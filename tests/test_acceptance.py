"""Acceptance suite.  Each test prints one pass/fail line for its criterion.

All comparisons are exact integer equalities; the only tolerances involved
are the internal trace certificate (1e-6 of a half-turn) and the stated
runtime budgets.
"""
import itertools
import math
import random
import time

import pytest

from planetube.geometry import Polyline
from planetube.graphs import (EdgeCycle, star, star_graph, complete_graph,
                              path_graph, fundamental_cycle)
from planetube.tube import (Z, W, build_symmetric_tube, tube_spanning_tree,
                            rank, wu_basis, basis_cycle, cycle_is_closed,
                            tube_cycle_over_graph_cycle)
from planetube.genericity import validate_generic
from planetube.immersion import (reflect, map_points, restrict,
                                 standard_curve, standard_star, planar_k4)
from planetube.invariant import (wu, prepare, star_wu, equivalent,
                                 evaluate_on_tube_cycle,
                                 rotation_number_on_cycle)
from planetube.moves import insert_curl, whitney_pair, perturb
from planetube.oracles import (betti_oracle, cell_census,
                               raw_basis_windings, decompose_over_basis,
                               trace_cycle, turning_number)

from conftest import (resample_midpoints, random_k4, connected_graphs_upto,
                      random_connected_graph, random_tube_cycle)


def report(number: int, text: str, ok: bool):
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}]: {text}")
    assert ok


def test_criterion_1_rank_formula():
    t0 = time.monotonic()
    ok = (rank(complete_graph(4)) == 7 and rank(complete_graph(3)) == 1
          and rank(star_graph(3)) == 1 and rank(path_graph(4)) == 0)
    for g in connected_graphs_upto(5):
        tube = build_symmetric_tube(g)
        euler = len(tube.edges) - len(tube.vertices) + 1
        ok &= rank(g) == euler == betti_oracle(tube) \
            == cell_census(g).betti_formula
    rng = random.Random(42)
    for _ in range(50):
        g = random_connected_graph(rng, 12)
        tube = build_symmetric_tube(g)
        ok &= rank(g) == betti_oracle(tube)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(1, f"rank formula vs Euler and normal-form Betti "
           f"(exhaustive m<=5 plus 50 random, {elapsed:.1f}s)", ok)


def test_criterion_2_star_tube_lists():
    ok = True
    for n in range(1, 7):
        g = star_graph(n)
        tube = build_symmetric_tube(g)
        c = n + 1
        zs = {x for x in tube.vertices if x.kind == "Z"}
        ws = {x for x in tube.vertices if x.kind == "W"}
        ok &= zs == {Z(i, i) for i in range(1, n + 1)} | \
            {Z(c, i) for i in range(1, n + 1)}
        ok &= ws == {W(c, a, b) for a in range(1, n + 1)
                     for b in range(a + 1, n + 1)}
        deg = {x: 0 for x in tube.vertices}
        for e in tube.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        ok &= all(deg[Z(i, i)] == 1 for i in range(1, n + 1))
        ok &= all(deg[Z(c, i)] == n for i in range(1, n + 1))
        ok &= all(deg[w] == 2 for w in ws)
        ok &= all({tube.x_edge(i).u, tube.x_edge(i).v} ==
                  {Z(i, i), Z(c, i)} for i in range(1, n + 1))
        ok &= all({tube.y_edge(c, a, b).u, tube.y_edge(c, a, b).v} ==
                  {Z(c, a), W(c, a, b)}
                  for a in range(1, n + 1) for b in range(1, n + 1) if a != b)
    report(2, "star tubes match the explicit vertex/edge/degree lists "
           "for n = 1..6", ok)


def test_criterion_3_rotation_numbers():
    ok = True
    cycle = ((3, 1), (2, -1), (1, 1))
    for r in range(-3, 4):
        f = standard_curve(r)
        ok &= wu(f).coords == (r,)
        ok &= turning_number(trace_cycle(f, EdgeCycle(f.graph, cycle))) == r
    report(3, "wu(standard_curve(r)) = (r) and the turning oracle agrees "
           "for r in -3..3", ok)


def test_criterion_4_star_coordinates():
    ok = (wu(standard_star((1, 2, 3))).coords == (1,)
          and wu(standard_star((1, 3, 2))).coords == (-1,)
          and star_wu((1, 2, 3)) == (1,) and star_wu((1, 3, 2)) == (-1,))
    report(4, "the two cyclic orders of the three-spoke star give +1 "
           "and -1", ok)


FIXTURES = None


def fixtures():
    global FIXTURES
    if FIXTURES is None:
        FIXTURES = [standard_curve(2), standard_star((1, 2, 3)),
                    standard_star((2, 1, 4, 3)), planar_k4()]
    return FIXTURES


def test_criterion_5_invariance_suite():
    t0 = time.monotonic()
    ok = True
    for f in fixtures():
        base = wu(f)
        for seed in range(25):                       # 100 perturbations
            ok &= wu(perturb(f, seed)).coords == base.coords
        eid = f.graph.edges[-1].id
        for k in range(13 if f.graph.num_edges > 3 else 12):  # 50 pairs
            t = f.polylines[eid].length * (0.25 + 0.4 * k / 13)
            ok &= wu(whitney_pair(f, eid, t)).coords == base.coords
        ok &= wu(resample_midpoints(f)).coords == base.coords
        ctx = prepare(f)
        ok &= wu(f, eps=ctx.eps / 2).coords == base.coords
        th = 0.9

        def iso(p):
            return (p[0] * math.cos(th) - p[1] * math.sin(th) + 2.0,
                    p[0] * math.sin(th) + p[1] * math.cos(th) + 1.0)

        ok &= wu(map_points(f, iso)).coords == base.coords
        ok &= wu(reflect(f)).coords == tuple(-c for c in base.coords)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(5, f"wu invariant under perturbation, Whitney pairs, resampling, "
           f"eps halving, isometries; negates under reflection "
           f"({elapsed:.1f}s)", ok)


def test_criterion_6_curl_sensitivity():
    ok = True
    for f in (standard_curve(1), planar_k4()):
        base = wu(f)
        tree = prepare(f).plan.complex.graph_tree
        for eid in range(1, f.graph.num_edges + 1):
            for sign in (+1, -1):
                t = f.polylines[eid].length * 0.43
                moved = wu(insert_curl(f, eid, t, sign))
                for name, a, b in zip(base.basis_names, base.coords,
                                      moved.coords):
                    if name.startswith("Y"):
                        ok &= a == b
                    else:
                        mult = sum(
                            d for e2, d in
                            fundamental_cycle(tree, int(name[1:])).steps
                            if e2 == eid)
                        ok &= b - a == sign * mult
    report(6, "a single curl shifts exactly the X coordinates over its "
           "edge by sign times multiplicity (exhaustive on the triangle "
           "and K4)", ok)


def test_criterion_7_restriction():
    ok = True
    for seed in range(6):
        f = random_k4(seed + 100)
        v, orders = wu(f), validate_generic(f).cyclic_orders
        for vert in f.graph.vertices():
            sub = star(f.graph, vert)
            local_of = {p: l for l, p in sub.edge_to_parent.items()}
            order = tuple(local_of[e] for e in orders[vert].edges)
            y = v[f"Y{vert}[2,1]"]
            ok &= wu(restrict(f, sub)).coords == (y,)
            ok &= star_wu(order) == (y,)
    report(7, "per-vertex Y coordinates equal the invariant of the "
           "restricted star and of its cyclic order (random K4 drawings)", ok)


K4_SIMPLE_CYCLES = [
    ((1, 1), (4, 1), (2, -1)),
    ((1, 1), (5, 1), (3, -1)),
    ((2, 1), (6, 1), (3, -1)),
    ((4, 1), (6, 1), (5, -1)),
    ((1, 1), (4, 1), (6, 1), (3, -1)),
    ((1, 1), (5, 1), (6, -1), (2, -1)),
    ((2, 1), (4, -1), (5, 1), (3, -1)),
]


def test_criterion_8_linearity_and_rotation():
    ok = True
    rng = random.Random(8)
    for f in fixtures():
        ctx = prepare(f)
        raw = raw_basis_windings(ctx)
        for _ in range(25):                          # 100 cycles total
            steps = random_tube_cycle(ctx.plan.complex, rng)
            ok &= cycle_is_closed(steps)
            val = evaluate_on_tube_cycle(ctx, steps)
            dec = decompose_over_basis(ctx, steps)
            ok &= val == sum(raw[n] * m for n, m in dec.items())
    for seed in (0, 1):
        f = random_k4(seed)
        ctx = prepare(f)
        for steps in K4_SIMPLE_CYCLES:
            c = EdgeCycle(f.graph, steps)
            ok &= rotation_number_on_cycle(ctx, c) == \
                turning_number(trace_cycle(f, c))
    report(8, "cocycle evaluation is linear over the basis (100 random "
           "tube cycles) and per-cycle rotation numbers match the turning "
           "oracle on all simple K4 cycles", ok)


def test_criterion_9_k4_family_partition():
    rng = random.Random(7)
    base = planar_k4()
    base_wu = wu(base)
    ok = len(base_wu.coords) == 7
    ok &= sum(n.startswith("X") for n in base_wu.basis_names) == 3
    ok &= sum(n.startswith("Y") for n in base_wu.basis_names) == 4
    tree = prepare(base).plan.complex.graph_tree
    deltas = {}
    for eid in range(1, 7):
        deltas[eid] = {
            f"X{j}": sum(d for e2, d in fundamental_cycle(tree, j).steps
                         if e2 == eid)
            for j in tree.non_tree_edges}
    family = []
    for _ in range(20):
        f = base
        predicted = dict(zip(base_wu.basis_names, base_wu.coords))
        for _ in range(rng.randint(0, 3)):
            eid = rng.randint(1, 6)
            sign = rng.choice((-1, 1))
            f = insert_curl(f, eid,
                            f.polylines[eid].length * rng.uniform(0.3, 0.7),
                            sign)
            for name, mult in deltas[eid].items():
                predicted[name] += sign * mult
        if rng.random() < 0.5:
            eid = rng.randint(1, 6)
            f = whitney_pair(f, eid, f.polylines[eid].length * 0.15)
        f = perturb(f, rng.randint(0, 10**6))
        family.append((f, tuple(predicted[n] for n in base_wu.basis_names)))
    vectors = []
    for f, predicted in family:
        v = wu(f)
        ok &= all(isinstance(c, int) for c in v.coords)
        ok &= v.coords == predicted
        vectors.append(v.coords)
    # partition by wu equality == partition by move bookkeeping
    by_wu = {}
    by_predicted = {}
    for i, ((f, predicted), v) in enumerate(zip(family, vectors)):
        by_wu.setdefault(v, set()).add(i)
        by_predicted.setdefault(predicted, set()).add(i)
    ok &= set(map(frozenset, by_wu.values())) == \
        set(map(frozenset, by_predicted.values()))
    ok &= len(by_wu) > 1
    report(9, "20 move-generated K4 immersions give integer 7-vectors "
           "(3 X + 4 Y) and partition exactly by wu equality", ok)
