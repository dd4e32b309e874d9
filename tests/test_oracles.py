import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import planetube
from planetube.graphs import (complete_graph, star_graph, path_graph,
                              fundamental_cycle)
from planetube.tube import (TubeEdge, TubeVertex, W, build_symmetric_tube,
                            rank, basis_cycle, tube_cycle_over_graph_cycle)
from planetube.immersion import standard_curve, standard_star, planar_k4
from planetube.invariant import (prepare, evaluate_on_tube_cycle, wu_plan,
                                 _row)
from planetube.moves import insert_curl
from planetube.oracles import (cell_census, census_matches_tube,
                               betti_oracle, dense_winding_oracle,
                               _matrix_rank, pair_path, winding,
                               tube_tree, fundamental_cycle_tube)

from conftest import (connected_graphs_upto, random_connected_graph,
                      random_k4, straight_line_immersion)


def test_census_k3():
    c = cell_census(complete_graph(3))
    assert c.diagonal_cells == 6
    assert c.disjoint_pairs == 12     # 6 vertex-vertex + 6 vertex-edge
    assert (c.tube_vertices, c.tube_edges) == (9, 9)


def test_census_k4():
    c = cell_census(complete_graph(4))
    assert (c.tube_vertices, c.tube_edges) == (24, 30)
    assert c.betti_formula == 7


def test_census_matches_built_tubes():
    for g in connected_graphs_upto(4):
        assert census_matches_tube(cell_census(g), build_symmetric_tube(g))


def test_census_catches_a_reattached_y_edge():
    g = complete_graph(4)
    tube = build_symmetric_tube(g)
    assert census_matches_tube(cell_census(g), tube)
    # Y(1, 1, 2) joins Z(1, 1) to W(1, 1, 2); move its W end to W(1, 2, 3)
    y = tube.y_edge(1, 1, 2)
    w_end = "v" if y.v.kind == "W" else "u"
    ends = {"u": y.u, "v": y.v, w_end: W(1, 2, 3)}
    moved = TubeEdge(y.kind, y.vertex, y.edge_a, y.edge_b, **ends)
    edges = tuple(moved if e is y else e for e in tube.edges)
    bad = tube._replace(edges=edges)
    assert (len(bad.vertices), len(bad.edges)) == \
        (len(tube.vertices), len(tube.edges))
    assert not census_matches_tube(cell_census(g), bad)


def test_census_catches_an_unordered_w_cell():
    # a W cell lists its edges in increasing order; `W` orders them, and
    # the census checks the built cells independently
    g = complete_graph(4)
    tube = build_symmetric_tube(g)
    ordered, unordered = W(1, 1, 2), TubeVertex("W", 1, 2, 1)

    def swap(c):
        return unordered if c == ordered else c

    vertices = tuple(map(swap, tube.vertices))
    edges = tuple(e._replace(u=swap(e.u), v=swap(e.v)) for e in tube.edges)
    bad = tube._replace(vertices=vertices, edges=edges)
    assert unordered in bad.vertices and \
        any(unordered in (e.u, e.v) for e in bad.edges)
    assert not census_matches_tube(cell_census(g), bad)


def test_betti_oracle_exhaustive_small():
    for g in connected_graphs_upto(4):
        tube = build_symmetric_tube(g)
        assert betti_oracle(tube) == rank(g) == cell_census(g).betti_formula


def test_betti_oracle_trees():
    for g in (path_graph(2), path_graph(5)):
        assert betti_oracle(build_symmetric_tube(g)) == 0


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6))
def test_betti_oracle_random(seed):
    g = random_connected_graph(random.Random(seed), 8)
    assert betti_oracle(build_symmetric_tube(g)) == rank(g)


def test_matrix_rank_on_incidence_matrices():
    # the rank of a graph incidence matrix is vertices - components
    g = complete_graph(4)
    rows = [[0] * g.num_edges for _ in range(g.num_vertices)]
    for j, e in enumerate(g.edges):
        rows[e.tail - 1][j] = -1
        rows[e.head - 1][j] = 1
    assert _matrix_rank(rows) == 3
    assert _matrix_rank([[0, 0], [0, 0]]) == 0


def test_betti_oracle_leaves_numpy_unloaded():
    code = ("import sys; from planetube.graphs import complete_graph; "
            "from planetube.tube import build_symmetric_tube; "
            "from planetube.oracles import betti_oracle; "
            "print(betti_oracle(build_symmetric_tube(complete_graph(5))), "
            "'numpy' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(
            Path(planetube.__file__).parents[1])))
    assert out.stdout.split() == ["21", "False"]


def test_rule_rows_match_the_tree_walk():
    """The tube tree spans the tube, and every rule-written basis row is
    its non-tree multiplicities times the fundamental cycles that the
    breadth-first tree walk closes: a Y row is exactly its own edge's
    cycle, negated where the stored orientation runs W -> Z, and an X row
    meets its own X edge once and no other non-tree X edge."""
    graphs = list(connected_graphs_upto(4)) + \
        [complete_graph(n) for n in range(3, 9)]
    for g in graphs:
        plan = wu_plan(g)
        tc = plan.complex
        assert len(tube_tree(tc)) == len(tc.tube.vertices)
        index = tc.tube.index
        walked = {index[b.edge[:4]]: _row(index,
                                      fundamental_cycle_tube(tc, b.edge))
                  for b in plan.labels}
        for label in plan.labels:
            row = dict(plan.terms[label.name])
            crossed = {i: row[i] for i in walked if i in row}
            expected = {}
            for i, m in crossed.items():
                for j, k in walked[i]:
                    expected[j] = expected.get(j, 0) + m * k
            assert row == {j: k for j, k in expected.items() if k}, label.name
            if label.kind == "Y":
                sign = -1 if label.edge.u.kind == "W" else 1
                assert crossed == {index[label.edge[:4]]: sign}, label.name
            else:
                assert {i: m for i, m in crossed.items()
                        if tc.tube.edges[i].kind == "X"} == \
                    {index[label.edge[:4]]: 1}, label.name


def test_package_import_leaves_oracles_unloaded():
    code = ("import sys, planetube; a = 'planetube.oracles' in sys.modules; "
            "import planetube.cli, planetube.invariant, planetube.moves; "
            "print(a, 'planetube.oracles' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(
            Path(planetube.__file__).parents[1])))
    assert out.stdout.split() == ["False", "False"]


def dense_equals_adaptive(f, per_cell=1500):
    """Exact cochain, certified tracer and dense sampler agree on every
    basis cycle."""
    ctx = prepare(f)
    for label in ctx.plan.labels:
        steps = basis_cycle(ctx.plan.complex, label)
        p = pair_path(ctx.plan.complex.tube, steps, f, ctx.eps, ctx.report.tau)
        exact = evaluate_on_tube_cycle(ctx, steps)
        assert exact == winding(p) == dense_winding_oracle(p, per_cell), \
            label.name


def circle_k5():
    """Straight-line K5 on a regular pentagon: a pentagram inside."""
    pos = {v: (10.0 * math.cos(0.4 * math.pi * v),
               10.0 * math.sin(0.4 * math.pi * v)) for v in range(1, 6)}
    return straight_line_immersion(complete_graph(5), pos)


def test_dense_oracle_agrees_on_fixtures():
    k4, k5 = planar_k4(), circle_k5()
    k5 = insert_curl(k5, 3, k5.polylines[3].length / 3, 1)
    for f in (standard_curve(-2), standard_curve(1), standard_curve(3),
              standard_star((1, 2, 3)), standard_star((2, 1, 4, 3)), k4,
              insert_curl(k4, 4, k4.polylines[4].length / 2, -1),
              insert_curl(k5, 8, k5.polylines[8].length / 2, -1)):
        dense_equals_adaptive(f)


def test_dense_oracle_agrees_on_random_k4():
    for seed in range(3):
        dense_equals_adaptive(random_k4(seed + 50))


def test_dense_oracle_anchor_values():
    # ccw triangle tube circle: the chord direction makes one full turn,
    # which is two half-turns of the undirected direction
    f = standard_curve(1)
    ctx = prepare(f)
    t = ctx.plan.complex.graph_tree
    steps = tube_cycle_over_graph_cycle(ctx.plan.complex.tube,
                                        fundamental_cycle(t, 3))
    p = pair_path(ctx.plan.complex.tube, steps, f, ctx.eps, ctx.report.tau)
    assert dense_winding_oracle(p, 3000) == 2

    # mirrored three-spoke star: the block hexagon winds minus one half-turn
    f = standard_star((1, 3, 2))
    ctx = prepare(f)
    label = ctx.plan.labels[0]
    steps = basis_cycle(ctx.plan.complex, label)
    p = pair_path(ctx.plan.complex.tube, steps, f, ctx.eps, ctx.report.tau)
    assert dense_winding_oracle(p, 3000) == -1
