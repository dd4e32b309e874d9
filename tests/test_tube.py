import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from planetube.graphs import (complete_graph, star_graph, path_graph,
                              cycle_graph, fundamental_cycle, GraphError)
from planetube.tube import (TubeError, Z, W, build_symmetric_tube,
                            tube_spanning_tree, rank, wu_basis, basis_cycle,
                            tube_cycle_over_graph_cycle, cycle_is_closed,
                            swap_parity, to_dot, to_json_dict)
from planetube import tube as tube_module
from planetube.oracles import fundamental_cycle_tube, tube_tree

from conftest import random_connected_graph


def tube_degrees(tube):
    deg = {c: 0 for c in tube.vertices}
    for e in tube.edges:
        deg[e.u] += 1
        deg[e.v] += 1
    return deg


@pytest.mark.parametrize("n", range(1, 7))
def test_star_tube_explicit_lists(n):
    g = star_graph(n)
    tube = build_symmetric_tube(g)
    center = n + 1
    # vertex cells: one Z per edge end, one W per pair of spokes
    expected_z = {Z(i, i) for i in range(1, n + 1)} | \
                 {Z(center, i) for i in range(1, n + 1)}
    expected_w = {W(center, a, b) for a in range(1, n + 1)
                  for b in range(a + 1, n + 1)}
    assert {c for c in tube.vertices if c.kind == "Z"} == expected_z
    assert {c for c in tube.vertices if c.kind == "W"} == expected_w
    assert len(tube.vertices) == 2 * n + math.comb(n, 2)
    assert len(tube.edges) == n + 2 * math.comb(n, 2)
    # X(e_i) joins the two Z cells of e_i; Y(c,a,b) joins Z(c,a) to W(c,a,b)
    for i in range(1, n + 1):
        x = tube.x_edge(i)
        assert {x.u, x.v} == {Z(i, i), Z(center, i)}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a == b:
                continue
            y = tube.y_edge(center, a, b)
            assert {y.u, y.v} == {Z(center, a), W(center, a, b)}
    # degrees: leaf-side Z is 1, center-side Z is n, every W is 2
    deg = tube_degrees(tube)
    for i in range(1, n + 1):
        assert deg[Z(i, i)] == 1
        assert deg[Z(center, i)] == n
    for w in expected_w:
        assert deg[w] == 2


def test_rank_anchors():
    assert rank(complete_graph(4)) == 7
    assert rank(complete_graph(3)) == 1
    assert rank(star_graph(3)) == 1
    assert rank(path_graph(4)) == 0


def test_tube_tree_k4_basis():
    tc = tube_spanning_tree(build_symmetric_tube(complete_graph(4)))
    labels = wu_basis(tc)
    assert [b.name for b in labels] == ["X4", "X5", "X6", "Y1[2,1]",
                                        "Y2[2,1]", "Y3[2,1]", "Y4[2,1]"]
    assert len(tc.tree_edges) == len(tc.tube.vertices) - 1


def test_basis_cycles_closed_and_parities():
    for g in (complete_graph(3), complete_graph(4), star_graph(4)):
        tc = tube_spanning_tree(build_symmetric_tube(g))
        for label in wu_basis(tc):
            steps = basis_cycle(tc, label)
            assert cycle_is_closed(steps)
            assert swap_parity(steps) == (0 if label.kind == "X" else 1)


def test_fundamental_tube_cycles_closed():
    tc = tube_spanning_tree(build_symmetric_tube(complete_graph(4)))
    for e in (b.edge for b in wu_basis(tc)):
        assert cycle_is_closed(fundamental_cycle_tube(tc, e))
    with pytest.raises(TubeError):
        fundamental_cycle_tube(tc, next(iter(tc.tree_edges)))


def test_tube_cycle_over_graph_cycle_k3():
    g = complete_graph(3)
    tube = build_symmetric_tube(g)
    t = tube_spanning_tree(tube).graph_tree
    gamma = fundamental_cycle(t, 3)
    steps = tube_cycle_over_graph_cycle(tube, gamma)
    assert cycle_is_closed(steps)
    assert len(steps) == 9            # 3 X sweeps + 3 two-step transits
    assert swap_parity(steps) == 0


def test_tube_cycle_rejects_repeated_edges():
    g = cycle_graph(4)
    tube = build_symmetric_tube(g)
    from planetube.graphs import EdgeCycle
    c = EdgeCycle(g, ((1, 1), (1, -1), (1, 1), (1, -1), (1, 1), (1, -1)))
    with pytest.raises(GraphError):
        tube_cycle_over_graph_cycle(tube, c)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_tree_and_rank_on_random_graphs(seed):
    g = random_connected_graph(random.Random(seed), 6)
    tc = tube_spanning_tree(build_symmetric_tube(g))
    labels = wu_basis(tc)
    assert len(labels) == rank(g)
    assert len(tc.tree_edges) == len(tc.tube.vertices) - 1
    # the complement of the basis spans the tube: the walk reaches every cell
    assert len(tube_tree(tc)) == len(tc.tube.vertices)
    for label in labels:
        assert cycle_is_closed(basis_cycle(tc, label))


def test_tree_refuses_a_basis_rule_that_repeats_an_edge(monkeypatch):
    # a repeated basis edge leaves the complement, and so the tree's size,
    # as they were; only the count of tree and basis edges together tells
    rule = tube_module._basis

    def repeating(tube, graph_tree):
        labels = list(rule(tube, graph_tree))
        return labels + labels[-1:]

    monkeypatch.setattr(tube_module, "_basis", repeating)
    with pytest.raises(TubeError):
        tube_spanning_tree(build_symmetric_tube(complete_graph(4)))


def test_exports_smoke():
    tc = tube_spanning_tree(build_symmetric_tube(complete_graph(3)))
    assert "graph tube" in to_dot(tc)
    d = to_json_dict(tc, wu_basis(tc))
    assert d["rank"] == 1 and d["basis"] == ["X3"]
