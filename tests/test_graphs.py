import random

import pytest
from hypothesis import given, settings, strategies as st

from planetube.graphs import (GraphError, EdgeCycle, validate_graph,
                              canonical_spanning_tree, fundamental_cycle,
                              complete_graph, star_graph, cycle_graph,
                              path_graph, star, subgraph_from_edges)

from conftest import random_connected_graph


def test_validate_rejects_loops_duplicates_range():
    with pytest.raises(GraphError, match="loop"):
        validate_graph(2, [[1, 1], [1, 2]])
    with pytest.raises(GraphError, match="duplicate"):
        validate_graph(2, [[1, 2], [2, 1]])
    with pytest.raises(GraphError, match="outside"):
        validate_graph(2, [[1, 3]])
    with pytest.raises(GraphError, match="disconnected"):
        validate_graph(4, [[1, 2], [3, 4]])


def test_vertex_count_beyond_the_edges_is_refused_by_the_counts():
    # 10^5 declared vertices on one edge: refused before a table of the
    # vertices is built, in a message that names the counts, not the
    # unreachable vertices
    with pytest.raises(GraphError) as info:
        validate_graph(10**5, [[1, 2]])
    message = str(info.value)
    assert message == ("disconnected: 100000 vertices need at least 99999 "
                       "edges, not 1") and len(message) < 200
    # a tree has exactly one edge fewer than its vertices
    assert validate_graph(3, [[1, 2], [2, 3]]).num_vertices == 3


def test_validate_names_malformed_fields():
    with pytest.raises(GraphError, match="vertex count 4.5"):
        validate_graph(4.5, [[1, 2]])
    with pytest.raises(GraphError, match=r"edge 2: \[2, '3'\] is not a pair"):
        validate_graph(3, [[1, 2], [2, "3"]])
    with pytest.raises(GraphError, match=r"edge 1: \[1, 2, 3\] is not a pair"):
        validate_graph(3, [[1, 2, 3], [2, 3]])


def test_edge_ids_outside_range_are_refused():
    g = complete_graph(4)
    assert g.edge(1).id == 1 and g.edge(6).id == 6
    for eid in (0, -1, 7):
        with pytest.raises(GraphError, match=f"unknown edge {eid}"):
            g.edge(eid)


def test_vertex_ids_outside_range_are_refused():
    # the incidence table is a tuple, where incident[-1] would be a vertex
    g = complete_graph(4)
    for v in (0, -1, 5):
        for read in (g.incident_edges, g.degree, g.steps,
                     lambda u: star(g, u)):
            with pytest.raises(GraphError, match=f"unknown vertex {v}"):
                read(v)


def test_edges_are_canonically_oriented():
    g = validate_graph(3, [[3, 1], [2, 3], [2, 1]])
    assert [(e.tail, e.head) for e in g.edges] == [(1, 3), (2, 3), (1, 2)]
    assert g.incident_edges(3) == [1, 2]


def test_complete_graph_edge_order():
    g = complete_graph(4)
    assert [(e.tail, e.head) for e in g.edges] == \
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_canonical_tree_k3_k4():
    assert canonical_spanning_tree(complete_graph(3)).edge_ids == {1, 2}
    assert canonical_spanning_tree(complete_graph(4)).edge_ids == {1, 2, 3}


def test_fundamental_cycle_k3():
    t = canonical_spanning_tree(complete_graph(3))
    c = fundamental_cycle(t, 3)
    assert c.steps[0] == (3, 1)
    assert c.vertices() == [2, 3, 1]


def test_fundamental_cycle_requires_non_tree_edge():
    t = canonical_spanning_tree(complete_graph(3))
    with pytest.raises(GraphError):
        fundamental_cycle(t, 1)


def test_edge_cycle_must_chain_and_close():
    g = complete_graph(3)
    with pytest.raises(GraphError):
        EdgeCycle(g, ((1, 1), (2, 1), (3, 1)))
    EdgeCycle(g, ((1, 1), (3, 1), (2, -1)))  # v1 -> v2 -> v3 -> v1


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_spanning_tree_properties(seed):
    g = random_connected_graph(random.Random(seed), 6)
    t = canonical_spanning_tree(g)
    assert len(t.edge_ids) == g.num_vertices - 1
    # tree paths chain between their endpoints
    rng = random.Random(seed + 1)
    u = rng.randint(1, g.num_vertices)
    v = rng.randint(1, g.num_vertices)
    cur = u
    for eid, d in t.path(u, v):
        e = g.edge(eid)
        assert cur == (e.tail if d > 0 else e.head)
        cur = e.other(cur)
    assert cur == v


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_fundamental_cycles_close(seed):
    g = random_connected_graph(random.Random(seed), 6)
    t = canonical_spanning_tree(g)
    for eid in t.non_tree_edges:
        c = fundamental_cycle(t, eid)
        assert [e for e, _ in c.steps].count(eid) == 1


def test_star_subgraph_labeling():
    g = complete_graph(4)
    sub = star(g, 3)
    assert sub.graph.num_vertices == 4           # 3 leaves + center
    assert sub.vertex_to_parent[4] == 3          # center keeps identity
    assert sub.edge_to_parent == {1: 2, 2: 4, 3: 6}
    assert sub.vertex_to_parent[1] == 1          # leaf order by edge id


def test_subgraph_from_edges_preserves_order():
    g = complete_graph(4)
    sub = subgraph_from_edges(g, [6, 4, 2])
    assert sub.edge_to_parent == {1: 2, 2: 4, 3: 6}
    assert sub.vertex_to_parent == {1: 1, 2: 2, 3: 3, 4: 4}


def test_generators():
    assert star_graph(3).degree(4) == 3
    assert cycle_graph(5).betti() == 1
    assert path_graph(4).betti() == 0
    with pytest.raises(GraphError):
        star_graph(0)
