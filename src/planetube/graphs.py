"""Finite simple connected labeled graphs with deterministic orderings.

Vertices are 1..m, edges 1..n; every edge is stored oriented tail -> head
with tail < head.  All invariant signs downstream depend on these
conventions, so construction is strict and deterministic.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple


class GraphError(ValueError):
    """Raised for structurally invalid graph data."""


class Frozen:
    """Base of the records that validate their input, which a NamedTuple
    cannot do: `EdgeCycle` and `immersion.PlaneImmersion` (which also keeps
    its caches out of copies).  `__init__` fills the slots through
    `object.__setattr__`; any later assignment or deletion raises
    AttributeError."""
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __setstate__(self, state):
        """What `copy` and `pickle` restore: (None, slot name -> value)."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Edge(NamedTuple):
    id: int
    tail: int
    head: int

    def other(self, v: int) -> int:
        if v == self.tail:
            return self.head
        if v == self.head:
            return self.tail
        raise GraphError(f"vertex {v} is not an endpoint of edge {self.id}")

    def ends(self) -> frozenset:
        return frozenset((self.tail, self.head))


class Graph(NamedTuple):
    """A graph on the vertices 1..num_vertices.  `incident[v - 1]` is the
    sorted tuple of the edge ids at v; `validate_graph`, the only
    constructor, builds it from the edges, so equality over all three
    fields is equality of vertex count and edges.  Equal graphs share one
    cached plan (`invariant.wu_plan`)."""
    num_vertices: int
    edges: tuple[Edge, ...]
    incident: tuple[tuple[int, ...], ...]

    def vertices(self) -> range:
        return range(1, self.num_vertices + 1)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge(self, eid: int) -> Edge:
        if not 1 <= eid <= len(self.edges):
            raise GraphError(f"unknown edge {eid}")
        return self.edges[eid - 1]

    def steps(self, v: int) -> list[tuple[int, int, int]]:
        """(edge id, direction, neighbour) leaving v, in increasing edge id
        order; direction is +1 when the step runs tail -> head."""
        edges = [self.edges[eid - 1] for eid in self.incident_edges(v)]
        return [(e.id, +1 if e.tail == v else -1, e.other(v)) for e in edges]

    def incident_edges(self, v: int) -> list[int]:
        """Edge ids at v, in increasing id order."""
        if not 1 <= v <= self.num_vertices:
            raise GraphError(f"unknown vertex {v}")
        return list(self.incident[v - 1])

    def degree(self, v: int) -> int:
        return len(self.incident_edges(v))

    def betti(self) -> int:
        return self.num_edges - self.num_vertices + 1

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.num_vertices,
            "edges": [[e.tail, e.head] for e in self.edges],
        }


class SpanningTree(NamedTuple):
    graph: Graph
    edge_ids: frozenset
    parent: dict                # from bfs_tree

    @property
    def non_tree_edges(self) -> list[int]:
        return [e.id for e in self.graph.edges if e.id not in self.edge_ids]

    def path(self, u: int, v: int) -> list[tuple[int, int]]:
        """Tree path from u to v as (edge id, direction) pairs.

        Direction is +1 when the edge is traversed tail -> head.
        """
        return tree_path(self.parent, u, v)


class EdgeCycle(Frozen):
    """Closed edge sequence: (edge id, +1/-1) pairs, consecutive edges share
    the matching endpoint."""
    __slots__ = ("graph", "steps")

    def __init__(self, graph: Graph, steps: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "steps", steps)
        if not self.steps:
            raise GraphError("empty cycle")
        v = self.start_vertex()
        for eid, d in self.steps:
            e = self.graph.edge(eid)
            expected = e.tail if d > 0 else e.head
            if v != expected:
                raise GraphError("cycle steps do not chain")
            v = e.head if d > 0 else e.tail
        if v != self.start_vertex():
            raise GraphError("cycle is not closed")

    def start_vertex(self) -> int:
        eid, d = self.steps[0]
        e = self.graph.edge(eid)
        return e.tail if d > 0 else e.head

    def vertices(self) -> list[int]:
        """Vertex at the start of each step."""
        out = []
        v = self.start_vertex()
        for eid, d in self.steps:
            out.append(v)
            v = self.graph.edge(eid).other(v)
        return out


def validate_graph(num_vertices: int, edge_pairs) -> Graph:
    """Build a canonical Graph or raise GraphError listing all violations;
    a vertex count that is not an integer is refused on its own.  A JSON
    boolean or float, even a whole one such as 1.0, is not an integer here,
    as a vertex count or an endpoint.  `edge_pairs` that is not a list or
    tuple raises TypeError naming the field, as a JSON value of the wrong
    shape does.  More vertices than the edges can connect are refused by
    the counts alone, before a table of the vertices is built."""
    if not isinstance(num_vertices, int) or isinstance(num_vertices, bool):
        raise GraphError(f"vertex count {num_vertices!r} is not an integer")
    if not isinstance(edge_pairs, (list, tuple)):
        raise TypeError("graph edges must be a list, not "
                        f"{type(edge_pairs).__name__}")
    problems = []
    if num_vertices < 1:
        problems.append("graph needs at least one vertex")
    if not edge_pairs:
        problems.append("graph needs at least one edge")
    seen = set()
    edges = []
    for idx, pair in enumerate(edge_pairs, start=1):
        try:
            a, b = pair
            if type(a) is not int or type(b) is not int:   # nor a bool
                raise TypeError("a vertex id is an integer")
            inside = 1 <= a <= num_vertices and 1 <= b <= num_vertices
        except (TypeError, ValueError):
            problems.append(f"edge {idx}: {pair!r} is not a pair of vertex ids")
            continue
        if not inside:
            problems.append(f"edge {idx}: endpoint outside 1..{num_vertices}")
            continue
        if a == b:
            problems.append(f"edge {idx}: loop at vertex {a}")
            continue
        key = frozenset((a, b))
        if key in seen:
            problems.append(f"edge {idx}: duplicate of edge ({min(a,b)},{max(a,b)})")
            continue
        seen.add(key)
        edges.append(Edge(idx, min(a, b), max(a, b)))
    if not problems and num_vertices > len(edges) + 1:
        problems.append(f"disconnected: {num_vertices} vertices need at "
                        f"least {num_vertices - 1} edges, not {len(edges)}")
    if not problems:
        # edges come in increasing id order, so each vertex's list is sorted
        inc = [[] for _ in range(num_vertices)]
        for e in edges:
            inc[e.tail - 1].append(e.id)
            inc[e.head - 1].append(e.id)
        # tuple() of a list: of an iterator, it is allocated at a guessed
        # size and shrunk, stranding memory in CPython's tuple free lists
        g = Graph(num_vertices, tuple(edges), tuple([tuple(i) for i in inc]))
        # walk the incidence lists; edge (id, a, b) leads from v to a + b - v
        reached, todo = {1}, [1]
        for v in todo:
            for eid in inc[v - 1]:
                _, a, b = edges[eid - 1]
                w = a + b - v
                if w not in reached:
                    reached.add(w)
                    todo.append(w)
        if len(reached) != num_vertices:
            missing = sorted(set(g.vertices()) - reached)
            problems.append(f"disconnected: vertices {missing} unreachable from v1")
        else:
            return g
    raise GraphError("; ".join(problems))


def bfs_tree(root, steps) -> dict:
    """Breadth-first tree from root.  `steps(node)` lists (edge, direction,
    neighbour) in exploration order, the direction signing the edge as
    walked from node to neighbour.  Returns node -> (edge, direction, parent
    node) for every reached node, None at the root; that direction walks
    from the parent to the node."""
    parent = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for e, d, w in steps(v):
            if w not in parent:
                parent[w] = (e, d, v)
                queue.append(w)
    return parent


def tree_path(parent: dict, a, b) -> list[tuple]:
    """The path a -> b in a tree given by `bfs_tree`, as (edge, direction)
    steps; each direction is the one that walks the path from a to b."""
    def chain(c):
        out = [c]
        while parent[c] is not None:
            c = parent[c][2]
            out.append(c)
        return out                                  # root last

    up_a, up_b = chain(a), chain(b)
    on_b = set(up_b)
    lca = next(c for c in up_a if c in on_b)        # lowest common ancestor
    up = [(parent[c][0], -parent[c][1]) for c in up_a[:up_a.index(lca)]]
    down = [parent[c][:2] for c in reversed(up_b[:up_b.index(lca)])]
    return up + down


def complete_graph(m: int) -> Graph:
    if m < 2:
        raise GraphError("complete graph needs m >= 2")
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return validate_graph(m, pairs)


def star_graph(n: int) -> Graph:
    """S_n: center v_{n+1}, edges e_i = (v_i, v_{n+1})."""
    if n < 1:
        raise GraphError("star graph needs n >= 1")
    return validate_graph(n + 1, [(i, n + 1) for i in range(1, n + 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise GraphError("cycle graph needs k >= 3")
    pairs = [(i, i + 1) for i in range(1, k)] + [(1, k)]
    return validate_graph(k, pairs)


def path_graph(k: int) -> Graph:
    if k < 2:
        raise GraphError("path graph needs k >= 2")
    return validate_graph(k, [(i, i + 1) for i in range(1, k)])


def canonical_spanning_tree(g: Graph) -> SpanningTree:
    """Breadth-first tree from v1, neighbors explored in edge-id order."""
    parent = bfs_tree(1, g.steps)
    edge_ids = frozenset(step[0] for step in parent.values() if step)
    return SpanningTree(g, edge_ids, parent)


def fundamental_cycle(t: SpanningTree, eid: int) -> EdgeCycle:
    """The non-tree edge traversed positively, then the tree path
    head -> tail."""
    if eid in t.edge_ids:
        raise GraphError(f"edge {eid} is a tree edge")
    e = t.graph.edge(eid)
    steps = [(eid, +1)] + t.path(e.head, e.tail)
    return EdgeCycle(t.graph, tuple(steps))


class SubgraphMap(NamedTuple):
    """A subgraph relabeled canonically, with maps back to the parent."""
    graph: Graph
    vertex_to_parent: dict
    edge_to_parent: dict


def star(g: Graph, v: int) -> SubgraphMap:
    """st(v) relabeled as the standard star: neighbors (by incident edge id)
    become v_1..v_d, the center becomes v_{d+1}."""
    if v not in g.vertices():
        raise GraphError(f"unknown vertex {v}")
    eids = g.incident_edges(v)
    d = len(eids)
    neighbors = [g.edge(i).other(v) for i in eids]
    sub = star_graph(d)
    vmap = {i + 1: w for i, w in enumerate(neighbors)}
    vmap[d + 1] = v
    emap = {i + 1: eid for i, eid in enumerate(eids)}
    return SubgraphMap(sub, vmap, emap)


def subgraph_from_edges(g: Graph, edge_ids) -> SubgraphMap:
    """Connected subgraph spanned by the given edges, relabeled canonically.

    Vertices keep their parent relative order; edges keep their parent
    relative order.
    """
    eids = sorted(set(edge_ids))
    if not eids:
        raise GraphError("subgraph needs at least one edge")
    verts = sorted({w for i in eids for w in (g.edge(i).tail, g.edge(i).head)})
    vindex = {w: k + 1 for k, w in enumerate(verts)}
    pairs = [(vindex[g.edge(i).tail], vindex[g.edge(i).head]) for i in eids]
    sub = validate_graph(len(verts), pairs)
    vmap = {k + 1: w for k, w in enumerate(verts)}
    emap = {k + 1: i for k, i in enumerate(eids)}
    return SubgraphMap(sub, vmap, emap)
