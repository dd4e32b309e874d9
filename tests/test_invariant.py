import copy
import hashlib
import importlib
import itertools
import math
import os
import pickle
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import planetube
from planetube import geometry
from planetube.geometry import angle_of, dist
from planetube.graphs import (EdgeCycle, Frozen, star, complete_graph,
                              path_graph, star_graph, validate_graph)
from planetube.genericity import Tolerances, validate_generic
from planetube.immersion import (PlaneImmersion, reflect, map_points,
                                 standard_curve, standard_star, planar_k4)
from planetube.invariant import (WindingError, wu, prepare,
                                 evaluate_on_tube_cycle, equivalent,
                                 star_wu, rotation_number_on_cycle,
                                 coordinate, wu_plan, PLAN_CACHE_SIZE,
                                 conventions_fingerprint, _conventions_blob)
from planetube.moves import MoveError, insert_curl
from planetube.oracles import (omega, pair_path, winding,
                               fundamental_cycle_tube, raw_basis_windings,
                               decompose_over_basis, trace_cycle,
                               turning_number, report_differences)
from planetube.tube import (W, Z, basis_cycle, tube_cycle_over_graph_cycle,
                            cycle_is_closed, swap_parity)

from conftest import (counted_validations, resample_midpoints, random_k4,
                      random_bent_kn, random_tube_cycle)


K3_CYCLE = ((3, 1), (2, -1), (1, 1))       # v2 -> v3 -> v1 -> v2

K4_SIMPLE_CYCLES = [
    ((1, 1), (4, 1), (2, -1)),             # v1 v2 v3
    ((1, 1), (5, 1), (3, -1)),             # v1 v2 v4
    ((2, 1), (6, 1), (3, -1)),             # v1 v3 v4
    ((4, 1), (6, 1), (5, -1)),             # v2 v3 v4
    ((1, 1), (4, 1), (6, 1), (3, -1)),     # v1 v2 v3 v4
    ((1, 1), (5, 1), (6, -1), (2, -1)),    # v1 v2 v4 v3
    ((2, 1), (4, -1), (5, 1), (3, -1)),    # v1 v3 v2 v4
]


def test_wu_standard_curves():
    for r in range(-3, 4):
        v = wu(standard_curve(r))
        assert v.basis_names == ("X3",)
        assert v.coords == (r,)


def test_wu_standard_stars():
    assert wu(standard_star((1, 2, 3))).coords == (1,)
    assert wu(standard_star((1, 3, 2))).coords == (-1,)


def test_star_wu_all_s4_orders():
    # reversal mirrors the drawing, so coordinates negate
    table = {}
    for perm in itertools.permutations((2, 3, 4)):
        order = (1,) + perm
        table[order] = star_wu(order)
    for order, coords in table.items():
        rev = (1,) + tuple(reversed(order[1:]))
        assert table[rev] == tuple(-c for c in coords)
    assert len(set(table.values())) == 6    # the six orders are distinguished


def _counterclockwise(f, v, a, b, c):
    """Germs of edges a, b, c at v are met in that order turning
    counterclockwise."""
    # each spoke runs leaf -> center, so its germ at v points to its leaf
    ang = {e: angle_of(f.polylines[e].points[0]) for e in (a, b, c)}
    return (ang[b] - ang[a]) % (2 * math.pi) < (ang[c] - ang[a]) % (2 * math.pi)


def test_y_coordinate_is_germ_triple_orientation():
    # Y{v}[k,j] is +1 exactly when the germs of (inc[j-1], inc[k-1],
    # inc[d-1]) turn counterclockwise, over all 152 star orders, d = 3..6
    count = 0
    for d in range(3, 7):
        for perm in itertools.permutations(range(2, d + 1)):
            f = standard_star((1,) + perm)
            v, inc = d + 1, f.graph.incident_edges(d + 1)
            w = wu(f)
            for j in range(1, d):
                for k in range(j + 1, d):
                    ccw = _counterclockwise(f, v, inc[j - 1], inc[k - 1],
                                            inc[d - 1])
                    assert w[f"Y{v}[{k},{j}]"] == (1 if ccw else -1)
            count += 1
    assert count == 152


def test_y_coordinate_is_cyclic_order_on_bent_drawings():
    # Y{v}[k,j] is +1 exactly when inc[j-1] precedes inc[k-1] in the
    # report's counterclockwise order at v, read from inc[d-1], on random
    # bent K3-K6 with 0-3 curls and on their mirror images
    rng = random.Random(11)
    checked = curled = 0
    for n in range(3, 7):
        for curls in range(4):
            f = random_bent_kn(rng, n)
            while not validate_generic(f).passed:
                f = random_bent_kn(rng, n)
            for _ in range(curls):
                eid = rng.randint(1, f.graph.num_edges)
                try:
                    f = insert_curl(f, eid, f.polylines[eid].length
                                    * rng.uniform(0.1, 0.9),
                                    rng.choice((-1, 1)))
                except MoveError:       # no room there
                    continue
                curled += 1
            for g in (f, reflect(f)):
                orders, w = validate_generic(g).cyclic_orders, wu(g)
                for v in g.graph.vertices():
                    inc = g.graph.incident_edges(v)
                    d, ring = len(inc), orders[v].edges
                    start = ring.index(inc[-1])
                    place = {e: (i - start) % d for i, e in enumerate(ring)}
                    for j in range(1, d):
                        for k in range(j + 1, d):
                            first = place[inc[j - 1]] < place[inc[k - 1]]
                            assert w[f"Y{v}[{k},{j}]"] == \
                                (1 if first else -1)
                            checked += 1
    # Y labels per drawing: 0, 4, 15 and 36 on K3-K6
    assert checked == 2 * 4 * (4 + 15 + 36) and curled >= 16


def test_star_wu_depends_only_on_cyclic_order():
    base = wu(standard_star((1, 3, 2)))
    skew = wu(standard_star((1, 3, 2),
                            germ_angles={1: 0.3, 3: 1.1, 2: 4.9}))
    assert base.coords == skew.coords == star_wu((1, 3, 2))
    # an iterator is read once
    assert star_wu(iter((1, 3, 2))) == base.coords
    assert star_wu(iter((1, 2))) == ()


def test_pair_path_cells_share_boundary_pairs(k4):
    ctx = prepare(k4)
    for label in ctx.plan.labels:
        steps = basis_cycle(ctx.plan.complex, label)
        p = pair_path(ctx.plan.complex.tube, steps,
                      k4, ctx.eps, ctx.report.tau)
        for i in range(len(steps)):
            j = (i + 1) % len(steps)
            a = p.pair_at(i, 1.0)
            b = p.pair_at(j, 0.0)
            match = (dist(a[0], b[0]) < 1e-9 and dist(a[1], b[1]) < 1e-9) or \
                    (dist(a[0], b[1]) < 1e-9 and dist(a[1], b[0]) < 1e-9)
            assert match, (label.name, i)


def test_winding_rejects_oversized_eps():
    f = standard_curve(1)
    ctx = prepare(f)
    steps = basis_cycle(ctx.plan.complex, ctx.plan.labels[0])
    with pytest.raises(WindingError):
        pair_path(ctx.plan.complex.tube, steps,
                  f, f.polylines[1].length, ctx.report.tau)


def test_winding_rejects_open_paths(k4):
    ctx = prepare(k4)
    steps = basis_cycle(ctx.plan.complex, ctx.plan.labels[0])
    with pytest.raises(WindingError):
        pair_path(ctx.plan.complex.tube, steps[:-1],
                  k4, ctx.eps, ctx.report.tau)


def test_prepare_rejects_eps_above_suggested(k4):
    ctx = prepare(k4)
    for eps in (ctx.eps * 2, math.nan):
        with pytest.raises(WindingError):
            prepare(k4, eps=eps)


def test_wu_computes_each_angle_once(monkeypatch):
    # one turn per bend and one angle per germ, 111 and 12 on this K4: the
    # cyclic orders, the least germ angle and every Y angle are read off
    # the germ angles
    rng = random.Random(3)
    f = random_bent_kn(rng, 4)
    calls = {"turn_angle": 0, "angle_of": 0}
    for name in calls:
        def counted(*args, real=getattr(geometry, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(geometry, name, counted)
    wu(f)
    bends = sum(len(pl.points) - 2 for pl in f.polylines.values())
    germs = 2 * f.graph.num_edges
    assert (calls["turn_angle"], calls["angle_of"]) == (bends, germs) \
        == (111, 12)


def test_wu_reads_the_report_its_drawing_keeps(monkeypatch):
    # a drawing validated, then evaluated, is validated once: wu right after
    # validate_generic under the same tolerance validates zero times, and
    # once after a validation under another; copies keep no report.  The
    # count is of every full validation, the test's own included
    calls = counted_validations(monkeypatch)
    f = random_bent_kn(random.Random(4), 5)
    expected, fixed = wu(copy.deepcopy(f)), Tolerances(tau_abs=1e-6)
    report = validate_generic(f)
    calls.clear()
    assert wu(f) == expected and equivalent(f, f)
    ctx = prepare(f, eps=report.epsilon / 10)
    assert ctx.report is report and calls == []
    validate_generic(f, fixed)
    assert wu(f, fixed) == expected and calls == [f]
    calls.clear()
    g = copy.deepcopy(f)
    validate_generic(g, fixed)
    assert wu(g) == expected and calls == [g, g]
    assert wu(g) == expected and calls == [g, g]
    calls.clear()
    for h in (copy.copy(f), pickle.loads(pickle.dumps(f))):
        assert wu(h, fixed) == expected and calls == [h]
        calls.clear()


def test_wu_k4_shape(k4):
    v = wu(k4)
    assert v.basis_names == ("X4", "X5", "X6", "Y1[2,1]", "Y2[2,1]",
                             "Y3[2,1]", "Y4[2,1]")
    assert all(isinstance(c, int) for c in v.coords)


def test_wu_reflection_negates(k4):
    for f in (k4, standard_curve(2), standard_star((1, 2, 4, 3)),
              random_k4(11)):
        assert wu(reflect(f)).coords == (-wu(f)).coords


def test_wu_stable_under_eps_halving(k4):
    ctx = prepare(k4)
    base = wu(k4)
    assert wu(k4, eps=ctx.eps / 2).coords == base.coords
    assert wu(k4, eps=ctx.eps / 4).coords == base.coords
    assert wu(k4, eps=ctx.eps / 1e4).coords == base.coords


def test_wu_stable_under_resampling(k4):
    assert wu(resample_midpoints(k4)).coords == wu(k4).coords
    c = standard_curve(-2)
    assert wu(resample_midpoints(c)).coords == (-2,)


def test_wu_invariant_under_isometry(k4):
    th = 1.2

    def iso(p):
        return (p[0] * math.cos(th) - p[1] * math.sin(th) + 4.0,
                p[0] * math.sin(th) + p[1] * math.cos(th) - 2.0)

    assert wu(map_points(k4, iso)).coords == wu(k4).coords
    assert wu(map_points(k4, lambda p: (3.0 * p[0], 3.0 * p[1]))).coords == \
        wu(k4).coords


def test_rotation_consistency_k3():
    for r in range(-2, 3):
        f = standard_curve(r)
        ctx = prepare(f)
        c = EdgeCycle(f.graph, K3_CYCLE)
        assert rotation_number_on_cycle(ctx, c) == r
        assert turning_number(trace_cycle(f, c)) == r


def test_rotation_consistency_k4_cycles():
    for seed in (0, 1):
        f = random_k4(seed)
        ctx = prepare(f)
        for steps in K4_SIMPLE_CYCLES:
            c = EdgeCycle(f.graph, steps)
            rot = rotation_number_on_cycle(ctx, c)
            assert rot == turning_number(trace_cycle(f, c))
            raw = evaluate_on_tube_cycle(
                ctx, tube_cycle_over_graph_cycle(ctx.plan.complex.tube, c))
            assert raw == 2 * rot


def test_linearity_random_cycles(k4):
    ctx = prepare(k4)
    raw = raw_basis_windings(ctx)
    rng = random.Random(3)
    for _ in range(25):
        steps = random_tube_cycle(ctx.plan.complex, rng)
        assert cycle_is_closed(steps)
        val = evaluate_on_tube_cycle(ctx, steps)
        dec = decompose_over_basis(ctx, steps)
        assert val == sum(raw[name] * m for name, m in dec.items())


def test_reversed_cycle_negates(k4):
    ctx = prepare(k4)
    for label in ctx.plan.labels:
        steps = basis_cycle(ctx.plan.complex, label)
        rev = [(e, -d) for e, d in reversed(steps)]
        assert evaluate_on_tube_cycle(ctx, rev) == \
            -evaluate_on_tube_cycle(ctx, steps)


def test_fundamental_cycle_evaluation_is_raw_coordinate(k4):
    ctx = prepare(k4)
    raw = raw_basis_windings(ctx)
    for b in ctx.plan.labels:
        steps = fundamental_cycle_tube(ctx.plan.complex, b.edge)
        assert evaluate_on_tube_cycle(ctx, steps) == raw[b.name]


def test_restriction_property():
    for seed in range(4):
        f = random_k4(seed + 20)
        v, orders = wu(f), validate_generic(f).cyclic_orders
        for vert in f.graph.vertices():
            sub = star(f.graph, vert)
            local_of = {parent: local
                        for local, parent in sub.edge_to_parent.items()}
            order = tuple(local_of[e] for e in orders[vert].edges)
            y = v[f"Y{vert}[2,1]"]
            assert wu(restrict_star(f, sub)).coords == (y,)
            assert star_wu(order) == (y,)


def restrict_star(f, sub):
    from planetube.immersion import restrict
    return restrict(f, sub)


def test_equivalent_basics(k4):
    assert equivalent(k4, map_points(k4, lambda p: (p[0] + 1.0, p[1] - 2.0)))
    assert not equivalent(standard_curve(1), standard_curve(2))
    with pytest.raises(ValueError):
        equivalent(standard_curve(1), standard_star((1, 2, 3)))


def test_wu_deterministic(k4):
    a, b = wu(k4), wu(k4)
    assert a == b
    assert a.fingerprint == b.fingerprint


def test_fingerprint_distinguishes_graphs():
    assert wu(standard_curve(1)).fingerprint != \
        wu(standard_star((1, 2, 3))).fingerprint


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10**6))
def test_random_k4_wu_is_integral_7_vector(seed):
    v = wu(random_k4(seed))
    assert len(v.coords) == 7
    x, y = v.coords[:3], v.coords[3:]
    assert all(isinstance(c, int) for c in v.coords)
    assert all(abs(c) % 2 == 1 for c in y)   # Y coordinates are odd


def test_coordinates_match_stepwise_omega_sums():
    # each coordinate, a row summed against the cochain of the genericity
    # report, equals the basis cycle evaluated step by step, with omega
    # recomputed from the points per step (`oracles.omega`)
    rng = random.Random(6)
    for n in (4, 5, 6, 7):
        f = random_bent_kn(rng, n)
        while not validate_generic(f).passed:
            f = random_bent_kn(rng, n)
        for g in (f, reflect(f)):
            ctx = prepare(g)
            for label in ctx.plan.labels:
                steps = basis_cycle(ctx.plan.complex, label)
                k = round(sum(d * omega(g, e) for e, d in steps) / math.pi)
                assert swap_parity(steps) == k % 2 == (label.kind == "Y")
                assert coordinate(ctx, label) == \
                    (k // 2 if label.kind == "X" else k)


def test_each_tube_edge_angle_matches_stepwise_omega():
    # every omega of the cochain on its own, not only the rounded totals of
    # the basis rows, against its step-by-step recomputation from the points
    # (`oracles.omega`); a wrong Y angle that rounds away shows here
    drawings = [planar_k4(), standard_curve(5), standard_curve(-3)]
    rng = random.Random(10)
    for n in range(3, 8):
        for _ in range(4):
            f = random_bent_kn(rng, n)
            while not validate_generic(f).passed:
                f = random_bent_kn(rng, n)
            drawings.append(f)
    for f in drawings:
        for g in (f, reflect(f)):
            ctx = prepare(g)
            for i, e in enumerate(ctx.plan.complex.tube.edges):
                assert abs(ctx.cochain[i] - omega(g, e)) <= 1e-12, e.label()


def test_omega_recipes_match_the_per_edge_formula():
    # the plan's recipes give each tube edge's omega bit for bit as the
    # formula read off the edge itself: an X edge's summed bend turns, and
    # for a Y edge with germ angles a (fixed edge) and b (moving edge),
    # 0.5 ((b - a) mod 2 pi - pi), negated when the edge leaves its W cell
    rng = random.Random(31)
    for n in (3, 4, 5, 6):
        for _ in range(3):
            f = random_bent_kn(rng, n)
            while not validate_generic(f).passed:
                f = random_bent_kn(rng, n)
            for g in (f, reflect(f)):
                ctx = prepare(g)
                turns, germs = ctx.report.turns, ctx.report.germs
                edges = ctx.plan.complex.tube.edges
                assert len(edges) == len(ctx.cochain)
                for e, w in zip(edges, ctx.cochain):
                    if e.kind == "X":
                        expected = turns[e.edge_a]
                    else:
                        a = germs[e.vertex][e.edge_a]
                        b = germs[e.vertex][e.edge_b]
                        expected = 0.5 * ((b - a) % (2.0 * math.pi)
                                          - math.pi)
                        if e.u.kind == "W":
                            expected = -expected
                    assert w.hex() == expected.hex(), e.label()


def test_equal_graphs_share_one_plan():
    a = complete_graph(5)
    b = validate_graph(5, [[e.tail, e.head] for e in a.edges])
    assert a is not b and a == b
    assert wu_plan(a) is wu_plan(b)


def test_value_semantics_the_package_relies_on():
    # equal graphs built apart are one cache key, so they share one plan
    a = complete_graph(4)
    b = validate_graph(4, [[e.tail, e.head] for e in a.edges])
    assert a is not b and a == b and hash(a) == hash(b)
    plan = wu_plan(b)
    assert wu_plan(a) is plan
    # tube edges are found by their cell data e[:4], not their ends
    tube = plan.complex.tube
    x, y = tube.x_edge(4), tube.y_edge(1, 1, 2)
    assert x == tube.edges[tube.index["X", 0, 4, 0]]
    assert (x.u, x.v) == (Z(2, 4), Z(3, 4))
    assert y[:4] == ("Y", 1, 1, 2) and {y.u, y.v} == {Z(1, 1), W(1, 1, 2)}
    # equality is field equality: only the records that validate their
    # input are hand-written, and no class writes its own __eq__ or __hash__
    assert set(Frozen.__subclasses__()) == {PlaneImmersion, EdgeCycle}
    for info in pkgutil.iter_modules(planetube.__path__):
        module = importlib.import_module(f"planetube.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                assert not {"__eq__", "__hash__"} & set(vars(cls)), cls
    # the hash-key types and the records refuse attribute assignment; a
    # drawing's kept report is shared by every reader, and a plan by every
    # caller with an equal graph
    f = planar_k4()
    report = validate_generic(f)
    v = wu(f)
    for obj, name in ((a.edges[0], "tail"), (Z(1, 1), "vertex"), (x, "u"),
                      (a, "edges"), (report, "epsilon"), (prepare(f), "eps"),
                      (plan, "terms"), (plan.complex, "tree_edges"),
                      (tube, "index"), (plan.complex.graph_tree, "parent"),
                      (star(a, 1), "graph"), (v, "coords")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert v == wu(planar_k4()) and hash(v) == hash(wu(planar_k4()))
    assert (v["X4"], v["Y1[2,1]"]) == (1, -1)
    assert -v != v and -(-v) == v
    assert (-v).coords == (-1, -1, 1, 1, -1, 1, -1)
    assert v.fingerprint == "a5214a0fc3856e68"
    # copy and pickle restore the read-only records
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(v)) == v
    for twin in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert report_differences(twin, report) == []


def test_plan_cache_is_bounded():
    for m in range(2, PLAN_CACHE_SIZE + 5):
        wu_plan(path_graph(m))
        assert wu_plan.cache_info().currsize <= PLAN_CACHE_SIZE
    assert wu_plan.cache_info().maxsize == PLAN_CACHE_SIZE


def test_fingerprint_is_sha256_of_conventions():
    for g in (complete_graph(3), complete_graph(4), star_graph(5)):
        plan = wu_plan(g)
        blob = _conventions_blob(plan.complex, plan.names)
        assert conventions_fingerprint(g) == \
            hashlib.sha256(blob).hexdigest()[:16]
    # it changes only when the conventions do
    assert wu(planar_k4()).fingerprint == "a5214a0fc3856e68"


def test_cli_import_leaves_dataclasses_unloaded():
    # -S: no `site`, whose own imports could load either module first; the
    # CLI loads `invariant` and `moves` only in the commands that use them,
    # so they are imported by name
    code = ("import sys, planetube.cli, planetube.invariant, planetube.moves; "
            "loaded = [m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules]; "
            "sys.exit(f'the CLI modules load {loaded}' if loaded else 0)")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(
            Path(planetube.__file__).parents[1])))
    assert out.returncode == 0, out.stderr


def test_cli_import_leaves_openssl_unloaded():
    # `invariant` holds the digest; the CLI loads it per command
    code = ("import importlib.util, sys, planetube.cli, planetube.invariant, "
            "planetube.moves; print(any("
            "importlib.util.find_spec(m) for m in ('_sha2', '_sha256')), "
            "'_hashlib' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(
            Path(planetube.__file__).parents[1])))
    builtin_digest, openssl_loaded = out.stdout.split()
    assert not (builtin_digest == "True" and openssl_loaded == "True")
