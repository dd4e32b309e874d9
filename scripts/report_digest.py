#!/usr/bin/env python3
"""One SHA-256 over the genericity reports of the benchmark's drawings and
the plans of small graphs.

    PYTHONPATH=src python scripts/report_digest.py --seeds 1 2 3

builds the wu_curls and edit_dense corpora of each seed with
`perfbench/corpus.py`, validates every drawing and its mirror image
(`genericity.validate_generic`), runs each edit_dense move script on both
(`moves.apply_moves`) and validates its output, and prints the SHA-256 of
all of it: every report field, hidden ones included, with each segment in
a box or crossing pair written as its (edge, index) key and every float
by `repr`, and the points of each move output.  A change that keeps the
validator's and the moves' results bit for bit keeps the digest;
`scripts/report_digest.expected` holds it for seeds 1 2 3.

No end segment of those corpora lies along an axis, so the fixtures
`planar_k4` and `standard_star((1, 2, 3, 4))`, and their mirror images,
are validated first: a germ along -x there reads angle pi, and one read
as pi or as -pi hashes apart.

The digest then covers the plan layer (`invariant.wu_plan`) of every
connected graph on 2 to 5 vertices (771 graphs) and of K3 to K10: each
plan's basis names, rows (`terms`), omega recipes and conventions
fingerprint, and the graph's `tube` output, as JSON (`tube.to_json_dict`)
and as DOT (`tube.to_dot`).  These are hashed as data, not as the
records' reprs, so a change to how the records are written keeps it.
The graphs come from `tests/conftest.connected_graphs_upto`, so the
script needs the test extra (pytest).
"""
import argparse
import hashlib
import json
import sys
from pathlib import Path

from check_splice_reports import load_corpus
from planetube import genericity, immersion, invariant, moves, tube
from planetube.graphs import complete_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import connected_graphs_upto  # noqa: E402


def plain(x):
    """x as JSON-ready lists, floats as their repr, dicts and sets sorted."""
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, dict):
        return [[plain(k), plain(v)] for k, v in sorted(x.items())]
    if isinstance(x, frozenset):
        return sorted(map(plain, x))
    if isinstance(x, (list, tuple)):
        return list(map(plain, x))
    return x


def key(s):
    return (s.edge, s.index)


def report_fields(r) -> list:
    index = r.index
    return plain([
        r.passed, r.violations, r.crossings, r.cyclic_orders, r.epsilon,
        r.tau, r.germs, r.turns, [(key(s), key(t)) for s, t in r.pairs],
        index.segs, [(*box[:4], key(box[4])) for box in index.boxes],
        index.lefts, index.wide, index.big])


def plan_fields(g) -> list:
    plan = invariant.wu_plan(g)
    return plain([
        plan.names, [[name, plan.terms[name]] for name in plan.names],
        plan.recipes, plan.fingerprint,
        tube.to_json_dict(plan.complex, plan.labels),
        tube.to_dot(plan.complex)])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()
    corpus = load_corpus()
    digest = hashlib.sha256()

    def add(obj):
        digest.update(json.dumps(obj, separators=(",", ":")).encode())
        digest.update(b"\n")

    for f in (immersion.planar_k4(), immersion.standard_star((1, 2, 3, 4))):
        for g in (f, immersion.reflect(f)):
            add(report_fields(genericity.validate_generic(g)))
    for seed in args.seeds:
        for e in corpus.wu_curls(seed) + corpus.edit_dense(seed):
            f = immersion.immersion_from_json_dict(e["drawing"])
            for g in (f, immersion.reflect(f)):
                add(report_fields(genericity.validate_generic(g)))
                if "moves" in e:
                    out = moves.apply_moves(g, e["moves"])
                    add(plain([pl.points for _, pl
                               in sorted(out.polylines.items())]))
                    add(report_fields(genericity.validate_generic(out)))
    for g in [*connected_graphs_upto(5), *map(complete_graph, range(3, 11))]:
        add(plan_fields(g))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
