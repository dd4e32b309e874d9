#!/usr/bin/env python3
"""Generate a move-connected family of K4 immersions and classify it.

Starting from the embedded K4, apply curls (which shift X coordinates in a
predictable way), Whitney pairs, and perturbations.  The family must
partition into equivalence classes exactly by Wu-vector equality, and the
computed classes must match the classes predicted from move bookkeeping.
"""
import argparse
import json
import random
import sys

from planetube import (planar_k4, wu, insert_curl, whitney_pair, perturb,
                       prepare)
from planetube.graphs import fundamental_cycle


def curl_deltas(f):
    """Per non-tree edge: how a +1 curl on each graph edge shifts X coords."""
    ctx = prepare(f)
    tree = ctx.plan.complex.graph_tree
    deltas = {}
    for eid in range(1, f.graph.num_edges + 1):
        row = {}
        for j, non_tree in enumerate(tree.non_tree_edges):
            mult = sum(d for e2, d in fundamental_cycle(tree, non_tree).steps
                       if e2 == eid)
            row[f"X{non_tree}"] = mult
        deltas[eid] = row
    return deltas


def build_family(seed: int, size: int):
    rng = random.Random(seed)
    base = planar_k4()
    base_wu = wu(base)
    deltas = curl_deltas(base)
    family = []
    for i in range(size):
        f = base
        predicted = dict(zip(base_wu.basis_names, base_wu.coords))
        for _ in range(rng.randint(0, 3)):
            eid = rng.randint(1, 6)
            sign = rng.choice((-1, 1))
            t = f.polylines[eid].length * rng.uniform(0.3, 0.7)
            f = insert_curl(f, eid, t, sign)
            for name, mult in deltas[eid].items():
                predicted[name] += sign * mult
        if rng.random() < 0.5:
            eid = rng.randint(1, 6)
            f = whitney_pair(f, eid, f.polylines[eid].length * 0.15)
        f = perturb(f, rng.randint(0, 10**6))
        family.append((f, tuple(predicted[n] for n in base_wu.basis_names)))
    return base_wu.basis_names, family


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--size", type=int, default=20)
    args = ap.parse_args()

    names, family = build_family(args.seed, args.size)
    classes = {}
    agree = True
    for idx, (f, predicted) in enumerate(family):
        v = wu(f)
        agree &= v.coords == predicted
        classes.setdefault(v.coords, []).append(idx)
    json.dump({
        "basis": list(names),
        "family_size": len(family),
        "classes": [{"wu": list(k), "members": m}
                    for k, m in sorted(classes.items())],
        "bookkeeping_agrees": agree,
    }, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
