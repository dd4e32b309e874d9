#!/usr/bin/env python3
"""Check each splice report of the edit_dense benchmark scripts against a
full validation.

    PYTHONPATH=src python scripts/check_splice_reports.py --seeds 1 2 3

builds the edit_dense corpus of each seed with `perfbench/corpus.py`, runs
every move script through `moves.apply_moves`, and compares the report
each curl or Whitney pair derives for its output (`moves.revalidate`)
with `immersion.validate_generic` of that output, field by field, hidden
fields included (`oracles.report_differences`).  The comparison is always
with a new full validation: a splice output keeps no report of its own
(`moves.revalidate` records none), and `validate_generic` recomputes on
every call.  Prints one JSON line per seed, with the number of splices,
how many of their reports were derived and how many fell back to a full
validation, which a benchmark splice is not expected to do; exits 1 at
the first difference, naming the script and the fields.
"""
import argparse
import importlib.util
import json
import sys
from pathlib import Path

from planetube import immersion, moves
from planetube.oracles import report_differences

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"


class Mismatch(Exception):
    pass


def load_corpus():
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    corpus = load_corpus()
    derive, full = moves.revalidate, immersion.validate_generic
    splices, fallbacks = [], []

    def falling_back(g, tol=None):
        fallbacks.append(g)
        return full(g, tol)

    def checking(g, f, report, tol=None):
        immersion.validate_generic = falling_back
        try:
            out = derive(g, f, report, tol)
        finally:
            immersion.validate_generic = full
        differ = report_differences(out, full(g, tol))
        if differ:
            raise Mismatch(differ)
        splices.append(g)
        return out

    moves.revalidate = checking
    try:
        for seed in args.seeds:
            entries = corpus.edit_dense(seed)
            splices.clear()
            fallbacks.clear()
            for e in entries:
                f = immersion.immersion_from_json_dict(e["drawing"])
                try:
                    moves.apply_moves(f, e["moves"])
                except Mismatch as exc:
                    print(json.dumps({"seed": seed, "script": e["name"],
                                      "differ": exc.args[0]}))
                    return 1
            print(json.dumps({"seed": seed, "scripts": len(entries),
                              "splices": len(splices),
                              "derived": len(splices) - len(fallbacks),
                              "fallbacks": len(fallbacks)}))
    finally:
        moves.revalidate = derive
    return 0


if __name__ == "__main__":
    sys.exit(main())
