#!/usr/bin/env python3
"""Check each splice report of the edit_dense benchmark scripts, and of
curls that grow the bounding box, against a full validation.

    PYTHONPATH=src python scripts/check_splice_reports.py --seeds 1 2 3

builds the edit_dense corpus of each seed with `perfbench/corpus.py` and
makes splices in two passes.  The first runs every move script through
`moves.apply_moves`.  The second, at a fixed tolerance
(`Tolerances(tau_abs=...)`, the input's default tau), puts curls of both
signs 15% of a segment on either side of each drawing's four extreme
bends, where many grow the bounding box: at the default tolerance tau
would change with the box, and such a splice would always fall back.

Each report a curl or Whitney pair derives for its output
(`moves.revalidate`) is compared with a full validation
(`genericity.validate_generic`), field by field, hidden fields included
(`oracles.report_differences`).  The full validation reads a new drawing
with the output's tables, so that the output keeps its derived report for
the next move; the check also asks that it does keep that report
(`PlaneImmersion._report`).  Prints one JSON line per pass and seed, with
the number of splices, how many of their reports were derived and how
many fell back to a full validation, which a benchmark splice is not
expected to do; the second pass also counts the curls refused, the
splices that grew the box and those of them that were derived.  Exits 1
at the first difference, naming the script and the fields ("kept" when
the output does not keep its derived report).
"""
import argparse
import importlib.util
import json
import sys
from pathlib import Path

from planetube import genericity, immersion, moves
from planetube.genericity import Tolerances
from planetube.immersion import PlaneImmersion
from planetube.moves import MoveError, MoveRecord
from planetube.oracles import report_differences

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"


class Mismatch(Exception):
    pass


def load_corpus():
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def extreme_curls(f: PlaneImmersion) -> list[MoveRecord]:
    """Curls of both signs 15% of a segment before and after each of f's
    four extreme bends, those of least and greatest x and y."""
    bends = [(p, e.id, k) for e in f.graph.edges
             for k, p in enumerate(f.polylines[e.id].points[1:-1], start=1)]
    records = []
    for pick, axis in ((min, 0), (max, 0), (min, 1), (max, 1)):
        _, eid, k = pick(bends, key=lambda b: b[0][axis])
        cum = f.polylines[eid].cum
        for t in (cum[k] - 0.15 * (cum[k] - cum[k - 1]),
                  cum[k] + 0.15 * (cum[k + 1] - cum[k])):
            records += [MoveRecord("curl", edge=eid, t=t, sign=sign)
                        for sign in (1, -1)]
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    corpus = load_corpus()
    derive, full = moves.revalidate, genericity.validate_generic
    # (output, its derived report, whether it grew the box, fell back)
    splices, fallbacks = [], []

    def falling_back(g, tol=None):
        fallbacks.append(g)
        return full(g, tol)

    def checking(g, f, report, tol=None):
        fallbacks.clear()
        genericity.validate_generic = falling_back
        try:
            out = derive(g, f, report, tol)
        finally:
            genericity.validate_generic = full
        h = PlaneImmersion(g.graph, g.positions, g.polylines)
        differ = report_differences(out, full(h, tol))
        if differ:
            raise Mismatch(differ)
        splices.append((g, out, h.bbox != report.index.bbox, bool(fallbacks)))
        return out

    def run(f, records, tol=None):
        """f's moves; each splice output must keep its derived report."""
        start = len(splices)
        try:
            moves.apply_moves(f, records, tol)
        finally:
            if any(g._report(tol) is not out for g, out, *_ in splices[start:]):
                raise Mismatch(["kept"])

    def counts(**extra):
        fell_back = sum(fell for *_, fell in splices)
        return {"splices": len(splices), "derived": len(splices) - fell_back,
                "fallbacks": fell_back, **extra}

    moves.revalidate = checking
    try:
        for seed in args.seeds:
            entries = corpus.edit_dense(seed)
            splices.clear()
            for e in entries:
                f = immersion.immersion_from_json_dict(e["drawing"])
                try:
                    run(f, e["moves"])
                except Mismatch as exc:
                    print(json.dumps({"seed": seed, "script": e["name"],
                                      "differ": exc.args[0]}))
                    return 1
            print(json.dumps({"seed": seed, "pass": "scripts",
                              "scripts": len(entries), **counts()}))
            splices.clear()
            refused = 0
            for e in entries:
                f = immersion.immersion_from_json_dict(e["drawing"])
                tol = Tolerances(tau_abs=full(f).tau)
                for rec in extreme_curls(f):
                    try:
                        run(f, [rec], tol)
                    except MoveError:
                        refused += 1
                    except Mismatch as exc:
                        print(json.dumps({"seed": seed, "script": e["name"],
                                          "move": rec._asdict(),
                                          "differ": exc.args[0]}))
                        return 1
            grew = [fell for _, _, grown, fell in splices if grown]
            print(json.dumps({"seed": seed, "pass": "extreme bends",
                              **counts(refused=refused, grew=len(grew),
                                       grew_derived=grew.count(False))}))
    finally:
        moves.revalidate = derive
    return 0


if __name__ == "__main__":
    sys.exit(main())
