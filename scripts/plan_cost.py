#!/usr/bin/env python3
"""Cold-plan cost against validation on bent K_n, one JSON line per n.

"Bent K_n" is the first generic draw of `tests/conftest.random_bent_kn`
with `random.Random(n)`, for n = 4, 6, 7, 8, 9 and 10.  Each line gives
the drawing's segments, rank and crossings, the median of 9
`validate_generic` times in ms, and, over that median, the medians of 9
cold plans (`wu_plan` after `wu_plan.cache_clear()`) and of 9 cold `wu`
calls (on a copy of the drawing, which keeps no report, after the same
clear: validation, plan and evaluation).  The three are timed in turn,
round by round, so a drift in host speed reaches all three alike.

    PYTHONPATH=src python scripts/plan_cost.py

Exits 1 when an n has no generic draw in 2000 tries.  Times depend on the
host; read the ratios.
"""
import copy
import json
import random
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import random_bent_kn  # noqa: E402

from planetube.genericity import validate_generic  # noqa: E402
from planetube.invariant import wu, wu_plan  # noqa: E402
from planetube.tube import rank  # noqa: E402

SIZES = (4, 6, 7, 8, 9, 10)
ROUNDS = 9
DRAWS = 2000


def first_generic(n):
    """The first generic draw of bent K_n and its report, or None."""
    rng = random.Random(n)
    for _ in range(DRAWS):
        f = random_bent_kn(rng, n)
        report = validate_generic(f)
        if report.passed:
            return f, report
    return None


def timed(fn, arg) -> float:
    t0 = perf_counter()
    fn(arg)
    return perf_counter() - t0


def main() -> int:
    for n in SIZES:
        drawn = first_generic(n)
        if drawn is None:
            print(f"bent K{n}: no generic draw in {DRAWS} tries",
                  file=sys.stderr)
            return 1
        f, report = drawn
        validate, plan, cold = [], [], []
        for _ in range(ROUNDS):
            validate.append(timed(validate_generic, f))
            wu_plan.cache_clear()
            plan.append(timed(wu_plan, f.graph))
            wu_plan.cache_clear()
            cold.append(timed(wu, copy.copy(f)))
        v = median(validate)
        print(json.dumps({
            "n": n,
            "segments": sum(len(pl.points) - 1
                            for pl in f.polylines.values()),
            "rank": rank(f.graph),
            "crossings": len(report.crossings),
            "validate_ms": round(1e3 * v, 3),
            "cold_plan_over_validate": round(median(plan) / v, 3),
            "cold_wu_over_validate": round(median(cold) / v, 3),
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
