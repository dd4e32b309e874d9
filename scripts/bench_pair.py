#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, recorded in a BENCH_<n>.json.

    python3 scripts/bench_pair.py PARENT CHANGE --workload wu_curls --seed 1 \\
        --pairs 10 --seconds 20 --out BENCH_17.json

runs `perfbench/run.py` (end-to-end metrics, no tracing) in the PARENT and
the CHANGE checkout, each as it stands, once per pair, the pairs taking
turns at which side runs first.  It adds one record to the output file,
which it creates when it is missing:

- per metric, both sides' medians, the parent's quartiles, the change's
  wins (pairs where it was better, in the direction `BENCHMARK.json`
  gives) and `claim_met`: at least 10 pairs ran, the change won at least
  9 in 10 of them and its median is better than the parent's by more
  than the parent's interquartile range;
- whether every output was correct, and the failed operations per side;
- `nproc`, the Python version, both git SHAs (and whether the work tree
  differed from its SHA), and whether a checkout held a bytecode cache
  when one of its runs started;
- every run's metrics, in pair order.

Both sides run under this interpreter, with this environment; set
PYTHONDONTWRITEBYTECODE=1 to keep the runs from writing bytecode caches.
Nothing under `perfbench/` is changed, apart from the corpora and spans
that `run.py` itself writes to `perfbench/out/`.

    python3 scripts/bench_pair.py --check BENCH_*.json

runs nothing: it recomputes each record's medians, parent quartiles, wins
and `claim_met` from its stored samples, with the same `summary()` and the
directions this checkout's `BENCHMARK.json` gives, and exits 1, naming the
file, record and metric, when a stored figure disagrees or a sample list
does not hold one value per pair.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def git(tree: Path, *args) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(tree), *args], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.strip()


def has_bytecode_cache(tree: Path) -> bool:
    return any(True for d in ("src", "perfbench")
               for _ in tree.joinpath(d).rglob("__pycache__"))


def run_once(tree: Path, args) -> dict:
    """One `perfbench/run.py` run in tree: its last line, parsed, with
    whether the tree held a bytecode cache as it started."""
    cache = has_bytecode_cache(tree)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pair: run.py failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["bytecode_cache"] = cache
    return result


def quartiles(xs: list) -> list:
    if len(xs) < 2:
        return [xs[0], xs[0]]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def summary(parent: list, change: list, better: str | None) -> dict:
    """Medians, the parent's quartiles, the change's wins and whether the
    claim protocol holds, for one metric's paired samples."""
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    out = {"parent_median": pm, "change_median": cm,
           "parent_quartiles": [q1, q3],
           "change_over_parent": cm / pm if pm else None}
    if better in ("higher", "lower"):
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        out.update(better=better, wins=wins,
                   claim_met=(len(parent) >= 10
                              and wins >= math.ceil(0.9 * len(parent))
                              and sign * (cm - pm) > q3 - q1))
    return out


def directions(tree: Path) -> dict:
    """Metric name -> "higher" or "lower", as tree's BENCHMARK.json lists
    its end-to-end metrics."""
    listed = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in listed["end_to_end"]}


def check(paths: list) -> int:
    """Recompute every record of the BENCH files at paths from its samples:
    0 when each stored summary agrees, else 1, naming each disagreement."""
    better = directions(Path(__file__).resolve().parent.parent)
    wrong = 0
    for path in paths:
        for k, record in enumerate(json.loads(path.read_text())["runs"]):
            where = (f"{path} record {k} ({record['workload']} seed "
                     f"{record['seed']})")
            samples = record["samples"]
            if set(record["metrics"]) != set(samples["parent"]) & \
                    set(samples["change"]):
                print(f"{where}: metrics {sorted(record['metrics'])} are "
                      "not the sampled ones")
                wrong += 1
            for m, stored in record["metrics"].items():
                parent, change = samples["parent"].get(m), \
                    samples["change"].get(m)
                if parent is None or change is None or \
                        not len(parent) == len(change) == record["pairs"]:
                    print(f"{where} {m}: not one sample per pair")
                    wrong += 1
                    continue
                fresh = summary(parent, change, better.get(m))
                for key in sorted((set(fresh) | set(stored)) - {"unit"}):
                    if stored.get(key) != fresh.get(key):
                        print(f"{where} {m}: {key} is {stored.get(key)!r}, "
                              f"its samples give {fresh.get(key)!r}")
                        wrong += 1
    print(json.dumps({"files": len(paths), "disagreements": wrong}))
    return 1 if wrong else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, nargs="?")
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--check", type=Path, nargs="+", metavar="FILE",
                    help="recompute each record of these files from its "
                         "samples instead of running")
    args = ap.parse_args(argv)
    if args.check:
        return check(args.check)
    if None in (args.parent, args.change, args.workload, args.seed,
                args.out):
        ap.error("PARENT, CHANGE, --workload, --seed and --out are needed "
                 "to run pairs")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            sys.exit(f"bench_pair: no perfbench/run.py in the {side} tree")
    better = directions(trees["change"])

    runs = {side: [] for side in SIDES}
    for k in range(args.pairs):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(trees[side], args))
            print(f"pair {k + 1}/{args.pairs} {side}: "
                  + json.dumps({m: v["value"] for m, v
                                in runs[side][-1]["metrics"].items()}),
                  file=sys.stderr)

    samples = {side: {m: [r["metrics"][m]["value"] for r in runs[side]]
                      for m in runs[side][0]["metrics"]} for side in SIDES}
    record = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "first": "alternating, parent first in pair 1",
        **{side: {"sha": git(trees[side], "rev-parse", "HEAD"),
                  "dirty": bool(git(trees[side], "status", "--porcelain",
                                    "--untracked-files=no")),
                  "bytecode_cache": any(r["bytecode_cache"]
                                        for r in runs[side]),
                  "correct": all(r["correct"] is True for r in runs[side]),
                  "failed": sum(r["failed"] for r in runs[side])}
           for side in SIDES},
        "metrics": {m: {"unit": runs["change"][0]["metrics"][m]["unit"],
                        **summary(samples["parent"][m],
                                  samples["change"][m], better.get(m))}
                    for m in samples["change"] if m in samples["parent"]},
        "samples": samples,
    }
    book = (json.loads(args.out.read_text()) if args.out.exists()
            else {"runs": []})
    book["runs"].append(record)
    args.out.write_text(json.dumps(book, indent=1) + "\n")
    print(json.dumps({m: {k: v for k, v in s.items()
                          if k in ("change_over_parent", "wins", "claim_met")}
                      for m, s in record["metrics"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
