#!/usr/bin/env python3
"""planetube benchmark: Wu-vector throughput, move throughput, CLI latency.

    python3 perfbench/run.py --workload wu_curls --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds `src/planetube`.  One client
drives the program in a closed loop: the next operation starts when the
previous one has ended.  The run makes its inputs from the seed
(`corpus.py`), runs whole rounds over them until the operations have taken
`--seconds`, checks every output against `reference.py` or the move
bookkeeping, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
rounds alternate untraced and traced (`tracing.py`) and the metrics are the
per-layer ones, each layer's self time and the tracing overhead.  Corpora,
CLI input files and spans go to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cli_small", "edit_dense", "wu_curls"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "planetube" / "__init__.py").is_file():
        sys.exit(f"perfbench: no planetube sources under {SRC}")
    sys.path[:0] = [str(HERE), str(SRC)]
    # one CPU for the benchmark and its children, so that the host-speed
    # samples around each operation come from the CPU that ran it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import bench
    import corpus

    scratch = OUT / f"{args.workload}-{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    corpus.write(args.seed, scratch, [args.workload])
    tally, metrics, tracer = bench.run(
        args.workload, args.seconds, args.trace, scratch,
        scratch / f"{args.workload}.json")
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    for problem in sorted(tally.problems):
        print(f"problem: {problem}", file=sys.stderr)
    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    print(f"{args.workload} seed={args.seed} rounds={tally.rounds} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"correct={tally.correct}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
