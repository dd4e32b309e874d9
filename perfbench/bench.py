"""Workloads, the closed loop and the metrics of the planetube benchmark.

Importing this module imports planetube from `src`; `run.py` puts it on the
path after checking that it is there.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, thread_time

import planetube  # noqa: F401  (loads every module the tracer patches)
from planetube import cli, immersion, invariant, moves

import reference
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5           # fresh interpreters timed for setup_s
PROBE_REPEATS = 5           # fresh interpreters timed per cli.* probe

# Checks call the program's validator directly, never through a tracer
# wrapper, so they add no spans.
validate_generic = immersion.validate_generic
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                  else [])))

# metric name -> unit, as BENCHMARK.json at the checkout's root lists them
_LISTED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _LISTED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _LISTED["per_layer"]}
CLI_PROBES = ("cli.interpreter_ms", "cli.import_ms", "cli.import_numpy_ms")


class Child:
    """One child process run to its end: exit code, output and peak
    resident memory."""

    def __init__(self, argv, scratch):
        with open(scratch / "child.out", "w+b") as out, \
                open(scratch / "child.err", "w+b") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=CHILD_ENV, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss / 1024.0
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode()
            self.stderr = err.read().decode()


def setup_seconds(corpus_file, scratch):
    """Median (normalised) wall time of a fresh interpreter that imports
    planetube and reads the workload's corpus: what a process pays before
    its first operation, so that work moved into import or loading shows
    here."""
    code = f"import json, planetube; json.load(open({str(corpus_file)!r}))"
    times = []
    for _ in range(SETUP_REPEATS):
        with timed() as timing:
            Child([sys.executable, "-c", code], scratch)
        times.append(timing.seconds)
    return statistics.median(times)


# ------------------------------------------------------------ workloads
#
# Each workload gives `operate(entry)`, the timed operation, and
# `judge(index, entry, output)`, the untimed check: "ok", "failed" (the
# operation gave no usable result) or "wrong" (it gave a wrong one).

class WuCurls:
    """JSON dict -> immersion_from_json_dict -> wu, against the reference.
    Entries with an `eps_div` above 1 read the suggested scale from
    validate_generic and evaluate at that scale / eps_div."""

    def __init__(self, entries, scratch, in_process):
        self.expected = [reference.wu_reference(e["drawing"]) for e in entries]

    def operate(self, entry):
        f = immersion.immersion_from_json_dict(entry["drawing"])
        if entry["eps_div"] == 1:
            return invariant.wu(f)
        report = immersion.validate_generic(f)
        return invariant.wu(f, eps=report.epsilon / entry["eps_div"])

    def judge(self, index, entry, vec):
        ref = self.expected[index]
        same = (list(vec.basis_names) == list(ref)
                and list(vec.coords) == list(ref.values()))
        return "ok" if same else "wrong"


class EditDense:
    """apply_moves on a fresh densely bent drawing.  Every result passes
    validate_generic (checked where it first occurs; later rounds must
    reproduce it exactly), and its reference vector equals the input's,
    shifted by sign x multiplicity for each curl."""

    def __init__(self, entries, scratch, in_process):
        self.expected = []
        for e in entries:
            ref = reference.wu_reference(e["drawing"])
            for m in e["moves"]:
                if m["kind"] == "curl":
                    for name, shift in reference.curl_shift(
                            e["drawing"], m["edge"], m["sign"]).items():
                        ref[name] += shift
            self.expected.append(ref)
        self.first = {}

    def operate(self, entry):
        f = immersion.immersion_from_json_dict(entry["drawing"])
        return moves.apply_moves(f, entry["moves"])

    def judge(self, index, entry, f):
        d = f.to_json_dict()
        if index not in self.first:
            if not validate_generic(f).passed:
                return "wrong"
            self.first[index] = d
        elif d != self.first[index]:
            return "wrong"
        try:
            got = reference.wu_reference(d)
        except ValueError:          # a turning sum that is no whole turn
            return "wrong"
        return "ok" if got == self.expected[index] else "wrong"


class CliSmall:
    """`python -m planetube.cli invariant|validate FILE` as a user starts it
    (the package is not installed, so `src` is on PYTHONPATH).  Traced runs
    call `cli.main` in-process instead.  A fault input is right only when
    it exits 1 with a `validation` error object; anything else counts as
    failed."""

    def __init__(self, entries, scratch, in_process):
        self.scratch, self.in_process = scratch, in_process
        self.paths, self.expected = {}, []
        for i, e in enumerate(entries):
            path = scratch / f"{e['name']}.json"
            path.write_text(json.dumps(e["drawing"]))
            self.paths[e["name"]] = str(path)
            d = e["drawing"]
            if e["fault"]:
                self.expected.append(None)
            elif e["command"] == "invariant":
                ref = reference.wu_reference(d)
                self.expected.append({"basis": list(ref),
                                      "vector": list(ref.values())})
            else:
                self.expected.append({
                    "passed": True, "crossings": reference.crossing_count(d),
                    "cyclic_orders": {str(v): o for v, o in
                                      reference.cyclic_orders(d).items()}})
        self.peak_rss_mb = 0.0

    def operate(self, entry):
        argv = [entry["command"], self.paths[entry["name"]]]
        if not self.in_process:
            child = Child([sys.executable, "-m", "planetube.cli"] + argv,
                          self.scratch)
            self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
            return child.code, child.stdout, child.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def judge(self, index, entry, result):
        code, out, err = result
        if entry["fault"]:
            try:
                error = json.loads(err.strip().splitlines()[-1])["error"]
            except (ValueError, IndexError, KeyError, TypeError):
                error = None
            return "ok" if code == 1 and error == "validation" else "failed"
        if code != 0:
            return "failed"
        try:
            got = json.loads(out)
        except ValueError:
            return "wrong"
        want = self.expected[index]
        return "ok" if all(got.get(k) == v for k, v in want.items()) \
            else "wrong"


WORKLOADS = {"wu_curls": WuCurls, "edit_dense": EditDense,
             "cli_small": CliSmall}


# ------------------------------------------------------------ the loop

# The shared host this benchmark was built on runs the same Python code up
# to twice as fast in one few-second phase as in the next.  A fixed
# pure-Python kernel, run on the same (pinned) CPU right before and after a
# timed body and every SAMPLE_PERIOD_S during it, slows down with the host.
# Its CPU time is the sample, so a child process that shares the CPU does
# not inflate it.  `wall x KERNEL_REFERENCE_S / mean sample` then reads the
# same in either phase: timings are reported as if on a host where the
# kernel takes KERNEL_REFERENCE_S.
KERNEL_REFERENCE_S = 1e-3
SAMPLE_PERIOD_S = 0.05


def _kernel():
    t0 = thread_time()
    acc, table = 0.0, {}
    for i in range(3000):
        p = (i * 0.5, i * 0.25)
        acc += (p[0] * p[1]) ** 0.5
        table[i % 97] = acc
    return thread_time() - t0


class Timing:
    """Wall seconds of a timed body without the samples taken inside it,
    the host-speed factor, and their product."""
    wall = factor = seconds = 0.0


@contextlib.contextmanager
def timed():
    """Time the body and normalise it by the host's speed meanwhile."""
    timing, inside = Timing(), []
    before = _kernel()

    def tick(signum, frame):
        inside.append((perf_counter(), _kernel()))

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    t0 = perf_counter()
    try:
        yield timing
    finally:
        t1 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        kernels = [k for start, k in inside if start < t1]
        timing.wall = t1 - t0 - sum(kernels)
        timing.factor = KERNEL_REFERENCE_S / statistics.mean(
            [before, *kernels, _kernel()])
        timing.seconds = timing.wall * timing.factor


class Tally:
    """Counts, timings and problems of one run."""

    def __init__(self):
        self.attempted = self.failed = self.rounds = 0
        self.correct = True
        self.wall = 0.0                 # seconds the operations took
        # traced? -> per operation: normalised seconds, speed factor
        self.latency = {False: [], True: []}
        self.factors = {False: [], True: []}
        self.problems = set()


def closed_loop(work, entries, seconds, tracer):
    """Whole rounds over the entries, one operation at a time, until the
    operations have taken `seconds`.  With a tracer, rounds alternate
    untraced and traced, at least one of each."""
    tally = Tally()
    work.operate(entries[0])                    # warm-up, not counted
    while tally.wall < seconds or (tracer and tally.rounds < 2):
        traced = tracer is not None and tally.rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for index, entry in enumerate(entries):
                span = tracer.span("bench.op") if traced \
                    else contextlib.nullcontext()
                try:
                    with timed() as timing, span:
                        out = work.operate(entry)
                except Exception as exc:  # one failed operation; keep going
                    out = None
                    tally.problems.add(f"{entry['name']}: {exc!r}"[:200])
                tally.wall += timing.wall
                tally.latency[traced].append(timing.seconds)
                tally.factors[traced].append(timing.factor)
                tally.attempted += 1
                verdict = "failed" if out is None else \
                    work.judge(index, entry, out)
                if verdict == "failed":
                    tally.failed += 1
                elif verdict == "wrong":
                    tally.correct = False
                    tally.problems.add(f"{entry['name']}: wrong output")
        finally:
            if traced:
                tracer.uninstall()
        tally.rounds += 1
    return tally


# ------------------------------------------------------------ metrics

def end_to_end(work, tally, setup_s):
    lat = tally.latency[False]
    peak = work.peak_rss_mb if isinstance(work, CliSmall) else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "peak_rss_mb": peak,
            "setup_s": setup_s}


def import_ms(scratch):
    """Cumulative import time of planetube and of numpy, in ms, from
    `python -X importtime` in a fresh interpreter."""
    child = Child([sys.executable, "-X", "importtime", "-c",
                   "import planetube"], scratch)
    cumulative = {}
    for line in child.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
    return cumulative["planetube"], cumulative.get("numpy", 0.0)


def cli_probe(scratch):
    """Medians over fresh interpreters, normalised like every timing:
    `python -c pass`, and the import times of planetube and numpy, in ms."""
    interp, planetube_ms, numpy_ms = [], [], []
    for _ in range(PROBE_REPEATS):
        with timed() as timing:
            Child([sys.executable, "-c", "pass"], scratch)
        interp.append(timing.seconds * 1e3)
        with timed() as timing:
            ours, theirs = import_ms(scratch)
        planetube_ms.append(ours * timing.factor)
        numpy_ms.append(theirs * timing.factor)
    return dict(zip(CLI_PROBES, map(statistics.median,
                                    (interp, planetube_ms, numpy_ms))))


def per_layer(tracer, tally, probe):
    """Per-layer metrics of the traced rounds, per traced operation unless
    the unit says per call.  A layer the workload never reaches reads 0;
    `probe` holds the cli.* figures measured in fresh interpreters."""
    ops = len(tally.latency[True])
    total, calls, counted = defaultdict(float), defaultdict(int), defaultdict(int)
    sums, layer_self = defaultdict(float), defaultdict(float)
    moves_validate = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, caller, counts = span
        total[name] += end - start
        calls[name] += 1
        layer_self[name.partition(".")[0]] += own
        for key, value in (counts or {}).items():
            sums[f"{name}.{key}"] += value
            counted[f"{name}.{key}"] += 1
        moves_validate += name == "immersion.validate_generic" \
            and caller == "moves"

    scale = statistics.median(tally.factors[True]) * 1e3 / ops

    def ms(name):
        return total[name] * scale

    def mean(name, key):
        key = f"{name}.{key}"
        return sums[key] / counted[key] if counted[key] else 0.0

    validate, build = "immersion.validate_generic", "tube.build_symmetric_tube"
    m = {
        "immersion.load_ms": ms("immersion.immersion_from_json_dict"),
        "immersion.validate_ms": ms(validate),
        "immersion.validate_calls": calls[validate] / ops,
        "immersion.segments": mean(validate, "segments"),
        "immersion.segment_pairs": mean(validate, "segment_pairs"),
        "immersion.crossings": mean(validate, "crossings"),
        "tube.build_ms": ms(build),
        "tube.tree_ms": ms("tube.tube_spanning_tree"),
        "tube.basis_ms": ms("tube.wu_basis"),
        "tube.cells": mean(build, "cells"),
        "invariant.evaluate_ms": ms("invariant.coordinate"),
        "invariant.fingerprint_ms": ms("invariant.conventions_fingerprint"),
        "invariant.coords": (calls["invariant.coordinate"]
                             / calls["invariant.wu"]
                             if calls["invariant.wu"] else 0.0),
        "invariant.length_over_eps": mean("invariant.prepare",
                                          "length_over_eps"),
        "moves.curl_ms": ms("moves.insert_curl"),
        "moves.whitney_pair_ms": ms("moves.whitney_pair"),
        "moves.perturb_ms": ms("moves.perturb"),
        "moves.validate_calls": moves_validate / ops,
        "cli.command_ms": ms("cli.main"),
        "trace.overhead_pct": (statistics.mean(tally.latency[True])
                               / statistics.mean(tally.latency[False])
                               - 1.0) * 100.0,
        "trace.spans": len(tracer.spans) / ops,
    }
    for layer in ("immersion", "tube", "invariant", "moves", "cli", "bench"):
        m[f"{layer}.self_ms"] = layer_self[layer] * scale
    m.update(probe)
    return {name: m[name] for name in PER_LAYER}


def run(workload, seconds, trace, scratch, corpus_file):
    """One benchmark run; returns (tally, metrics, tracer or None)."""
    entries = json.loads(corpus_file.read_text())
    work = WORKLOADS[workload](entries, scratch, in_process=bool(trace))
    tracer = Tracer() if trace else None
    tally = closed_loop(work, entries, seconds, tracer)
    if tracer is None:
        setup_s = setup_seconds(corpus_file, scratch)
        return tally, end_to_end(work, tally, setup_s), None
    probe = cli_probe(scratch) if workload == "cli_small" else \
        dict.fromkeys(CLI_PROBES, 0.0)
    return tally, per_layer(tracer, tally, probe), tracer
