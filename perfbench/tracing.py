"""Spans around calls into planetube's layers, recorded from outside.

`Tracer.install()` replaces each traced public function, in every planetube
module that holds it, with a wrapper that records one span per call:
(name, start, end, parent).  A span's parent is the span open when it
started, so calls the program makes between layers nest as they happen.
Spans stay in memory until `write()`.  `uninstall()` restores the
originals.  Spans inside the program itself are left to the program.
"""
from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from time import perf_counter

# layer -> traced public functions of planetube.<layer>
TRACED = {
    "immersion": ("immersion_from_json_dict", "validate_generic"),
    "tube": ("build_symmetric_tube", "tube_spanning_tree", "wu_basis"),
    "invariant": ("wu", "prepare", "coordinate", "conventions_fingerprint"),
    "moves": ("apply_moves", "insert_curl", "whitney_pair", "perturb"),
    "cli": ("main",),
}


def _counts(name, args, result):
    """Work counts recorded on a span, read from a call's inputs and result."""
    if name == "immersion.validate_generic":
        segments = sum(len(pl.points) - 1 for pl in args[0].polylines.values())
        return {"segments": segments,
                "segment_pairs": segments * (segments - 1) // 2,
                "crossings": len(result.crossings)}
    if name == "tube.build_symmetric_tube":
        return {"cells": len(result.vertices) + len(result.edges)}
    if name == "invariant.prepare":
        ratio = sum(pl.length for pl in result.immersion.polylines.values()) \
            / result.eps
        # a drawing with a non-finite coordinate has no length to report
        return {"length_over_eps": ratio} if math.isfinite(ratio) else None
    return None


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, caller module,
        # counts or None]
        self.spans = []
        self._open = []
        self._patched = []

    def _begin(self, name, caller):
        rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1,
               caller, None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        return rec

    def _end(self, rec):
        rec[2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name, caller="bench"):
        """A span opened by the benchmark itself, around one operation."""
        rec = self._begin(name, caller)
        try:
            yield rec
        finally:
            self._end(rec)

    def _wrap(self, name, fn, caller):
        def traced(*args, **kwargs):
            rec = self._begin(name, caller)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            rec[5] = _counts(name, args, result)
            return result

        return traced

    def install(self):
        modules = {k: m for k, m in sys.modules.items()
                   if k.startswith("planetube") and m is not None}
        for layer, names in TRACED.items():
            home = modules[f"planetube.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                for key, mod in modules.items():
                    if getattr(mod, attr, None) is original:
                        caller = key.rpartition(".")[2]
                        setattr(mod, attr,
                                self._wrap(f"{layer}.{attr}", original, caller))
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "caller": s[4],
                                     "counts": s[5]}) + "\n")
