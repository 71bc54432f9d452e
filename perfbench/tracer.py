"""Span tracer installed from outside the library.

``Tracer.install()`` replaces every public function of the ``boxrevive``
modules with a timing wrapper, in every module namespace that binds it: the
defining module (so calls between functions of one module are seen), the
modules that import it (``carpet`` imports ``evolve``, ``wigner`` imports
``fourier_amplitude``) and the package itself.  Nothing under ``src/`` changes.
A layer whose function no longer exists is listed as absent, not an error.

Spans (layer, start, end, parent span, job) stay in memory; ``write`` dumps
them when the run ends.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("spectrum", "wavepacket", "carpet", "wigner", "subplanck", "revivals", "fields", "cli")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# Work counts derived from argument and result shapes, per layer.
COUNTERS = {
    "wavepacket.phase_cycles": lambda a, k, r: {
        "pairs": np.size(_arg(a, k, 0, "t")) * len(_arg(a, k, 2, "n_values"))},
    "wavepacket.reconstruct": lambda a, k, r: {
        "cells": _arg(a, k, 0, "state").expansion.coefficients.size * np.size(r)},
    "wavepacket.fourier_amplitude": lambda a, k, r: {
        "cells": np.size(_arg(a, k, 1, "x_grid")) * np.size(_arg(a, k, 2, "p_values"))},
    "carpet.carpet": lambda a, k, r: {"cells": r.values.size},
    "wigner.wigner": lambda a, k, r: {"cells": r.values.size},
    "fields.write_field_csv": _file_bytes,
    "fields.write_field_pgm": _file_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.child_time: list[float] = []
        self.job = None
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.count_errors: Counter = Counter()
        self.packets: set = set()
        self.layers: list[str] = []
        self._patched: list = []

    # --------------------------------------------------------------- spans
    def _open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(idx)
        self.child_time.append(0.0)
        return idx, parent, perf_counter()

    def _close(self, name, idx, parent, start):
        end = perf_counter()
        self.stack.pop()
        children = self.child_time.pop()
        self.spans[idx] = (name, start, end, parent, self.job)
        self.self_time[name] += end - start - children
        self.calls[name] += 1
        if self.child_time:
            self.child_time[-1] += end - start

    def run_job(self, job_id, fn, *args):
        """Run one job under a root span ``job``; its self time is unattributed."""
        self.job = job_id
        idx, parent, start = self._open("job")
        try:
            return fn(*args)
        finally:
            self._close("job", idx, parent, start)
            self.job = None

    # ------------------------------------------------------------ wrappers
    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        is_expand = name == "wavepacket.expand"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, start)
            if is_expand:
                packet, cfg = _arg(args, kwargs, 0, "packet"), _arg(args, kwargs, 1, "cfg")
                self.packets.add((packet, cfg.truncation_epsilon, cfg.n_max_cap))
            if counter is not None:
                try:
                    for key, n in counter(args, kwargs, result).items():
                        self.counts[f"{name}.{key}"] += int(n)
                except (LookupError, AttributeError, TypeError, OSError):
                    self.count_errors[name] += 1
            return result

        return wrapper

    def install(self):
        """Wrap every public function of MODULES wherever a boxrevive module binds it."""
        targets = {}
        for mod in MODULES:
            try:
                module = importlib.import_module(f"boxrevive.{mod}")
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets[obj] = f"{mod}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "boxrevive" or modname.startswith("boxrevive.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        self.layers = sorted(targets.values())

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    # -------------------------------------------------------------- output
    def table(self, rounds: int) -> dict:
        """Per-round calls and self time of every layer that ran."""
        return {
            name: {"calls": self.calls[name] / rounds, "self_s": self.self_time[name] / rounds}
            for name in sorted(self.calls)
        }

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
