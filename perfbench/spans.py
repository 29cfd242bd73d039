"""Span tracer that wraps steklovlab's public functions from outside.

Nothing under src/ changes. install() replaces every public function of the
layer modules under every module-level name that binds it (for example
solve_gl as bound in cli, stability_harness, gelfand_levitan and the package
namespace), every public method of their public classes, and scipy's LU
routines as bound in gelfand_levitan. Each wrapped call made inside a traced
pass records a span (name, start, end, parent, pass id); spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "steklovlab"
LAYERS = ("cli", "stability_harness", "gelfand_levitan", "weyl_titchmarsh",
          "perturbation", "muntz", "radial_model")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _lu_counts(args, kwargs, result):
    n = int(np.shape(_arg(args, kwargs, 0, "a"))[0])
    return {"flops": 2.0 * n**3 / 3.0, "bytes": 8.0 * n**2}


# Exact work counters, computed from arguments and results at the call site.
COUNTERS = {
    "gelfand_levitan.p_from_amplitude":
        lambda a, k, r: {"points": np.size(_arg(a, k, 1, "t"))},
    "gelfand_levitan.p_prime_from_amplitude":
        lambda a, k, r: {"points": np.size(_arg(a, k, 1, "t"))},
    "gelfand_levitan.lu_factor": _lu_counts,
    "perturbation.build_perturbed_amplitude":
        lambda a, k, r: {"terms": int(r.term_coeffs.size)},
    "muntz.system_for_params":
        lambda a, k, r: {"table_entries": sum(len(row) for row in r.C)},
}


class Tracer:
    """Holds the patches, the open-span stack and every recorded span."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent index, pass id)
        self.counts = defaultdict(float)  # (pass id, span name, counter) -> sum
        self._stack: list[int] = []
        self._pass: int | None = None
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pass_id = self._pass
            if pass_id is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, pass_id)
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    counts[(pass_id, name, key)] += val
            return result

        return wrapper

    def install(self) -> None:
        """Patch the layer modules; calls outside a traced pass pass straight through."""
        if self._patches:
            return
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        homes = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        namespaces = list(mods.values()) + [importlib.import_module(PACKAGE)]
        wrappers = {}

        def patch(owner, attr, original, name):
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if (inspect.isfunction(obj) and not obj.__name__.startswith("_")
                        and obj.__module__ in homes):
                    patch(ns, attr, obj, f"{homes[obj.__module__]}.{obj.__name__}")
        for layer, mod in mods.items():
            for cls in list(vars(mod).values()):
                if not (isinstance(cls, type) and cls.__module__ == mod.__name__
                        and not cls.__name__.startswith("_")):
                    continue
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and (not attr.startswith("_") or attr == "__call__"):
                        patch(cls, attr, obj, f"{layer}.{cls.__name__}.{attr}")
        gl = mods["gelfand_levitan"]
        for attr in ("lu_factor", "lu_solve"):
            patch(gl, attr, getattr(gl, attr), f"gelfand_levitan.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def traced_pass(self, pass_id: int):
        self._pass = pass_id
        try:
            yield
        finally:
            self._pass = None
            self._stack.clear()

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from tracer creation."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"name": name, "start": round(start - self._t0, 9),
                                     "end": round(end - self._t0, 9),
                                     "parent": parent, "pass": pass_id}) + "\n")

    def summarize(self, pass_walls: dict[int, float]) -> dict:
        """Medians over traced passes of calls, self time and counters per span
        name, of each module's self time as a share of the pass wall, and of the
        share no root span covers. Also every duration per span name."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(self.spans))
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_t = dur - child

        per_pass = {p: defaultdict(float) for p in pass_walls}
        durations = defaultdict(list)
        for i, (name, _, _, parent, pass_id) in enumerate(self.spans):
            acc = per_pass[pass_id]
            acc[f"{name}.calls"] += 1
            acc[f"{name}.self_s"] += self_t[i]
            acc[f"share.{name.split('.')[0]}"] += self_t[i] / pass_walls[pass_id]
            if parent < 0:
                acc["covered_frac"] += dur[i] / pass_walls[pass_id]
            durations[name].append(float(dur[i]))
        for (pass_id, name, key), val in self.counts.items():
            per_pass[pass_id][f"{name}.{key}"] += val

        keys = set().union(*per_pass.values())
        out = {k: statistics.median(acc.get(k, 0.0) for acc in per_pass.values()) for k in keys}
        out["unattributed_frac"] = 1.0 - out.get("covered_frac", 0.0)
        out["durations"] = durations
        return out
