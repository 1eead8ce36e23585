"""Outside-in tracing of the newton_cocenter layers.

The program has no hooks of its own, so the tracer wraps it from
outside: every public module-level function of each layer module, every
private one that another layer imports, and the methods of the group
classes.  Modules import functions by name (`from .affine_weyl import
multiply`), so each wrapper is bound under every alias in every layer
module, in the package namespace and in module-level dispatch tables
(`cli._HANDLERS`, `verify.SUITES`); patching only the defining module
would miss `reduction.multiply`.  `uninstall` puts every original back.

Each call records a span (name, parent, start, end) in flat arrays kept
in memory; self time is a span's duration minus its children's, worked
out after the run.  Call counts depend only on the jobs, never on
timing, so they repeat exactly.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from array import array
from collections import Counter
from functools import update_wrapper
from time import perf_counter_ns

PACKAGE = "newton_cocenter"
LAYERS = ("root_datum", "affine_weyl", "newton", "reduction", "levi_alcove",
          "hecke_cocenter", "verify", "cli")
CLASSES = {"root_datum": ("RootDatum",), "affine_weyl": ("AffineWeylGroup",),
           "levi_alcove": ("LeviWeylGroup",)}
SUITES = ("grammar", "length", "newton", "straightness", "reduction", "alcove",
          "levi", "positivity", "cocenter", "rigid")

# per-layer metric -> span it counts
CALL_COUNTS = {
    "affine_weyl.multiply.calls": "affine_weyl.multiply",
    "affine_weyl.sort_key.calls": "affine_weyl.AffineWeylGroup.sort_key",
    "affine_weyl.enumerate_ball.calls": "affine_weyl.AffineWeylGroup.enumerate_ball",
    "affine_weyl.length.calls": "affine_weyl.AffineWeylGroup.length",
    "reduction.class_minimal_set.calls": "reduction.class_minimal_set",
    "reduction.is_conjugate.calls": "reduction.is_conjugate",
    "root_datum.mat_mul.calls": "root_datum.mat_mul",
    "root_datum.act_covector.calls": "root_datum.RootDatum.act_covector",
    "root_datum.build_root_datum.calls": "root_datum.build_root_datum",
    "levi_alcove.levi_weyl_group.calls": "levi_alcove.levi_weyl_group",
    "levi_alcove.m_length.calls": "levi_alcove.LeviWeylGroup.length",
    "levi_alcove.positivity_exponent.calls": "levi_alcove.positivity_exponent",
    "hecke_cocenter.cocenter_reduce.calls": "hecke_cocenter.cocenter_reduce",
    "hecke_cocenter.hecke_mul.calls": "hecke_cocenter.hecke_mul",
}
# per-layer metric -> (span, unit, ns per unit): mean inclusive time per call
PER_CALL = {
    "affine_weyl.multiply.us_per_call": ("affine_weyl.multiply", "us", 1e3),
    "affine_weyl.length.us_per_call": ("affine_weyl.AffineWeylGroup.length", "us", 1e3),
    "newton.newton_index.us_per_call": ("newton.newton_index", "us", 1e3),
    "reduction.reduce_to_min.ms_per_call": ("reduction.reduce_to_min", "ms", 1e6),
}
BALL = "affine_weyl.AffineWeylGroup.enumerate_ball"
CLASS_SET = "reduction.class_minimal_set"
IS_CONJ = "reduction.is_conjugate"
LENGTH = "affine_weyl.AffineWeylGroup.length"
SIZED = (BALL, CLASS_SET)      # spans whose result size is recorded


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {name: "count" for name in CALL_COUNTS}
    units.update({name: unit for name, (_, unit, _) in PER_CALL.items()})
    units["affine_weyl.ball_elements"] = "count"
    units["affine_weyl.length.hit_ratio"] = "ratio"
    units["reduction.class_yield"] = "ratio"
    units.update({f"verify.{s}_s": "s" for s in SUITES})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                        for layer in LAYERS}
        self.package = importlib.import_module(PACKAGE)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.sizes: dict[int, int] = {}
        self._stack = [-1]
        self._patches: list = []
        self._distinct: set = set()
        self.distinct_lengths = 0
        self._job_ends: list[tuple[str, int]] = []

    # -- installation ------------------------------------------------

    def _targets(self):
        """(function, span name) for everything the tracer wraps."""
        found = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    found[id(obj)] = (obj, f"{layer}.{attr}", attr.startswith("_"))
        aliased = {id(obj) for layer, mod in self.modules.items()
                   for obj in vars(mod).values()
                   if getattr(obj, "__module__", mod.__name__) != mod.__name__}
        return {key: (fn, name) for key, (fn, name, private) in found.items()
                if not private or key in aliased}

    def install(self):
        wrappers = {key: self._wrap(fn, name)
                    for key, (fn, name) in self._targets().items()}
        for ns in [*self.modules.values(), self.package]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patch(ns, attr, obj, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    self._patch_table(obj, wrappers)
        for layer, classes in CLASSES.items():
            for cls_name in classes:
                cls = getattr(self.modules[layer], cls_name, None)
                if cls is None:
                    continue
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and (attr == "__init__"
                                                    or not attr.startswith("_")):
                        name = f"{layer}.{cls_name}.{attr}"
                        self._patch(cls, attr, obj, self._wrap(obj, name))

    def _patch(self, ns, attr, original, wrapper):
        setattr(ns, attr, wrapper)
        self._patches.append(lambda: setattr(ns, attr, original))

    def _patch_table(self, table, wrappers):
        for key, value in list(table.items()):
            items = value if isinstance(value, tuple) else (value,)
            if not any(id(v) in wrappers for v in items):
                continue
            new = tuple(wrappers.get(id(v), v) for v in items)
            table[key] = new if isinstance(value, tuple) else new[0]
            self._patches.append(lambda k=key, v=value: table.__setitem__(k, v))

    def uninstall(self):
        for undo in reversed(self._patches):
            undo()
        self._patches.clear()

    def _wrap(self, fn, name):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, sizes = self.span_start, self.span_end, self._stack, self.sizes
        sized = name in SIZED
        distinct = self._distinct if name == LENGTH else None

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if sized:
                sizes[idx] = len(result)
            if distinct is not None:
                distinct.add((id(args[0]), args[1]))
            return result

        return update_wrapper(traced, fn)

    def end_job(self, job):
        """Mark the end of a job's spans and close its distinct-argument
        count (every job builds its own group)."""
        self._job_ends.append((job.group, len(self.span_name)))
        self.distinct_lengths += len(self._distinct)
        self._distinct.clear()

    # -- results -------------------------------------------------------

    def span_times(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        n = len(self.span_name)
        child = array("q", bytes(8 * n))
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls, incl, self_ns = Counter(), Counter(), Counter()
        for i in range(n):
            dur = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            incl[nid] += dur
            self_ns[nid] += dur - child[i]
        return {self.names[k]: (calls[k], incl[k], self_ns[k]) for k in calls}

    def metrics(self) -> dict[str, float]:
        times = self.span_times()

        def stat(name):
            return times.get(name, (0, 0, 0))

        out: dict[str, float] = {}
        for metric, span in CALL_COUNTS.items():
            out[metric] = stat(span)[0]
        for metric, (span, _, scale) in PER_CALL.items():
            calls, incl, _ = stat(span)
            out[metric] = incl / calls / scale if calls else 0.0
        ball_id = self._name_ids.get(BALL)
        out["affine_weyl.ball_elements"] = sum(
            size for idx, size in self.sizes.items() if self.span_name[idx] == ball_id)
        length_calls = stat(LENGTH)[0]
        out["affine_weyl.length.hit_ratio"] = (
            1 - self.distinct_lengths / length_calls if length_calls else 0.0)
        out["reduction.class_yield"] = self._class_yield()
        for suite in SUITES:
            out[f"verify.{suite}_s"] = stat(f"verify.suite_{suite}")[1] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, (_, _, s) in times.items()
                if name.split(".", 1)[0] == layer) / 1e9
        return out

    def per_call_by_group(self) -> dict[str, dict[str, float]]:
        """The per-call metrics split by the group of the job."""
        ids = {self._name_ids[span]: metric for metric, (span, _, _) in PER_CALL.items()
               if span in self._name_ids}
        acc: dict[str, dict[str, list[int]]] = {}
        lo = 0
        for group, hi in self._job_ends:
            sums = acc.setdefault(group, {metric: [0, 0] for metric in PER_CALL})
            for i in range(lo, hi):
                metric = ids.get(self.span_name[i])
                if metric:
                    sums[metric][0] += 1
                    sums[metric][1] += self.span_end[i] - self.span_start[i]
            lo = hi
        return {group: {metric: ns / calls / PER_CALL[metric][2] if calls else 0.0
                        for metric, (calls, ns) in sums.items()}
                for group, sums in acc.items()}

    def _class_yield(self) -> float:
        """Class members found over conjugacy candidates tested, counting
        only class_minimal_set calls that actually tested candidates."""
        conj_id, set_id = self._name_ids.get(IS_CONJ), self._name_ids.get(CLASS_SET)
        tested = Counter()
        for i in range(len(self.span_name)):
            if self.span_name[i] == conj_id:
                p = self.span_parent[i]
                if p >= 0 and self.span_name[p] == set_id:
                    tested[p] += 1
        total = sum(tested.values())
        return sum(self.sizes[p] for p in tested) / total if total else 0.0

    def write_spans(self, path):
        """Write the spans: a JSON header line naming the fields, then the
        four arrays (name id, parent index, start ns, end ns) as raw
        native-endian bytes, all gzip-compressed."""
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": [["name", "i"], ["parent", "i"], ["start_ns", "q"],
                             ["end_ns", "q"]]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                fh.write(arr.tobytes())
