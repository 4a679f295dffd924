"""Span tracing of idealtri's public functions, from outside the program.

``Tracer.install`` wraps every public function of the traced modules
at each place the name is bound (modules bind names with ``from .x
import y``, so ``search``, ``monodromy`` and ``cli`` each hold their own
``encode_canonical``), plus ``Triangulation.__init__`` and the cached
properties of ``Triangulation`` on the class.  ``uninstall`` puts every
original back.  Spans (name, start, end, parent, op) stay in compact
arrays until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from functools import cached_property
from time import perf_counter

from idealtri.triangulation import InvalidTriangulation, Triangulation

MODULES = ("isosig", "triangulation", "cohomology", "surfaces", "lst",
           "moves", "search", "monodromy", "cli")
# build_parser stays unwrapped so that cli.run's self time includes the
# argument parser it rebuilds on every call.
UNWRAPPED = {"cli.build_parser"}

# name -> (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {}


def _metric(name, unit, better="lower"):
    LAYER_METRICS[name] = (unit, better)


for _fn in ("isosig.encode_canonical", "isosig.decode",
            "triangulation.Triangulation", "triangulation.edge_classes",
            "triangulation.vertex_classes", "triangulation.face_classes",
            "triangulation.find_isomorphism", "cohomology.cocycle_space",
            "cohomology.classify_rank2", "cohomology.bound_certificate",
            "cohomology.check_identities", "surfaces.canonical_surface",
            "surfaces.euler_characteristic", "lst.layer_tetrahedron",
            "moves.enumerate_moves", "moves.apply_move",
            "monodromy.build_bundle", "monodromy.bundle_certificate"):
    _metric(f"{_fn}.calls", "count")
    _metric(f"{_fn}.self_s", "s")
for _fn in ("triangulation.anatomy_report", "lst.detect_degree3",
            "lst.maximal_extension", "lst.pairwise_intersection",
            "search.enumerate_complexes", "search.bounded_move_search",
            "cli.run"):
    _metric(f"{_fn}.self_s", "s")
for _mod in MODULES:
    _metric(f"{_mod}.calls", "count")
    _metric(f"{_mod}.self_s", "s")
_metric("isosig.encode_canonical.tets", "count")
_metric("triangulation.invalid", "count")
_metric("cohomology.bound_certificate.found", "count", "higher")
_metric("moves.enumerate_moves.sites", "count")
_metric("search.leaves", "count")
_metric("search.unique_ratio", "ratio", "higher")
_metric("search.nodes", "count")
_metric("search.truncated", "count")
_metric("monodromy.closure_encodes", "count")
_metric("trace_overhead", "ratio")


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.current_op = -1
        self._stack = []
        self._last_invalid = None
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        counts_invalid = name.startswith("triangulation.")
        spans_name, spans_parent, spans_op = self.name, self.parent, self.op
        starts, ends = self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            spans_name.append(name_id)
            spans_parent.append(stack[-1] if stack else -1)
            spans_op.append(self.current_op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except InvalidTriangulation as exc:
                if counts_invalid and exc is not self._last_invalid:
                    self._last_invalid = exc
                    self.counters["triangulation.invalid"] += 1
                raise
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _after_isosig_encode_canonical(self, args, result):
        self.counters["isosig.encode_canonical.tets"] += args[0].n

    def _after_cohomology_bound_certificate(self, args, result):
        self.counters["cohomology.bound_certificate.found"] += result is not None

    def _after_moves_enumerate_moves(self, args, result):
        self.counters["moves.enumerate_moves.sites"] += len(result)

    def _after_search_enumerate_complexes(self, args, result):
        self.counters["search.unique"] += len(result)

    def _after_search_bounded_move_search(self, args, result):
        self.counters["search.nodes"] += len(result.reachable)
        self.counters["search.truncated"] += result.truncated

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        modules = {m: sys.modules[f"idealtri.{m}"] for m in MODULES}
        wrapped = {}                    # id(original) -> wrapper
        for short, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and name not in UNWRAPPED):
                    wrapped[id(value)] = self._wrap(name, value)
        self._patch(Triangulation, "__init__", self._wrap(
            "triangulation.Triangulation", Triangulation.__init__))
        for attr, value in list(vars(Triangulation).items()):
            if isinstance(value, cached_property):
                prop = cached_property(
                    self._wrap(f"triangulation.{attr}", value.func))
                prop.__set_name__(Triangulation, attr)
                self._patch(Triangulation, attr, prop)
        bound = [m for n, m in sys.modules.items()
                 if n == "idealtri" or n.startswith("idealtri.")]
        for module in bound:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patch(module, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._patch(value, key, wrapped[id(item)])

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def per_function(self):
        """name -> (calls, self seconds); self time is a span's duration
        minus the durations of its child spans."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i, name_id in enumerate(self.name):
            calls[name_id] += 1
            self_s[name_id] += self.end[i] - self.start[i] - child[i]
        return {self.names[k]: (calls[k], self_s[k]) for k in calls}

    def count_under(self, ancestor, name):
        """Spans called ``name`` opened inside a span called ``ancestor``."""
        a, b = self.names.index(ancestor), self.names.index(name)
        inside = bytearray(len(self.name))
        count = 0
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            if p >= 0 and (inside[p] or self.name[p] == a):
                inside[i] = 1
                count += n == b
        return count

    def layer_metrics(self, per_function, overhead):
        values = dict.fromkeys(LAYER_METRICS, 0)
        for name, (calls, self_s) in per_function.items():
            module = name.split(".", 1)[0]
            values[f"{module}.calls"] += calls
            values[f"{module}.self_s"] += self_s
            if f"{name}.calls" in values:
                values[f"{name}.calls"] = calls
            if f"{name}.self_s" in values:
                values[f"{name}.self_s"] = self_s
        for key in values:
            if key in self.counters:
                values[key] = self.counters[key]
        leaves = self.count_under("search.enumerate_complexes",
                                  "triangulation.Triangulation")
        values["search.leaves"] = leaves
        values["search.unique_ratio"] = (
            self.counters["search.unique"] / leaves if leaves else 0.0)
        values["monodromy.closure_encodes"] = self.count_under(
            "monodromy.build_bundle", "isosig.encode_canonical")
        values["trace_overhead"] = overhead
        return values

    def write(self, path, t0):
        """Span records, microseconds from t0, as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({
                "names": self.names,
                "fields": ["name", "parent", "op", "start_us", "end_us"],
                "counters": dict(self.counters)})[:-1])
            fh.write(',"spans":[')
            for i, (n, p, o, s, e) in enumerate(zip(
                    self.name, self.parent, self.op, self.start, self.end)):
                fh.write(f"{',' if i else ''}[{n},{p},{o},"
                         f"{round((s - t0) * 1e6)},{round((e - t0) * 1e6)}]")
            fh.write("]}\n")
