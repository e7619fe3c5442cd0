"""Spans around every call into the package's public functions, from outside it.

Modules import each other's functions by name (``from .graphs import
star``), so a wrapper is useless unless it replaces the binding in every
module that holds one; ``Tracer.install`` does that, and also covers calls
a module makes to its own functions, which resolve through its globals.
Each call records one span: name, start, end, parent span and the id of the
query it belongs to.  Spans are kept in flat arrays in memory and written
out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from array import array

LAYERS = ("graphs", "isomorphism", "combinatorics", "presentation", "words",
          "extension", "subgroups", "classify", "formats", "cli")

FUNCTION_METRICS = (
    ("isomorphism.canonical_form", ("calls", "self_s")),
    ("isomorphism.find_isomorphism", ("calls",)),
    ("isomorphism.automorphism_count", ("calls", "self_s")),
    ("words.multiply_and_normalize", ("calls", "self_s")),
    ("words.canonical_parabolic", ("calls", "self_s")),
    ("words.enumerate_cyclic_handles", ("self_s",)),
    ("extension.build_ext_ball", ("calls", "self_s")),
    ("extension.star_separation_check", ("self_s",)),
    ("subgroups.enumerate_findex_graphs", ("calls", "self_s")),
    ("subgroups.star_gluing_kernel", ("calls", "self_s")),
    ("classify.decide_me", ("calls", "self_s")),
    ("classify.decide_oe", ("calls", "self_s")),
    ("classify.invariant_report", ("calls", "self_s")),
    ("combinatorics.has_finite_out", ("calls", "self_s")),
    ("combinatorics.out_inventory", ("calls", "self_s")),
    ("combinatorics.untransvectable_vertices", ("calls", "self_s")),
    ("combinatorics.all_untransvectable_strongly", ("calls", "self_s")),
    ("combinatorics.cv_classification", ("calls", "self_s")),
    ("presentation.clique_reduce", ("self_s",)),
    ("presentation.expand_to_raag", ("self_s",)),
    ("cli.run_command", ("self_s",)),
)

COUNTERS = ("isomorphism.canonical_form.vertices", "extension.ball_nodes",
            "extension.ball_edges")
RATIOS = ("subgroups.dedup_hit_ratio", "classify.iso_tests_per_decide_me")

UNITS = {"calls": "count", "self_s": "s", "errors": "count"}


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{m}.{field}", UNITS[field]) for m in LAYERS for field in ("calls", "self_s", "errors")]
    out += [(f"{fn}.{field}", UNITS[field]) for fn, fields in FUNCTION_METRICS for field in fields]
    out += [(name, "count") for name in COUNTERS]
    out += [(name, "ratio") for name in RATIOS]
    out.append(("traced.wall_s", "s"))
    return out


class Tracer:
    QUERY = "bench.query"

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.query = array("i")
        self.error = array("b")
        self.stack = []
        self.current_query = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.enum_keys = {}     # enumerate_findex_graphs span -> canonical keys seen
        self.dedup_hits = 0

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open_span(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.current_query if self.current_query >= 0 else idx)
        self.end.append(0)
        self.error.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close_span(self, idx, failed=False):
        self.end[idx] = time.perf_counter_ns()
        self.error[idx] = failed
        self.stack.pop()

    def begin_query(self):
        self.current_query = -1
        self.current_query = self.open_span(self.name_id(self.QUERY))

    def end_query(self):
        self.close_span(self.current_query)
        self.current_query = -1

    def wrap(self, qualname, fn):
        nid = self.name_id(qualname)
        observe = {
            "isomorphism.canonical_form": self.observe_canonical_form,
            "extension.build_ext_ball": self.observe_ball,
        }.get(qualname)
        open_span, close_span = self.open_span, self.close_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close_span(idx, True)
                raise
            close_span(idx)
            if observe is not None:
                observe(idx, args, result)
            return result
        return wrapper

    def observe_canonical_form(self, idx, args, result):
        self.counters["isomorphism.canonical_form.vertices"] += args[0].n_vertices
        parent = self.parent[idx]
        if parent >= 0 and self.names[self.name[parent]] == "subgroups.enumerate_findex_graphs":
            seen = self.enum_keys.setdefault(parent, set())
            if result.key in seen:
                self.dedup_hits += 1
            seen.add(result.key)

    def observe_ball(self, idx, args, result):
        self.counters["extension.ball_nodes"] += result.n_nodes
        self.counters["extension.ball_edges"] += result.n_edges

    def install(self, package):
        """Wrap every public function of every layer and rebind all references."""
        modules = [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj)
        for mod in modules + [package]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def per_layer(self, passes, factor, traced_wall_s):
        """Per-pass averages of the per-layer metrics, from the recorded spans.

        Self times are scaled by ``factor`` (of a time in seconds) taken at
        the start of the span's query, as the end-to-end times are.
        """
        n = len(self.name)
        child = [0] * n
        start, end, parent, query = self.start, self.end, self.parent, self.query
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        scale = {}
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        errors = [0] * len(self.names)
        gluings = iso_in_me = 0
        names = self.names
        for i in range(n):
            nid = self.name[i]
            q = query[i]
            if q not in scale:
                scale[q] = factor(start[q] / 1e9, (end[q] - start[q]) / 1e9)
            calls[nid] += 1
            self_ns[nid] += (end[i] - start[i] - child[i]) * scale[q]
            errors[nid] += self.error[i]
            p = parent[i]
            if p >= 0:
                pname = names[self.name[p]]
                if names[nid] == "subgroups.star_gluing_kernel" and not self.error[i] \
                        and pname == "subgroups.enumerate_findex_graphs":
                    gluings += 1
                elif names[nid] == "isomorphism.find_isomorphism" and pname == "classify.decide_me":
                    iso_in_me += 1
        by_name = {names[i]: (calls[i], self_ns[i] / 1e9, errors[i]) for i in range(len(names))}
        by_layer = {m: [0, 0.0, 0] for m in LAYERS}
        for name, (c, s, e) in by_name.items():
            layer = name.split(".", 1)[0]
            if layer in by_layer:
                by_layer[layer][0] += c
                by_layer[layer][1] += s
                by_layer[layer][2] += e
        out = {}
        for m, values in by_layer.items():
            for field, v in zip(("calls", "self_s", "errors"), values):
                out[f"{m}.{field}"] = v / passes
        for fn, fields in FUNCTION_METRICS:
            c, s, _ = by_name.get(fn, (0, 0.0, 0))
            for field in fields:
                out[f"{fn}.{field}"] = (c if field == "calls" else s) / passes
        for name, v in self.counters.items():
            out[name] = v / passes
        me_calls = by_name.get("classify.decide_me", (0, 0, 0))[0]
        out["subgroups.dedup_hit_ratio"] = self.dedup_hits / gluings if gluings else 0.0
        out["classify.iso_tests_per_decide_me"] = iso_in_me / me_calls if me_calls else 0.0
        out["traced.wall_s"] = traced_wall_s
        return out

    def write(self, directory, stem):
        """Spans as one header (JSON) plus one binary file of flat columns."""
        os.makedirs(directory, exist_ok=True)
        columns = [("name", self.name), ("start_ns", self.start), ("end_ns", self.end),
                   ("parent", self.parent), ("query", self.query), ("error", self.error)]
        with open(os.path.join(directory, stem + ".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {"spans": len(self.name), "names": self.names,
                  "columns": [[c, col.typecode, col.itemsize] for c, col in columns],
                  "byteorder": sys.byteorder}
        with open(os.path.join(directory, stem + ".json"), "w", encoding="ascii") as fh:
            json.dump(header, fh)
