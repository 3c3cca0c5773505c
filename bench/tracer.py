"""Per-layer tracing for the benchmark, installed from outside the package.

Tracer.install wraps the public functions of each knotcert layer module in
timing wrappers.  A function is replaced in its own module and wherever
another knotcert module imported it by name (obstruction.definiteness,
cobordisms.definiteness, the package namespace, ...), so every call path is
seen; no source file is edited.  Spans are kept in memory as
[name, parent, start, end, op] and written out only when the run ends.

A layer's self time is a span's duration minus the time its direct child
spans cover; busy time counts only spans not nested inside a span of the
same name (or, for a layer total, of the same layer).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("exactmath", "fs_invariant", "cs_invariants", "covers", "cobordisms", "obstruction", "cli")

# Private functions that are traced as well: each call of the cotangent sum
# is one precision attempt of r_invariant.
EXTRA = {"fs_invariant": ("_cotangent_sum",)}

# Definiteness answers computed inside these spans are only asserted on,
# never returned to the caller; they count against useful_ratio.
DISCARDING = {
    "cobordisms.build_Z",
    "cobordisms.build_R",
    "cobordisms.build_P",
    "obstruction.assemble_X",
}

BUILDS = ("cobordisms.build_Z", "cobordisms.build_R", "cobordisms.build_P")

# Every per-layer metric, with its unit; a traced run reports all of them.
METRICS = {
    "exactmath.definiteness.calls": "count",
    "exactmath.definiteness.busy_s": "s",
    "exactmath.definiteness.dim_sum": "count",
    "exactmath.definiteness.dim_max": "count",
    "exactmath.definiteness.useful_ratio": "ratio",
    "exactmath.smith_normal_form.calls": "count",
    "exactmath.smith_normal_form.busy_s": "s",
    "exactmath.direct_sum.busy_s": "s",
    "exactmath.form_entries": "count",
    "fs_invariant.r_invariant.calls": "count",
    "fs_invariant.r_invariant.busy_s": "s",
    "fs_invariant.cotangent_terms": "count",
    "fs_invariant.precision_attempts": "count",
    "fs_invariant.precision_bits_max": "bits",
    "cs_invariants.compactness_check.calls": "count",
    "cs_invariants.compactness_check.busy_s": "s",
    "cs_invariants.comparisons": "count",
    "covers.double_cover_decomposition.calls": "count",
    "covers.slope_from_filling.calls": "count",
    "covers.moser_identify.calls": "count",
    "covers.busy_s": "s",
    "cobordisms.build.calls": "count",
    "cobordisms.build.busy_s": "s",
    "cobordisms.build.self_s": "s",
    "obstruction.generate_family.busy_s": "s",
    "obstruction.next_member.calls": "count",
    "obstruction.assemble_X.calls": "count",
    "obstruction.assemble_X.self_s": "s",
    "obstruction.certify_family.self_s": "s",
    "obstruction.form_dim_max": "count",
    "obstruction.members_sum": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.dispatch.busy_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.merged: list[dict] = []
        self.child_spans: list[list] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("knotcert")
        modules = [importlib.import_module(f"knotcert.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in vars(module).items():
                public = not name.startswith("_") and getattr(fn, "__module__", None) == module.__name__
                if inspect.isfunction(fn) and (public or name in EXTRA.get(layer, ())):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name.lstrip('_')}", fn)
        for module in [package, *modules]:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    setattr(module, name, wrappers[id(value)])
        if hasattr(modules[0], "SymIntMatrix"):
            self._count_dense_entries(modules[0].SymIntMatrix)

    def _count_dense_entries(self, cls) -> None:
        original = cls.__post_init__
        counters = self.counters

        def post_init(matrix):
            original(matrix)
            counters["form_entries"] += len(matrix.entries) ** 2

        cls.__post_init__ = post_init

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else None, 0.0, 0.0, self.op]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(span, args, result)
                except (AttributeError, TypeError, ValueError):
                    pass  # a counter that no longer fits the API must not fail the op
            return result

        return wrapper

    # -- per-function counters ----------------------------------------------

    def _observe_exactmath_definiteness(self, span, args, result) -> None:
        dim = args[0].dimension
        self.counters["definiteness.dim_sum"] += dim
        self.maxima["definiteness.dim_max"] = max(self.maxima["definiteness.dim_max"], dim)
        parent = span[1]
        if parent is None or self.spans[parent][0] not in DISCARDING:
            self.counters["definiteness.useful"] += 1

    def _observe_fs_invariant_cotangent_sum(self, span, args, result) -> None:
        a1, a2, a3, bits = args
        self.counters["cotangent_terms"] += a1 + a2 + a3 - 3
        self.maxima["precision_bits_max"] = max(self.maxima["precision_bits_max"], bits)

    def _observe_cs_invariants_compactness_check(self, span, args, result) -> None:
        self.counters["comparisons"] += len(result.checks)

    def _observe_obstruction_assemble_X(self, span, args, result) -> None:
        dim = result.form.dimension
        self.maxima["form_dim_max"] = max(self.maxima["form_dim_max"], dim)

    def _observe_obstruction_certify_family(self, span, args, result) -> None:
        self.counters["members_sum"] += len(args[0].members)

    # -- aggregation --------------------------------------------------------

    def raw(self) -> dict:
        """Mergeable totals: per name (calls, busy, self), per layer busy,
        counters, maxima and samples."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        layer_busy: dict[str, float] = defaultdict(float)
        for i, (name, parent, start, end, _) in enumerate(self.spans):
            duration = end - start
            layer = name.split(".", 1)[0]
            ancestors = []
            while parent is not None:
                ancestors.append(self.spans[parent][0])
                parent = self.spans[parent][1]
            entry = per_name[name]
            entry[0] += 1
            if name not in ancestors:
                entry[1] += duration
            entry[2] += duration - child[i]
            if not any(a.split(".", 1)[0] == layer for a in ancestors):
                layer_busy[layer] += duration
        out = {
            "names": dict(per_name),
            "layers": dict(layer_busy),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "samples": dict(self.samples),
        }
        for other in self.merged:
            _merge(out, other)
        return out

    def merge(self, raw: dict, spans: list) -> None:
        """Fold in the totals and spans of a traced child process."""
        self.merged.append(raw)
        self.child_spans.extend([name, parent, start, end, self.op] for name, parent, start, end, _ in spans)

    def metrics(self, overhead_ratio: float) -> dict:
        raw = self.raw()
        names, counters, maxima = raw["names"], raw["counters"], raw["maxima"]

        def calls(name):
            return names.get(name, [0, 0.0, 0.0])[0]

        def busy(name):
            return names.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            return names.get(name, [0, 0.0, 0.0])[2]

        def median(key):
            values = raw["samples"].get(key)
            return statistics.median(values) if values else 0.0

        d_calls = calls("exactmath.definiteness")
        values = {
            "exactmath.definiteness.calls": d_calls,
            "exactmath.definiteness.busy_s": busy("exactmath.definiteness"),
            "exactmath.definiteness.dim_sum": counters.get("definiteness.dim_sum", 0),
            "exactmath.definiteness.dim_max": maxima.get("definiteness.dim_max", 0),
            "exactmath.definiteness.useful_ratio": counters.get("definiteness.useful", 0) / d_calls
            if d_calls
            else 0.0,
            "exactmath.smith_normal_form.calls": calls("exactmath.smith_normal_form"),
            "exactmath.smith_normal_form.busy_s": busy("exactmath.smith_normal_form"),
            "exactmath.direct_sum.busy_s": busy("exactmath.direct_sum"),
            "exactmath.form_entries": counters.get("form_entries", 0),
            "fs_invariant.r_invariant.calls": calls("fs_invariant.r_invariant"),
            "fs_invariant.r_invariant.busy_s": busy("fs_invariant.r_invariant"),
            "fs_invariant.cotangent_terms": counters.get("cotangent_terms", 0),
            "fs_invariant.precision_attempts": calls("fs_invariant.cotangent_sum"),
            "fs_invariant.precision_bits_max": maxima.get("precision_bits_max", 0),
            "cs_invariants.compactness_check.calls": calls("cs_invariants.compactness_check"),
            "cs_invariants.compactness_check.busy_s": busy("cs_invariants.compactness_check"),
            "cs_invariants.comparisons": counters.get("comparisons", 0),
            "covers.double_cover_decomposition.calls": calls("covers.double_cover_decomposition"),
            "covers.slope_from_filling.calls": calls("covers.slope_from_filling"),
            "covers.moser_identify.calls": calls("covers.moser_identify"),
            "covers.busy_s": raw["layers"].get("covers", 0.0),
            "cobordisms.build.calls": sum(calls(b) for b in BUILDS),
            "cobordisms.build.busy_s": sum(busy(b) for b in BUILDS),
            "cobordisms.build.self_s": sum(self_s(b) for b in BUILDS),
            "obstruction.generate_family.busy_s": busy("obstruction.generate_family"),
            "obstruction.next_member.calls": calls("obstruction.next_member"),
            "obstruction.assemble_X.calls": calls("obstruction.assemble_X"),
            "obstruction.assemble_X.self_s": self_s("obstruction.assemble_X"),
            "obstruction.certify_family.self_s": self_s("obstruction.certify_family"),
            "obstruction.form_dim_max": maxima.get("form_dim_max", 0),
            "obstruction.members_sum": counters.get("members_sum", 0),
            "cli.interpreter_ms": median("interpreter_ms"),
            "cli.import_ms": median("import_ms"),
            "cli.dispatch.busy_s": busy("cli.dispatch"),
            "cli.stdout_bytes": counters.get("stdout_bytes", 0),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}

    def write_spans(self, path) -> None:
        """Spans of a child process keep parent indices local to that child."""
        with open(path, "w") as fh:
            for span in [*self.spans, *self.child_spans]:
                name, parent, start, end, op = span
                fh.write(json.dumps({"op": op, "name": name, "parent": parent, "start": start, "end": end}))
                fh.write("\n")


def _merge(into: dict, other: dict) -> None:
    for name, (c, b, s) in other["names"].items():
        entry = into["names"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += c
        entry[1] += b
        entry[2] += s
    for layer, b in other["layers"].items():
        into["layers"][layer] = into["layers"].get(layer, 0.0) + b
    for key, v in other["counters"].items():
        into["counters"][key] = into["counters"].get(key, 0) + v
    for key, v in other["maxima"].items():
        into["maxima"][key] = max(into["maxima"].get(key, 0), v)
    for key, v in other["samples"].items():
        into["samples"].setdefault(key, []).extend(v)
