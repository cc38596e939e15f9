"""Per-layer call tracing from outside the package.

`Tracer.install()` replaces the public functions of each dpchroma layer
with timing wrappers: every module of the package that binds a traced
function gets the wrapper under that name, methods are replaced on their
class, and the verify suites are also replaced in `verify.SUITES`.
`uninstall()` puts the originals back.  Spans are folded as they close
into per-name call counts, inclusive time and self time (the span's time
minus the time of traced spans directly inside it), so memory stays flat
however many calls a run makes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  A dotted attribute is a method.
TRACED = [
    ("poly", "IntPoly.__mul__", "poly.mul"),
    ("poly", "IntPoly.__rmul__", "poly.mul"),
    ("poly", "IntPoly.__add__", "poly.add"),
    ("poly", "IntPoly.__radd__", "poly.add"),
    ("poly", "IntPoly.__sub__", "poly.add"),
    ("poly", "IntPoly.__rsub__", "poly.add"),
    ("poly", "IntPoly.__neg__", "poly.add"),
    ("poly", "IntPoly.exact_div", "poly.exact_div"),
    ("poly", "eventual_compare", "poly.eventual_compare"),
    ("graphs", "Graph.is_forest", "graphs.is_forest"),
    ("graphs", "find_feedback_vertex", "graphs.find_feedback_vertex"),
    ("graphs", "subset_cycle_lengths", "graphs.subset_cycle_lengths"),
    ("graphs", "star_forest_decomposition", "graphs.star_forest_decomposition"),
    ("chromatic", "chromatic_polynomial", "chromatic.chromatic_polynomial"),
    ("chromatic", "precolored_polynomial", "chromatic.precolored_polynomial"),
    ("chromatic", "precolored_count", "chromatic.precolored_count"),
    ("chromatic", "theta_chromatic", "chromatic.theta_chromatic"),
    ("covers", "min_over_covers", "covers.min_over_covers"),
    ("covers", "count_from_edge_perms", "covers.count_from_edge_perms"),
    ("covers", "count_colorings", "covers.count_colorings"),
    ("covers", "partitions_of", "covers.partitions_of"),
    ("analysis", "fvs1_dp_polynomial", "analysis.fvs1_dp_polynomial"),
    ("analysis", "partition_weight", "analysis.partition_weight"),
    ("analysis", "theta_dp_formula", "analysis.theta_dp_formula"),
    ("cli", "main", "cli.main"),
]

# Calls of the first span counted only while the second is open.
NESTED = {
    "chromatic.precolored_polynomial": "analysis.partition_weight",
    "covers.count_from_edge_perms": "covers.min_over_covers",
}


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "dpchroma" or name.startswith("dpchroma."))
    ]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.open: Counter = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time
        clock = time.perf_counter
        nested_parent = NESTED.get(name)
        is_parent = name in NESTED.values()
        open_, counts = self.open, self.counts

        def traced(*args, **kwargs):
            if nested_parent is not None and open_[nested_parent]:
                counts[name + ".nested"] += 1
            if is_parent:
                open_[name] += 1
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if is_parent:
                    open_[name] -= 1
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, owner, key: str, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _rebind(self, modules, original, wrapper):
        for mod in modules:
            for bound, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, bound, wrapper)

    def install(self):
        import dpchroma.verify as verify

        hooks = {
            "covers.min_over_covers": lambda r: self.counts.update({"covers.candidates": r.candidates}),
            "covers.partitions_of": lambda r: self.counts.update({"covers.partitions": len(r)}),
        }
        modules = _package_modules()
        wrappers = {}
        for module, attr, name in TRACED:
            owner = sys.modules[f"dpchroma.{module}"]
            if "." in attr:
                cls, method = attr.split(".")
                owner, attr = getattr(owner, cls), method
            original = getattr(owner, attr)
            key = (name, id(original))
            if key not in wrappers:
                wrappers[key] = self.wrap(name, original, hooks.get(name))
            if owner.__class__ is type:
                self._set(owner, attr, wrappers[key])
            else:
                self._rebind(modules, original, wrappers[key])
        for suite, fn in list(verify.SUITES.items()):
            name = f"verify.{suite}"
            wrapped = self.wrap(name, fn, lambda r, n=name: self.counts.update({n + ".checks": len(r)}))
            self._set(verify.SUITES, suite, wrapped)
            self._rebind(modules, fn, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def layer_metrics(tracer: Tracer, rounds: int, suites, overhead_frac: float) -> dict[str, float]:
    """Per-round layer metrics from a tracer that ran `rounds` rounds."""
    out: dict[str, float] = {}
    span_names = sorted({name for _, _, name in TRACED} - {"cli.main"})
    for name in span_names:
        out[f"{name}.calls"] = tracer.calls[name] / rounds
        out[f"{name}.self_s"] = tracer.self_time[name] / rounds
    candidates = tracer.counts["covers.candidates"]
    search_s = tracer.total["covers.min_over_covers"]
    out["covers.candidates"] = candidates / rounds
    out["covers.partitions"] = tracer.counts["covers.partitions"] / rounds
    out["covers.candidates_per_s"] = candidates / search_s if search_s else 0.0
    nested_counts = tracer.counts["covers.count_from_edge_perms.nested"]
    out["covers.count_from_edge_perms.per_candidate"] = nested_counts / candidates if candidates else 0.0
    weights = tracer.calls["analysis.partition_weight"]
    nested_precolored = tracer.counts["chromatic.precolored_polynomial.nested"]
    out["analysis.precolored_per_weight"] = nested_precolored / weights if weights else 0.0
    for suite in suites:
        out[f"verify.{suite}.wall_s"] = tracer.total[f"verify.{suite}"] / rounds
        out[f"verify.{suite}.checks"] = tracer.counts[f"verify.{suite}.checks"] / rounds
    out["cli.main.calls"] = tracer.calls["cli.main"] / rounds
    out["cli.self_s"] = tracer.self_time["cli.main"] / rounds
    out["cli.output_bytes"] = tracer.counts["cli.output_bytes"] / rounds
    out["trace.overhead_frac"] = overhead_frac
    return out
