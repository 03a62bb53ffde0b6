"""Spans around the calls an op makes into citenoise's modules.

The tracer wraps public functions in memory: each traced function is
replaced at every module binding that holds it (``citenoise.cli.analyze``,
``citenoise.io.build_system``, ``citenoise.simulate.build_system``, ...),
so nested calls give parent/child spans and self time. No source file is
edited, and uninstall() puts every original binding back. Spans stay in
memory until the run writes them out.
"""

import functools
import sys
import time
import warnings

PACKAGE = "citenoise"

# module -> public functions an op reaches. Calls between them nest, e.g.
# io.load_system -> model.build_system, simulate.bias_recovery ->
# model.build_system.
TRACED = {
    "cli": ("run_cli",),
    "io": (
        "load_system",
        "load_system_csv",
        "dump_json",
        "report_to_document",
        "report_to_table",
        "system_to_document",
    ),
    "model": ("build_system",),
    "metrics": ("analyze",),
    "simulate": ("generate_system", "replicate_decisions", "decompose_pattern_noise", "bias_recovery"),
    "audit": ("build_similarity", "omission_indicator"),
}


def _counts(name, args, result, caught):
    """Work done by one call, read from its arguments and result."""
    if name == "model.build_system":
        return {"cells": result.realized.size}
    if name == "metrics.analyze":
        return {"cells": args[0].realized.size}
    if name == "audit.omission_indicator":
        return {
            "pairs": len(result.flags),
            "flagged": sum(result.flags.values()),
            "warnings": sum(issubclass(w.category, UserWarning) for w in caught),
        }
    return None


# Functions whose warnings are caught (and re-issued) by their wrapper.
_WARNING_COUNTED = {"audit.omission_indicator"}


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "counts")

    def __init__(self, span_id, parent, op, name):
        self.id, self.parent, self.op, self.name = span_id, parent, op, name
        self.start = self.end = None
        self.counts = None

    def to_dict(self):
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count_warnings = name in _WARNING_COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else None, self.op, name)
            spans.append(span)
            stack.append(span)
            caught = ()
            span.start = time.perf_counter()
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                for w in caught:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            span.counts = _counts(name, args, result, caught)
            return result

        return wrapper

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def summarize(spans, n_ops):
    """Per-op totals by span name: s, self_s, calls and summed counts."""
    child_time = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
    stats = {}
    for span in spans:
        st = stats.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
        duration = span.end - span.start
        st["s"] += duration
        st["self_s"] += duration - child_time.get(span.id, 0.0)
        st["calls"] += 1
        for key, value in (span.counts or {}).items():
            st["counts"][key] = st["counts"].get(key, 0) + value
    for st in stats.values():
        st["total_s"] = st["s"]
        st["s"] /= n_ops
        st["self_s"] /= n_ops
        st["calls"] /= n_ops
        st["counts"] = {k: v / n_ops for k, v in st["counts"].items()}
    return stats


def nested_share(spans, outer, inner):
    """Share of ``outer`` spans' time spent inside descendant ``inner`` spans."""
    by_id = {s.id: s for s in spans}
    outer_time = sum(s.end - s.start for s in spans if s.name == outer)
    inside = 0.0
    for span in spans:
        if span.name != inner:
            continue
        parent = span.parent
        while parent is not None and by_id[parent].name != outer:
            parent = by_id[parent].parent
        if parent is not None:
            inside += span.end - span.start
    return inside / outer_time if outer_time else 0.0
