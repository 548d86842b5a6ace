"""Span recorder for the traced run.

``Tracer.install()`` replaces every public function of the germres layers
with a recording wrapper at every module binding (the modules import names
from each other, e.g. ``from .jets import compose`` in ``normal_form``), and
``uninstall()`` puts the originals back.  Spans stay in memory as
``(name, start, end, parent, order)`` tuples until the run writes them out.

Work counters are kept by wrapping the callables germres is handed:
``GermSpec.increment`` (orbit steps), ``NumericField.func`` (field
evaluations) and ``GermExpr.func``/``deriv`` (formula evaluations).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("jets", "residues", "normal_form", "flows", "numerics", "catalog", "expr", "cli")

# span name -> metric stem, where the metric is not named after one function
ALIASES = {"expr.parse_expr": "expr.parse", "expr.parse_germ": "expr.parse", "expr.GermExpr.to_jet": "expr.to_jet"}


class Counters:
    """Exact work counts; each is a one-element list bumped in place."""

    def __init__(self):
        self.orbit_steps = [0]
        self.field_evals = [0]
        self.expr_evals = [0]


def _count(fn, counters, attr):
    if getattr(fn, "_perfbench_counted", False):
        return fn
    cell = getattr(counters, attr)

    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    counted._perfbench_counted = True
    return counted


def counted_germ(spec, counters):
    """The same GermSpec with its increment counted as orbit steps."""
    return dataclasses.replace(spec, increment=_count(spec.increment, counters, "orbit_steps"))


def counted_field(field, counters):
    """The same NumericField with its evaluator counted."""
    return dataclasses.replace(field, func=_count(field.func, counters, "field_evals"))


def _coeff_bits(result):
    coeffs = getattr(result, "coeffs", None)
    if coeffs is None:
        return 0
    best = 0
    for c in coeffs:
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    def __init__(self, counters: Counters):
        self.counters = counters
        self.spans = []
        self.stack = []
        self.numerics_errors = 0
        self.coeff_bits_max = 0
        self._patches = None  # (owner, attribute, original, wrapper), built on first install

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, layer):
        spans, stack = self.spans, self.stack
        is_jets = layer == "jets"
        is_numerics = layer == "numerics"
        numerics_error = sys.modules["germres.numerics"].NumericsError
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent, parent_name = stack[-1] if stack else (-1, "")
            order = getattr(args[0], "order", None) if args else None
            spans.append(None)
            stack.append((index, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except numerics_error:
                if is_numerics and not parent_name.startswith("numerics."):
                    tracer.numerics_errors += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, order if isinstance(order, int) else None)
            if is_jets:
                tracer.coeff_bits_max = max(tracer.coeff_bits_max, _coeff_bits(result))
            return result

        return wrapper

    def _count_outputs(self, fn):
        """Germ specs and fields that germres builds for itself (the CLI
        path) get counted callables too."""
        from germres.numerics import GermSpec, NumericField

        counters = self.counters

        def counting(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, GermSpec):
                return counted_germ(out, counters)
            if isinstance(out, NumericField):
                return counted_field(out, counters)
            return out

        return counting

    def _build(self):
        import germres
        from germres.expr import GermExpr

        modules = [importlib.import_module(f"germres.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    wrapper = self._wrap(value, f"{layer}.{attr}", layer)
                    wrappers[id(value)] = self._count_outputs(wrapper) if attr in FACTORIES else wrapper
        patches = [
            (module, attr, value, wrappers[id(value)])
            for module in modules + [germres]
            for attr, value in vars(module).items()
            if id(value) in wrappers
        ]
        to_jet = GermExpr.__dict__["to_jet"]
        patches.append((GermExpr, "to_jet", to_jet, self._wrap(to_jet, "expr.GermExpr.to_jet", "expr")))
        for attr in ("func", "__call__", "deriv"):
            original = GermExpr.__dict__[attr]
            patches.append((GermExpr, attr, original, _count(original, self.counters, "expr_evals")))
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    # -- summaries ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time covered by its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _order in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [(s[0], (s[2] - s[1]) - child_time[i]) for i, s in enumerate(self.spans)]

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# functions whose GermSpec / NumericField results get counted callables
FACTORIES = {
    "quadratic",
    "moebius",
    "ramified_flow",
    "log_cubic",
    "loglog",
    "germ_from_jet",
    "catalog_germ",
    "catalog_field",
    "szekeres_numeric_field",
    "pullback_numeric_field",
    "field_from_coeffs",
    "field_from_jet",
}


def layer_metrics(tracer, requests):
    """Per-layer figures of one traced serving, {metric: value}.  Time
    metrics without samples are left out."""
    per_request = 1e3 / max(requests, 1)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    for name, self_s in tracer.self_times():
        for key in (ALIASES.get(name, name), name.split(".", 1)[0]):
            self_ms[key] += self_s * per_request
            calls[key] += 1
    out = {f"{key}.self_ms": value for key, value in self_ms.items()}
    out.update({f"{key}.calls": value for key, value in calls.items()})
    # per-order times are those of calls the benchmark made itself (root
    # spans), so that calls nested inside other functions do not mix in
    by_order = defaultdict(list)
    for name, start, end, parent, order in tracer.spans:
        if order is not None and parent < 0:
            by_order[f"{ALIASES.get(name, name)}.k{order}_ms"].append((end - start) * 1e3)
    out.update({key: statistics.median(values) for key, values in by_order.items()})
    return out
