"""Spans around the public functions of the sdpcolor layers, and the per-layer metrics they give.

A span is (name, start, end, parent, item): `name` is `<layer>.<function>`, `parent`
the index of the span open when it began (-1 for none), and `item` the label of the
benchmark item that caused it. Spans stay in memory and are written out once the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from time import perf_counter

from sdpcolor.sdp import DEFAULT_MAX_ITER

LAYERS = ("sdp", "formulations", "heuristics", "linalg", "graphs", "certificates")
# These two run several times on every interior-point iteration, inside sdp.solve;
# a span per call would cost more than the work it measures.
UNTRACED = frozenset({"linalg.symmetrize", "linalg.require_symmetric"})


def _solution_info(sol) -> dict:
    return {"status": sol.status, "iterations": sol.iterations}


def _outcome_info(outcome) -> dict:
    actions = [entry.action for entry in outcome.log]
    return {"status": outcome.status, "tries": actions.count("try"),
            "accepts": actions.count("accept")}


ANNOTATE = {
    "sdp.solve": _solution_info,
    "heuristics.heuristic1": _outcome_info,
    "heuristics.heuristic2": _outcome_info,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "info")

    def __init__(self, name: str, parent: int, item):
        self.name = name
        self.parent = parent
        self.item = item
        self.start = self.end = 0.0
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps the layers' public functions while it is open.

    The modules import each other's functions by name (`from .sdp import solve`),
    so a function is rebound in every sdpcolor namespace that holds it, not only in
    the module that defines it.
    """

    def __init__(self):
        self.spans: list = []
        self.item = None
        self._open: list = []
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sdpcolor.{layer}")
            for name, fn in vars(module).items():
                qualified = f"{layer}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and qualified not in UNTRACED):
                    wrappers[fn] = self._wrap(qualified, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "sdpcolor" and not module_name.startswith("sdpcolor."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_spans[-1] if open_spans else -1, self.item)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if annotate is not None:
                span.info = annotate(result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.item, s.info]) + "\n")


def nearest_rank(values, q: float) -> float:
    """The smallest value with at least a share q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_seconds(spans: list) -> dict:
    """Each layer's self time: its spans' durations minus the time their child spans cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    self_time = {layer: 0.0 for layer in LAYERS}
    for s, children in zip(spans, child_time):
        self_time[s.layer] += s.duration - children
    return self_time


def busy_seconds(spans: list) -> dict:
    """Each layer's busy time: the union of its spans, so a span nested in its own layer is skipped."""
    busy = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].layer != s.layer:
            p = spans[p].parent
        if p < 0:
            busy[s.layer] += s.duration
    return busy


def layer_metrics(spans: list, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced run; values are (value, unit) pairs."""
    busy = busy_seconds(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(selected):
        return sum(s.duration for s in selected)

    solves = named("sdp.solve")
    iters = [s.info["iterations"] for s in solves] or [0]
    solve_s = total(solves)
    nonoptimal = [s for s in solves if s.info["status"] != "optimal"]
    optimal = len(solves) - len(nonoptimal)
    modified = {i for i, s in enumerate(spans) if s.name == "heuristics.solve_modified"}
    retried = sum(1 for s in solves if s.parent in modified) - len(modified)
    runs = named("heuristics.heuristic1") + named("heuristics.heuristic2")
    tries = sum(s.info["tries"] for s in runs)
    accepts = sum(s.info["accepts"] for s in runs)
    builds = named("formulations.build_svcn") + named("formulations.build_cost_sdp")
    return {
        "sdp.calls": (len(solves), "count"),
        "sdp.busy_s": (busy["sdp"], "s"),
        "sdp.iters_total": (sum(iters), "count"),
        "sdp.iters_p50": (nearest_rank(iters, 0.50), "count"),
        "sdp.iters_p99": (nearest_rank(iters, 0.99), "count"),
        "sdp.capped": (sum(1 for s in solves if s.info["iterations"] >= DEFAULT_MAX_ITER), "count"),
        "sdp.optimal_share": (optimal / len(solves) if solves else 0.0, "ratio"),
        "sdp.nonoptimal_busy_share": (total(nonoptimal) / solve_s if solve_s else 0.0, "ratio"),
        "sdp.ms_per_iter": (1e3 * solve_s / sum(iters) if sum(iters) else 0.0, "ms"),
        "formulations.build_calls": (len(builds), "count"),
        "formulations.build_s": (total(builds), "s"),
        "formulations.extract_s": (total(named("formulations.extract_coloring")), "s"),
        "heuristics.solve_modified_calls": (len(modified), "count"),
        "heuristics.retry_share": (retried / len(modified) if modified else 0.0, "ratio"),
        "heuristics.self_share": (self_seconds(spans)["heuristics"] / traced_wall, "ratio"),
        "heuristics.accept_share": (accepts / tries if tries else 0.0, "ratio"),
        "heuristics.solver_errors": (
            sum(1 for s in runs if s.info["status"] == "solver-error"), "count"),
        "linalg.rank_calls": (len(named("linalg.numerical_rank")), "count"),
        "linalg.busy_s": (busy["linalg"], "s"),
        "graphs.busy_s": (busy["graphs"], "s"),
        "graphs.oracle_share": (total(named("graphs.chromatic_oracle")) / traced_wall, "ratio"),
        "certificates.busy_share": (busy["certificates"] / traced_wall, "ratio"),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.overhead_share": ((traced_wall - untraced_wall) / untraced_wall, "ratio"),
    }
