"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper on every
``zerosum`` module that holds it, so calls the package makes to itself are
caught as well as the benchmark's own calls.  Spans stay in memory as tuples
and are written once, after the run.  A span's self time is its duration
minus the durations of the traced spans directly inside it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (layer, function, count of the call's work or None)
TARGETS = (
    ("thickness", "strong_decompose", lambda a, r: len(r.subset_certs)),
    ("thickness", "tube_decompose", None),
    ("thickness", "decompose", None),
    ("thickness", "min_outside_fraction", None),
    ("thickness", "scaling_window_table", None),
    ("thickness", "value_histogram", lambda a, r: a[0].support_size()),
    ("expansion", "build_difference_multiset", lambda a, r: len(r.entries)),
    ("expansion", "verify_fiber_thickness", None),
    ("expansion", "expansion_cover", lambda a, r: len(r.pairs)),
    ("pipeline", "find_zero_sum", None),
    ("pipeline", "random_thinning", None),
    ("pipeline", "sample_hyperplane", None),
    ("weighted", "weighted_zero_sum", None),
    ("subsums", "enumerate_subsums", lambda a, r: r.params.order * len(a[0])),
    ("subsums", "find_zero_sum_subset", None),
    ("subsums", "olson_constant", lambda a, r: r.nodes),
)

# per_layer metric name -> unit; the order BENCHMARK.json lists them in
METRICS = {
    "thickness.strong_decompose.self_s": "s",
    "thickness.strong_decompose.unions": "count",
    "thickness.tube_decompose.self_s": "s",
    "thickness.tube_decompose.calls": "count",
    "thickness.decompose.self_s": "s",
    "thickness.min_outside_fraction.self_s": "s",
    "thickness.min_outside_fraction.calls": "count",
    "thickness.scaling_window_table.self_s": "s",
    "thickness.scaling_window_table.calls": "count",
    "thickness.value_histogram.self_s": "s",
    "thickness.value_histogram.points": "count",
    "expansion.build_difference_multiset.self_s": "s",
    "expansion.build_difference_multiset.entries": "count",
    "expansion.verify_fiber_thickness.self_s": "s",
    "expansion.expansion_cover.self_s": "s",
    "expansion.expansion_cover.calls": "count",
    "expansion.expansion_cover.steps": "count",
    "expansion.expansion_cover.stagnations": "count",
    "expansion.expansion_cover.useful_ratio": "ratio",
    "pipeline.find_zero_sum.self_s": "s",
    "pipeline.random_thinning.self_s": "s",
    "pipeline.random_thinning.calls": "count",
    "pipeline.random_thinning.useful_ratio": "ratio",
    "pipeline.sample_hyperplane.self_s": "s",
    "weighted.weighted_zero_sum.self_s": "s",
    "weighted.weighted_zero_sum.calls": "count",
    "subsums.enumerate_subsums.self_s": "s",
    "subsums.enumerate_subsums.calls": "count",
    "subsums.enumerate_subsums.cells": "count",
    "subsums.find_zero_sum_subset.self_s": "s",
    "subsums.olson_constant.self_s": "s",
    "subsums.olson_constant.nodes": "count",
    "trace.overhead_s": "s",
}

# span tuple fields
SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "child_ns", "status", "count")


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self._stack: List[list] = []  # [span id, child ns]
        self._next_id = 0
        self._restore: List[tuple] = []
        self.op_id: Optional[int] = None
        self.missing: List[str] = []

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _close(self, frame: list, parent: Optional[list], name: str, start: int, status: str, n):
        end = time.perf_counter_ns()
        self._stack.pop()
        if parent is not None:
            parent[1] += end - start
        self.spans.append(
            (frame[0], parent[0] if parent else None, self.op_id, name, start, end, frame[1], status, n)
        )

    def span(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._new_id(), 0]
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, parent, name, start, type(exc).__name__, None)
                raise
            tracer._close(frame, parent, name, start, "ok", count(args, result) if count else None)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "zerosum" or name.startswith("zerosum."))
        ]
        for layer, func, count in TARGETS:
            home = sys.modules.get(f"zerosum.{layer}")
            orig = getattr(home, func, None) if home is not None else None
            if orig is None:
                self.missing.append(f"{layer}.{func}")
                continue
            wrapped = self.span(f"{layer}.{func}", orig, count)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: List[tuple], rounds: int, overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics per round of the workload, from the recorded spans."""
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    ok: Dict[str, int] = defaultdict(int)
    stagnated: Dict[str, int] = defaultdict(int)
    counted: Dict[str, int] = defaultdict(int)
    names = {}
    for sid, _parent, _op, name, start, end, child, status, n in spans:
        names[sid] = name
    thinning_draws = 0
    for _sid, parent, _op, name, start, end, child, status, n in spans:
        self_ns[name] += (end - start) - child
        calls[name] += 1
        if status == "ok":
            ok[name] += 1
        elif status == "ExpansionStagnation":
            stagnated[name] += 1
        if n is not None:
            counted[name] += n
        # each draw that passes the size windows ends in one thickness scan
        if name == "thickness.min_outside_fraction" and names.get(parent) == "pipeline.random_thinning":
            thinning_draws += 1

    def ratio(a: int, b: int) -> float:
        return a / b if b else 0.0

    out: Dict[str, float] = {}
    for metric in METRICS:
        if metric == "trace.overhead_s":
            out[metric] = overhead_s / rounds
            continue
        fn, measure = metric.rsplit(".", 1)
        if measure == "self_s":
            value = self_ns[fn] / 1e9
        elif measure == "calls":
            value = calls[fn]
        elif measure == "stagnations":
            value = stagnated[fn]
        elif measure == "useful_ratio":
            if fn == "pipeline.random_thinning":
                out[metric] = ratio(ok[fn], thinning_draws)
            else:
                out[metric] = ratio(ok[fn], calls[fn])
            continue
        else:
            value = counted[fn]
        out[metric] = value / rounds
    return out
