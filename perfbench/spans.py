"""Outside-in span tracing of the estimator's layers.

``linespec.pipeline`` imports its stages with ``from ... import``, so the
tracer replaces the names *in that module*: patching
``linespec.optimizer.train_inner`` would silently miss every call.
``prune_threshold`` is replaced in ``linespec.order_control``, where
``apply_prunes`` looks it up. Each call records a span (name, start and end
from ``perf_counter``, parent span, estimate id) plus the counts its return
value carries. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import linespec.order_control
import linespec.pipeline


class TraceError(RuntimeError):
    """The trace missed a layer or its spans do not nest."""


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    estimate: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _init_counts(args, out):
    return {"nodes_out": out.m_nodes}


def _train_counts(args, out):
    iters = out[1].iterations_run
    return {
        "iterations": iters,
        "max_iter_exits": int(not out[1].converged),
        "node_samples": np.size(args[0]) * args[1].m_nodes * iters,
    }


def _merge_counts(args, out):
    return {"merges": len(out[1])}


def _prune_counts(args, out):
    return {"prunes": args[0].m_nodes - out[0].m_nodes}


# (module, function, span name, counts taken from the call's args and result)
LAYERS = (
    (linespec.pipeline, "initialize", "fft_init", _init_counts),
    (linespec.pipeline, "train_inner", "optimizer", _train_counts),
    (linespec.pipeline, "apply_merges", "order_control.merge", _merge_counts),
    (linespec.pipeline, "apply_prunes", "order_control.prune", _prune_counts),
    (linespec.order_control, "prune_threshold", "order_control.threshold", None),
)


class Tracer:
    """Records spans while installed (``with tracer:``); restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.failed: set[int] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, fname, name, count in LAYERS:
            original = getattr(module, fname)
            self._saved.append((module, fname, original))
            setattr(module, fname, self._wrap(name, original, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, fname, original = self._saved.pop()
            setattr(module, fname, original)
        return False

    @contextmanager
    def span(self, name: str, estimate: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if estimate is None:
            estimate = self.spans[parent].estimate if parent is not None else -1
        sp = Span(name, 0.0, parent=parent, estimate=estimate)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if count is not None:
                    sp.counts = count(args, out)
            return out

        return traced


@dataclass
class EstimateSummary:
    """Per-estimate times (s) and counts read off one estimate's spans."""

    estimate: int
    wall: float
    self_time: float
    layer_s: dict
    layer_calls: dict
    nodes_out: int
    iterations: int
    passes: int
    merges: int
    prunes: int
    max_iter_exits: int
    node_samples: int


def summarize(tracer: Tracer) -> list[EstimateSummary]:
    """Check span coverage and nesting, then summarize each estimate.

    Estimates are the top-level ``pipeline`` spans the benchmark opens around
    each call. Raises TraceError when child spans exceed their parent, or
    when a layer that must run recorded no call: one ``fft_init`` per
    estimate, and one ``optimizer``, merge, prune and threshold call per
    annealing pass, with at least one pass whenever initialization returned
    nodes. Estimates whose call raised are skipped; their spans end early.
    """
    spans = tracer.spans
    children: dict[int, list[int]] = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(i)
    for i, sp in enumerate(spans):
        kids = [spans[j] for j in children.get(i, ())]
        if kids and (
            sum(k.seconds for k in kids) > sp.seconds
            or min(k.start for k in kids) < sp.start
            or max(k.end for k in kids) > sp.end
        ):
            raise TraceError(f"child spans of {sp.name!r} (estimate {sp.estimate}) exceed it")

    out = []
    for i, sp in enumerate(spans):
        if sp.name != "pipeline" or sp.estimate in tracer.failed:
            continue
        kids = [spans[j] for j in children.get(i, ())]
        grandkids = [spans[g] for j in children.get(i, ()) for g in children.get(j, ())]
        calls = Counter(k.name for k in kids + grandkids)
        if calls["fft_init"] != 1:
            raise TraceError(f"estimate {sp.estimate}: fft_init ran {calls['fft_init']} times")
        nodes_out = next(k.counts["nodes_out"] for k in kids if k.name == "fft_init")
        passes = calls["optimizer"]
        if nodes_out > 0 and passes == 0:
            raise TraceError(f"estimate {sp.estimate}: optimizer recorded no call from M = {nodes_out}")
        for name in ("order_control.merge", "order_control.prune", "order_control.threshold"):
            if calls[name] != passes:
                raise TraceError(
                    f"estimate {sp.estimate}: {name} ran {calls[name]} times in {passes} passes"
                )
        layer_s: dict[str, float] = defaultdict(float)
        for k in kids + grandkids:
            layer_s[k.name] += k.seconds

        def total(key):
            return sum(k.counts.get(key, 0) for k in kids)

        out.append(
            EstimateSummary(
                estimate=sp.estimate,
                wall=sp.seconds,
                self_time=sp.seconds - sum(k.seconds for k in kids),
                layer_s=dict(layer_s),
                layer_calls=dict(calls),
                nodes_out=nodes_out,
                iterations=total("iterations"),
                passes=passes,
                merges=total("merges"),
                prunes=total("prunes"),
                max_iter_exits=total("max_iter_exits"),
                node_samples=total("node_samples"),
            )
        )
    return out
