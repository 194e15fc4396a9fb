"""Span tracing around the public calls of each layer, from outside ``src/``.

:class:`Tracer` patches the public callables named in :data:`SPAN_TARGETS`
(on their class, or in every module that imported them by name) with thin
wrappers that record one span per call: name, start, end, parent span and the
id of the request or event the benchmark was serving when the call began.
Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.

Per-element hot calls are never wrapped.  ``width_for`` is only counted,
and calls such as ``assign_stage`` or ``stage_time`` (millions per run) are
left inside their parent's self time.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (layer name, module, attribute path) of every spanned callable.  An
#: attribute path ``Class.method`` is patched on the class; a bare function
#: name is patched in its defining module and in every module listed in
#: :data:`REIMPORTS` that bound it by name at import time.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sched.engine.step", "repro.sched.engine", "SchedulerEngine.step"),
    ("sched.metrics.result", "repro.sched.engine", "SchedulerEngine.result"),
    ("cluster.coordinator.place_plan", "repro.cluster.coordinator", "ClusterCoordinator.place_plan"),
    ("sched.fleet.take", "repro.sched.fleet", "FleetPool.take"),
    ("sched.fleet.release", "repro.sched.fleet", "FleetPool.release"),
    ("sched.snapshot.capture", "repro.sched.snapshot", "EngineSnapshot.capture"),
    ("core.planner.plan", "repro.core.planner.planner", "BurstParallelPlanner.plan"),
    ("profiler.layer_timing", "repro.profiler.layer_profiler", "LayerProfiler.layer_timing"),
    ("serve.service.submit", "repro.serve.service", "SchedulerService.submit"),
    ("serve.service.advance_to", "repro.serve.service", "SchedulerService.advance_to"),
    ("serve.service.drain", "repro.serve.service", "SchedulerService.drain"),
    ("serve.service.read", "repro.serve.service", "SchedulerService.query"),
    ("serve.service.read", "repro.serve.service", "SchedulerService.cluster_state"),
    ("serve.admission.decide", "repro.serve.admission", "QuotaAdmission.decide"),
    ("serve.journal.append", "repro.serve.journal", "IntentJournal.append"),
    ("serve.journal.compact", "repro.serve.journal", "IntentJournal.compact"),
    ("serve.recovery.write_snapshot", "repro.serve.recovery", "write_snapshot"),
    ("cache.canonical_json", "repro.cache.fingerprint", "canonical_json"),
)

#: Modules that import a spanned module-level function by name.
REIMPORTS: Dict[str, Tuple[str, ...]] = {
    "canonical_json": (
        "repro.cache",
        "repro.sched.snapshot",
        "repro.serve.journal",
        "repro.serve.recovery",
        "repro.serve.replay",
    ),
    "write_snapshot": ("repro.serve",),
}

# Span tuple fields.
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        #: Bytes a span produced: ``canonical_json`` output length, or the
        #: size of the file ``write_snapshot`` wrote.
        self.span_bytes: Dict[int, int] = {}
        self.counts: Dict[str, int] = {}
        self.pending_samples: List[int] = []
        self.request: Any = None
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ---------------------------------------------------------------- record
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self.request))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, _, parent, request = self.spans[index]
        self.spans[index] = (name, start, end, parent, request)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so every call records one span."""
        tracer = self
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_span(*args, **kwargs):
                index = tracer._open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(index)

            return async_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if name == "cache.canonical_json":
                tracer.span_bytes[index] = len(result)
            elif name == "serve.recovery.write_snapshot":
                tracer.span_bytes[index] = os.path.getsize(result)
            elif name == "sched.fleet.release":
                tracer.count("sched.fleet.release.gpus", len(args[1]))
            elif name == "serve.admission.decide":
                tracer.count(f"serve.admission.{result.value}")
            return result

        if name == "sched.engine.step":
            traced_step = span

            @functools.wraps(fn)
            def step(engine, *args, **kwargs):
                tracer.pending_samples.append(len(engine.pending))
                return traced_step(engine, *args, **kwargs)

            return step
        return span

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def counting(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    # ----------------------------------------------------------------- patch
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        # ``__dict__`` keeps a classmethod wrapped, so undo restores it as is.
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch(self, name: str, module_name: str, path: str) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self.wrap(name, raw))
            return
        original = getattr(module, path)
        wrapped = self.wrap(name, original)
        self._set(module, path, wrapped)
        for other in REIMPORTS.get(path, ()):
            other_module = importlib.import_module(other)
            if getattr(other_module, path, None) is original:
                self._set(other_module, path, wrapped)

    def install(self) -> None:
        """Patch every span and count target (undone by :meth:`uninstall`)."""
        for name, module_name, path in SPAN_TARGETS:
            self._patch(name, module_name, path)
        # ``width_for`` runs once per pending foreground job per scheduling
        # pass, so it is counted on every policy class defining it, not spanned.
        policies = importlib.import_module("repro.sched.policies")
        for cls in (policies.SchedulingPolicy, *policies.POLICIES.values()):
            if "width_for" in vars(cls):
                counted = self.counting("sched.policies.width_for", vars(cls)["width_for"])
                self._set(cls, "width_for", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---------------------------------------------------------------- output
    def write(self, path: Path) -> None:
        """Dump every span as one JSON line: name, start/end ns, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span[NAME],
                    "start_ns": span[START],
                    "end_ns": span[END],
                    "parent": span[PARENT],
                    "request": span[REQUEST],
                }
                if index in self.span_bytes:
                    record["bytes"] = self.span_bytes[index]
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(spans: Sequence[tuple]) -> List[int]:
    """Self time of every span: its duration minus what its children cover.

    Calls nest strictly in a single thread (the benchmark's asyncio caller
    is the only task), so a span's children are disjoint sub-intervals of
    it and their union is the sum of their durations.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_totals(spans: Sequence[tuple]) -> Dict[str, Dict[str, float]]:
    """Per layer name: ``calls``, ``busy_s`` and ``self_s``.

    ``busy_s`` counts a span only when no ancestor has the same name, so a
    layer re-entered through itself is not counted twice.
    """
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[index] / 1e9
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["busy_s"] += (span[END] - span[START]) / 1e9
    return totals


def span_bytes_of(
    spans: Sequence[tuple], span_bytes: Dict[int, int], layer: str, parent_layer: str = ""
) -> int:
    """Bytes recorded on spans of ``layer`` (direct children of ``parent_layer``)."""
    return sum(
        size
        for index, size in span_bytes.items()
        if spans[index][NAME] == layer
        and (
            not parent_layer
            or (spans[index][PARENT] >= 0 and spans[spans[index][PARENT]][NAME] == parent_layer)
        )
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Layers reported with calls, busy and self time; the rest of
#: :data:`PER_LAYER` is derived below.
_TIMED = {
    "sched.engine.step": ("calls", "busy_s", "self_s"),
    "cluster.coordinator.place_plan": ("calls", "busy_s"),
    "sched.fleet.take": ("calls", "busy_s"),
    "sched.fleet.release": ("calls", "busy_s"),
    "sched.metrics.result": ("busy_s",),
    "core.planner.plan": ("calls", "busy_s", "self_s"),
    "profiler.layer_timing": ("calls", "busy_s"),
    "serve.service.submit": ("calls", "busy_s", "self_s"),
    "serve.service.advance_to": ("busy_s",),
    "serve.service.drain": ("busy_s",),
    "serve.service.read": ("busy_s",),
    "serve.admission.decide": ("calls", "busy_s"),
    "serve.journal.append": ("calls", "busy_s"),
    "serve.journal.compact": ("calls", "busy_s"),
    "serve.recovery.write_snapshot": ("calls", "busy_s"),
    "sched.snapshot.capture": ("busy_s",),
    "cache.canonical_json": ("calls", "busy_s"),
}
_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def per_layer(
    tracer: Tracer, counters: Dict[str, int], passes: Sequence, cycles: int, overhead_s: float
):
    """Per-layer metrics per traced cycle, plus the largest self-time layer.

    A cycle is one pass over every unit of the workload.  ``counters`` is
    the delta of the program's own counter registry over the traced passes.
    Returns ``(metrics, (top layer, its self seconds))``.
    """
    spans = tracer.spans
    count = cycles
    totals = layer_totals(spans)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer, keys in _TIMED.items():
        entry = totals.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key in keys:
            metrics[f"{layer}.{key}"] = (entry[key] / count, _UNITS[key])
    steps = totals.get("sched.engine.step", {}).get("calls", 0)
    releases = totals.get("sched.fleet.release", {}).get("calls", 0)
    samples = tracer.pending_samples
    metrics.update({
        "sched.engine.pending_mean": (statistics.fmean(samples) if samples else 0.0, "jobs"),
        "sched.policies.width_for.calls_per_step": (
            _ratio(tracer.counts.get("sched.policies.width_for", 0), steps), "calls/step"),
        "sched.fleet.release.gpus_per_call": (
            _ratio(tracer.counts.get("sched.fleet.release.gpus", 0), releases), "gpus/call"),
        "sched.events.stale_ratio": (
            _ratio(counters.get("sched.events.stale", 0), counters.get("sched.heap.pops", 0)),
            "ratio"),
        "core.planner.plan_cache_hit_ratio": (
            _ratio(counters.get("planner.plan_cache_hits", 0),
                   counters.get("planner.plan_requests", 0)), "ratio"),
        "core.planner.relaxations": (counters.get("planner.relaxations", 0) / count, "count"),
        "profiler.hit_ratio": (
            _ratio(counters.get("profiler.hits", 0),
                   counters.get("profiler.hits", 0) + counters.get("profiler.misses", 0)),
            "ratio"),
        "serve.admission.accepted": (tracer.counts.get("serve.admission.accept", 0) / count, "count"),
        "serve.admission.queued": (tracer.counts.get("serve.admission.queue", 0) / count, "count"),
        "serve.admission.rejected": (tracer.counts.get("serve.admission.reject", 0) / count, "count"),
        "serve.journal.append.bytes": (
            span_bytes_of(spans, tracer.span_bytes, "cache.canonical_json",
                          "serve.journal.append") / count, "bytes"),
        "serve.recovery.write_snapshot.bytes": (
            span_bytes_of(spans, tracer.span_bytes, "serve.recovery.write_snapshot") / count,
            "bytes"),
    })
    wall = sum(p.wall_s for p in passes)
    covered = sum(entry["self_s"] for entry in totals.values())
    top = max(totals.items(), key=lambda item: item[1]["self_s"], default=("none", {"self_s": 0.0}))
    metrics.update({
        "trace.coverage": (_ratio(covered, wall), "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.top_self_s": (top[1]["self_s"] / count, "s"),
    })
    return metrics, (top[0], top[1]["self_s"] / count)
