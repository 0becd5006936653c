"""In-memory span tracer for the benchmark's traced runs.

A span is opened around each call into a pipevis layer: the benchmark's own
calls to public functions, plus the cross-module names listed in
``INNER_TARGETS`` / ``CLI_TARGETS``, which are replaced by timing wrappers
only while a traced cycle runs and restored afterwards. Untimed code paths
never see a wrapper.

Spans nest through a stack; a span's self time is its duration minus the
durations of its direct children. Garbage-collector pauses reported through
``gc.callbacks`` are charged to the innermost open span (pauses outside any
span are not recorded). Spans are kept in memory and summed per name by
:meth:`Tracer.summary`.

A target that no longer exists (a later refactor may move or drop it) is
recorded in ``Tracer.missing`` instead of raising; the metrics that need
its span are then reported as missing.
"""

from __future__ import annotations

import functools
import gc
import importlib
from time import perf_counter

#: Cross-module names wrapped while tracing: (module, attribute, span name).
INNER_TARGETS = (
    ("pipevis.model", "validate_graph", "model.validate_graph"),
    ("pipevis.ingest", "validate_assessment", "model.validate_assessment"),
    ("pipevis.metrics", "validate_assessment", "model.validate_assessment"),
    ("pipevis.metrics", "overall_visibility", "metrics.overall_visibility"),
    ("pipevis.ingest", "document_dict", "ingest.document_dict"),
    ("pipevis.report", "document_dict", "ingest.document_dict"),
)

#: The names ``pipevis.cli`` calls into other layers.
CLI_TARGETS = tuple(
    ("pipevis.cli", name, f"{layer}.{name}")
    for layer, names in (
        ("ingest", ("parse_document",)),
        ("metrics", ("overall_visibility", "derived_asset_visibility", "rank",
                     "sensitivity")),
        ("report", ("render_comparison", "render_machine", "render_rubric",
                    "render_sensitivity", "render_table")),
    )
    for name in names
)


class Span:
    __slots__ = ("name", "parent", "start", "child", "gc_ms", "gc_n")

    def __init__(self, name: str, parent: Span | None):
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.gc_ms = 0.0
        self.gc_n = 0
        self.start = perf_counter()


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}
        self.missing: list[str] = []
        self.available: set[str] = set()
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start: float | None = None

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> float:
        duration = perf_counter() - span.start
        self._stack.pop()
        if span.parent is not None:
            span.parent.child += duration
        entry = self.totals.setdefault(span.name, [0, 0.0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - span.child
        entry[3] += span.gc_ms
        entry[4] += span.gc_n
        return duration

    def wrap(self, fn, name: str):
        self.available.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def patch(self, targets) -> None:
        """Wrap each target that exists; remember the missing ones."""
        for module_name, attr, span_name in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            if self._stack:
                span = self._stack[-1]
                span.gc_ms += (perf_counter() - self._gc_start) * 1e3
                span.gc_n += 1
            self._gc_start = None

    def __enter__(self) -> Tracer:
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._on_gc)
        self.unpatch()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self milliseconds, GC pauses."""
        return {
            name: {"calls": calls, "total_ms": total * 1e3, "self_ms": own * 1e3,
                   "gc_ms": gc_ms, "gc_collections": gc_n}
            for name, (calls, total, own, gc_ms, gc_n) in self.totals.items()
        }


def merge(into: dict[str, dict[str, float]], summary: dict[str, dict[str, float]]) -> None:
    """Add one summary's figures into another, name by name."""
    for name, figures in summary.items():
        entry = into.setdefault(name, dict.fromkeys(figures, 0))
        for key, value in figures.items():
            entry[key] += value
