"""In-memory span tracer for the benchmark's traced run.

The tracer replaces functions at module attributes, the names through
which the package's layers call each other, with wrappers that record a
span per call: name, start, end, parent span and case id.  Spans stay in
memory until the run ends; then they are reduced to per-layer totals and
self times, and written out one JSON object per line.  A target that
does not exist (a later version may replace or rename a layer) is
recorded as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    case: str | None


class Tracer:
    """targets are (dotted path, span name, on_result, count_only) tuples
    for install_all(); see install() for their meaning."""

    def __init__(self, targets=()) -> None:
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}  # layer name -> missing target
        self.case: str | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.case))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span.start = start
        span.end = end

    @contextmanager
    def span(self, name: str):
        """A span around code of the benchmark itself."""
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    # -- wrapping ------------------------------------------------------------

    def install(self, target: str, name: str, on_result=None, count_only=False) -> None:
        """Wrap the function at dotted path target; spans are called name.

        on_result(tracer, result) runs after each call.  With count_only the
        wrapper only counts calls into counts[name], for functions called
        too often to give each call a span.
        """
        module_name, attr = target.rsplit(".", 1)
        try:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            original = None
        if not callable(original):
            self.absent[name] = target
            return

        if count_only:
            counts = self.counts

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                idx = self._open(name)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(idx, start, time.perf_counter())
                if on_result is not None:
                    try:
                        on_result(self, result)
                    except (AttributeError, KeyError, TypeError) as e:
                        # the result no longer has the expected shape
                        self.absent[f"{name} result"] = repr(e)
                return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install_all(self) -> None:
        for target, name, on_result, count_only in self.targets:
            self.install(target, name, on_result, count_only)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = span.end - span.start
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_s[idx]
        return out

    def write(self, path: str) -> None:
        """Every span as one JSON line, in the order the spans opened, so a
        span's parent is the 0-based line number of its parent span."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
