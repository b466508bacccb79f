"""In-memory span tracer that wraps module attributes from outside the program.

A wrapped function records one span per call: its name, start, end, the span
that was open when it was called (its parent) and the id of the op it belongs
to. Because the wrapper replaces the module attribute, calls that the package
makes through that attribute (``graph_mod.kappa(...)``, ``discretize(...)``
inside :mod:`cvge.numerics`) become child spans. Nothing in the program is
edited, and :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# extracts one number from a call's result (e.g. a grid size), stored on the span
Note = Callable[[Any], Any]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent  # index into Tracer.spans, -1 for a root span
        self.op = op
        self.start = self.end = 0.0
        self.note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; ``op`` tags every span with the current op id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, module: Any, attr: str, name: str, note: Note | None = None) -> None:
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans are strictly nested in one thread, so the children of a span
        cover disjoint parts of its interval.
        """
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_total[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child_total)]

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Call count and summed self time per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span.name] += 1
            self_s[span.name] += own
        return calls, self_s

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent index, op id, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.note]) + "\n")
