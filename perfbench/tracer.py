"""Outside-in tracer: wraps sftrack functions from the benchmark's side.

Each target is replaced, for the duration of a traced pass, under the name
its caller looks up: the module attribute (``motion.detect_features``), the
importing module's attribute when the caller took the name with ``from``
(``synthetic.write_ppm``), or the class attribute for a method
(``Tracker.step``). Spans are kept in memory with a parent link; a span's
self time is its duration minus the durations of the spans directly under
it. ``restore`` puts the original objects back, so untraced passes run the
program's own code.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 for a root span
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    owner: Any                       # module or class whose attribute is replaced
    attr: str
    span: str                        # span name, "<layer>.<what>"
    # Picks the span name from the call's arguments (e.g. the cascade stage).
    namer: Callable[[tuple, dict], str] | None = None
    # Records counts from the call's result: hook(tracer, result, args, kwargs).
    on_return: Callable[["Tracer", Any, tuple, dict], None] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            original = target.owner.__dict__[target.attr]
            setattr(target.owner, target.attr, self._wrapper(original, target))
            self._installed.append((target.owner, target.attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original: Callable, target: Target) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = target.namer(args, kwargs) if target.namer else target.span
            counts[name + ".calls"] += 1
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        if target.on_return is None:
            return traced

        @functools.wraps(original)
        def traced_with_hook(*args, **kwargs):
            result = traced(*args, **kwargs)
            target.on_return(self, result, args, kwargs)
            return result

        return traced_with_hook

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time, in seconds, in ``spans`` order."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def totals(self, under: str | None = None) -> dict[str, float]:
        """Summed self time per span name, in seconds.

        With ``under``, only spans that are, or descend from, a span of that
        name count.
        """
        own = self.self_times()
        inside = [under is None] * len(self.spans)
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if under is not None:
                inside[i] = s.name == under or (s.parent >= 0 and inside[s.parent])
            if inside[i]:
                out[s.name] = out.get(s.name, 0.0) + own[i]
        return out

    def inclusive(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)
