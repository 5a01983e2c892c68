"""Spans recorded by the benchmark around its own calls into miscover.

A span is one call into a layer: its name (``module.function``), start and
end on ``clock.cpu_clock``, the index of the span that was open when
it started, the op it belongs to, and an optional work count (sets emitted,
elements built, ...).  Spans stay in memory and are written out once, when
the run ends.  ``NullTracer`` has the same interface and records nothing;
untraced runs use it, so both modes execute the same benchmark code.
"""

from __future__ import annotations

import statistics

from clock import cpu_clock


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "count")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.count = 0
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.count]


class Tracer:
    """Records nested spans; ``op`` is stamped on every span opened under it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._open: list[int] = []

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        The benchmark is single-threaded, so children of one span never
        overlap and their durations can simply be summed.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


class _SpanContext:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else -1
        self.span = Span(name, parent, tracer.op)

    def __enter__(self) -> Span:
        t = self.tracer
        t._open.append(len(t.spans))
        t.spans.append(self.span)
        self.span.start = cpu_clock()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = cpu_clock()
        self.tracer._open.pop()


class NullTracer:
    """Tracer stand-in for untraced runs: every span is a shared no-op."""

    op = None

    def __init__(self):
        self._null = _NullSpan()

    def span(self, name: str) -> "_NullSpan":
        return self._null


class _NullSpan:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


def layer_metrics(tracer: Tracer, kinds: dict, factors: dict) -> dict[str, dict]:
    """Calls, self time, work count and median duration per span name.

    Only spans of the ops in ``kinds`` (op id -> op kind) count, and their
    times are scaled to reference seconds by their op's factor (op id ->
    factor, see clock.py).  Each span is tallied under its name and under
    ``name@kind``, so one layer's calls can be split by the op that made them.
    Returns key -> {"calls", "busy_s", "count", "durations", "p50_ms"}.
    """
    out: dict[str, dict] = {}
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        if s.op not in kinds:
            continue
        f = factors[s.op]
        for key in (s.name, f"{s.name}@{kinds[s.op]}"):
            d = out.setdefault(key, {"calls": 0, "busy_s": 0.0, "count": 0, "durations": []})
            d["calls"] += 1
            d["busy_s"] += self_s * f
            d["count"] += s.count
            d["durations"].append(s.duration * f)
    for d in out.values():
        d["p50_ms"] = statistics.median(d["durations"]) * 1e3
    return out
