"""Span tracer that wraps library functions from outside the package.

``from x import f`` copies the name ``f`` into the importing module, so a
probe rebinds the name in the module that *calls* the function (for
example ``dp_residual.group_whiten``), not only where it is defined. Two
probes can therefore give one library function two span names, telling
apart the callers that matter (residual whitening versus trajectory
whitening).

Spans (name, start, end, parent) are kept in memory. A span's self time
is its duration minus the durations of its direct children; since spans
nest, the children cover disjoint parts of the parent's interval.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict | None = None


@dataclass(frozen=True)
class Probe:
    """Rebind ``module.attr`` (``attr`` may be ``Class.method``) as span ``name``.

    ``attrs(args, kwargs, result)`` returns counts to add to the span.
    """

    name: str
    module: str
    attr: str
    attrs: Callable | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attrs is not None:
                tracer.spans[idx].attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, probes) -> None:
        """Rebind every probe whose target exists.

        A span name none of whose probes could be installed, because a
        function was moved or renamed, is recorded in ``missing``.
        """
        installed = set()
        for p in probes:
            owner = _resolve_owner(p.module, p.attr)
            leaf = p.attr.rsplit(".", 1)[-1]
            if owner is None or not callable(getattr(owner, leaf, None)):
                continue
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(p.name, original, p.attrs))
            installed.add(p.name)
        self.missing |= {p.name for p in probes} - installed

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)


def _resolve_owner(module: str, attr: str):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


@dataclass
class SpanTotals:
    """Totals over the spans of one name.

    ``attrs`` sums the counts probes add, plus ``child:<name>``: the number
    of direct child spans of each name.
    """

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=lambda: defaultdict(float))

    def add(self, other: "SpanTotals") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        for k, v in other.attrs.items():
            self.attrs[k] += v


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def summarize(spans: list[Span]) -> dict[str, SpanTotals]:
    """Per-name call counts, total and self time, and summed span counts."""
    selfs = self_times(spans)
    totals: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for s, self_s in zip(spans, selfs):
        t = totals[s.name]
        t.calls += 1
        t.total_s += s.end - s.start
        t.self_s += self_s
        for k, v in (s.attrs or {}).items():
            t.attrs[k] += v
        if s.parent >= 0:
            totals[spans[s.parent].name].attrs[f"child:{s.name}"] += 1
    return dict(totals)


def merge(totals_list) -> dict[str, SpanTotals]:
    """Sum totals given as ``{name: SpanTotals}`` or their JSON form."""
    out: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for totals in totals_list:
        for name, t in totals.items():
            if isinstance(t, dict):
                t = SpanTotals(t["calls"], t["total_s"], t["self_s"], t["attrs"])
            out[name].add(t)
    return dict(out)


def per_span_overhead(n: int = 20000) -> float:
    """Seconds one traced call costs beyond the untraced call, on a no-op."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibrate", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop()
    plain = clock() - t0
    t0 = clock()
    for _ in range(n):
        traced()
    wrapped = clock() - t0
    return max(wrapped - plain, 0.0) / n
