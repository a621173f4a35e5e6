"""Measurement primitives of the benchmark: spans, wrappers, percentiles.

Nothing here knows about a particular workload.  :class:`SpanRecorder`
keeps every span of a traced run in memory (name, start, end, parent) and
:class:`Instrumentation` installs timing wrappers around the program's
public functions for the duration of a ``with`` block, restoring the
originals on exit.  The untraced run never builds either, so it times the
program exactly as shipped.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Candidate percentiles for the tail-latency rule, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL_SAMPLES = 10


def tail_percentile(samples: int, candidates: Sequence[float] = PERCENTILES) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it.

    ``None`` when even the lowest candidate leaves fewer than ten samples
    beyond it.  The count beyond percentile ``p`` is ``floor(n * (1 - p/100))``
    (computed in integer arithmetic so 98 of 600 gives exactly 12).
    """
    best = None
    for p in sorted(candidates):
        beyond = (samples * (1000 - round(p * 10))) // 1000
        if beyond >= MIN_TAIL_SAMPLES:
            best = p
    return best


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are merged as intervals clipped to the parent, so overlapping
    or ragged children are never subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((span.end - span.start) - covered)
    return result


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """In-memory span store with a parent stack (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._origin = time.perf_counter()

    def open(self, name: str) -> Optional[int]:
        """Start a span; ``None`` when one of the same name is already open.

        A re-entrant call (a subclass method calling its wrapped base) stays
        inside the outer span, so a layer's busy time is never counted twice.
        """
        if self._open.get(name):
            self._open[name] += 1
            return None
        self._open[name] = 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, name: str, index: Optional[int]) -> None:
        self._open[name] -= 1
        if index is None:
            return
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {name!r} closed out of order")

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self) -> Dict[str, LayerTotals]:
        """Calls, busy time and self time per span name."""
        result: Dict[str, LayerTotals] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            layer = result.setdefault(span.name, LayerTotals())
            layer.calls += 1
            layer.busy_s += span.end - span.start
            layer.self_s += own
        return result

    def chrome_events(self) -> List[Dict[str, object]]:
        """The spans as the span-event dicts ``spans_to_chrome_trace`` reads."""
        pid, tid = os.getpid(), threading.get_native_id()
        return [
            {
                "name": span.name,
                "ts_us": (span.start - self._origin) * 1e6,
                "dur_us": (span.end - span.start) * 1e6,
                "pid": pid,
                "tid": tid,
            }
            for span in self.spans
        ]


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Target:
    """One timed boundary: ``owner.attr`` recorded as span ``name``.

    ``count`` optionally maps the call's return value to an amount added to
    the counter ``count_name`` (a count taken at the boundary itself).
    """

    owner: object
    attr: str
    name: str
    count: Optional[Callable[[object], float]] = None
    count_name: str = ""


def subclass_targets(base: type, attr: str, name: str) -> List[Target]:
    """A target for every subclass of ``base`` (and ``base``) defining ``attr``.

    Abstract declarations are skipped: they never run.
    """
    found, pending, seen = [], [base], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        member = cls.__dict__.get(attr)
        if callable(member) and not getattr(member, "__isabstractmethod__", False):
            found.append(Target(cls, attr, name))
    return sorted(found, key=lambda target: (target.owner.__module__, target.owner.__qualname__))


@dataclass
class Instrumentation:
    """Installs timing wrappers on enter and restores the originals on exit."""

    targets: Iterable[Target]
    recorder: SpanRecorder = field(default_factory=SpanRecorder)
    _saved: List[Tuple[object, str, object]] = field(default_factory=list, init=False)

    def __enter__(self) -> SpanRecorder:
        try:
            for target in self.targets:
                original = target.owner.__dict__[target.attr]
                setattr(target.owner, target.attr, self._wrap(target, original))
                self._saved.append((target.owner, target.attr, original))
        except BaseException:
            self._restore()
            raise
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, original):
        recorder = self.recorder
        name, count, count_name = target.name, target.count, target.count_name

        @functools.wraps(original)
        def timed(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(name, index)
            if count is not None:
                recorder.count(count_name, count(result))
            return result

        timed.__perfbench_wrapper__ = True
        return timed


def installed_wrappers(targets: Iterable[Target]) -> List[str]:
    """Names of the targets whose attribute currently holds a benchmark wrapper."""
    return [
        f"{target.owner.__qualname__}.{target.attr}"
        for target in targets
        if getattr(target.owner.__dict__.get(target.attr), "__perfbench_wrapper__", False)
    ]
