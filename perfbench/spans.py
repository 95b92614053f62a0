"""The benchmark's own span log, and self time per layer.

A traced run records one span around every public call it makes into
the program (``Spider.run``, ``StencilService.submit``, ...) and joins
the spans the program already emits (the executor's stage hook and
``StencilService(trace=True)``) under them.  Spans of one request share
a ``trace_id``; ``parent`` points at the span that caused it.  A
layer's self time is its spans' duration minus the part of each span's
interval that its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence

import numpy as np

clock = time.monotonic


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: Hashable
    parent: Optional[Hashable] = None
    trace_id: Optional[Hashable] = None
    args: Optional[dict] = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span list; every method is a no-op when disabled.

    ``list.append`` is atomic under the interpreter lock, so program
    threads (the MAC pool's ``mac.gemm`` blocks) may add spans
    concurrently with the driver thread.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def new_id(self) -> tuple:
        return ("pb", next(self._ids))

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        span_id: Optional[Hashable] = None,
        parent: Optional[Hashable] = None,
        trace_id: Optional[Hashable] = None,
        args: Optional[dict] = None,
    ) -> None:
        if self.enabled:
            sid = span_id if span_id is not None else self.new_id()
            self.spans.append(
                Span(name, start, end, sid, parent, trace_id, args)
            )

    @contextmanager
    def span(self, name: str):
        """Record a root span around a block."""
        t0 = clock()
        try:
            yield
        finally:
            self.add(name, t0, clock())

    def harvest(self, service_spans: Iterable) -> None:
        """Join spans a ``StencilService(trace=True)`` recorded.

        A service root span hangs under ``("client", trace_id)``: the
        id the benchmark gives its own span of that request.
        """
        for s in service_spans:
            parent = (
                ("svc", s.parent_id)
                if s.parent_id is not None
                else ("client", s.trace_id)
            )
            self.add(
                s.name,
                s.start_s,
                s.start_s + s.dur_s,
                span_id=("svc", s.span_id),
                parent=parent,
                trace_id=s.trace_id,
                args=dict(s.args) if s.args else None,
            )

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump([_jsonable(s) for s in self.spans], fh)


def _jsonable(span: Span) -> dict:
    d = asdict(span)
    for key in ("span_id", "parent", "trace_id"):
        if isinstance(d[key], tuple):
            d[key] = ":".join(map(str, d[key]))
    return d


def busy_s(spans: Sequence[Span]) -> float:
    """Wall time covered by ``spans`` (overlapping spans counted once)."""
    return _covered(-math.inf, math.inf, spans)


def _covered(start: float, end: float, children: Sequence[Span]) -> float:
    """Length of the union of children's intervals clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for c in sorted(children, key=lambda c: c.start):
        s, e = max(c.start, start), min(c.end, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and self time in ms."""
    children: Dict[Hashable, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(
            s.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        kids = children.get(s.span_id, ())
        row["count"] += 1
        row["total_ms"] += s.dur * 1e3
        row["self_ms"] += (s.dur - _covered(s.start, s.end, kids)) * 1e3
    return out


def pct(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0-100) of ``values``; 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def over_windows(
    times: Sequence[float],
    values: Sequence[float],
    window_s: float,
    stat: Callable[[np.ndarray], float],
    min_samples: int = 10,
) -> float:
    """Median over consecutive ``window_s`` windows of ``stat`` applied to
    the ``values`` whose ``times`` fall in each window.

    Other load on the host comes in bursts shorter than a run; a burst
    that hits a few windows does not move the median over windows.
    Windows with fewer than ``min_samples`` values are skipped; without
    one full window, ``stat`` of all values is returned.
    """
    if not len(values):
        return 0.0
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    idx = np.floor((t - t.min()) / window_s).astype(int)
    per = [
        stat(v[idx == k])
        for k in np.unique(idx)
        if np.count_nonzero(idx == k) >= min_samples
    ]
    return float(np.median(per)) if per else float(stat(v))
