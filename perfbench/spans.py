"""In-memory span recorder for the traced run, and the self-time fold.

A span is ``(span_id, parent_id, req_id, name, start_ns, end_ns)``.  The
parent is whatever span was open in the caller's context when the span
started (a :mod:`contextvars` variable, so it follows asyncio tasks); the
request id is inherited from the parent unless the wrapped call names
one.  Spans stay in a list until the run writes them out.

Work handed to an executor thread starts a fresh context, so a span
opened there (``route_task``, ``apply_fault_event``) is a root: its
children nest under it, but it does not nest under the asyncio span that
submitted it.  The layer fold therefore pairs such spans by aggregate
(per-call means), never by parent link.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, Optional[int], Optional[int], str, int, int]

_OPEN: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_open_span", default=None)


class Tracer:
    """Records spans around wrapped callables while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def reset(self) -> None:
        self.spans = []

    def _open(self, req_id: Optional[int]):
        parent = _OPEN.get()
        span_id = next(self._ids)
        if req_id is None and parent is not None:
            req_id = parent[1]
        token = _OPEN.set((span_id, req_id))
        return span_id, (parent[0] if parent else None), req_id, token

    def wrap(self, name: str, fn: Callable,
             req_id_of: Optional[Callable[..., Optional[int]]] = None
             ) -> Callable:
        """Return ``fn`` wrapped so each call records one ``name`` span.

        ``req_id_of(*args, **kwargs)`` extracts a request id from the
        call's arguments (for the per-frame server span).
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                if not tracer.active:
                    return await fn(*args, **kwargs)
                req = req_id_of(*args, **kwargs) if req_id_of else None
                span_id, parent, req, token = tracer._open(req)
                start = time.perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    _OPEN.reset(token)
                    tracer.spans.append((span_id, parent, req, name,
                                         start, end))
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                req = req_id_of(*args, **kwargs) if req_id_of else None
                span_id, parent, req, token = tracer._open(req)
                start = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    _OPEN.reset(token)
                    tracer.spans.append((span_id, parent, req, name,
                                         start, end))
        return traced


def patch(tracer: Tracer, targets: Iterable[Tuple[object, str, str]]
          ) -> None:
    """Wrap ``getattr(owner, attr)`` as span ``name`` for each target.

    Each target is ``(owner, attr, name)``, where ``owner`` is the module
    or class the *caller* looks the name up in.
    """
    for owner, attr, name in targets:
        setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))


@dataclass
class SpanStats:
    """Per-name aggregate: call count, total and self time (ns)."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    @property
    def mean_us(self) -> Optional[float]:
        return self.total_ns / self.calls / 1e3 if self.calls else None

    @property
    def self_mean_us(self) -> Optional[float]:
        return self.self_ns / self.calls / 1e3 if self.calls else None


def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """span_id -> self time: duration minus the union of its children."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _sid, parent, _req, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, []), start, end)
            for sid, _parent, _req, _name, start, end in spans}


def fold(spans: Sequence[Span]) -> Dict[str, SpanStats]:
    """Aggregate spans by name into :class:`SpanStats`."""
    own = self_times(spans)
    out: Dict[str, SpanStats] = defaultdict(SpanStats)
    for sid, _parent, _req, name, start, end in spans:
        stats = out[name]
        stats.calls += 1
        stats.total_ns += end - start
        stats.self_ns += own[sid]
    return dict(out)


def durations_us(spans: Sequence[Span], name: str) -> List[float]:
    """Every ``name`` span's duration, in microseconds."""
    return [(end - start) / 1e3 for _s, _p, _r, n, start, end in spans
            if n == name]
