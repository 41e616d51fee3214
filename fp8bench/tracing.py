"""In-memory span recorder, written out as Chrome trace-event JSON.

Spans are recorded by the benchmark around its own calls into each layer of
the program (no hooks inside the program).  A span carries a name, start and
end (``time.perf_counter`` seconds), the span that caused it and an id
shared by every span of one request or probe stream.  The file opens in
Perfetto or ``chrome://tracing``.

:data:`OFF` is the untraced recorder: its ``span`` is a reused no-op context,
so untraced runs pay one attribute lookup and call per boundary.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "tid")

    def __init__(self, sid, name, start, end, parent, rid, tid) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.tid = tid


class Tracer:
    """Thread-safe span recorder; spans stay in memory until :meth:`write`."""

    enabled = True

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None, parent: Optional[int] = None):
        """Time the enclosed block; nested spans on this thread become children.

        ``parent`` names the causing span when it lives on another thread.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self._add(Span(sid, name, start, end, parent, rid, threading.get_ident()))

    def record(
        self, name: str, start: float, end: float, rid: Optional[str] = None, parent=None
    ) -> int:
        """Add a span timed elsewhere, e.g. a request from submit to its future callback."""
        sid = next(self._ids)
        self._add(Span(sid, name, start, end, parent, rid, threading.get_ident()))
        return sid

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def durations(self) -> Dict[str, List[float]]:
        """Span durations in seconds, grouped by span name."""
        out: Dict[str, List[float]] = {}
        with self._lock:
            for span in self._spans:
                out.setdefault(span.name, []).append(span.end - span.start)
        return out

    def __len__(self) -> int:
        return len(self._spans)

    def write(self, path: str) -> None:
        """Dump every span as trace-event ``X`` (complete) events."""
        with self._lock:
            spans = list(self._spans)
        origin = min((s.start for s in spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": os.getpid(),
                "tid": s.tid,
                "args": {"span": s.sid, "parent": s.parent, "id": s.rid},
            }
            for s in spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class _NullTracer:
    enabled = False

    class _Null:
        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return False

    _NULL = _Null()

    def span(self, name: str, rid: Optional[str] = None, parent: Optional[int] = None):
        return self._NULL

    def record(self, name, start, end, rid=None, parent=None) -> None:
        return None

    def current(self) -> None:
        return None


OFF = _NullTracer()
