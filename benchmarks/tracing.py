"""In-memory spans and counters recorded around calls into squadfountain.

A span is ``[name, start, end, parent, op]``: times in seconds since the
tracer was created, ``parent`` the index of the enclosing span (or None)
and ``op`` the index of the timed op it belongs to (None during set-up).
Span names are ``<layer>.<call>``; an exception escaping a span adds one to
the counter ``<layer>.errors`` and is re-raised.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [name, time.perf_counter() - self.t0, None,
               self._stack[-1] if self._stack else None, self.op]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        except Exception:
            self.counts[name.split(".", 1)[0] + ".errors"] += 1
            raise
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter() - self.t0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def busy(self, setup: bool = False) -> dict[str, float]:
        """Total span seconds by name, for op spans or for set-up spans."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, op in self.spans:
            if (op is None) == setup:
                out[name] += end - start
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fp:
            json.dump({**meta, "span_fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fp)
