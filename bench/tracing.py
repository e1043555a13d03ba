"""Spans and counts recorded around the calls into each posetune layer.

The tracer replaces module attributes that the program looks its callees up
by (``workflow.estimate_all``, ``pipeline.ransac_pose``, ...) with wrappers
that record a span: name, start, end, parent and whether the call returned.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Patches:
    """Module or class attributes replaced for one run, restored by ``close``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def close(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Nested spans plus named counters, kept in memory."""

    def __init__(self):
        # [name, start, end, parent index or -1, returned normally]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = True
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
            record[4] = True
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) leave no spans."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def wrap(self, patches: Patches, owner, attr: str, name: str, on_result=None):
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``on_result(counts, args, kwargs, result)`` runs after a call that
        returned, outside the span.
        """
        def make(original):
            def traced(*args, **kwargs):
                if not self.active:
                    return original(*args, **kwargs)
                with self.span(name):
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(self.counts, args, kwargs, result)
                return result
            return traced
        patches.replace(owner, attr, make)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, calls that returned, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; one thread runs them all, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _, ok) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "returned": 0,
                                          "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["returned"] += int(ok)
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def write(self, path: Path, extra: dict):
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **extra,
            "summary": self.summary(),
            "counts": dict(self.counts),
            "spans": [{"name": n, "start": s - origin, "end": e - origin,
                       "parent": p, "returned": ok}
                      for n, s, e, p, ok in self.spans],
        }, indent=1, sort_keys=True))
