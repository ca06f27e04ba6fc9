"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter`` seconds), the
span that was open when it started, and ``n``, the units of work it covered
(rows, grids, calls or iterations).  Spans are only kept in a list; the runner
writes them out once the run is over.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, n=1):
        """Time the enclosed block; the yielded record's ``n`` may be set inside."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "n": n,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def call(self, name, fn, *args, n=1, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        with self.span(name, n):
            return fn(*args, **kwargs)


def duration(rec):
    return rec["end"] - rec["start"]


def self_times(spans):
    """Span id -> its duration minus the time its direct children cover.

    The benchmark is single-threaded, so children never overlap and the
    covered part is the sum of their durations.
    """
    own = {rec["id"]: duration(rec) for rec in spans}
    for rec in spans:
        if rec["parent"] is not None:
            own[rec["parent"]] -= duration(rec)
    return own


def totals(spans, name):
    """(total seconds, total work units) over the spans called ``name``."""
    picked = [rec for rec in spans if rec["name"] == name]
    return sum(duration(r) for r in picked), sum(r["n"] for r in picked)
