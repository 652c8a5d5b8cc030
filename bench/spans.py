"""Spans recorded by the benchmark around its calls into each library layer.

A span has a name, a start, an end and the span that caused it; every span
of one op shares that op's root span. Spans stay in memory until the run
ends, are written out as JSON, and are reduced to per-layer self time: a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent]["root"] if parent is not None else sid
        record = {"id": sid, "name": name, "parent": parent, "root": root}
        self.spans.append(record)
        self._stack.append(sid)
        record["start"] = perf_counter()
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def self_times(self, roots) -> dict[str, float]:
        """Summed self time per span name, over spans whose root is named in `roots`.

        Spans never overlap their siblings.
        """
        kept = [s for s in self.spans if self.spans[s["root"]]["name"] in roots]
        covered = defaultdict(float)
        for s in kept:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in kept:
            out[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class NullTracer:
    """Stand-in for untraced runs: records nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null
