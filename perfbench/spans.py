"""In-memory span recorder for the benchmark's traced run.

A span is one timed call into a layer: ``name``, ``start_ns``, ``end_ns``
and the ``parent`` span that was open when it started.  Spans are kept in
a list and written out as JSON when the traced run ends; nothing is
written while the run is timed.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (the union of the children, so two
overlapping children are not subtracted twice).

Only the standard library is imported here, so loading this module before
``import repro`` does not disturb the set-up timing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Any, Iterator

__all__ = ["Tracer", "covered_ns", "self_times", "layer_seconds"]


class Tracer:
    """Records nested spans around calls made from the benchmark's files."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """Time the enclosed block as one span named ``name``."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end_ns"] = time.perf_counter_ns()

    @contextlib.contextmanager
    def probe(self, owner: Any, attr: str, name: str) -> Iterator[None]:
        """Record a span for every call to ``owner.attr`` inside the block.

        Used for layer calls the benchmark cannot make itself because
        another layer makes them (``Metro.timeline`` inside the metro
        device builder).  ``owner`` must define ``attr`` itself; the
        original is restored on exit.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write every span as JSON (times in ns from the first span)."""
        origin = self.spans[0]["start_ns"] if self.spans else 0
        rows = [
            dict(s, start_ns=s["start_ns"] - origin, end_ns=s["end_ns"] - origin)
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open ``(start, end)`` intervals."""
    total = 0
    reach: int | None = None
    for start, end in sorted(intervals):
        if reach is not None and start < reach:
            start = reach
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[int, int]:
    """Span id -> self time in ns (duration minus covered child time)."""
    children: dict[int, list[dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        clipped = [
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(span["id"], ())
        ]
        result[span["id"]] = (end - start) - covered_ns(clipped)
    return result


def layer_seconds(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Span name -> summed self time, in seconds."""
    own = self_times(spans)
    totals: dict[str, int] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0) + own[span["id"]]
    return {name: ns / 1e9 for name, ns in totals.items()}
