"""In-memory spans and counters for the traced benchmark run.

A span records one call the benchmark makes into the package: its name
(``<module>.<function>``), start and end on the ``perf_counter`` clock,
the index of its parent item span, and its kind:

* ``item``  -- one unit of user-visible work;
* ``call``  -- a public call made inside an item;
* ``probe`` -- a call made after the item, outside its span, on the
  item's own inputs, to time a layer that a public call composes
  internally (``vn_report`` has no spans of its own yet);
* ``setup`` -- input generation and validation.

Spans stay in memory until the run ends and are then written out as
JSON.  ``NULL_TRACER`` has the same interface and records nothing, so
the untraced and traced runs execute the same item code.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    kind: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}

    def begin(self, name: str, parent: int | None = None, kind: str = "call") -> int:
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, kind))
        return len(self.spans) - 1

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()

    def call(self, name, parent, fn, *args, kind: str = "call", **kwargs):
        sid = self.begin(name, parent, kind)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def probe(self, name, parent, fn, *args, **kwargs):
        return self.call(name, parent, fn, *args, kind="probe", **kwargs)

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def mark(self, name: str, key) -> None:
        """Note ``key`` under ``name``, to count distinct keys later."""
        self.distinct.setdefault(name, set()).add(key)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": dict(self.counts)}, fh)


class NullTracer:
    """Tracer interface that calls straight through and records nothing."""

    @staticmethod
    def call(name, parent, fn, *args, kind: str = "call", **kwargs):
        return fn(*args, **kwargs)

    probe = call

    @staticmethod
    def add(name: str, value: float = 1) -> None:
        pass

    @staticmethod
    def mark(name: str, key) -> None:
        pass


NULL_TRACER = NullTracer()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """``<name>.calls`` and ``<name>.busy_s`` per span name, plus ``item.self_s``.

    Call and probe spans both count towards their layer; a counter
    named ``<name>.calls`` overrides the span count where one span
    covers many calls.  ``item.self_s`` is item time not covered by the
    item's call spans, which is the benchmark's own glue.
    """
    out: Counter = Counter()
    child_s: Counter = Counter()
    for s in tracer.spans:
        dur = s.end - s.start
        if s.kind == "item":
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.busy_s"] += dur
        if s.kind == "call" and s.parent is not None:
            child_s[s.parent] += dur
    items = [(i, s) for i, s in enumerate(tracer.spans) if s.kind == "item"]
    out["item.self_s"] = sum(s.end - s.start - child_s[i] for i, s in items)
    for name, value in tracer.counts.items():
        out[name] = value
    return dict(out)


def item_seconds(tracer: Tracer) -> float:
    return sum(s.end - s.start for s in tracer.spans if s.kind == "item")
