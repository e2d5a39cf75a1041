"""In-memory spans around the public calls a workload makes.

One span per call into a layer: name ``<layer>.<function>``, start,
end, the span that was open when it started, the workload and the
repetition.  Spans are kept in memory and written as JSONL when the
workload ends.  Disabled (every untraced repetition), ``call`` is a
plain call.
"""

from __future__ import annotations

import json
import time
import typing as _t


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.rep = 0
        self.spans: list[dict[str, object]] = []
        self._open: list[int] = []

    def call(self, name: str, fn: _t.Callable[..., _t.Any],
             *args: _t.Any, **kwargs: _t.Any) -> _t.Any:
        """``fn(*args, **kwargs)``, inside a span called ``name`` if tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "workload": self.workload, "rep": self.rep,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, *names: str) -> float:
        """Total duration of the current repetition's closed spans with
        one of these names (0 while tracing is off)."""
        return sum(span["end"] - span["start"] for span in self.spans
                   if span["name"] in names and span["rep"] == self.rep
                   and span["end"] is not None)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
