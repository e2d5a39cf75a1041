"""One module per workload.

Each module keeps its own sizes at the top, imports only the parts of
``repro`` it needs (so ``setup_s`` and ``harness.import_s`` are the
workload's own), and exposes:

``build(seed, scratch) -> inputs``
    Everything that can be prepared before the clock starts.
``run(inputs, tracer) -> finish``
    One repetition.  Only public ``repro`` calls, each through
    ``tracer.call``.  ``finish()`` runs after the clock stops and
    returns a :class:`Finished`; it raises ``AssertionError`` when the
    repo's own shape check fails.
``reference(inputs, tracer) -> finish`` (optional)
    A slower way to the same document; the harness runs it once and
    every repetition's digest must equal its digest.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class Finished:
    """What one repetition produced."""

    #: The simulated results, JSON-ready; its canonical-JSON sha256 is
    #: the repetition's digest.
    document: dict[str, object]
    #: Workload-specific per-layer metrics, by full metric name.
    layer: dict[str, float] = dataclasses.field(default_factory=dict)
    #: ``LoadResult``s whose runtimes lived in another process, so that
    #: their counters can be read from the results instead.
    remote_results: tuple = ()
