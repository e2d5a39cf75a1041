"""Lightweight instrumentation for simulations.

A :class:`Tracer` collects named counters.  Every layer of the stack —
transports, the Nexus poll manager, the MPI layer, the climate model —
reports into the simulator-wide tracer, and the enquiry API
(:mod:`repro.core.enquiry`) and benchmark harness read from it.
"""

from __future__ import annotations

import collections


class Tracer:
    """Named counters."""

    def __init__(self) -> None:
        self.counters: collections.Counter[str] = collections.Counter()

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``."""
        self.counters[name] += amount

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Tracer counters={len(self.counters)}>"
