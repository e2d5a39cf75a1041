"""Scheduled fault injection: sim-time outage windows over a Network.

A :class:`FaultPlan` is a declarative list of failures to inject while a
simulation runs — the chaos counterpart of the static topology built at
setup time.  Windows are described in absolute sim-time and installed as
ordinary :class:`~repro.simnet.process.Process` drivers, so injection is
as deterministic as everything else in the engine::

    plan = (FaultPlan(network)
            .outage(machine_a, machine_b, transport="tcp",
                    start=0.5, duration=2.0)
            .flaky(host_x, host_y, start=1.0, duration=1.0,
                   drop_probability=0.2, seed=7))
    plan.install(sim)
    sim.run()

Every transition the plan performs is recorded in :attr:`FaultPlan.log`
as ``(sim_time, action, detail)`` tuples for tests and reports.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from .errors import SimnetError
from .network import FaultScope, Network, _scope_name

if _t.TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator
    from .process import Process


@dataclasses.dataclass(frozen=True)
class _Outage:
    a: FaultScope
    b: FaultScope
    transport: str | None
    start: float
    duration: float | None


@dataclasses.dataclass(frozen=True)
class _FlakyWindow:
    a: FaultScope
    b: FaultScope
    transport: str | None
    start: float
    duration: float | None
    drop_probability: float
    seed: int


class FaultPlan:
    """A deterministic schedule of hard outages and flaky windows."""

    def __init__(self, network: Network):
        self.network = network
        self._outages: list[_Outage] = []
        self._flaky: list[_FlakyWindow] = []
        #: ``(sim_time, action, detail)`` transitions, in firing order.
        self.log: list[tuple[float, str, str]] = []

    # -- declaration -------------------------------------------------------

    def outage(self, a: FaultScope, b: FaultScope, *,
               start: float, duration: float | None = None,
               transport: str | None = None) -> "FaultPlan":
        """Sever ``a``↔``b`` (optionally one method) at ``start`` and
        restore after ``duration`` sim-seconds (``None``: never)."""
        if start < 0 or (duration is not None and duration <= 0):
            raise SimnetError(
                f"bad outage window start={start!r} duration={duration!r}")
        self._outages.append(_Outage(a, b, transport, start, duration))
        return self

    def flaky(self, a: FaultScope, b: FaultScope, *,
              start: float, drop_probability: float, seed: int = 0,
              duration: float | None = None,
              transport: str | None = None) -> "FaultPlan":
        """Install a seeded per-message drop rule at ``start`` and lift
        it after ``duration`` sim-seconds (``None``: never).

        The rule's drop RNG is derived from ``seed`` *and* the rule's
        identity via :func:`repro.simnet.random.derive`, so several
        windows sharing one seed still draw independent sequences."""
        if start < 0 or (duration is not None and duration <= 0):
            raise SimnetError(
                f"bad flaky window start={start!r} duration={duration!r}")
        self._flaky.append(
            _FlakyWindow(a, b, transport, start, duration,
                         drop_probability, seed))
        return self

    # -- installation ------------------------------------------------------

    def install(self, sim: "Simulator") -> list["Process"]:
        """Spawn one driver process per declared window; returns them so
        callers may wait on plan completion if they want to."""
        drivers = [sim.process(self._drive_outage(sim, outage))
                   for outage in self._outages]
        drivers += [sim.process(self._drive_flaky(sim, window))
                    for window in self._flaky]
        return drivers

    def _pair(self, a: FaultScope, b: FaultScope,
              transport: str | None) -> str:
        method = transport or "*"
        return f"{_scope_name(a)}<->{_scope_name(b)}/{method}"

    def _drive_outage(self, sim: "Simulator", outage: _Outage):
        if outage.start > sim.now:
            yield outage.start - sim.now
        self.network.fail(outage.a, outage.b, transport=outage.transport)
        self.log.append((sim.now, "fail",
                         self._pair(outage.a, outage.b, outage.transport)))
        if outage.duration is None:
            return
        yield outage.duration
        self.network.restore(outage.a, outage.b,
                             transport=outage.transport)
        self.log.append((sim.now, "restore",
                         self._pair(outage.a, outage.b, outage.transport)))

    def _drive_flaky(self, sim: "Simulator", window: _FlakyWindow):
        if window.start > sim.now:
            yield window.start - sim.now
        self.network.set_flaky(
            window.a, window.b, transport=window.transport,
            drop_probability=window.drop_probability, seed=window.seed)
        self.log.append((sim.now, "flaky",
                         self._pair(window.a, window.b, window.transport)))
        if window.duration is None:
            return
        yield window.duration
        self.network.clear_flaky(window.a, window.b,
                                 transport=window.transport)
        self.log.append((sim.now, "clear_flaky",
                         self._pair(window.a, window.b, window.transport)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FaultPlan outages={len(self._outages)} "
                f"flaky={len(self._flaky)} fired={len(self.log)}>")
