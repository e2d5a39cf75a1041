"""The Nexus runtime: ties contexts, transports, and the simulator together.

One :class:`Nexus` instance corresponds to one built-and-configured Nexus
library in the paper: it owns the enabled communication-module set (the
default built-in set, plus resource-database / command-line / programmatic
additions — see :mod:`repro.transports.registry`), the Nexus-layer cost
constants, and the registry of live contexts.
"""

from __future__ import annotations

import typing as _t

from .. import obs as _obs
from ..obs import Observability
from ..simnet.engine import Simulator
from ..simnet.network import Network
from ..simnet.random import RandomStreams
from ..transports.costmodels import (
    DEFAULT_RUNTIME_COSTS,
    RuntimeCosts,
    TransportCosts,
)
from ..transports.registry import (
    DEFAULT_TRANSPORT_SET,
    TransportRegistry,
    parse_module_spec,
)
from ..transports.base import TransportServices
from ..simnet.events import Event
from .context import Context
from .descriptor_table import CommDescriptorTable
from .errors import NexusError
from .health import HealthConfig
from .retry import RetryPolicy
from .selection import SelectionPolicy

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..simnet.node import Host


class Nexus:
    """A multimethod-communication runtime instance.

    Parameters
    ----------
    sim, network:
        The simulation substrate; fresh ones are created if omitted.
    transports:
        Names of communication modules to enable.  Accepts a sequence or
        a resource-database-style spec string (``"mpl,tcp,udp"``).
        Default: :data:`DEFAULT_TRANSPORT_SET`.
    costs:
        Per-transport :class:`TransportCosts` overrides.
    runtime_costs:
        Nexus-layer cost constants (:class:`RuntimeCosts`).
    seed:
        Root seed for all stochastic elements (UDP loss etc.).
    observe:
        Enable span-based RSR lifecycle tracing (:mod:`repro.obs`).
        ``None`` (default) defers to :func:`repro.obs.default_observe`,
        which scopes like :func:`repro.obs.collecting` flip on.
    max_spans:
        Span-log capacity when observing (excess spans are counted as
        dropped, never silently ignored).
    retry_policy:
        Per-attempt retry/backoff configuration for the RSR send path
        (:class:`~repro.core.retry.RetryPolicy`).  The default retries
        synchronous delivery failures with exponential backoff.
    health:
        Method-health tracking knobs
        (:class:`~repro.core.health.HealthConfig`): consecutive-failure
        threshold and probe cool-off.

    ``Nexus`` is also a context manager: ``with Nexus(...) as nexus:``
    simply scopes the runtime (construction does all setup; nothing to
    tear down in simulation).
    """

    def __init__(self, sim: Simulator | None = None,
                 network: Network | None = None, *,
                 transports: _t.Sequence[str] | str | None = None,
                 costs: _t.Mapping[str, TransportCosts] | None = None,
                 runtime_costs: RuntimeCosts | None = None,
                 seed: int = 0,
                 observe: bool | None = None,
                 max_spans: int = 1_000_000,
                 retry_policy: RetryPolicy | None = None,
                 health: HealthConfig | None = None):
        self.sim = sim or Simulator()
        self.network = network or Network(self.sim)
        self.obs = Observability(
            self.sim,
            enabled=_obs.default_observe() if observe is None else observe,
            max_spans=max_spans,
        )
        _obs.note_runtime(self.obs, self)
        metrics = self.obs.metrics
        #: Runtime counters bumped once per RSR / per converted message,
        #: resolved once here (see :mod:`repro.obs.metrics`).
        self.rsrs_sent = metrics.counter("nexus.rsrs_sent")
        self.xdr_conversions = metrics.counter("nexus.xdr_conversions")
        self.streams = RandomStreams(seed)
        self.runtime_costs = runtime_costs or DEFAULT_RUNTIME_COSTS
        self.retry_policy = retry_policy or RetryPolicy()
        self.health_config = health or HealthConfig()

        services = TransportServices(self.sim, self.network, metrics,
                                     self.streams)
        services.runtime_costs = self.runtime_costs
        services.resolve_context = self._resolve_context
        self.transports = TransportRegistry(services, costs)

        if transports is None:
            names: _t.Sequence[str] = DEFAULT_TRANSPORT_SET
        elif isinstance(transports, str):
            names = parse_module_spec(transports)
        else:
            names = transports
        self.transports.enable_all(names)

        self.contexts: dict[int, Context] = {}

    # -- contexts ------------------------------------------------------------

    def context(self, host: "Host", name: str | None = None,
                methods: _t.Sequence[str] | None = None,
                policy: SelectionPolicy | None = None) -> Context:
        """Create a context on ``host``.

        ``methods`` restricts the communication methods this context
        publishes (default: every enabled module that can reach it).
        """
        context = Context(self, host,
                          name or f"ctx{len(self.contexts)}@{host.name}",
                          methods=methods, policy=policy)
        self.contexts[context.id] = context
        return context

    def _resolve_context(self, context_id: int) -> Context:
        context = self.contexts.get(context_id)
        if context is None:
            raise NexusError(f"unknown context id {context_id}")
        return context

    def context_host(self, context_id: int) -> "Host":
        return self._resolve_context(context_id).host

    def default_table_for(self, context_id: int) -> CommDescriptorTable:
        """The default descriptor table for lightweight startpoints
        referencing ``context_id`` (the paper's small-startpoint case)."""
        return self._resolve_context(context_id).export_table()

    # -- execution ------------------------------------------------------------

    def spawn(self, gen: _t.Generator, name: str | None = None):
        """Start a simulated process (thin wrapper over the simulator)."""
        return self.sim.spawn(gen, name=name)

    def run(self, until: object = None, **kwargs: object):
        """Run the simulation (thin wrapper over :meth:`Simulator.run`)."""
        return self.sim.run(until, **kwargs)  # type: ignore[arg-type]

    def run_until(self, *conditions: object):
        """Run the simulation until every condition holds.

        Replaces the ``spawn``/``sim.all_of``/``run(until=...)``
        boilerplate.  Each condition may be:

        * a **generator** — spawned as a process and waited on;
        * an **event or process** — waited on;
        * a **zero-argument callable** — a predicate the simulation is
          stepped until it returns true (raising :class:`NexusError` if
          the event queue runs dry first).

        With no conditions the simulation runs to completion.  With
        exactly one event/generator condition its result value is
        returned; otherwise a list of event results (predicates
        contribute ``None``).
        """
        events: list[Event] = []
        predicates: list[_t.Callable[[], bool]] = []
        slots: list[tuple[str, int]] = []
        for condition in conditions:
            if isinstance(condition, Event):
                slots.append(("event", len(events)))
                events.append(condition)
            elif hasattr(condition, "send") and hasattr(condition, "throw"):
                slots.append(("event", len(events)))
                events.append(self.spawn(_t.cast(_t.Generator, condition)))
            elif callable(condition):
                slots.append(("predicate", len(predicates)))
                predicates.append(
                    _t.cast(_t.Callable[[], bool], condition))
            else:
                raise NexusError(
                    f"run_until() cannot wait on {condition!r}; pass a "
                    "generator, an event/process, or a predicate callable"
                )
        if not conditions:
            return self.run()
        if events:
            gate = events[0] if len(events) == 1 else self.sim.all_of(events)
            self.run(until=gate)
        while predicates and not all(p() for p in predicates):
            if self.sim.peek() == float("inf"):
                raise NexusError(
                    "run_until(): event queue ran dry before every "
                    "predicate became true"
                )
            self.sim.step()
        results = [events[index].value if kind == "event" else None
                   for kind, index in slots]
        if len(conditions) == 1:
            return results[0]
        return results

    def __enter__(self) -> "Nexus":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def tracer(self) -> "MetricsRegistry":
        """``obs.metrics`` under its old name, for its one caller,
        ``perfbench/counters.py``; goes with that caller's next change."""
        return self.obs.metrics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Nexus transports={self.transports.names()} "
                f"contexts={len(self.contexts)} now={self.now!r}>")
