"""The parent's ``PollManager``, kept verbatim as a differential oracle.

This is ``src/repro/core/polling.py`` as it stood at ``2c0c83b``, before
the per-method lane records and the one-frame wait loop: five dicts keyed
by method name, ``poll`` / ``_idle_fast_forward`` as sub-generators of
``wait``.  Nothing below the imports has been edited except the class
names (``Reference*``) and two sanctioned edits.  First, the
``poll_batch`` observation goes straight to the metrics registry now that
``Observability`` has no ``note_poll_batch`` (same histogram, same
value).  Second, the simulator no longer has a condition algebra: the
idle wait's first-of wake is the local :func:`_first_of` (same
semantics, same events), and ``busy_work`` lost its host-CPU branch
with the CPU model it charged.
:func:`reference_attach` is that commit's
``AdaptiveSkipPoll.attach`` body — the ``manager.poll`` wrapper the
observer slot replaced.

``test_poll_reference.py`` swaps it into every context of a generated
program (:func:`install`) and requires the production manager to agree
with it **bit for bit**: same events, same float arithmetic, fewer host
operations.  Test-only; never import it from ``src``.

**Retires** when ROADMAP item 1's stepwise twin lands: that twin is the
model's *definition* (every cycle really polls), this file only pins one
implementation of the amortised fast-forward to another.  The program
generator in ``test_poll_reference.py`` is written to outlive it.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.errors import PollingError
from repro.obs.metrics import COUNT_BUCKETS
from repro.simnet.events import PENDING, Event
from repro.transports.base import WireMessage

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.adaptive import AdaptiveSkipPoll
    from repro.core.context import Context

#: Numerical slack for time comparisons.
_EPS = 1e-12


def _first_of(sim, events: list[Event]) -> Event:
    """An event that fires when the first of ``events`` is processed.

    It has the semantics of the simulator's former ``sim.any_of``: the
    first processed child triggers it (a failed child is defused and
    fails it with its exception), and later children do nothing.  Its
    value is ``None``, which the idle wait never reads.
    """
    first = Event(sim)

    def on_child(child: Event) -> None:
        if first._value is not PENDING:
            return
        if child._ok:
            first.succeed()
        else:
            child._defused = True
            first.fail(child._value)

    for event in events:
        if event.callbacks is None:
            on_child(event)
        else:
            event.callbacks.append(on_child)
    return first


@dataclasses.dataclass
class ReferencePollStats:
    """Observable polling behaviour (surfaced by the enquiry API)."""

    cycles: int = 0
    fires: dict[str, int] = dataclasses.field(default_factory=dict)
    poll_time: dict[str, float] = dataclasses.field(default_factory=dict)
    messages: dict[str, int] = dataclasses.field(default_factory=dict)
    idle_fast_forwards: int = 0
    bulk_ops: int = 0

    def note_fire(self, method: str, cost: float, count: int = 1) -> None:
        self.fires[method] = self.fires.get(method, 0) + count
        self.poll_time[method] = self.poll_time.get(method, 0.0) + cost

    def note_messages(self, method: str, count: int) -> None:
        if count:
            self.messages[method] = self.messages.get(method, 0) + count

    def hit_rate(self, method: str) -> float | None:
        """Fraction of this method's polls that found a message.

        ``None`` when the method never fired — "no data" is different
        from "fired and found nothing" (0.0), and conflating them makes
        skip_poll tuning decisions on phantom zeros.
        """
        fires = self.fires.get(method, 0)
        if fires == 0:
            return None
        return self.messages.get(method, 0) / fires


class _PollPlan:
    """Precomputed poll-cycle plan (see :meth:`PollManager._ensure_plan`).

    ``entries`` holds one ``(method, transport, poll_cost, steals, k)``
    tuple per active method, in poll order; ``cycle`` and
    ``foreign_rate`` are the derived aggregates the wait machinery needs
    every iteration.  Transport costs are frozen, so the plan only goes
    stale when the manager's own configuration (methods, skips, mask,
    disabled/blocking sets) or the transport registry changes.
    """

    __slots__ = ("entries", "cycle", "foreign_rate")

    def __init__(self, entries: tuple, cycle: float, foreign_rate: float):
        self.entries = entries
        self.cycle = cycle
        self.foreign_rate = foreign_rate


class ReferencePollManager:
    """Unified multimethod polling for one context."""

    def __init__(self, context: "Context", methods: _t.Sequence[str]):
        self.context = context
        #: Poll order (descriptor-table order, i.e. fastest first).
        self.methods: list[str] = list(methods)
        self.skip: dict[str, int] = {}
        #: Per-method skip counters, seeded to 0 for every method here and
        #: in :meth:`add_method` — hot paths index this dict directly.
        self._counters: dict[str, int] = {m: 0 for m in self.methods}
        self._mask: frozenset[str] | None = None
        self._disabled: set[str] = set()
        self._blocking: set[str] = set()
        self.stats = ReferencePollStats()
        #: Cached :class:`_PollPlan`; ``None`` means rebuild on next use.
        self._plan: _PollPlan | None = None
        self._plan_registry_size = -1

    # -- configuration ------------------------------------------------------

    def add_method(self, method: str, position: int | None = None) -> None:
        """Add a method to the poll cycle (idempotent).

        Needed for methods whose descriptors are attached explicitly
        rather than exported by default — e.g. a multicast group joined
        after context creation.  Late-attached methods start from the
        same deterministic defaults as construction-time ones: a
        ``skip_poll`` of 1 (polled every cycle until tuned) and a zeroed
        skip counter, so the phase of their skip decimation does not
        depend on when the method was attached.
        """
        if method in self.methods:
            return
        if method not in self.context.nexus.transports:
            raise PollingError(f"transport {method!r} is not enabled")
        if position is None:
            self.methods.append(method)
        else:
            self.methods.insert(position, method)
        self.skip.setdefault(method, 1)
        self._counters.setdefault(method, 0)
        self._plan = None

    def set_skip(self, method: str, value: int) -> None:
        """Set the skip_poll parameter for ``method`` (1 = poll always)."""
        if method not in self.methods:
            raise PollingError(f"context does not poll method {method!r}")
        if value < 1:
            raise PollingError(f"skip_poll must be >= 1, got {value!r}")
        self.skip[method] = int(value)
        self._plan = None

    def get_skip(self, method: str) -> int:
        return self.skip.get(method, 1)

    def enable(self, method: str) -> None:
        self._disabled.discard(method)
        self._plan = None

    def disable(self, method: str) -> None:
        """Stop polling ``method`` entirely (e.g. forwarding targets)."""
        if method not in self.methods:
            raise PollingError(f"context does not poll method {method!r}")
        self._disabled.add(method)
        self._plan = None

    def only(self, *methods: str) -> "_PollMask":
        """Context manager restricting polling to ``methods``.

        This is Table 1's "Selective TCP": TCP polling enabled only in
        the program section where partitions communicate::

            with ctx.poll_manager.only("local", "mpl"):
                ...compute + intra-partition communication...
        """
        for method in methods:
            if method not in self.methods:
                raise PollingError(f"context does not poll method {method!r}")
        return _PollMask(self, frozenset(methods))

    def set_blocking(self, method: str, enabled: bool = True) -> None:
        """Move ``method`` to blocking-handler detection (Section 3.3).

        Requires the transport to support blocking waits.  While enabled,
        the method is removed from the poll cycle and a dedicated watcher
        process dispatches its messages as they arrive.
        """
        transport = self.context.nexus.transports.get(method)
        if enabled:
            if not transport.costs.supports_blocking:
                raise PollingError(
                    f"transport {method!r} does not support blocking waits"
                )
            if method not in self._blocking:
                self._blocking.add(method)
                self.context.nexus.sim.spawn(
                    self._blocking_watcher(method),
                    name=f"blockwatch:{method}@ctx{self.context.id}",
                )
        else:
            self._blocking.discard(method)
        self._plan = None

    def _blocking_watcher(self, method: str):
        context = self.context
        inbox = context.inbox(method)
        wakeup_cost = context.nexus.runtime_costs.dispatch_cost
        while method in self._blocking:
            message = yield inbox.get()
            # Thread wakeup / context switch, then normal dispatch.
            yield from context.charge(wakeup_cost)
            self.stats.note_messages(method, 1)
            yield from context.dispatch(_t.cast(WireMessage, message))

    # -- the poll cycle ----------------------------------------------------------

    def _ensure_plan(self) -> _PollPlan:
        """Return the current poll plan, rebuilding it if stale.

        The plan is invalidated explicitly by every configuration mutator
        (``add_method``/``set_skip``/``enable``/``disable``/
        ``set_blocking``/mask enter/exit) and implicitly when the
        transport registry grows (transports are never removed, so a size
        comparison suffices).
        """
        registry = self.context.nexus.transports
        size = len(registry._transports)
        plan = self._plan
        if plan is not None and self._plan_registry_size == size:
            return plan
        entries: list[tuple] = []
        for method in self.methods:
            if method in self._disabled or method in self._blocking:
                continue
            if self._mask is not None and method not in self._mask:
                continue
            if method not in registry:
                continue
            transport = registry.get(method)
            entries.append((method, transport, transport.costs.poll_cost,
                            transport.costs.steals_device_time,
                            self.skip.get(method, 1)))
        # Aggregate in the same order the uncached code summed, so float
        # results stay bit-identical.
        cycle = self.context.nexus.runtime_costs.poll_loop_cost
        for _method, _transport, cost, _steals, k in entries:
            cycle += cost / k
        foreign_rate = 0.0
        for _method, _transport, cost, steals, k in entries:
            if steals:
                foreign_rate += (cost / k) / cycle
        plan = _PollPlan(tuple(entries), cycle, foreign_rate)
        self._plan = plan
        self._plan_registry_size = size
        return plan

    def active_methods(self) -> list[str]:
        """Methods the cycle will consider, in poll order."""
        return [entry[0] for entry in self._ensure_plan().entries]

    def poll(self):
        """Generator: one run of the unified polling function.

        Charges the poll costs of every method due this cycle, updates
        the foreign-poll accumulator, collects ready messages, and
        dispatches them.  Returns the number of messages dispatched.
        """
        context = self.context
        nexus = context.nexus
        stats = self.stats
        stats.cycles += 1
        counters = self._counters

        # Inlined _ensure_plan() fast path: this generator runs once per
        # wait-loop iteration, so even the call frame shows up.
        plan = self._plan
        if plan is None or self._plan_registry_size != len(
                nexus.transports._transports):
            plan = self._ensure_plan()

        fires = stats.fires
        poll_time = stats.poll_time
        firing: list[tuple] = []
        total_cost = 0.0
        foreign_cost = 0.0
        for entry in plan.entries:
            method = entry[0]
            # Plan entries come from ``self.methods``, and ``add_method``
            # seeds ``_counters`` for each — plain subscript is safe.
            count = counters[method] + 1
            counters[method] = count
            if count % entry[4]:
                continue
            cost = entry[2]
            firing.append(entry)
            total_cost += cost
            if entry[3]:
                foreign_cost += cost
            # Inlined stats.note_fire(method, cost).
            fires[method] = fires.get(method, 0) + 1
            poll_time[method] = poll_time.get(method, 0.0) + cost

        if total_cost > 0.0:
            # Inlined context.charge(total_cost) — one generator fewer
            # per poll cycle.
            yield nexus.sim.timeout(total_cost)
        if foreign_cost > 0.0:
            context.foreign_poll_total += foreign_cost

        dispatched = 0
        obs = nexus.obs
        message_counts = stats.messages
        for method, transport, _cost, _steals, _k in firing:
            messages = transport.collect(context)
            n = len(messages)
            if n:
                # Inlined stats.note_messages(method, n).
                message_counts[method] = message_counts.get(method, 0) + n
            if obs.enabled:
                obs.metrics.histogram("poll_batch", COUNT_BUCKETS,
                                      method=method).observe(float(n))
            if n:
                for message in messages:
                    yield from context.dispatch(message)
                dispatched += n
        return dispatched

    # -- waiting --------------------------------------------------------------------

    def wait(self, condition: _t.Callable[[], bool] | Event):
        """Generator: poll until ``condition`` holds.

        ``condition`` is a zero-argument predicate or an Event (waits for
        it to trigger).  This is the canonical Nexus wait loop: every
        iteration runs the polling function; idle stretches are
        fast-forwarded with exact aggregate accounting.
        """
        extra_wake: Event | None = None
        if isinstance(condition, Event):
            event = condition
            # processed, not triggered: a Timeout's value is decided at
            # creation, but it has not *occurred* until the engine runs it.
            predicate = lambda: event.callbacks is None  # noqa: E731
            extra_wake = event
        else:
            predicate = condition
        context = self.context
        sim = context.nexus.sim
        loop_cost = context.nexus.runtime_costs.poll_loop_cost
        charge_loop = loop_cost > 0.0
        poll = self.poll

        while True:
            if predicate():
                return
            dispatched = yield from poll()
            if predicate():
                return
            if charge_loop:
                # Inlined context.charge(loop_cost).
                yield sim.timeout(loop_cost)
            if dispatched:
                continue
            yield from self._idle_fast_forward(extra_wake)

    def _idle_fast_forward(self, extra_wake: Event | None = None):
        """Skip ahead to the next instant a poll could deliver anything,
        charging the spin iterations that would have happened meanwhile."""
        if extra_wake is not None and extra_wake.processed:
            return  # it fired during the loop charge; the loop sees it
        context = self.context
        sim = context.nexus.sim
        now = sim.now
        t_next = self._next_known_deliverable()
        if t_next is not None and t_next <= now + _EPS:
            return  # deliverable right now; the next poll will find it

        wake_events: list[Event] = [context.arrival_signal()]
        if extra_wake is not None:
            wake_events.append(extra_wake)
        if t_next is not None:
            wake_events.append(sim.timeout(t_next - now))
        target_event: Event = (wake_events[0] if len(wake_events) == 1
                               else _first_of(sim, wake_events))

        started = now
        yield target_event
        elapsed = sim.now - started
        if elapsed > 0.0:
            self._account_idle_spin(elapsed, started)
        self.stats.idle_fast_forwards += 1

    def amortized_cycle_time(self) -> float:
        """Average duration of one wait-loop iteration, skips included."""
        return self._ensure_plan().cycle

    def _next_known_deliverable(self) -> float | None:
        """Earliest future time an already-in-flight message becomes
        deliverable to a poll, accounting for skip counters and the
        foreign-poll penalty the spin itself will generate."""
        context = self.context
        now = context.nexus.sim._now
        plan = self._plan
        if plan is None or self._plan_registry_size != len(
                context.nexus.transports._transports):
            plan = self._ensure_plan()
        cycle = plan.cycle
        overlap = context.nexus.runtime_costs.select_drain_overlap
        stall_rate = (1.0 - overlap) * plan.foreign_rate

        counters = self._counters
        device_queues = context._device_queues
        inboxes = context._inboxes
        best: float | None = None
        for method, _transport, _cost, _steals, k in plan.entries:
            count = counters[method]
            cycles_to_fire = k - (count % k)  # cycles until next check
            candidate: float | None = None

            queue = device_queues.get(method)
            if queue:
                head = queue[0]
                penalty = (1.0 - overlap) * (context.foreign_poll_total
                                             - head.foreign_at_arrival)
                base = head.ready_at + penalty
                if base <= now:
                    candidate = now
                elif stall_rate < 1.0:
                    # Spinning adds penalty while we wait; solve the fixed
                    # point  t - now = (base - now) + stall_rate * (t - now).
                    candidate = now + (base - now) / (1.0 - stall_rate)
                else:  # pragma: no cover - degenerate configuration
                    candidate = base
            store = inboxes.get(method)
            if store is not None and store.items:
                # Fast-forward to just before the firing cycle: the *real*
                # poll after the bulk spin must be the one that fires
                # (spinning one cycle too far would leave the counter at
                # 1 mod k and miss a whole skip round).
                ready = now + (cycles_to_fire - 1) * cycle
                candidate = ready if candidate is None else min(candidate, ready)
            if candidate is not None:
                candidate = max(candidate,
                                now + (cycles_to_fire - 1) * cycle)
                best = candidate if best is None else min(best, candidate)
        return best

    def _account_idle_spin(self, elapsed: float, window_start: float) -> None:
        """Charge ``elapsed`` seconds of wait-loop spinning in aggregate:
        advance skip counters, accumulate poll costs and foreign time."""
        context = self.context
        plan = self._plan
        if plan is None or self._plan_registry_size != len(
                context.nexus.transports._transports):
            plan = self._ensure_plan()
        cycle = plan.cycle
        # Floor with a float guard: a fast-forward of exactly n cycles must
        # advance the counters by exactly n.
        iterations = int(elapsed / cycle + 1e-9)
        if iterations <= 0:
            return
        stats = self.stats
        stats.cycles += iterations
        counters = self._counters
        foreign_added = 0.0
        for method, _transport, cost, steals, k in plan.entries:
            count = counters[method]
            fires = (count + iterations) // k - count // k
            counters[method] = count + iterations
            if fires:
                stats.note_fire(method, cost * fires, count=fires)
                if steals:
                    foreign_added += cost * fires
        if foreign_added:
            context.foreign_poll_total += foreign_added
            # Messages that *arrived during* the window must not be
            # penalised for spin time that preceded their arrival.
            device_queues = context._device_queues
            for method, _transport, _cost, _steals, _k in plan.entries:
                for transit in device_queues.get(method, ()):
                    if transit.arrival_start >= window_start - _EPS:
                        transit.foreign_at_arrival = max(
                            transit.foreign_at_arrival,
                            context.foreign_poll_total,
                        )

    # -- bulk application work ----------------------------------------------------

    def busy_work(self, n_ops: int, compute_time: float = 0.0):
        """Generator: model a phase of ``n_ops`` Nexus operations plus
        ``compute_time`` of computation, in one aggregate charge.

        Every Nexus operation runs the polling function once, so the
        phase's cost includes each active method's poll cost once per
        ``skip``-decimated firing — this is precisely how TCP polling
        taxes the climate model's internal communication (Table 1).  One
        real poll runs at the end to dispatch anything now ready.
        Returns the number of messages dispatched by that final poll.
        """
        if n_ops < 0:
            raise PollingError(f"negative op count {n_ops!r}")
        context = self.context
        self.stats.bulk_ops += n_ops
        self.stats.cycles += n_ops

        total_cost = float(compute_time)
        foreign_cost = 0.0
        counters = self._counters
        for method, _transport, poll_cost, steals, k in self._ensure_plan().entries:
            count = counters.get(method, 0)
            fires = (count + n_ops) // k - count // k
            counters[method] = count + n_ops
            if fires:
                cost = poll_cost * fires
                total_cost += cost
                self.stats.note_fire(method, cost, count=fires)
                if steals:
                    foreign_cost += cost

        if total_cost > 0.0:
            yield from context.charge(total_cost)
        if foreign_cost > 0.0:
            context.foreign_poll_total += foreign_cost
        result = yield from self.poll()
        return result


class _PollMask:
    """Context manager implementing :meth:`PollManager.only` (nestable)."""

    def __init__(self, manager: ReferencePollManager, methods: frozenset[str]):
        self.manager = manager
        self.methods = methods
        self._saved: frozenset[str] | None = None

    def __enter__(self) -> ReferencePollManager:
        self._saved = self.manager._mask
        self.manager._mask = self.methods
        self.manager._plan = None
        return self.manager

    def __exit__(self, *exc: object) -> None:
        self.manager._mask = self._saved
        self.manager._plan = None


def install(context: "Context") -> None:
    """Swap a reference manager into ``context`` (do it before anything
    configures or runs the context's own)."""
    context.poll_manager = ReferencePollManager(  # type: ignore[assignment]
        context, context.poll_manager.methods)


def reference_attach(controller: "AdaptiveSkipPoll") -> None:
    """``AdaptiveSkipPoll.attach`` as of ``2c0c83b``: wrap the poll
    manager's poll() so observations are automatic."""
    manager = controller.context.poll_manager
    inner_poll = manager.poll
    method = controller.method
    sim = controller.context.nexus.sim
    # Running fire/message watermarks so fires accounted in bulk
    # (busy_work phases, idle fast-forwards) between wrapped calls
    # are credited to the controller too.
    seen = {"fires": 0, "messages": 0}

    def observing_poll():
        inbox = controller.context.inbox(method)
        oldest = 0.0
        queued = inbox.items
        if queued:
            oldest = max(sim.now - getattr(m, "arrived_at", sim.now)
                         for m in queued)
        count = yield from inner_poll()
        fires_total = manager.stats.fires.get(method, 0)
        messages_total = manager.stats.messages.get(method, 0)
        fired = fires_total - seen["fires"]
        found = messages_total - seen["messages"]
        seen["fires"] = fires_total
        seen["messages"] = messages_total
        if fired:
            controller.observe(found, oldest_wait=oldest, fires=fired)
        return count

    manager.poll = observing_poll  # type: ignore[method-assign]
