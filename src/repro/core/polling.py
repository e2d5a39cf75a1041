"""Detecting and processing multimethod communication (Section 3.3).

The unified polling scheme: one poll function iterates over a context's
communication methods and invokes each method's poll.  Because poll costs
differ wildly (a 15 µs ``mpc_status`` vs a >100 µs ``select``), "an
infrequently used, expensive method imposes significant overhead on a
frequently used, inexpensive method" — which motivates the three
mechanisms implemented here:

* **skip_poll** — per-method poll decimation: with ``skip_poll = k`` the
  method is checked every *k*-th time the polling function runs.
* **selective polling** — :meth:`PollManager.only` masks methods away
  entirely except in program sections that need them (Table 1 row 1).
* **blocking handlers** — methods whose transport supports a blocking
  wait (TCP on AIX 4.1) can be taken out of the poll cycle altogether;
  a watcher process blocks on the transport inbox at zero poll cost.

The poll manager also provides the *wait loop* every blocking operation
in the stack sits in (``poll; check; spin``), and two pieces of
simulation machinery that keep large experiments tractable:

* :meth:`wait` fast-forwards through idle spins by estimating when the
  next delivery could occur and charging the skipped loop iterations
  (poll costs, skip-counter advancement, foreign-poll accumulation) in
  aggregate.  This **approximates** the stepwise loop, it does not
  reproduce it: the skipped iterations are priced at the plan's
  *amortised* cycle time, the drain stall a spinning receiver inflicts
  on itself is a fixed-point solve, and the iteration count is
  ``int(elapsed / cycle + 1e-9)``.  The only bound the path is held to
  is ``tests/core/test_fastforward_equivalence.py``'s — detection within
  ``2e-4 + skip × 20 µs`` of the stepwise loop; ROADMAP item 1 replaces
  it with an exact grid walk;
* :meth:`busy_work` models an application phase containing ``n_ops``
  Nexus operations (each of which runs the poll function once) as a bulk
  charge with identical aggregate accounting.

Three rules keep the loop cheap on the *host* (``docs/ARCHITECTURE.md``,
"Performance model").  Everything the loop knows about one method at
this context — skip counter, costs, tallies, the method's device queue
or inbox — lives in one :class:`_Lane` record, so a cycle reads
attributes rather than five dicts keyed by method name.  A cycle
drains only the firing lanes whose container holds mail (a traced miss
is one append to the lane's ``poll_batch``).  And a
blocking operation costs one generator frame below its caller:
:meth:`wait` and :meth:`poll` yield their own sleeps, share two plain
helpers (:meth:`PollManager._begin_cycle`, :meth:`PollManager._end_cycle`)
and drain each firing lane in their own frame — the transport's
``collect``, the lane's tallies, then ``Context.dispatch`` per message —
so an event that wakes an idle waiter re-enters one frame below the
application, and one that ends a dispatch charge two (the wait's and the
dispatch's), not a tower of pass-through generators.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..obs.metrics import COUNT_BUCKETS
from ..simnet.events import PENDING, Event
from .errors import PollingError

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..simnet.resources import Store
    from ..transports.base import Transport
    from .context import Context

#: Numerical slack for time comparisons.
_EPS = 1e-12


class PollObserver(_t.Protocol):
    """What a lane's observer slot holds
    (see :meth:`PollManager.attach_observer`)."""

    def polled(self, fires: int, messages: int, oldest_wait: float) -> None:
        """One run of the polling function has finished.

        ``fires`` and ``messages`` are the observed method's running
        totals at this context (bulk-accounted fires included);
        ``oldest_wait`` is how long the stalest message had sat in the
        method's inbox when the run began."""


class _Lane:
    """Everything the poll loop knows about one method at one context.

    Owned by the :class:`PollManager` for its lifetime: a lane survives
    plan rebuilds and :meth:`PollManager.only` masks, so its skip
    counter and tallies do too.  ``k``, ``cost``, ``steals`` and
    ``transport`` are refreshed whenever a plan that includes the lane
    is built.  Of ``queue`` and ``inbox`` one is set, by the transport's
    delivery model (a method that drains a device queue never sees its
    inbox, and the other way round): the context's own container for
    the method, never rebound.  ``batch`` records one value into the
    method's ``poll_batch`` histogram (its ``recorder()``), resolved the
    first time a traced poll fires the lane (:meth:`PollManager._batch`).
    """

    __slots__ = ("method", "transport", "cost", "steals", "k", "count",
                 "fires", "poll_time", "messages", "queue", "inbox",
                 "observer", "batch")

    def __init__(self, context: "Context", method: str):
        self.method = method
        self.transport: "Transport" = context.nexus.transports.get(method)
        self.cost = 0.0
        self.steals = False
        #: skip_poll: the method is checked every ``k``-th cycle.
        self.k = 1
        #: Cycles seen so far (the skip counter).
        self.count = 0
        self.fires = 0
        self.poll_time = 0.0
        self.messages = 0
        drains = self.transport.receiver_drain
        self.queue = context.device_queue(method) if drains else None
        self.inbox = None if drains else context.inbox(method)
        self.observer: PollObserver | None = None
        self.batch: _t.Callable[[float], None] | None = None


@dataclasses.dataclass
class PollStats:
    """Observable polling behaviour (surfaced by the enquiry API).

    The per-method tallies live in the manager's lanes; ``fires``,
    ``poll_time`` and ``messages`` are mappings built on read, with a
    method absent until it has fired (or, for ``messages``, delivered)
    at least once.
    """

    cycles: int = 0
    idle_fast_forwards: int = 0
    bulk_ops: int = 0
    _lanes: dict[str, _Lane] = dataclasses.field(
        default_factory=dict, repr=False, compare=False)

    @property
    def fires(self) -> dict[str, int]:
        return {lane.method: lane.fires
                for lane in self._lanes.values() if lane.fires}

    @property
    def poll_time(self) -> dict[str, float]:
        return {lane.method: lane.poll_time
                for lane in self._lanes.values() if lane.fires}

    @property
    def messages(self) -> dict[str, int]:
        return {lane.method: lane.messages
                for lane in self._lanes.values() if lane.messages}

    def hit_rate(self, method: str) -> float | None:
        """Fraction of this method's polls that found a message.

        ``None`` when the method never fired — "no data" is different
        from "fired and found nothing" (0.0), and conflating them makes
        skip_poll tuning decisions on phantom zeros.
        """
        lane = self._lanes.get(method)
        if lane is None or lane.fires == 0:
            return None
        return lane.messages / lane.fires


class _PollPlan:
    """Precomputed poll-cycle plan (see :meth:`PollManager._ensure_plan`).

    ``lanes`` holds the currently active lanes in poll order; ``cycle``
    and ``foreign_rate`` are the derived aggregates the wait machinery
    needs every iteration.  Transport costs are frozen, so the plan only
    goes stale when the manager's own configuration (methods, skips,
    mask, disabled/blocking sets) changes.
    """

    __slots__ = ("lanes", "cycle", "foreign_rate")

    def __init__(self, lanes: tuple[_Lane, ...], cycle: float,
                 foreign_rate: float):
        self.lanes = lanes
        self.cycle = cycle
        self.foreign_rate = foreign_rate


class PollManager:
    """Unified multimethod polling for one context."""

    def __init__(self, context: "Context", methods: _t.Sequence[str]):
        self.context = context
        #: Poll order (descriptor-table order, i.e. fastest first).
        self.methods: list[str] = list(methods)
        self.skip: dict[str, int] = {}
        #: One record per method, created the first time a plan (or a
        #: blocking watcher, or an observer) needs it.
        self._lanes: dict[str, _Lane] = {}
        #: Lanes whose observer slot is filled, consulted every cycle
        #: whether or not the lane is in the plan.
        self._observed: tuple[_Lane, ...] = ()
        self._mask: frozenset[str] | None = None
        self._disabled: set[str] = set()
        self._blocking: set[str] = set()
        self.stats = PollStats(_lanes=self._lanes)
        #: Cached :class:`_PollPlan`; ``None`` means rebuild on next use.
        self._plan: _PollPlan | None = None

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
        lane = self._lane(method)
        inbox = context.inbox(method)
        wakeup_cost = context.nexus.runtime_costs.dispatch_cost
        while method in self._blocking:
            message = yield inbox.get()
            # Thread wakeup / context switch, then normal dispatch.
            yield from context.charge(wakeup_cost)
            lane.messages += 1
            yield from context.dispatch(message)

    def attach_observer(self, method: str, observer: PollObserver) -> None:
        """Fill ``method``'s observer slot (one observer per method).

        From now on every run of the polling function at this context —
        :meth:`poll`, each iteration of :meth:`wait`, the closing poll of
        :meth:`busy_work`, the poll every RSR starts with — ends by
        calling ``observer.polled(...)``.  Attaching the observer that
        already holds the slot is a no-op; a second observer for the same
        method is a :class:`PollingError`.
        """
        if method not in self.methods:
            raise PollingError(f"context does not poll method {method!r}")
        lane = self._lane(method)
        if lane.observer is observer:
            return
        if lane.observer is not None:
            raise PollingError(
                f"method {method!r} already has an observer attached")
        self._set_observer(lane, observer)

    def detach_observer(self, method: str, observer: PollObserver) -> None:
        """Empty ``method``'s observer slot if ``observer`` holds it."""
        lane = self._lanes.get(method)
        if lane is not None and lane.observer is observer:
            self._set_observer(lane, None)

    def _set_observer(self, lane: _Lane,
                      observer: PollObserver | None) -> None:
        lane.observer = observer
        self._observed = tuple(candidate for candidate in self._lanes.values()
                               if candidate.observer is not None)

    # -- the poll cycle ----------------------------------------------------------

    def _lane(self, method: str) -> _Lane:
        lane = self._lanes.get(method)
        if lane is None:
            lane = self._lanes[method] = _Lane(self.context, method)
        return lane

    def _ensure_plan(self) -> _PollPlan:
        """Return the current poll plan, rebuilding it if stale.

        The plan is invalidated by every configuration mutator
        (``add_method``/``set_skip``/``enable``/``disable``/
        ``set_blocking``/mask enter/exit).  A plan that had to leave out
        a method the transport registry does not have (yet) is not
        cached: it is rebuilt on every use until the registry catches
        up, which no mutator here would otherwise notice.
        """
        plan = self._plan
        if plan is not None:
            return plan
        registry = self.context.nexus.transports
        lanes: list[_Lane] = []
        complete = True
        for method in self.methods:
            if method in self._disabled or method in self._blocking:
                continue
            if self._mask is not None and method not in self._mask:
                continue
            if method not in registry:
                complete = False
                continue
            lane = self._lane(method)
            transport = lane.transport = registry.get(method)
            lane.cost = transport.costs.poll_cost
            lane.steals = transport.costs.steals_device_time
            lane.k = self.skip.get(method, 1)
            lanes.append(lane)
        # Two passes, each summed in poll order: the float results are
        # part of the simulation's arithmetic.
        cycle = self.context.nexus.runtime_costs.poll_loop_cost
        for lane in lanes:
            cycle += lane.cost / lane.k
        foreign_rate = 0.0
        for lane in lanes:
            if lane.steals:
                foreign_rate += (lane.cost / lane.k) / cycle
        plan = _PollPlan(tuple(lanes), cycle, foreign_rate)
        if complete:
            self._plan = plan
        return plan

    def active_methods(self) -> list[str]:
        """Methods the cycle will consider, in poll order."""
        return [lane.method for lane in self._ensure_plan().lanes]

    def _begin_cycle(self) -> tuple[list[_Lane], float, float,
                                    list[tuple[_Lane, float]] | None]:
        """Start one run of the polling function: advance every active
        lane's skip counter and tally the lanes that fire.

        Returns ``(firing, total_cost, foreign_cost, watch)``.  The
        caller — :meth:`poll` or :meth:`wait`, in its own frame — charges
        ``total_cost``, *then* adds ``foreign_cost`` to the context's
        foreign-poll accumulator, drains each firing lane whose container
        holds something through its transport's ``collect`` (which
        returns ``[]`` for an empty one; a traced poll records the miss
        as one ``0.0`` append to ``poll_batch``), and hands
        ``watch`` (``None`` unless an observer is attached) to
        :meth:`_end_cycle`.
        """
        self.stats.cycles += 1
        plan = self._plan
        if plan is None:
            plan = self._ensure_plan()
        firing: list[_Lane] = []
        total_cost = 0.0
        foreign_cost = 0.0
        for lane in plan.lanes:
            count = lane.count = lane.count + 1
            if count % lane.k:
                continue
            cost = lane.cost
            firing.append(lane)
            total_cost += cost
            if lane.steals:
                foreign_cost += cost
            lane.fires += 1
            lane.poll_time += cost
        watch = None
        if self._observed:
            now = self.context.nexus.sim._now
            watch = [(lane, _oldest_wait(lane.inbox, now))
                     for lane in self._observed]
        return firing, total_cost, foreign_cost, watch

    def _batch(self, lane: _Lane) -> _t.Callable[[float], None]:
        """Resolve and cache ``lane.batch``: one append into the
        method's ``poll_batch`` histogram, folded when it is read."""
        batch = lane.batch = self.context.nexus.obs.metrics.histogram(
            "poll_batch", COUNT_BUCKETS, method=lane.method).recorder()
        return batch

    @staticmethod
    def _end_cycle(watch: list[tuple[_Lane, float]]) -> None:
        """Report a finished run of the polling function to the
        observers that were attached when it began."""
        for lane, oldest_wait in watch:
            observer = lane.observer
            if observer is not None:
                observer.polled(lane.fires, lane.messages, oldest_wait)

    def poll(self):
        """Generator: one run of the unified polling function.

        Charges the poll costs of every method due this cycle, updates
        the foreign-poll accumulator, collects ready messages, and
        dispatches them.  Returns the number of messages dispatched.
        """
        context = self.context
        firing, total_cost, foreign_cost, watch = self._begin_cycle()
        if total_cost > 0.0:
            yield total_cost
        if foreign_cost > 0.0:
            context.foreign_poll_total += foreign_cost
        obs = context.nexus.obs
        dispatched = 0
        for lane in firing:
            if not (lane.queue or lane.inbox is not None
                    and lane.inbox.items):
                if obs.enabled:  # a traced miss: poll_batch records 0
                    (lane.batch or self._batch(lane))(0.0)
                continue
            messages = lane.transport.collect(context, lane)
            found = len(messages) if messages else 0
            lane.messages += found
            if obs.enabled:
                (lane.batch or self._batch(lane))(float(found))
            for message in messages:
                yield from context.dispatch(message)
            dispatched += found
        if watch is not None:
            self._end_cycle(watch)
        return dispatched

    # -- waiting --------------------------------------------------------------------

    def wait(self, condition: _t.Callable[[], bool] | Event):
        """Generator: poll until ``condition`` holds.

        ``condition`` is a zero-argument predicate or an Event (waits for
        it to trigger).  This is the canonical Nexus wait loop: every
        iteration runs the polling function (the same cycle as
        :meth:`poll`, run in this frame); idle stretches are
        fast-forwarded with *amortised* aggregate accounting — an
        approximation of the stepwise loop, bounded only by
        ``tests/core/test_fastforward_equivalence.py`` (see the module
        docstring and ROADMAP item 1).
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
        obs = context.nexus.obs
        stats = self.stats

        while True:
            if predicate():
                return
            firing, total_cost, foreign_cost, watch = self._begin_cycle()
            if total_cost > 0.0:
                yield total_cost
            if foreign_cost > 0.0:
                context.foreign_poll_total += foreign_cost
            dispatched = 0
            for lane in firing:
                if not (lane.queue or lane.inbox is not None
                        and lane.inbox.items):
                    if obs.enabled:
                        (lane.batch or self._batch(lane))(0.0)
                    continue
                messages = lane.transport.collect(context, lane)
                found = len(messages) if messages else 0
                lane.messages += found
                if obs.enabled:
                    (lane.batch or self._batch(lane))(float(found))
                for message in messages:
                    yield from context.dispatch(message)
                dispatched += found
            if watch is not None:
                self._end_cycle(watch)
            if predicate():
                return
            if loop_cost > 0.0:
                yield loop_cost
            if dispatched:
                continue
            wake = self._idle_wake(extra_wake)
            if wake is None:
                continue  # deliverable right now; the next poll finds it
            started = sim._now
            yield wake
            elapsed = sim._now - started
            if elapsed > 0.0:
                self._account_idle_spin(elapsed, started)
            stats.idle_fast_forwards += 1

    def _idle_wake(self, extra_wake: Event | None) -> Event | None:
        """The event an idle waiter sleeps on: the next arrival at this
        context, ``extra_wake``, or the next instant a poll could deliver
        something already in flight — whichever comes first.  ``None``
        when a poll could deliver right now, or when ``extra_wake`` has
        already fired (during the loop charge): the waiter's next
        ``predicate()`` check then sees it, as the stepwise loop would."""
        if extra_wake is not None and extra_wake.callbacks is None:
            return None
        context = self.context
        sim = context.nexus.sim
        now = sim._now
        t_next = self._next_known_deliverable()
        if t_next is not None and t_next <= now + _EPS:
            return None
        arrival = context.arrival_signal()
        if t_next is None and extra_wake is None:
            return arrival
        # A first-of wake: the first child to fire triggers ``wake`` at
        # that instant (a failed child is defused and fails it), and later
        # children do nothing.
        wake = Event(sim)

        def on_child(child: Event) -> None:
            if wake._value is not PENDING:
                return
            if child._ok:
                wake.succeed()
            else:
                child._defused = True
                wake.fail(_t.cast(BaseException, child._value))

        arrival.callbacks.append(on_child)  # type: ignore[union-attr]
        if extra_wake is not None:
            extra_wake.callbacks.append(on_child)  # type: ignore[union-attr]
        if t_next is not None:
            sim.timeout(t_next - now).callbacks.append(on_child)
        return wake

    def amortized_cycle_time(self) -> float:
        """Average duration of one wait-loop iteration, skips included."""
        return self._ensure_plan().cycle

    def _next_known_deliverable(self) -> float | None:
        """Estimate of the earliest future time an already-in-flight
        message becomes deliverable to a poll, accounting for skip
        counters and the foreign-poll penalty the spin itself will
        generate (amortised cycle, fixed-point stall: see the module
        docstring)."""
        context = self.context
        now = context.nexus.sim._now
        plan = self._plan
        if plan is None:
            plan = self._ensure_plan()
        cycle = plan.cycle
        overlap = context.nexus.runtime_costs.select_drain_overlap
        stall_rate = (1.0 - overlap) * plan.foreign_rate

        best: float | None = None
        for lane in plan.lanes:
            k = lane.k
            cycles_to_fire = k - (lane.count % k)  # cycles until next check
            candidate: float | None = None

            queue = lane.queue
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
            inbox = lane.inbox
            if inbox is not None and inbox.items:
                # Fast-forward to just before the firing cycle: the *real*
                # poll after the bulk spin must be the one that fires
                # (spinning one cycle too far would leave the counter at
                # 1 mod k and miss a whole skip round).
                ready = now + (cycles_to_fire - 1) * cycle
                if candidate is None or ready < candidate:
                    candidate = ready
            if candidate is not None:
                floor = now + (cycles_to_fire - 1) * cycle
                if floor > candidate:
                    candidate = floor
                if best is None or candidate < best:
                    best = candidate
        return best

    def _spin(self, plan: _PollPlan, cycles: int,
              total_cost: float) -> tuple[float, float]:
        """Account ``cycles`` runs of the polling function in aggregate:
        advance every active lane's skip counter and tally the fires that
        many cycles contain.  Returns ``total_cost`` plus the poll cost of
        those fires, and the device-stealing share of it."""
        self.stats.cycles += cycles
        foreign_cost = 0.0
        for lane in plan.lanes:
            count = lane.count
            fires = (count + cycles) // lane.k - count // lane.k
            lane.count = count + cycles
            if fires:
                cost = lane.cost * fires
                total_cost += cost
                lane.fires += fires
                lane.poll_time += cost
                if lane.steals:
                    foreign_cost += cost
        return total_cost, foreign_cost

    def _account_idle_spin(self, elapsed: float, window_start: float) -> None:
        """Charge ``elapsed`` seconds of wait-loop spinning in aggregate:
        advance skip counters, accumulate poll costs and foreign time."""
        context = self.context
        plan = self._plan
        if plan is None:
            plan = self._ensure_plan()
        # Floor with a float guard: a fast-forward of exactly n cycles must
        # advance the counters by exactly n.
        iterations = int(elapsed / plan.cycle + 1e-9)
        if iterations <= 0:
            return
        _cost, foreign_added = self._spin(plan, iterations, 0.0)
        if foreign_added:
            total = context.foreign_poll_total = (
                context.foreign_poll_total + foreign_added)
            # Messages that *arrived during* the window must not be
            # penalised for spin time that preceded their arrival.
            arrived_after = window_start - _EPS
            for lane in plan.lanes:
                for transit in lane.queue or ():
                    if (transit.arrival_start >= arrived_after
                            and transit.foreign_at_arrival < total):
                        transit.foreign_at_arrival = total

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
        total_cost, foreign_cost = self._spin(self._ensure_plan(), n_ops,
                                              float(compute_time))
        if total_cost > 0.0:
            yield total_cost
        if foreign_cost > 0.0:
            context.foreign_poll_total += foreign_cost
        result = yield from self.poll()
        return result


def _oldest_wait(inbox: "Store | None", now: float) -> float:
    """How long the stalest message in ``inbox`` has been waiting."""
    if inbox is None or not inbox.items:
        return 0.0
    return max(now - getattr(message, "arrived_at", now)
               for message in inbox.items)


class _PollMask:
    """Context manager implementing :meth:`PollManager.only` (nestable)."""

    def __init__(self, manager: PollManager, methods: frozenset[str]):
        self.manager = manager
        self.methods = methods
        self._saved: frozenset[str] | None = None

    def __enter__(self) -> PollManager:
        self._saved = self.manager._mask
        self.manager._mask = self.methods
        self.manager._plan = None
        return self.manager

    def __exit__(self, *exc: object) -> None:
        self.manager._mask = self._saved
        self.manager._plan = None
