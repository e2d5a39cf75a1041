"""Differential oracle for the event queue's total order.

The engine promises to process events in ``(t, priority, seq)`` order
and to leave the next entry queued when ``run(until=t)`` or a
``max_events`` abort stops it.  :class:`ReferenceQueue` is that promise
written the slow way: one list kept sorted by ``(t, priority, creation
order)``.  Both run the same generated :class:`Program` and must agree
on every processed ``(tag, time)``, every ``peek()``, the final clock
and ``events_processed``.

A program is a list of actions.  Each action runs either before the
drive starts or inside the callback of an earlier action's event, so
triggers and timeouts are issued mid-run at the time the engine has
reached.  Kinds:

* ``timeout`` — ``Timeout(sim, delay, priority=p)``, delays repeat and
  include ``0.0``;
* ``at`` — ``timeout_at(now + dt)``, with ``dt = 0.0`` meaning now;
* ``succeed`` / ``fail`` (defused) — at URGENT, NORMAL or LOW.

A drive is ``run()``, a sequence of ``run(until=now + dt)`` calls, a
``peek()``/``step()`` loop or ``run(max_events=k)`` chunks, each ending
with the queue drained.

Tier-1 runs a derandomised budget; ``--hypothesis-profile=deep``
(registered in ``tests/conftest.py``) runs the deep one.
"""

import bisect
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import Simulator
from repro.simnet.errors import SimnetError
from repro.simnet.events import LOW, NORMAL, URGENT, Timeout

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, the tier-1 budget otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=150, deadline=None, derandomize=True))

_INF = float("inf")
PRIORITIES = (URGENT, NORMAL, LOW)
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5)


@dataclasses.dataclass(frozen=True)
class Action:
    #: Index of the action whose event's callback runs this one; ``-1``
    #: runs it before the drive.
    parent: int
    kind: str
    arg: object = None
    priority: int = NORMAL


@dataclasses.dataclass(frozen=True)
class Program:
    actions: tuple
    #: ``("run",)``, ``("until", dts)``, ``("step",)`` or ``("chunks", k)``.
    drive: tuple


class ReferenceQueue:
    """Every queued entry in one list sorted by ``(t, priority, order)``."""

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.created = 0
        self.processed = 0

    def push(self, t, priority, fire):
        self.created += 1
        entry = (t, priority, self.created, fire)
        bisect.insort(self.entries, entry)

    def peek(self):
        return self.entries[0][0] if self.entries else _INF

    def step(self):
        t, _, _, fire = self.entries.pop(0)
        self.now = max(self.now, t)
        self.processed += 1
        fire()

    def run(self, until=None, max_events=None):
        done = 0
        while self.entries:
            if until is not None and self.entries[0][0] >= until:
                break
            if max_events is not None and done >= max_events:
                return "abort"
            self.step()
            done += 1
        if until is not None:
            self.now = until
        return None


class EngineBackend:
    """The program's operations on a real :class:`Simulator`."""

    def __init__(self):
        self.sim = Simulator()

    @property
    def now(self):
        return self.sim.now

    def _watch(self, event, fire):
        event.callbacks.append(lambda _event: fire())

    def timeout(self, delay, priority, fire):
        self._watch(Timeout(self.sim, delay, None, None, priority), fire)

    def timeout_at(self, when, fire):
        self._watch(self.sim.timeout_at(when), fire)

    def trigger(self, ok, priority, fire):
        event = self.sim.event()
        if ok:
            event.succeed(priority=priority)
        else:
            event.fail(RuntimeError("generated"), priority=priority)
            event.defuse()
        self._watch(event, fire)

    def drive(self, drive, log):
        sim = self.sim
        if drive[0] == "run":
            sim.run()
        elif drive[0] == "until":
            for dt in drive[1]:
                sim.run(until=sim.now + dt)
            sim.run()
        elif drive[0] == "step":
            while sim.peek() != _INF:
                log.append(("peek", sim.peek()))
                sim.step()
            log.append(("peek", sim.peek()))
        else:
            while True:
                try:
                    sim.run(max_events=drive[1])
                    break
                except SimnetError:
                    log.append(("abort", sim.now))
        return sim.events_processed


class ReferenceBackend:
    """The same operations on a :class:`ReferenceQueue`."""

    def __init__(self):
        self.queue = ReferenceQueue()

    @property
    def now(self):
        return self.queue.now

    def timeout(self, delay, priority, fire):
        self.queue.push(self.queue.now + delay, priority, fire)

    def timeout_at(self, when, fire):
        self.queue.push(when, NORMAL, fire)

    def trigger(self, ok, priority, fire):
        self.queue.push(self.queue.now, priority, fire)

    def drive(self, drive, log):
        queue = self.queue
        if drive[0] == "run":
            queue.run()
        elif drive[0] == "until":
            for dt in drive[1]:
                queue.run(until=queue.now + dt)
            queue.run()
        elif drive[0] == "step":
            while queue.peek() != _INF:
                log.append(("peek", queue.peek()))
                queue.step()
            log.append(("peek", queue.peek()))
        else:
            while queue.run(max_events=drive[1]) == "abort":
                log.append(("abort", queue.now))
        return queue.processed


def play(program, backend):
    """Run ``program`` on ``backend``: its log, final clock and count."""
    log = []
    children = {}
    for index, action in enumerate(program.actions):
        children.setdefault(action.parent, []).append(index)

    def fire(index):
        def fired():
            log.append((index, backend.now))
            perform(children.get(index, ()))
        return fired

    def perform(indices):
        for index in indices:
            action = program.actions[index]
            if action.kind == "timeout":
                backend.timeout(action.arg, action.priority, fire(index))
            elif action.kind == "at":
                backend.timeout_at(backend.now + action.arg, fire(index))
            else:  # succeed / fail
                backend.trigger(action.kind == "succeed", action.priority,
                                fire(index))

    perform(children.get(-1, ()))
    processed = backend.drive(program.drive, log)
    return log, backend.now, processed


@st.composite
def actions(draw, index):
    parent = draw(st.integers(min_value=-1, max_value=max(index - 1, -1)))
    kind = draw(st.sampled_from(("timeout", "timeout", "at", "succeed",
                                 "fail")))
    priority = draw(st.sampled_from(PRIORITIES))
    if kind == "timeout":
        arg = draw(st.sampled_from(DELAYS))
    elif kind == "at":
        arg = draw(st.sampled_from((0.0, 0.0, 0.75, 1.0)))
    else:
        arg = None
    return Action(parent, kind, arg, priority)


@st.composite
def programs(draw):
    size = draw(st.integers(min_value=1, max_value=24))
    drive = draw(st.one_of(
        st.just(("run",)),
        st.tuples(st.just("until"),
                  st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.5)),
                           min_size=1, max_size=4).map(tuple)),
        st.just(("step",)),
        st.tuples(st.just("chunks"), st.integers(min_value=1, max_value=5)),
    ))
    return Program(tuple(draw(actions(i)) for i in range(size)), drive)


@given(programs())
@PROFILE
def test_engine_matches_the_single_list_reference(program):
    assert play(program, EngineBackend()) == play(program, ReferenceBackend())
