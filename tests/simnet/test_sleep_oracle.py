"""Differential oracle for the sleep idiom: ``yield d`` against
``yield sim.timeout(d)``.

A process sleeps by yielding its delay; the kernel queues the process's
own timer at ``(now + d, NORMAL, seq)``, drawing ``seq`` at the yield,
where the ``Timeout`` constructor would have drawn it.  So one program
written either way must process the same events at the same times.
Each generated :class:`Program` runs twice, once sleeping on
``sim.timeout(d)`` and once on ``d``; both runs must agree on every
logged ``(tag, time, clock type)``, every ``peek()``, the final clock
and ``events_processed``.

A program is a set of process bodies.  A body is a list of steps:

* ``sleep`` — a delay that repeats and includes ``0.0``, ints and numpy
  scalars;
* ``refuse`` — a negative delay (or ``-0.0``, which sleeps): the
  ``ScheduleError`` is caught inside the process;
* ``succeed`` — wait on an event succeeded at URGENT, NORMAL or LOW;
* ``at`` — wait on ``timeout_at(now + dt)``, ``dt = 0.0`` meaning now;
* ``spawn`` / ``join`` — start a later body as a child process (its
  start is queued at URGENT), and in ``join`` wait for it.

A drive is ``run()``, a sequence of ``run(until=now + dt)`` calls or a
``peek()``/``step()`` loop, each ending with the queue drained.

Tier-1 runs a derandomised budget; ``--hypothesis-profile=deep``
(registered in ``tests/conftest.py``) runs the deep one.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet import Simulator
from repro.simnet.errors import ScheduleError
from repro.simnet.events import LOW, NORMAL, URGENT, Event

DEEP = settings.get_profile("deep")
#: The deep profile when it was asked for, the tier-1 budget otherwise.
PROFILE = (DEEP if settings.default is DEEP
           else settings(max_examples=150, deadline=None, derandomize=True))

_INF = float("inf")
PRIORITIES = (URGENT, NORMAL, LOW)
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 0, 2,
          np.float64(0.5), np.float32(0.1), np.int64(1))
#: A body spawns or joins at most this many children, so a program's
#: process count stays small.
MAX_CHILDREN = 2


@dataclasses.dataclass(frozen=True)
class Program:
    #: One tuple of ``(kind, arg)`` steps per body; ``spawn``/``join``
    #: name a later body.
    bodies: tuple
    #: ``bodies[:roots]`` start before the drive.
    roots: int
    #: ``("run",)``, ``("until", dts)`` or ``("step",)``.
    drive: tuple


def by_timeout(sim, delay):
    return sim.timeout(delay)


def by_delay(_sim, delay):
    return delay


def play(program, sleep):
    """Run ``program``, sleeping on ``sleep(sim, d)``: its log, final
    clock and event count."""
    sim = Simulator()
    log = []
    started = [0]

    def body(index):
        instance = started[0]
        started[0] += 1
        for number, (kind, arg) in enumerate(program.bodies[index]):
            outcome = None
            if kind == "sleep":
                yield sleep(sim, arg)
            elif kind == "refuse":
                try:
                    yield sleep(sim, -arg)
                except ScheduleError as error:
                    outcome = str(error)
            elif kind == "succeed":
                yield Event(sim).succeed(priority=arg)
            elif kind == "at":
                yield sim.timeout_at(sim.now + arg)
            elif kind == "spawn":
                sim.process(body(arg))
            else:  # join
                outcome = yield sim.process(body(arg))
            log.append(((instance, number), sim.now,
                        type(sim.now).__name__, outcome))
        return instance

    for index in range(program.roots):
        sim.process(body(index))
    if program.drive[0] == "run":
        sim.run()
    elif program.drive[0] == "until":
        for dt in program.drive[1]:
            sim.run(until=sim.now + dt)
        sim.run()
    else:
        while sim.peek() != _INF:
            log.append(("peek", sim.peek()))
            sim.step()
    return log, sim.now, type(sim.now).__name__, sim.events_processed


@st.composite
def steps(draw, index, count):
    kinds = ["sleep", "sleep", "sleep", "refuse", "succeed", "at"]
    if index + 1 < count:
        kinds += ["spawn", "join"]
    out = []
    children = 0
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("spawn", "join"):
            if children == MAX_CHILDREN:
                kind = "sleep"
            else:
                children += 1
        if kind == "sleep":
            arg = draw(st.sampled_from(DELAYS))
        elif kind == "refuse":
            arg = draw(st.sampled_from((0.0, 0.5, 1, np.float64(2.0))))
        elif kind == "succeed":
            arg = draw(st.sampled_from(PRIORITIES))
        elif kind == "at":
            arg = draw(st.sampled_from((0.0, 0.0, 0.75, 1.0)))
        else:
            arg = draw(st.integers(min_value=index + 1, max_value=count - 1))
        out.append((kind, arg))
    return tuple(out)


@st.composite
def programs(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    bodies = tuple(draw(steps(index, count)) for index in range(count))
    roots = draw(st.integers(min_value=1, max_value=count))
    drive = draw(st.one_of(
        st.just(("run",)),
        st.tuples(st.just("until"),
                  st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.5)),
                           min_size=1, max_size=4).map(tuple)),
        st.just(("step",)),
    ))
    return Program(bodies, roots, drive)


@given(programs())
@example(Program(
    bodies=((("sleep", np.float32(0.1)), ("spawn", 1), ("sleep", 0),
             ("refuse", 1), ("join", 1), ("succeed", URGENT)),
            (("sleep", 0.0), ("at", 0.0), ("sleep", np.int64(1)),
             ("refuse", 0.0))),
    roots=2, drive=("step",)))
@PROFILE
def test_sleeping_on_the_delay_matches_sleeping_on_a_timeout(program):
    assert play(program, by_delay) == play(program, by_timeout)
