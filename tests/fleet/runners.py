"""Module-level runners (and the plans that call them) for fleet tests.

Spawned workers resolve these by dotted path
(``"tests.fleet.runners:boom"``), so they must live at module level in
an importable module — a lambda or a function defined inside a test
body would not survive the spawn boundary.
"""

import dataclasses
import os
import signal
import time

from repro.fleet import FleetTask, run_plan

FINE = "tests.fleet.runners:fine"
BOOM = "tests.fleet.runners:boom"
HARD_EXIT = "tests.fleet.runners:hard_exit"
UNPICKLABLE = "tests.fleet.runners:unpicklable_result"
KILL_NINE = "tests.fleet.runners:kill_nine"
SLEEPY = "tests.fleet.runners:sleepy"
BIG = "tests.fleet.runners:big"
PID = "tests.fleet.runners:pid"


def fine(value):
    """A healthy runner: doubles its input."""
    return value * 2


def boom(message):
    """Raise mid-"simulation" — the structured-error path."""
    raise RuntimeError(message)


def hard_exit(code=3):
    """Kill the worker outright — the reaping path (no traceback)."""
    os._exit(code)


def unpicklable_result():
    """Return something pickle rejects — must surface as a task error."""
    return lambda: None


def kill_nine():
    """``kill -9`` the worker mid-task — no exit handler, no flush."""
    os.kill(os.getpid(), signal.SIGKILL)


def sleepy(seconds):
    """Outlive the pool's task timeout."""
    time.sleep(seconds)
    return seconds


def big(megabytes):
    """A result far larger than a pipe buffer."""
    return bytes(megabytes * 2 ** 20)


def pid(hold=0.0):
    """Which worker ran this; ``hold`` keeps it busy so its peers get
    the other tasks."""
    time.sleep(hold)
    return os.getpid()


@dataclasses.dataclass(frozen=True)
class Calls:
    """A plan of bare runner calls, for ``run_plan``:
    ``Calls({"key": ("module:runner", {kwargs})})``."""

    calls: dict

    def tasks(self):
        return tuple(FleetTask(key=key, runner=runner, payload=payload)
                     for key, (runner, payload) in self.calls.items())


def results(run):
    """``run``'s results in key order, once every task succeeded."""
    failed = {key: outcome.error for key, outcome in run.outcomes.items()
              if not outcome.ok}
    assert not failed, failed
    return {key: outcome.result
            for key, outcome in sorted(run.outcomes.items())}


def worker_pids(jobs=2):
    """The pids of the warm pool's workers, by running a plan on it."""
    run = run_plan(Calls({f"pid-{index}": (PID, {"hold": 0.1})
                          for index in range(3 * jobs)}), jobs=jobs)
    assert run.jobs == jobs
    return set(results(run).values())
