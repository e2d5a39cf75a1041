"""The warm pool: one per process, reused, replaced, shut down."""

import os
import subprocess
import sys
import textwrap
import threading
import time

import repro.fleet.pool as pool_module
from repro.fleet import run_plan, shutdown

from .runners import FINE, Calls, results as run_results, worker_pids

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_consecutive_calls_are_served_by_the_same_workers():
    first = worker_pids()
    assert len(first) == 2
    assert worker_pids() == first


def test_a_different_width_replaces_the_pool():
    two = worker_pids(2)
    three = worker_pids(3)
    assert len(three) == 3 and not three & two
    assert pool_module._shared.workers == 3
    # At most one pool: the two-wide one's workers are gone.
    for stale in two:
        assert not _alive(stale)


def test_shutdown_is_idempotent_and_the_next_call_cold_starts():
    before = worker_pids()
    shutdown()
    assert pool_module._shared is None
    shutdown()
    after = worker_pids()
    assert len(after) == 2 and not after & before


def test_a_worker_lost_between_calls_is_noticed():
    before = worker_pids()
    victim = pool_module._shared._procs[0]
    victim.kill()
    victim.join(timeout=5)
    assert not victim.is_alive()
    after = worker_pids()
    assert len(after) == 2 and not after & before


def test_concurrent_callers_take_turns():
    """More callers than cores, one pool: every batch comes back whole."""
    results: dict[int, dict] = {}

    def call(caller):
        plan = Calls({f"t-{index}": (FINE, {"value": caller * 100 + index})
                      for index in range(5)})
        results[caller] = run_results(run_plan(plan, jobs=2))

    threads = [threading.Thread(target=call, args=(caller,), daemon=True)
               for caller in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert results == {
        caller: {f"t-{index}": 2 * (caller * 100 + index)
                 for index in range(5)}
        for caller in range(6)}


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_exit_without_shutdown_leaves_no_worker_behind():
    script = textwrap.dedent("""
        from tests.fleet.runners import worker_pids

        def main():
            print(*worker_pids())

        if __name__ == "__main__":
            main()
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(REPO, "src"), REPO]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    workers = [int(word) for word in done.stdout.split()]
    assert len(workers) == 2
    deadline = time.monotonic() + 5
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, workers))
