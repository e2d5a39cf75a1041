"""Fleet pool: spec validation, structured errors, crash robustness."""

import time

import pytest

import repro.fleet.pool as pool_module
from repro.fleet import (
    FleetPool,
    FleetSpecError,
    FleetTask,
    FleetTaskError,
    resolve_runner,
    run_plan,
    run_serial,
)

from .runners import (
    BIG,
    BOOM,
    FINE,
    HARD_EXIT,
    KILL_NINE,
    SLEEPY,
    UNPICKLABLE,
    Calls,
    results,
    worker_pids,
)


class TestSpecValidation:
    def test_empty_key_rejected(self):
        with pytest.raises(FleetSpecError):
            FleetTask(key="", runner=FINE)

    def test_empty_runner_rejected(self):
        with pytest.raises(FleetSpecError):
            FleetTask(key="a", runner="")

    def test_duplicate_keys_rejected(self):
        tasks = [FleetTask(key="a", runner=FINE, payload={"value": 1}),
                 FleetTask(key="a", runner=FINE, payload={"value": 2})]
        with pytest.raises(FleetSpecError, match="duplicate"):
            run_serial(tasks)

    def test_unpicklable_payload_rejected_eagerly(self):
        task = FleetTask(key="a", runner=FINE,
                         payload={"value": lambda: None})
        with pytest.raises(FleetSpecError, match="not picklable"):
            task.encode()
        # run_serial enforces the same declarative contract as spawn.
        with pytest.raises(FleetSpecError, match="not picklable"):
            run_serial([task])

    def test_pool_needs_at_least_one_worker(self):
        with pytest.raises(FleetSpecError):
            FleetPool(0)

    def test_task_timeout_must_be_positive(self):
        with pytest.raises(FleetSpecError, match="timeout"):
            FleetPool(1, task_timeout=0)


class TestRunnerResolution:
    def test_registered_names_resolve(self):
        assert callable(resolve_runner("load.run_scenario"))
        assert callable(resolve_runner("load.capacity_probe"))
        assert callable(resolve_runner("bench.artefact"))

    def test_dotted_path_resolves(self):
        from tests.fleet import runners

        assert resolve_runner(FINE) is runners.fine

    def test_unknown_name_raises(self):
        with pytest.raises(LookupError, match="not registered"):
            resolve_runner("no.such.runner")

    def test_non_callable_attr_raises(self):
        with pytest.raises(LookupError, match="not name a callable"):
            resolve_runner("tests.fleet.runners:os")


class TestSerialExecution:
    def test_results_key_ordered(self):
        outcomes = run_serial([
            FleetTask(key="z", runner=FINE, payload={"value": 3}),
            FleetTask(key="a", runner=FINE, payload={"value": 1}),
        ])
        assert list(outcomes) == ["a", "z"]
        assert outcomes["a"].result == 2
        assert outcomes["z"].result == 6

    def test_exception_becomes_structured_error_and_drains(self):
        outcomes = run_serial([
            FleetTask(key="bad", runner=BOOM,
                      payload={"message": "mid-simulation failure"}),
            FleetTask(key="good", runner=FINE, payload={"value": 5}),
        ])
        error = outcomes["bad"].error
        assert isinstance(error, FleetTaskError)
        assert error.key == "bad"
        assert error.exc_type == "RuntimeError"
        assert "mid-simulation failure" in error.message
        assert "mid-simulation failure" in error.remote_traceback
        # The failure did not stop the rest of the batch.
        assert outcomes["good"].ok and outcomes["good"].result == 10


class TestCrashRobustness:
    """The satellite contract: structured errors, never a hang."""

    def test_raise_propagates_traceback_and_pool_drains(self):
        with FleetPool(2, name="crash-raise") as pool:
            outcomes = pool.run([
                FleetTask(key="a-ok", runner=FINE, payload={"value": 21}),
                FleetTask(key="b-raise", runner=BOOM,
                          payload={"message": "mid-simulation failure"}),
                FleetTask(key="c-ok", runner=FINE, payload={"value": 4}),
                FleetTask(key="d-unpicklable", runner=UNPICKLABLE),
            ])
        assert list(outcomes) == sorted(outcomes)
        error = outcomes["b-raise"].error
        assert isinstance(error, FleetTaskError)
        assert error.key == "b-raise"
        assert error.exc_type == "RuntimeError"
        assert "mid-simulation failure" in error.message
        # The remote traceback carries the *worker's* frames.
        assert "runners.py" in error.remote_traceback
        assert "mid-simulation failure" in error.remote_traceback
        # An unpicklable return is a per-task error, not a poisoned
        # queue: the worker pre-pickles and reports the failure.
        assert not outcomes["d-unpicklable"].ok
        # Healthy tasks still completed — the pool drained.
        assert outcomes["a-ok"].result == 42
        assert outcomes["c-ok"].result == 8

    def test_hard_crash_is_reaped_and_pool_drains(self):
        with FleetPool(2, name="crash-exit") as pool:
            outcomes = pool.run([
                FleetTask(key="x-exit", runner=HARD_EXIT),
                FleetTask(key="y-ok", runner=FINE, payload={"value": 5}),
            ])
        error = outcomes["x-exit"].error
        assert error is not None
        assert error.exc_type == "WorkerCrash"
        assert error.key == "x-exit"
        assert "exit code" in error.message
        # The surviving worker still finished its task: no deadlock.
        assert outcomes["y-ok"].result == 10

    def test_hung_task_times_out_and_survivors_drain(self):
        started = time.monotonic()
        with FleetPool(2, name="hang", task_timeout=0.5) as pool:
            outcomes = pool.run(
                [FleetTask(key="a-hang", runner=SLEEPY,
                           payload={"seconds": 60})]
                + [FleetTask(key=f"ok-{index}", runner=FINE,
                             payload={"value": index})
                   for index in range(4)])
            assert not pool.healthy
        assert time.monotonic() - started < 10
        error = outcomes["a-hang"].error
        assert error is not None
        assert error.exc_type == "TaskTimeout"
        assert error.key == "a-hang"
        assert "0.5 s" in error.message
        assert [outcomes[f"ok-{index}"].result for index in range(4)] \
            == [0, 2, 4, 6]


class TestSharedPoolRecovers:
    """A failure on the warm pool costs that call its task and the next
    call a cold start — never a poisoned pool."""

    def test_kill_nine_mid_task(self):
        before = worker_pids()
        run = run_plan(Calls({"a-kill": (KILL_NINE, {}),
                              "b-ok": (FINE, {"value": 5})}), jobs=2)
        error = run.outcomes["a-kill"].error
        assert error is not None and error.exc_type == "WorkerCrash"
        assert "exit code -9" in error.message
        assert run.outcomes["b-ok"].result == 10
        assert pool_module._shared is None
        assert not worker_pids() & before

    def test_timeout_evicts_the_pool(self):
        pool_module.shutdown()
        # The slot's own pool has the 30-minute default; plant one that
        # gives up sooner.  The run below evicts it again.
        impatient = FleetPool(2, name="impatient", task_timeout=0.5)
        pool_module._shared = impatient
        run = run_plan(Calls({"a-hang": (SLEEPY, {"seconds": 60}),
                              "b-ok": (FINE, {"value": 5})}), jobs=2)
        stale = {proc.pid for proc in impatient._procs}
        assert run.outcomes["a-hang"].error.exc_type == "TaskTimeout"
        assert run.outcomes["b-ok"].result == 10
        assert pool_module._shared is None
        assert not any(proc.is_alive() for proc in impatient._procs)
        assert not worker_pids() & stale

    def test_oversized_result_leaves_the_pool_warm(self):
        before = worker_pids()
        run = run_plan(Calls({f"big-{index}": (BIG, {"megabytes": 8})
                              for index in range(3)}), jobs=2)
        assert [len(result) for result in results(run).values()] \
            == [8 * 2 ** 20] * 3
        assert worker_pids() == before


class TestTeardown:
    """A closed pool's task-queue feeder thread has ended: left running
    into interpreter exit, it can leak the queue's semaphores."""

    @pytest.mark.parametrize("end", ["close", "terminate"])
    def test_no_feeder_thread_outlives_the_pool(self, end):
        pool = FleetPool(2, name=f"feeder-{end}")
        outcomes = pool.run([FleetTask(key=f"t{index}", runner=FINE,
                                       payload={"value": index})
                             for index in range(4)])
        assert [outcome.result for outcome in outcomes.values()] \
            == [0, 2, 4, 6]
        feeder = pool._tasks._thread
        assert feeder.is_alive()
        getattr(pool, end)()
        assert not feeder.is_alive()

    def test_terminate_is_prompt_when_dead_workers_left_the_pipe_full(self):
        pool = FleetPool(1, name="feeder-full").start()
        for proc in pool._procs:
            proc.kill()
            proc.join(timeout=5)
            assert not proc.is_alive()
        # 8 x 128 KiB of tasks: far more than a pipe buffer holds, so
        # the feeder blocks writing with no worker left to read.
        for index in range(8):
            pool.submit(FleetTask(key=f"k{index}", runner=FINE,
                                  payload={"value": b"x" * 2 ** 17}))
        feeder = pool._tasks._thread
        time.sleep(0.05)
        started = time.monotonic()
        pool.terminate()
        assert time.monotonic() - started < 2.0
        assert not feeder.is_alive()
