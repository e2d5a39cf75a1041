"""A spawn-based worker pool for independent simulation tasks.

The pool is deliberately *declarative*: a :class:`FleetTask` carries a
task **key**, the **name** of a registered runner (or a
``"module:callable"`` dotted path importable in the worker), and a
plain-data **payload** of keyword arguments.  Nothing live — no open
runtimes, no queues, no bound methods — ever crosses the process
boundary; workers rebuild everything from the declarative spec, which
is what keeps a fleet run a pure function of its task list.

Robustness contract:

* every result and every failure comes back **tagged by task key**, so
  callers can merge outputs in deterministic key order regardless of
  completion order;
* an exception inside a runner is caught in the worker and surfaced as
  a structured :class:`FleetTaskError` carrying the task key, the
  remote exception type, and the full remote traceback text — never a
  bare hang;
* a worker that dies outright (``os._exit``, OOM-kill, segfault) is
  reaped: its in-flight task errors with the exit code, surviving
  workers keep draining the queue, and if *every* worker is gone the
  still-queued tasks error out instead of deadlocking the parent;
* a task still running :data:`TASK_TIMEOUT_S` after its worker
  acknowledged it is a hang: the worker is killed and the task errors
  as ``TaskTimeout`` with its key, exactly like a crash;
* results are pre-pickled inside the worker so an unpicklable return
  value becomes an ordinary per-task error instead of a mid-send
  crash.

Results travel over a **private pipe per worker**, written
synchronously from the worker's main thread — never a shared queue.  A
shared result queue puts a feeder thread and a shared write lock
between every worker and the parent, and a worker dying mid-send
(``os._exit`` fires while its feeder holds the lock) poisons the lock
and silently hangs every *surviving* worker's results.  With private
pipes a crash can only sever the crashing worker's own channel, which
the parent observes as an immediate EOF — crash detection is
event-driven, not a liveness poll.

``spawn`` (not ``fork``) is used unconditionally: forked children would
inherit the parent's live simulators, RNG state, and open spool file
handles — exactly the implicit state this layer exists to exclude.

Spawning a worker and importing ``repro`` in it costs a few hundred
milliseconds — more than many whole sweeps — so the in-process callers
(``run_plan``, ``find_capacity(parallel=)``, ``place.search``) do not
build pools of their own: they borrow the process's one warm pool
through :func:`shared_pool`, which lives until :func:`shutdown` or
interpreter exit.  See "Pool lifetime" in ARCHITECTURE.md.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import time
import traceback
import typing as _t

#: How long the collector's ``connection.wait`` sleeps before checking
#: worker liveness again (seconds).  EOFs wake it immediately; this is
#: only the heartbeat for the belt-and-braces ``is_alive`` sweep.
_REAP_INTERVAL_S = 0.25

#: Parent-side join grace before a lingering worker is terminated.
_JOIN_TIMEOUT_S = 5.0

#: How long one task may run, from its worker's ack, before it counts
#: as hung (seconds).  Generous on purpose: the slowest task in the
#: repo (a full-size bench artefact) takes about a minute; this only
#: has to turn "forever" into a diagnosis.
TASK_TIMEOUT_S = 1800.0


class FleetSpecError(ValueError):
    """A task spec is malformed (bad key, duplicate, unpicklable)."""


class FleetTaskError(Exception):
    """One task failed in a worker; carries the remote evidence.

    ``remote_traceback`` is the worker-side ``traceback.format_exc()``
    text (or a synthesized note for hard crashes), so the parent can
    print exactly what the worker saw without re-raising a foreign
    exception type.
    """

    def __init__(self, key: str, exc_type: str, message: str,
                 remote_traceback: str):
        super().__init__(f"fleet task {key!r} failed: "
                         f"{exc_type}: {message}")
        self.key = key
        self.exc_type = exc_type
        self.message = message
        self.remote_traceback = remote_traceback


@dataclasses.dataclass(frozen=True)
class FleetTask:
    """One declarative unit of work.

    ``runner`` names a callable in :data:`repro.fleet.tasks.RUNNERS`
    or a ``"package.module:function"`` path the worker can import;
    ``payload`` is the keyword arguments it receives.  Both must be
    picklable plain data — see the "what must never be pickled" rules
    in ARCHITECTURE.md.
    """

    key: str
    runner: str
    payload: _t.Mapping[str, object] = dataclasses.field(
        default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            raise FleetSpecError("fleet task key must be non-empty")
        if not self.runner:
            raise FleetSpecError(f"task {self.key!r} names no runner")

    def encode(self) -> bytes:
        """The wire form; raises :class:`FleetSpecError` eagerly."""
        try:
            return pickle.dumps((self.runner, dict(self.payload)),
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise FleetSpecError(
                f"task {self.key!r} payload is not picklable — task "
                f"specs must be declarative plain data ({exc})") from exc


@dataclasses.dataclass(frozen=True)
class TaskOutcome:
    """What one task produced: a result, or a structured error."""

    key: str
    result: object = None
    error: FleetTaskError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _check_unique(tasks: _t.Sequence[FleetTask]) -> None:
    seen: set[str] = set()
    for task in tasks:
        if task.key in seen:
            raise FleetSpecError(f"duplicate fleet task key {task.key!r}")
        seen.add(task.key)


# -- worker side --------------------------------------------------------------

def _worker_main(index: int, task_queue, conn) -> None:
    """Worker loop: ack, run, report.  Lives in the spawned child.

    ``conn`` is this worker's private pipe end; every send happens
    synchronously from this thread, so a hard crash can never leave a
    half-held shared lock behind.
    """
    from .tasks import resolve_runner

    while True:
        item = task_queue.get()
        if item is None:
            conn.close()
            return
        key, blob = item
        # Ack *before* any work so the parent can pin a hard crash to
        # this task; the window where a death loses a task silently is
        # one queue.get().
        conn.send(("ack", key, index))
        try:
            runner_name, payload = pickle.loads(blob)
            fn = resolve_runner(runner_name)
            result = fn(**payload)
            out = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 - must report, not die
            conn.send(("err", key, type(exc).__name__, str(exc),
                       traceback.format_exc()))
        else:
            conn.send(("ok", key, out))


# -- parent side --------------------------------------------------------------

def _join_feeder(tasks: "multiprocessing.Queue") -> None:
    """Wait, boundedly, for the closed task queue's feeder thread to end.

    The feeder is a daemon thread holding the last references to the
    queue's semaphores.  Left running into interpreter exit it can be
    stopped between a semaphore's unlink and its unregistering, and the
    resource tracker then reports the semaphore leaked.  After
    ``close()`` the feeder flushes what the queue still buffers into the
    pipe, then exits; once the workers are gone nothing else reads that
    pipe, so the parent reads it empty until the feeder is done.  It
    reads raw bytes, not messages: a worker killed mid-read leaves the
    stream mid-message.
    """
    feeder = tasks._thread  # type: ignore[attr-defined]
    reader = tasks._reader  # type: ignore[attr-defined]
    deadline = time.monotonic() + _JOIN_TIMEOUT_S
    while feeder is not None and feeder.is_alive():
        if time.monotonic() > deadline:  # pragma: no cover - stuck feeder
            tasks.cancel_join_thread()
            return
        feeder.join(0.01)
        try:
            while reader.poll() and os.read(reader.fileno(), 1 << 16):
                pass
        except (OSError, ValueError):
            pass  # the feeder closed the pipe on its way out
    tasks.join_thread()


class FleetPool:
    """A persistent pool of spawned workers; a context manager.

    Use :meth:`run` for a batch (results keyed and key-ordered), or
    :meth:`submit` + :meth:`as_completed` to stream outcomes as they
    finish.  The pool survives any number of batches.

    Code inside ``repro`` does not construct one: it borrows the
    process-wide warm pool with :func:`shared_pool`.  Construct one
    yourself to own its lifetime — pass it as ``pool=`` to ``run_plan``
    or ``find_capacity`` and it is used instead of the shared one and
    left open.  ``task_timeout`` exists so tests can shorten
    :data:`TASK_TIMEOUT_S`.
    """

    def __init__(self, workers: int, *, name: str = "fleet",
                 task_timeout: float = TASK_TIMEOUT_S):
        if workers < 1:
            raise FleetSpecError(f"pool needs >= 1 worker, got {workers}")
        if not task_timeout > 0:
            raise FleetSpecError(
                f"task timeout must be positive, got {task_timeout}")
        self.workers = workers
        self.name = name
        self.task_timeout = task_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._tasks: "multiprocessing.Queue | None" = None
        self._conns: dict[int, _t.Any] = {}   # worker index -> read end
        self._procs: list = []
        self._pending: dict[str, FleetTask] = {}
        #: key -> (worker index, monotonic deadline), from ack to answer.
        self._started: dict[str, tuple[int, float]] = {}
        self._reaped: set[int] = set()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FleetPool":
        if self._procs:
            return self
        self._tasks = self._ctx.Queue()
        for index in range(self.workers):
            receive, send = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(index, self._tasks, send),
                name=f"{self.name}-worker-{index}",
                daemon=True,
            )
            proc.start()
            # Drop the parent's copy of the write end: the worker now
            # holds the only one, so its death reads as EOF here.
            send.close()
            self._conns[index] = receive
            self._procs.append(proc)
        return self

    def __enter__(self) -> "FleetPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def healthy(self) -> bool:
        """Fit to take another batch: open, idle, no worker lost.

        False after any ``WorkerCrash``/``PoolExhausted``/``TaskTimeout``
        outcome, after a batch was abandoned half-collected, and when a
        worker has died between batches.
        """
        return (not self._closed and not self._reaped
                and not self._pending
                and all(proc.is_alive() for proc in self._procs))

    def close(self) -> None:
        """Let idle workers exit on their own, then :meth:`terminate`."""
        if self._closed:
            return
        self._closed = True
        if self._tasks is not None:
            for _ in self._procs:
                try:
                    self._tasks.put(None)
                except (OSError, ValueError):  # pragma: no cover - teardown
                    break
        for proc in self._procs:
            proc.join(timeout=_JOIN_TIMEOUT_S)
        self.terminate()

    def terminate(self) -> None:
        """Kill every worker still alive and release the parent's ends.

        Safe on idle workers (they hold nothing but their own queue and
        pipe) and the only way out of busy or stuck ones.  Idempotent.
        """
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
        for proc in self._procs:
            proc.join(timeout=_JOIN_TIMEOUT_S)
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
        if self._tasks is not None:
            self._tasks.close()
            _join_feeder(self._tasks)
        self._tasks = None

    # -- submission & collection ---------------------------------------------

    def submit(self, task: FleetTask) -> None:
        """Queue one task; encodes (and so validates) it eagerly."""
        if self._closed:
            raise FleetSpecError("pool is closed")
        if task.key in self._pending:
            raise FleetSpecError(f"duplicate fleet task key {task.key!r}")
        blob = task.encode()
        self.start()
        assert self._tasks is not None
        self._pending[task.key] = task
        self._tasks.put((task.key, blob))

    def as_completed(self) -> _t.Iterator[TaskOutcome]:
        """Yield an outcome per pending task, in completion order.

        Never deadlocks: a dead worker's severed pipe is an immediate
        EOF that reaps its in-flight task into a crash outcome, a task
        that outlives ``task_timeout`` has its worker killed, and if the
        whole pool is gone the remaining queued tasks error out.
        """
        while self._pending:
            live = {index: conn for index, conn in self._conns.items()
                    if index not in self._reaped}
            if not live:
                yield from self._exhausted()
                return
            ready = multiprocessing.connection.wait(
                list(live.values()), timeout=_REAP_INTERVAL_S)
            if not ready:
                # Heartbeat sweep: catches a worker that died before
                # its pipe was even set up.
                yield from self._reap_if_dead(
                    index for index, proc in enumerate(self._procs)
                    if not proc.is_alive())
            by_conn = {id(conn): index for index, conn in live.items()}
            for conn in ready:
                index = by_conn[id(conn)]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    yield from self._reap_if_dead([index])
                    continue
                yield from self._dispatch(message)
            yield from self._kill_overdue()

    def _dispatch(self, message) -> _t.Iterator[TaskOutcome]:
        kind = message[0]
        if kind == "ack":
            _kind, key, index = message
            self._started[key] = (index,
                                  time.monotonic() + self.task_timeout)
        elif kind == "ok":
            _kind, key, blob = message
            self._started.pop(key, None)
            if self._pending.pop(key, None) is not None:
                yield TaskOutcome(key=key, result=pickle.loads(blob))
        elif kind == "err":
            _kind, key, exc_type, text, tb = message
            self._started.pop(key, None)
            if self._pending.pop(key, None) is not None:
                yield TaskOutcome(key=key, error=FleetTaskError(
                    key, exc_type, text, tb))
        # anything else: ignore (forward compatibility)

    def _reap_if_dead(self, indices: _t.Iterable[int]
                      ) -> _t.Iterator[TaskOutcome]:
        """Turn dead workers' in-flight tasks into crash outcomes."""
        for index in indices:
            if index in self._reaped:
                continue
            proc = self._procs[index]
            proc.join(timeout=_JOIN_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - EOF without death
                continue
            yield from self._lose_worker(
                index, "WorkerCrash",
                f"worker {index} died with exit code {proc.exitcode} "
                f"while running this task",
                f"worker process {index} terminated with exit code "
                f"{proc.exitcode}")

    def _kill_overdue(self) -> _t.Iterator[TaskOutcome]:
        """Kill workers whose task has outlived ``task_timeout``."""
        now = time.monotonic()
        for index in sorted({index for index, deadline
                             in self._started.values() if deadline < now}):
            proc = self._procs[index]
            # SIGKILL, not SIGTERM: a runner stuck in native code or
            # with signals masked must still go.
            proc.kill()
            proc.join(timeout=_JOIN_TIMEOUT_S)
            yield from self._lose_worker(
                index, "TaskTimeout",
                f"still running after {self.task_timeout:g} s on worker "
                f"{index}, which was killed",
                f"worker process {index} was killed on the task timeout")

    def _lose_worker(self, index: int, exc_type: str, message: str,
                     note: str) -> _t.Iterator[TaskOutcome]:
        """Worker ``index`` is gone: fail what it was running."""
        self._reaped.add(index)
        for key, (owner, _deadline) in list(self._started.items()):
            if owner != index:
                continue
            del self._started[key]
            if self._pending.pop(key, None) is not None:
                yield TaskOutcome(key=key, error=FleetTaskError(
                    key, exc_type, message,
                    f"(no remote traceback: {note})"))
        if self._pending and len(self._reaped) == len(self._procs):
            yield from self._exhausted()

    def _exhausted(self) -> _t.Iterator[TaskOutcome]:
        """The whole pool is gone; queued tasks can never run."""
        for key in sorted(self._pending):
            self._pending.pop(key)
            yield TaskOutcome(key=key, error=FleetTaskError(
                key, "PoolExhausted",
                "every worker died before this task started",
                "(no remote traceback: the task was still queued)"))

    def run(self, tasks: _t.Sequence[FleetTask]
            ) -> dict[str, TaskOutcome]:
        """Submit a batch and collect every outcome, key-ordered."""
        tasks = tuple(tasks)
        _check_unique(tasks)
        for task in tasks:
            self.submit(task)
        outcomes = {outcome.key: outcome for outcome in self.as_completed()}
        return {key: outcomes[key] for key in sorted(outcomes)}


# -- the process-wide warm pool -----------------------------------------------

_shared: FleetPool | None = None
#: Held for the whole of a borrow: one batch at a time owns the pool.
_shared_lock = threading.Lock()


def _evict() -> None:
    """Terminate and forget the warm pool; the caller holds the lock."""
    global _shared
    if _shared is not None:
        _shared.terminate()
        _shared = None


@contextlib.contextmanager
def shared_pool(workers: int) -> _t.Iterator[FleetPool]:
    """Borrow the process's warm pool, ``workers`` wide, for one caller.

    The pool is started on first use and handed out again for as long
    as it is :attr:`~FleetPool.healthy`.  Asking for a different width
    replaces it, so at most one is alive.  If the borrow leaves it
    unhealthy — a crash, a timeout, an exception that abandoned a batch
    — it is terminated on the spot and the next borrow cold-starts.
    Not public API: it is how ``run_plan``, ``find_capacity`` and
    ``place.search`` get workers.
    """
    global _shared
    with _shared_lock:
        if _shared is not None and (_shared.workers != workers
                                    or not _shared.healthy):
            _evict()
        if _shared is None:
            _shared = FleetPool(workers, name="shared")
        try:
            yield _shared.start()
        finally:
            if not _shared.healthy:
                _evict()


def shutdown() -> None:
    """Terminate the warm pool, if there is one.  Idempotent.

    Runs at interpreter exit; call it earlier to give back the idle
    workers' memory.  The next borrow cold-starts a new pool.
    """
    with _shared_lock:
        _evict()


atexit.register(shutdown)


def run_serial(tasks: _t.Sequence[FleetTask]) -> dict[str, TaskOutcome]:
    """Execute tasks in-process, in submission order; key-ordered result.

    The ``--jobs 1`` path: same task specs, same runners, same outcome
    shape — no processes.  Exceptions become :class:`FleetTaskError`s
    exactly as they would across the wire, so error handling is
    identical in both modes.
    """
    from .tasks import resolve_runner

    tasks = tuple(tasks)
    _check_unique(tasks)
    outcomes: dict[str, TaskOutcome] = {}
    for task in tasks:
        task.encode()  # enforce the same declarative contract as spawn
        try:
            fn = resolve_runner(task.runner)
            result = fn(**dict(task.payload))
        except Exception as exc:
            outcomes[task.key] = TaskOutcome(
                key=task.key, error=FleetTaskError(
                    task.key, type(exc).__name__, str(exc),
                    traceback.format_exc()))
        else:
            outcomes[task.key] = TaskOutcome(key=task.key, result=result)
    return {key: outcomes[key] for key in sorted(outcomes)}


__all__ = [
    "FleetPool",
    "FleetSpecError",
    "FleetTask",
    "FleetTaskError",
    "TaskOutcome",
    "run_serial",
    "shutdown",
]
