"""The work pool: fan out independent tasks, supervised.

The paper's evaluation is a population study — hundreds of table
transfers per campaign — and every transfer is an independent unit of
work: simulate (or read) a capture, run the T-DAT pipeline, emit a
record.  :class:`WorkPool` executes such units either serially
in-process (``workers=1``, the default) or across ``workers`` OS
processes, with four guarantees the campaign layer builds on:

* **determinism** — outcomes come back in submission order and every
  task derives its randomness from its own seed (see
  :func:`derive_seed`), so a parallel run is byte-identical to the
  serial one.  Retries re-run the same pure task with the same seed,
  so they preserve the property;
* **fault isolation** — a task that raises does not kill the pool or
  the sibling tasks: its exception is captured as a structured
  :class:`TaskError` in the returned :class:`TaskOutcome`, for the
  caller to fold into a :class:`~repro.core.health.TraceHealth` ledger;
* **supervision** — each worker is driven over its own duplex pipe
  (no shared queues, so killing one worker can never poison a
  sibling's lock), sends heartbeats while busy, and is subject to a
  per-task execution ``task_timeout`` (queue wait exempt); a crashed,
  hung, or stalled
  worker is terminated and replaced, and its task either retried
  (bounded ``max_retries`` with exponential backoff + deterministic
  jitter) or reported as a retryable :class:`TaskError`;
* **cheap task payloads** — bulky shared inputs (a campaign's spec
  list) travel once per worker as the pool *context*, never once per
  task: inherited for free under the
  ``fork`` start method, pickled once per worker under ``spawn``.

Task functions must be module-level callables (picklable by reference)
and read the shared input via :func:`task_context`.  A task can learn
which attempt it is running as via :func:`task_attempt` and mark its
own failures as worth retrying by raising :class:`TransientTaskError`
(or any exception with a truthy ``retryable`` attribute).

Cooperative cancellation: ``map(..., should_stop=...)`` polls the
callable between dispatches; once it returns true no new task starts,
in-flight tasks drain, and :class:`PoolInterrupted` carries the
completed outcomes — the mechanism behind campaign graceful shutdown.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import multiprocessing
import os
import signal
import threading
import time
import traceback
import warnings
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any

from repro.obs import get_obs, reset_worker_obs

SERIAL = "serial"
MULTIPROCESSING = "multiprocessing"

#: TaskError.kind values synthesized by the supervisor itself (as
#: opposed to captured task exception type names).
TIMEOUT_KIND = "TaskTimeout"
CRASH_KIND = "WorkerCrashed"
STALL_KIND = "WorkerStalled"

#: supervisor poll tick, seconds: the granularity of timeout/stall/
#: cancellation detection while waiting for worker messages.
_TICK_S = 0.05

# Chaos injection points the worker-side fault hooks implement (see
# the RL007 catalog in docs/robustness.md).  The names double as
# :class:`WorkerFault` directives understood by ``_worker_main``.
POINT_WORKER_CRASH = "pool.worker-crash"
POINT_WORKER_STALL = "pool.worker-stall"
POINT_HEARTBEAT_LOSS = "pool.heartbeat-loss"


@dataclass(frozen=True)
class WorkerFault:
    """One worker-side chaos directive, delivered at a (task, attempt).

    ``point`` selects the behaviour: ``pool.worker-crash`` hard-kills
    the worker with ``os._exit(exitcode)`` — before running the task,
    or (``after_task=True``) after computing the result but *before*
    delivering it, the adversarial moment between the last heartbeat
    and the ``("done", ...)`` message; ``pool.worker-stall`` stops
    heartbeats and sleeps ``seconds`` mid-task (the C-level-deadlock
    shape the stall detector exists for); ``pool.heartbeat-loss``
    silently stops heartbeats but lets the task complete — liveness
    noise that must never corrupt a result.

    Instances cross the process boundary inside the pool's ``chaos``
    hooks object, so they must stay plain picklable data.
    """

    point: str
    after_task: bool = False
    seconds: float = 5.0
    exitcode: int = 1


def available_parallelism() -> int:
    """CPUs actually usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def derive_seed(master_seed: int, task: str) -> int:
    """A task's own RNG seed, derived from the campaign master seed.

    Uses the same SHA-256 construction as
    :class:`~repro.netsim.random.RandomStreams`, so adding or reordering
    tasks never perturbs the draws of existing ones — the property that
    makes parallel and serial campaign runs byte-identical.
    """
    digest = hashlib.sha256(f"{master_seed}:{task}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class TransientTaskError(RuntimeError):
    """A task failure worth retrying (fault injection, flaky I/O)."""

    retryable = True


class PoolInterrupted(Exception):
    """``map`` stopped early at the caller's request.

    Raised after in-flight tasks drained; ``outcomes`` holds every
    completed :class:`TaskOutcome`, in submission order.
    """

    def __init__(self, outcomes: list["TaskOutcome"]) -> None:
        super().__init__(
            f"work pool interrupted after {len(outcomes)} completed task(s)"
        )
        self.outcomes = outcomes


@dataclass(frozen=True)
class TaskError:
    """A captured task exception, picklable across process boundaries."""

    kind: str  # exception type name, or a supervisor *_KIND constant
    message: str
    traceback: str = ""
    retryable: bool = False

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class TaskOutcome:
    """What one task produced: a value, or a contained failure.

    ``attempts`` counts executions (1 = no retry); ``retried`` holds
    the error of every failed attempt that was retried, oldest first.
    """

    index: int
    value: Any = None
    error: TaskError | None = None
    attempts: int = 1
    retried: tuple[TaskError, ...] = ()

    @property
    def ok(self) -> bool:
        return self.error is None


# The per-process shared input.  In worker processes it is installed by
# the worker bootstrap (inherited under fork, pickled once under
# spawn); in serial mode WorkPool.map sets it around the task loop.
_TASK_CONTEXT: Any = None
#: which attempt of the current task is executing (0 = first try).
_TASK_ATTEMPT: int = 0


def task_context() -> Any:
    """The context object passed to :meth:`WorkPool.map`, if any."""
    return _TASK_CONTEXT


def task_attempt() -> int:
    """The running task's attempt number (0 on the first execution)."""
    return _TASK_ATTEMPT


def _install_context(context: Any) -> None:
    global _TASK_CONTEXT
    _TASK_CONTEXT = context


def _run_one(
    payload: tuple[Callable[[Any], Any], int, Any], attempt: int = 0
) -> TaskOutcome:
    """Execute one task, containing any exception it raises."""
    global _TASK_ATTEMPT
    fn, index, item = payload
    _TASK_ATTEMPT = attempt
    try:
        return TaskOutcome(index=index, value=fn(item))
    except BaseException as exc:  # noqa: BLE001 - isolation is the point
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return TaskOutcome(
            index=index,
            error=TaskError(
                kind=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
                retryable=bool(getattr(exc, "retryable", False)),
            ),
        )
    finally:
        _TASK_ATTEMPT = 0


# ---------------------------------------------------------------------- #
# Worker side                                                             #
# ---------------------------------------------------------------------- #
def _worker_main(
    conn, context: Any, heartbeat_interval_s: float, chaos: Any = None
) -> None:
    """Serve tasks over ``conn`` until told to exit.

    Protocol (parent -> worker): ``("task", attempt, payload)`` or
    ``("exit",)``.  Worker -> parent: ``("start", index, attempt)``
    when a task begins, ``("beat",)`` every heartbeat interval while
    alive, ``("done", outcome)`` when a task finishes.

    ``chaos`` (test-only, installed via ``WorkPool(chaos=...)``) is
    consulted per (task index, attempt): a returned
    :class:`WorkerFault` makes this worker crash, stall or go silent
    at that exact point — the seeded fault schedules ``repro.chaos``
    drives through the supervisor.
    """
    # Graceful campaign shutdown is the parent's decision: a terminal
    # Ctrl-C must not kill in-flight episodes before they can be
    # checkpointed, so workers ignore SIGINT and obey the parent.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    # A forked worker inherits the parent's live observability context;
    # recordings into it would die with the worker and cost time
    # meanwhile.  Reset to the no-op path; tasks that want worker-side
    # observability install their own task-local context.
    reset_worker_obs()
    _install_context(context)
    send_lock = threading.Lock()
    stop_beats = threading.Event()

    def _send(message) -> None:
        with send_lock:
            conn.send(message)

    def _beat_loop() -> None:
        while not stop_beats.wait(heartbeat_interval_s):
            try:
                _send(("beat",))
            except (BrokenPipeError, OSError):
                return

    beater = None
    if heartbeat_interval_s and heartbeat_interval_s > 0:
        beater = threading.Thread(
            target=_beat_loop, name="pool-heartbeat", daemon=True
        )
        beater.start()
    try:
        while True:
            message = conn.recv()
            if message[0] == "exit":
                break
            _, attempt, payload = message
            fault = (
                chaos.fault_for(payload[1], attempt)
                if chaos is not None else None
            )
            if fault is not None and fault.point == POINT_HEARTBEAT_LOSS:
                # Go silent, but keep working: heartbeat loss alone
                # must never change a result, only liveness accounting.
                stop_beats.set()
            _send(("start", payload[1], attempt))
            if fault is not None and fault.point == POINT_WORKER_CRASH:
                if not fault.after_task:
                    os._exit(fault.exitcode)
            if fault is not None and fault.point == POINT_WORKER_STALL:
                stop_beats.set()
                time.sleep(fault.seconds)
            outcome = _run_one(payload, attempt=attempt)
            if (
                fault is not None
                and fault.point == POINT_WORKER_CRASH
                and fault.after_task
            ):
                # The satellite scenario: die *between* the last
                # heartbeat and result delivery — the computed outcome
                # is lost and the supervisor must re-run, not wait.
                os._exit(fault.exitcode)
            _send(("done", outcome))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        stop_beats.set()
        if beater is not None:
            # The beat loop wakes immediately once stop_beats is set;
            # the timeout only bounds a beater wedged mid-send on a
            # full pipe whose reader died.
            beater.join(timeout=1.0)
        try:
            conn.close()
        except OSError:
            pass


@dataclass
class _Worker:
    """Parent-side handle of one supervised worker process."""

    proc: Any
    conn: Any
    busy: tuple[int, int] | None = None  # (task index, attempt)
    payload: tuple | None = None
    retried: tuple[TaskError, ...] = ()
    dispatched_at: float = 0.0  # when the parent sent the task
    enqueued_at: float = 0.0  # when the task became dispatchable
    # When the worker reported actually *starting* the task.  The
    # task_timeout clock runs from here, never from dispatch: time a
    # task spent queued (behind a slow sibling, or behind a spawning
    # worker's interpreter boot and context unpickle) is not the
    # task's to pay.  A worker that never reports a start is the
    # stall/crash detectors' problem, not the timeout's.
    exec_started_at: float | None = None
    last_beat: float = 0.0
    dead: bool = False


class WorkPool:
    """Execute independent tasks serially or across worker processes.

    ``workers <= 1`` selects the serial backend (no subprocesses, no
    pickling); ``workers > 1`` the supervised multiprocessing backend.
    When process creation is unavailable (restricted sandboxes), the
    pool degrades to serial execution with a warning rather than
    failing — results are identical either way.

    Supervision knobs:

    * ``task_timeout`` — wall-clock seconds one task may *execute*
      before its worker is killed and the task marked
      :data:`TIMEOUT_KIND`.  The clock starts when the worker reports
      the task started, so time spent queued — behind a slow sibling,
      or behind a spawning worker's interpreter boot — is never charged
      against the budget (observable as the ``pool.queue_wait_s``
      metric).  Parallel backend only: the serial backend cannot
      preempt itself, so in-process hangs are the simulation watchdog's
      job;
    * ``max_retries`` — how many times a *retryable* failure (worker
      crash, timeout, stall, :class:`TransientTaskError`) is re-run
      before being reported;
    * ``retry_backoff_s`` — base of the exponential backoff between
      retries; the jitter is derived deterministically from the task
      index and attempt (see :meth:`retry_delay`), so schedules are
      reproducible;
    * ``heartbeat_interval_s`` — how often busy workers prove liveness;
      ``stall_timeout_s`` (optional) kills a worker whose process is
      alive but has stopped heartbeating (C-level deadlock, SIGSTOP).

    After each ``map`` the ``stats`` dict reports what the supervisor
    saw: heartbeats received, timeouts, crashes, stalls, retries,
    worker replacements.
    """

    def __init__(
        self,
        workers: int = 1,
        start_method: str | None = None,
        task_timeout: float | None = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.05,
        heartbeat_interval_s: float = 0.5,
        stall_timeout_s: float | None = None,
        chaos: Any = None,
    ) -> None:
        self.workers = max(1, int(workers))
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self.task_timeout = task_timeout
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))
        self.heartbeat_interval_s = heartbeat_interval_s
        self.stall_timeout_s = stall_timeout_s
        # Worker-side fault hooks (repro.chaos): an object with a
        # picklable ``fault_for(index, attempt) -> WorkerFault | None``.
        # Parallel backend only — the serial backend runs tasks in the
        # supervisor's own process, where a crash directive would kill
        # the campaign itself rather than model a worker failure.
        self.chaos = chaos
        self.stats: dict[str, int] = {}

    @property
    def backend(self) -> str:
        return SERIAL if self.workers <= 1 else MULTIPROCESSING

    def retry_delay(self, index: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of task ``index``.

        Exponential in the attempt with a deterministic jitter fraction
        in [0.5, 1.0) derived from (index, attempt) — reproducible, yet
        decorrelated across tasks so a burst of transient failures does
        not retry in lockstep.
        """
        if self.retry_backoff_s <= 0:
            return 0.0
        jitter = derive_seed(index, f"retry-{attempt}") / 2**64
        return self.retry_backoff_s * (2 ** (attempt - 1)) * (0.5 + 0.5 * jitter)

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        context: Any = None,
        should_stop: Callable[[], bool] | None = None,
        on_outcome: Callable[[TaskOutcome], None] | None = None,
    ) -> list[TaskOutcome]:
        """Run ``fn`` over ``items``; outcomes in submission order.

        ``fn`` must be a module-level callable when the pool is
        parallel.  ``context`` is made available to every task via
        :func:`task_context` — shipped once per worker, not per task.
        ``on_outcome`` is invoked in the parent as each task resolves
        (completion order under the parallel backend) — the campaign
        layer's incremental checkpoint hook.  ``should_stop`` is polled
        between dispatches; once true, in-flight tasks drain and
        :class:`PoolInterrupted` is raised with the completed outcomes.
        """
        payloads = [(fn, i, item) for i, item in enumerate(items)]
        try:
            if self.workers <= 1 or len(payloads) <= 1:
                return self._map_serial(
                    payloads, context, should_stop, on_outcome
                )
            try:
                return self._map_supervised(
                    payloads, context, should_stop, on_outcome
                )
            except _SpawnFailed as exc:
                warnings.warn(
                    f"multiprocessing unavailable ({exc.__cause__}); "
                    "falling back to serial execution",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return self._map_serial(
                    payloads, context, should_stop, on_outcome
                )
        finally:
            self._flush_stats_metrics()

    def _flush_stats_metrics(self) -> None:
        """Publish the supervisor's per-map stats as pool counters.

        All pool metrics are wall-domain: what the supervisor saw
        depends on the execution substrate (worker count, host load),
        so none of them participate in deterministic snapshots.
        """
        obs = get_obs()
        if not obs.enabled:
            return
        for key, value in self.stats.items():
            if value:
                obs.metrics.counter(f"pool.{key}", wall=True).inc(value)

    # ------------------------------------------------------------------ #
    # Serial backend                                                     #
    # ------------------------------------------------------------------ #
    def _map_serial(
        self,
        payloads: Sequence[tuple],
        context: Any,
        should_stop: Callable[[], bool] | None,
        on_outcome: Callable[[TaskOutcome], None] | None,
    ) -> list[TaskOutcome]:
        _install_context(context)
        self.stats = _fresh_stats()
        obs = get_obs()
        map_started = time.monotonic()
        try:
            outcomes: list[TaskOutcome] = []
            for payload in payloads:
                if should_stop is not None and should_stop():
                    raise PoolInterrupted(outcomes)
                if obs.enabled:
                    # Serially, a task "queues" behind every task ahead
                    # of it — the same wait the parallel backend would
                    # measure, just with one lane.
                    started = time.monotonic()
                    obs.metrics.histogram(
                        "pool.queue_wait_s", wall=True
                    ).observe(started - map_started)
                    outcome = self._run_with_retries(payload)
                    obs.metrics.histogram(
                        "pool.execute_s", wall=True
                    ).observe(time.monotonic() - started)
                else:
                    outcome = self._run_with_retries(payload)
                outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
            return outcomes
        finally:
            _install_context(None)

    def _run_with_retries(self, payload: tuple) -> TaskOutcome:
        index = payload[1]
        retried: list[TaskError] = []
        attempt = 0
        while True:
            outcome = _run_one(payload, attempt=attempt)
            if (
                outcome.ok
                or not outcome.error.retryable
                or attempt >= self.max_retries
            ):
                outcome.attempts = attempt + 1
                outcome.retried = tuple(retried)
                return outcome
            retried.append(outcome.error)
            self.stats["retries"] += 1
            attempt += 1
            delay = self.retry_delay(index, attempt)
            if delay > 0:
                time.sleep(delay)

    # ------------------------------------------------------------------ #
    # Supervised parallel backend                                        #
    # ------------------------------------------------------------------ #
    def _spawn_worker(self, ctx, context: Any) -> _Worker:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(
                child_conn, context, self.heartbeat_interval_s, self.chaos,
            ),
            daemon=True,
        )
        try:
            proc.start()
        except (OSError, ImportError) as exc:
            parent_conn.close()
            child_conn.close()
            raise _SpawnFailed() from exc
        child_conn.close()  # the parent keeps only its own end
        now = time.monotonic()
        self.stats["spawned"] += 1
        return _Worker(proc=proc, conn=parent_conn, last_beat=now)

    def _map_supervised(
        self,
        payloads: Sequence[tuple],
        context: Any,
        should_stop: Callable[[], bool] | None,
        on_outcome: Callable[[TaskOutcome], None] | None,
    ) -> list[TaskOutcome]:
        ctx = multiprocessing.get_context(self.start_method)
        total = len(payloads)
        self.stats = _fresh_stats()
        obs = get_obs()
        results: dict[int, TaskOutcome] = {}
        # (attempt, payload, retried-errors, enqueued-at) not yet
        # dispatched; enqueued-at marks when the task became
        # dispatchable, the zero point of its queue-wait measurement.
        map_started = time.monotonic()
        pending: deque[tuple[int, tuple, tuple[TaskError, ...], float]] = deque(
            (0, payload, (), map_started) for payload in payloads
        )
        # min-heap of retries waiting out their backoff delay.
        delayed: list[tuple[float, int, int, tuple, tuple]] = []
        tiebreak = itertools.count()
        workers: list[_Worker] = []
        stopping = False

        def resolve(worker: _Worker, outcome: TaskOutcome, now: float) -> None:
            """Fold a finished attempt: record it, or schedule a retry."""
            index, attempt = worker.busy
            retried = worker.retried
            payload = worker.payload
            worker.busy = None
            worker.payload = None
            worker.retried = ()
            worker.exec_started_at = None
            if (
                outcome.ok
                or not outcome.error.retryable
                or attempt >= self.max_retries
            ):
                outcome.attempts = attempt + 1
                outcome.retried = retried
                results[index] = outcome
                if on_outcome is not None:
                    on_outcome(outcome)
                return
            self.stats["retries"] += 1
            due = now + self.retry_delay(index, attempt + 1)
            heapq.heappush(
                delayed,
                (due, next(tiebreak), attempt + 1, payload,
                 retried + (outcome.error,)),
            )

        def fail_busy(worker: _Worker, kind: str, message: str, now: float):
            """Account a supervisor-detected failure of a busy worker."""
            if worker.busy is None:
                return
            index, _ = worker.busy
            error = TaskError(kind=kind, message=message, retryable=True)
            resolve(worker, TaskOutcome(index=index, error=error), now)

        try:
            workers = [
                self._spawn_worker(ctx, context)
                for _ in range(min(self.workers, total))
            ]
            while True:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, attempt, payload, retried = heapq.heappop(delayed)
                    # A retry is dispatchable only once its backoff has
                    # elapsed; its queue wait starts now, not when the
                    # failed attempt resolved.
                    pending.append((attempt, payload, retried, now))
                if not stopping and should_stop is not None and should_stop():
                    stopping = True
                if stopping:
                    # Drain mode: no new dispatches, in-flight finish.
                    pending.clear()
                    delayed.clear()
                if len(results) == total:
                    break
                busy = [w for w in workers if w.busy is not None]
                if stopping and not busy:
                    break
                if not busy and not pending and not delayed:
                    raise RuntimeError(
                        "work pool lost track of "
                        f"{total - len(results)} task(s)"
                    )
                # Dispatch to idle workers.  Connection.send pickles
                # synchronously, so an unpicklable payload raises right
                # here in the parent — and the finally block below
                # still reaps every worker (no leaked processes).
                if not stopping:
                    for worker in workers:
                        if worker.busy is None and pending:
                            attempt, payload, retried, queued_at = (
                                pending.popleft()
                            )
                            try:
                                worker.conn.send(("task", attempt, payload))
                            except (BrokenPipeError, OSError):
                                # The worker died while idle — between
                                # delivering its last result and this
                                # dispatch.  The task is not lost:
                                # requeue it at the front and let the
                                # reconcile pass below retire (and,
                                # with work pending, replace) the dead
                                # worker instead of crashing the map.
                                pending.appendleft(
                                    (attempt, payload, retried, queued_at)
                                )
                                worker.dead = True
                                continue
                            worker.busy = (payload[1], attempt)
                            worker.payload = payload
                            worker.retried = retried
                            worker.dispatched_at = now
                            worker.enqueued_at = queued_at
                            worker.exec_started_at = None
                            worker.last_beat = now
                # Wait for worker messages (or a tick, to re-check
                # timeouts, stalls, deaths and cancellation).
                conns = {w.conn: w for w in workers if not w.dead}
                if conns:
                    ready = mp_connection.wait(list(conns), timeout=_TICK_S)
                else:
                    time.sleep(_TICK_S)
                    ready = []
                now = time.monotonic()
                for conn in ready:
                    worker = conns[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        worker.dead = True
                        continue
                    tag = message[0]
                    if tag == "beat":
                        if obs.enabled and worker.last_beat:
                            obs.metrics.histogram(
                                "pool.heartbeat_gap_s", wall=True
                            ).observe(now - worker.last_beat)
                        worker.last_beat = now
                        self.stats["beats"] += 1
                    elif tag == "start":
                        # The worker has actually begun executing: the
                        # task_timeout clock starts here, and everything
                        # before it — queued behind a busy sibling, a
                        # spawning worker's interpreter boot, context
                        # unpickling — is accounted as queue wait.
                        worker.exec_started_at = now
                        worker.last_beat = now
                        if obs.enabled:
                            obs.metrics.histogram(
                                "pool.queue_wait_s", wall=True
                            ).observe(now - worker.enqueued_at)
                    elif tag == "done" and worker.busy is not None:
                        if obs.enabled and worker.exec_started_at is not None:
                            obs.metrics.histogram(
                                "pool.execute_s", wall=True
                            ).observe(now - worker.exec_started_at)
                        resolve(worker, message[1], now)
                # Reconcile worker health: kill the hung and stalled,
                # account the dead, replace whoever more work needs.
                now = time.monotonic()
                for worker in list(workers):
                    retire_kind = None
                    if worker.dead or not worker.proc.is_alive():
                        retire_kind = CRASH_KIND
                        detail = (
                            f"worker exited (code {worker.proc.exitcode}) "
                            f"while running its task"
                        )
                    elif worker.busy is not None:
                        # Timeout runs from the worker's reported exec
                        # start, never from dispatch: queue wait is not
                        # the task's to pay.  A worker that never sends
                        # "start" is covered by stall/crash detection.
                        elapsed = (
                            now - worker.exec_started_at
                            if worker.exec_started_at is not None
                            else 0.0
                        )
                        beat_gap = now - worker.last_beat
                        if (
                            self.task_timeout is not None
                            and worker.exec_started_at is not None
                            and elapsed > self.task_timeout
                        ):
                            retire_kind = TIMEOUT_KIND
                            detail = (
                                f"task exceeded its {self.task_timeout:g}s "
                                f"budget (ran {elapsed:.1f}s)"
                            )
                            self.stats["timeouts"] += 1
                        elif (
                            self.stall_timeout_s is not None
                            and self.heartbeat_interval_s
                            and beat_gap > self.stall_timeout_s
                        ):
                            retire_kind = STALL_KIND
                            detail = (
                                "worker stopped heartbeating for "
                                f"{beat_gap:.1f}s mid-task"
                            )
                            self.stats["stalls"] += 1
                    if retire_kind is None:
                        continue
                    if retire_kind == CRASH_KIND:
                        self.stats["crashes"] += 1
                    workers.remove(worker)
                    self._kill(worker)
                    if worker.busy is not None:
                        index, _ = worker.busy
                        fail_busy(
                            worker, retire_kind,
                            f"task {index}: {detail}", now,
                        )
                    # Replace the worker only while undispatched work
                    # remains; retries pushed by fail_busy count.
                    if pending or delayed:
                        self.stats["replacements"] += 1
                        workers.append(self._spawn_worker(ctx, context))
            if stopping and len(results) < total:
                raise PoolInterrupted([results[i] for i in sorted(results)])
            return [results[i] for i in range(total)]
        finally:
            self._shutdown_workers(workers)

    def _kill(self, worker: _Worker) -> None:
        try:
            worker.proc.terminate()
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
        except OSError:
            pass
        try:
            worker.conn.close()
        except OSError:
            pass

    def _shutdown_workers(self, workers: list[_Worker]) -> None:
        """Stop every worker — the ``finally`` path behind every map.

        Idle workers get a cooperative exit message; anything still
        alive after a short grace (including workers busy when the map
        raised) is terminated and joined, so a parent-side exception
        can never leak worker processes.
        """
        for worker in workers:
            if worker.busy is None and worker.proc.is_alive():
                try:
                    worker.conn.send(("exit",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            try:
                worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if worker.proc.is_alive():
                    worker.proc.terminate()
                    worker.proc.join(timeout=1.0)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=1.0)
            except OSError:
                pass
            try:
                worker.conn.close()
            except OSError:
                pass


class _SpawnFailed(Exception):
    """Worker process creation failed (restricted environment)."""


def _fresh_stats() -> dict[str, int]:
    return {
        "beats": 0,
        "timeouts": 0,
        "stalls": 0,
        "crashes": 0,
        "retries": 0,
        "spawned": 0,
        "replacements": 0,
    }
