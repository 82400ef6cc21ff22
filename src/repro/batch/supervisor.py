"""The worker runtime: owned worker processes with hard isolation.

Every multi-process front-end runs on one class, :class:`WorkerPool`.
The batch driver (:func:`repro.batch.driver.iter_batch` with
``jobs >= 2``) keeps one dispatcher thread per worker on it; the
``repro serve`` daemon keeps one per in-flight request.

A ``ProcessPoolExecutor`` plus in-worker SIGALRM timeouts, the first
design, has two structural holes:

* SIGALRM only fires between bytecodes — an item stuck inside a
  long-running C call (a pathological regex, a huge builtin reduction)
  never sees the alarm and hangs the worker, and with it the batch;
* a worker lost to a hard crash (segfault, OOM kill) breaks the whole
  pool, so *every* in-flight item came back as an error record even
  though only one item was responsible.

The pool closes both by owning its workers directly, pebble-style.
Each worker is a long-lived ``multiprocessing`` process connected over
a duplex pipe and runs one item at a time; the **parent** is the
enforcement point:

* **deadlines** — the in-worker SIGALRM is the first line (it
  interrupts Python-level loops and keeps the worker warm); if no
  answer arrives by ``timeout + grace``, the pool SIGKILLs the whole
  worker, returns a clean ``timeout`` record and respawns a fresh
  process — even a C-call hang costs one worker, never the batch;
* **crash attribution** — exactly one item runs per worker at a time,
  so a dead pipe is attributed to that single item (``worker lost:``
  error record) and the worker is respawned;
* **recycling** — after ``max_tasks_per_worker`` items a worker is
  retired and replaced, bounding memory growth of long corpora;
* **shutdown** — :meth:`WorkerPool.close` stops idle workers and
  SIGKILLs busy ones, which releases every thread blocked in
  :meth:`WorkerPool.run`.

Supervision events are observable twice: in the ``stats`` mapping the
batch driver folds into :attr:`repro.batch.report.BatchReport.supervisor`
(and the daemon reports under ``stats``), and as trace counters
(``batch.worker.respawn``, ``batch.item.killed``,
``batch.worker.recycled``; the batch driver adds
``batch.item.skipped``) on the active :mod:`repro.obs.trace` tracer.

The protocol over each pipe is tiny: the parent sends
``("run", index, item, config)`` or ``("stop",)``; the worker answers
one pickled :class:`~repro.batch.report.ItemResult` per ``run``.
Workers are daemonic, so even an abandoned pool cannot leak processes
past interpreter exit; orderly shutdown is exercised by tests and the
CI kill-resilience smoke.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.batch.report import STATUS_ERROR, STATUS_TIMEOUT, ItemResult
from repro.obs import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.batch.driver import BatchConfig, WorkItem

#: Seconds an idle worker gets to honour a graceful ``("stop",)``
#: before the pool falls back to SIGKILL.
_STOP_JOIN_S = 2.0

#: Trace counter names (also the keys of ``BatchReport.supervisor``).
COUNTER_RESPAWN = "batch.worker.respawn"
COUNTER_KILLED = "batch.item.killed"
COUNTER_RECYCLED = "batch.worker.recycled"
COUNTER_SKIPPED = "batch.item.skipped"


def _timeout_result(
    index: int, name: str, config: "BatchConfig", pid: Optional[int]
) -> ItemResult:
    """The record manufactured for a hard-deadline kill (parent side)."""
    return ItemResult(
        index=index,
        name=name,
        status=STATUS_TIMEOUT,
        message=(
            f"killed: exceeded {config.timeout}s budget "
            f"(+{config.grace}s grace, uninterruptible worker)"
        ),
        pid=pid,
    )


def _lost_result(index: int, name: str, worker: "_Worker") -> ItemResult:
    """The record manufactured when a worker dies mid-item."""
    worker.proc.join(_STOP_JOIN_S)
    code = worker.proc.exitcode
    return ItemResult(
        index=index,
        name=name,
        status=STATUS_ERROR,
        message=f"worker lost: exited with code {code} mid-item",
        pid=worker.proc.pid,
    )


def _mp_context():
    """The multiprocessing context workers are spawned from.

    Fork keeps parity with the previous ``ProcessPoolExecutor`` driver
    (workers inherit imported modules, which the ``call`` work-item
    kind relies on in tests); platforms without fork fall back to the
    default start method.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


def _worker_main(conn, cache_enabled: bool, store_path: Optional[str]) -> None:
    """Worker process entry point: serve items off the pipe until told
    to stop (or the pipe dies with the parent)."""
    from repro.batch.driver import _init_worker, _run_item

    _init_worker(cache_enabled, store_path)
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, index, item, config = message
            conn.send(_run_item(index, item, config))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class _Worker:
    """Parent-side handle of one long-lived worker process."""

    __slots__ = ("proc", "conn", "tasks_done", "index")

    def __init__(self, ctx, config: "BatchConfig") -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, config.cache, config.store_path),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.tasks_done = 0
        #: Index of the in-flight item (None when idle).
        self.index: Optional[int] = None

    @property
    def busy(self) -> bool:
        return self.index is not None

    def assign(self, index: int, item: "WorkItem",
               config: "BatchConfig") -> None:
        self.conn.send(("run", index, item, config))
        self.index = index

    def clear(self) -> None:
        self.index = None
        self.tasks_done += 1

    def _close_conn(self) -> None:
        try:
            self.conn.close()
        except OSError:  # already closed (repeated stop/kill is legal)
            pass

    def kill(self) -> None:
        """SIGKILL the process — the only interruption that always works."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        self._close_conn()

    def stop(self) -> None:
        """Graceful shutdown; falls back to :meth:`kill` on a timeout."""
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(_STOP_JOIN_S)
        if self.proc.is_alive():  # pragma: no cover - stuck despite stop
            self.proc.kill()
            self.proc.join()
        self._close_conn()


class WorkerPool:
    """Items dispatched one at a time onto warm, owned workers.

    :meth:`run` blocks until an idle worker is free, dispatches exactly
    one item, enforces the two-tier deadline (in-worker SIGALRM soft
    timeout from the item's config, parent-side SIGKILL at
    ``timeout + grace``) and hands back the
    :class:`~repro.batch.report.ItemResult` — a clean ``timeout`` or
    ``worker lost`` record when the worker had to die, with a fresh
    process respawned into the pool either way.

    Thread-safe: many threads may :meth:`run` concurrently (the batch
    driver runs one lane per worker, the daemon one dispatcher thread
    per in-flight request); each worker serves one item at a time.
    ``stats`` accumulates the supervision counters
    (``batch.worker.respawn`` / ``batch.item.killed`` /
    ``batch.worker.recycled``), and ``config.max_tasks_per_worker``
    recycles long-lived workers.
    """

    def __init__(
        self,
        config: "BatchConfig",
        size: int,
        stats: Optional[Dict[str, int]] = None,
    ) -> None:
        self.config = config
        self.size = max(1, size)
        self.stats = stats if stats is not None else {}
        self.ctx = _mp_context()
        self._idle: "queue_module.Queue[_Worker]" = queue_module.Queue()
        self._live: List[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False
        for _ in range(self.size):
            self._idle.put(self._spawn())

    # -- bookkeeping ----------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        # Under the lock: Tracer.count is a read-modify-write, and many
        # dispatcher threads count at once.
        with self._lock:
            self.stats[name] = self.stats.get(name, 0) + n
            trace.count(name, n)

    def _spawn(self) -> _Worker:
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            worker = _Worker(self.ctx, self.config)
            self._live.append(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        with self._lock:
            if worker in self._live:
                self._live.remove(worker)

    @property
    def idle(self) -> int:
        """Workers currently waiting for a request (approximate)."""
        return self._idle.qsize()

    # -- dispatch -------------------------------------------------------

    def run(
        self,
        item: "WorkItem",
        *,
        config: Optional["BatchConfig"] = None,
        index: int = 0,
    ) -> ItemResult:
        """Run one item on the next idle worker; blocks until done.

        *config* overrides the pool's base config for this request
        (the daemon substitutes the per-request timeout).  Every
        outcome is a record — worker crashes and deadline kills
        included; the pool never raises for an item's sake.
        """
        config = config if config is not None else self.config
        worker = self._idle.get()
        if worker is None:
            # Shutdown sentinel: re-post it so every other blocked
            # dispatcher wakes up too, then refuse the request.
            self._idle.put(None)
            raise RuntimeError("worker pool is closed")
        if self._closed:
            self._idle.put(worker)
            self._drain_idle()
            raise RuntimeError("worker pool is closed")
        record, survived = self._dispatch(worker, index, item, config)
        replacement: Optional[_Worker] = worker
        if survived and self._recyclable(worker):
            worker.stop()
            self._retire(worker)
            self._count(COUNTER_RECYCLED)
            replacement = None
        elif not survived:
            self._retire(worker)
            replacement = None
        if replacement is None:
            try:
                replacement = self._spawn()
                self._count(COUNTER_RESPAWN)
            except RuntimeError:  # closed mid-request: pool is draining
                replacement = None
        if replacement is not None:
            self._idle.put(replacement)
            if self._closed:
                # close() may have missed a worker in transit; it is
                # idle by construction here, so a stop cannot block.
                self._drain_idle()
        return record

    def _dispatch(
        self,
        worker: _Worker,
        index: int,
        item: "WorkItem",
        config: "BatchConfig",
    ):
        budget = (
            config.timeout + config.grace
            if config.timeout is not None
            else None
        )
        try:
            worker.assign(index, item, config)
            if worker.conn.poll(budget):
                record = worker.conn.recv()
                worker.clear()
                return record, True
        except (BrokenPipeError, EOFError, OSError):
            # The pipe died mid-item (crash, OOM kill, pool shutdown):
            # one item was running here, the loss is its alone.
            record = _lost_result(index, item.name, worker)
            worker.kill()
            return record, False
        # Deadline: the soft in-worker SIGALRM never fired, so the
        # worker is stuck somewhere uninterruptible.  SIGKILL it.
        worker.kill()
        self._count(COUNTER_KILLED)
        return _timeout_result(index, item.name, config, worker.proc.pid), False

    def _recyclable(self, worker: _Worker) -> bool:
        return (
            self.config.max_tasks_per_worker is not None
            and worker.tasks_done >= self.config.max_tasks_per_worker
        )

    # -- shutdown -------------------------------------------------------

    def _drain_idle(self) -> None:
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue_module.Empty:
                break
            if worker is None:
                continue
            self._retire(worker)
            worker.stop()
        if self._closed:
            # Leave a sentinel so dispatchers blocked on the idle
            # queue wake up and observe the shutdown.
            self._idle.put(None)

    def close(self) -> None:
        """Stop every worker: graceful when idle, SIGKILL when busy.

        Dispatcher threads blocked on a busy worker observe the killed
        pipe and return a ``worker lost`` record; no process outlives
        the pool.  Idempotent.
        """
        with self._lock:
            self._closed = True
            workers = list(self._live)
            self._live = []
        for worker in workers:
            if worker.busy:
                worker.kill()
            else:
                worker.stop()
        self._drain_idle()
