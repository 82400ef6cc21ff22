"""The corpus driver: optimize many programs with per-item fault isolation.

One ``optimize`` call processes one graph; real PRE deployments run
over whole translation-unit corpora.  :func:`iter_batch` takes a list
of :class:`WorkItem` (built from any corpus source — directories,
archives, manifests, seeded generation — via :mod:`repro.corpus`, or
from in-memory graphs with :func:`items_from_cfgs`) and streams one
:class:`~repro.batch.report.ItemResult` per item as it completes;
:func:`run_batch` is a thin collector on top that folds the stream
into the input-ordered, deterministic
:class:`~repro.batch.report.BatchReport`.  With ``jobs >= 2`` work
runs on a :class:`~repro.batch.supervisor.WorkerPool` — long-lived
worker processes owned over ``multiprocessing`` pipes — fed by one
dispatcher thread ("lane") per worker, which provides:

* **fault isolation** — an item that raises anywhere (parse error,
  validation failure, transform bug) produces a structured
  ``ItemResult(status="error")`` record carrying the message and
  traceback; the rest of the batch is unaffected;
* **airtight timeouts** — with ``BatchConfig.timeout`` set, a
  Python-level hang is interrupted in the worker (SIGALRM, so the
  worker stays warm); an item stuck in an *uninterruptible C call* is
  killed from the parent (SIGKILL after ``timeout + grace``) and the
  worker respawned — either way a clean ``status="timeout"`` record;
* **single-item crash attribution** — one item runs per worker at a
  time, so a worker lost to a segfault/OOM kill produces exactly one
  ``worker lost`` error record; other items transparently reschedule
  onto the respawned worker;
* **worker recycling** — ``max_tasks_per_worker`` retires workers
  after N items to bound memory growth over long corpora;
* **early exit** — ``stop_after_failures`` and ``deadline_s`` cancel
  the remainder of a batch; unfinished items are recorded (and
  streamed) as ``status="skipped"``;
* **bounded retry** — ``BatchConfig.retries`` re-runs a failed item at
  once, up to N extra times, for transient failures;
* **warm workers** — each worker process keeps one
  :class:`~repro.obs.manager.AnalysisManager` for its whole lifetime,
  so items with identical content hit the dataflow-solution cache, and
  runs each item under its own :class:`~repro.obs.trace.Tracer` whose
  summary/counters travel back in the item record;
* **a shared persistent cache** — with ``BatchConfig.store_path`` set,
  every worker's manager is backed by one on-disk
  :class:`~repro.obs.store.SolutionStore` (the CLI's ``--cache-dir``;
  see ``docs/CACHING.md``);
* **determinism** — :func:`run_batch` reports in input order
  regardless of completion order, and the optimised IR per program is
  bit-identical whatever ``jobs`` is (workers share no mutable state);
* **longest-processing-time scheduling** — the lanes pull items in
  descending predicted-cost order (:attr:`WorkItem.cost`), the
  classic LPT heuristic.  Scheduling only reorders *execution*; the
  collected report stays input-ordered.

Batches scale out two ways: :func:`shard_items` deterministically
partitions a corpus by a stable hash of item *names* (``repro batch
--shard i/n``; per-shard reports recombine byte-identically with
:func:`repro.batch.report.merge_report_dicts`), and
``BatchConfig.differential`` turns a batch into a differential fuzzer
that executes each program before and after optimization on seeded
random inputs (:mod:`repro.batch.differential`), flagging miscompiles
as ``status="divergent"`` records.

``jobs=1`` runs serially in-process, in input order, through the
*same* item code path and the same policy loop (retries, early exit,
skipped records) — no worker processes and no threads, which makes it
both the baseline for throughput comparisons and the debug mode:
SIGALRM, breakpoints and pdb work on the main thread.  Serial mode
keeps the soft SIGALRM timeout but has no parent to kill a C-call
hang; hard isolation needs ``jobs >= 2``.
"""

from __future__ import annotations

import hashlib
import os
import queue
import signal
import threading
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.batch.report import (
    STATUS_DIVERGENT,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    BatchReport,
    ItemResult,
)
from repro.batch.supervisor import COUNTER_SKIPPED, WorkerPool
from repro.ir.cfg import CFG
from repro.obs import trace
from repro.obs.manager import AnalysisManager
from repro.obs.store import SolutionStore
from repro.obs.trace import Tracer, tracing

#: File suffixes a corpus directory is scanned for.
CORPUS_SUFFIXES = (".mini", ".json")

#: The longest time budget (per-item timeout, grace, batch deadline)
#: accepted, in seconds.  The worker pool waits on worker pipes with
#: ``Connection.poll``, which overflows past ~24.8 days; a day is far
#: more than any item needs.
MAX_TIMEOUT_S = 86_400.0


def check_seconds(name: str, value: Optional[float]) -> None:
    """Raise ``ValueError`` unless *value* is None or a finite number of
    seconds from 0 to :data:`MAX_TIMEOUT_S`.  A ``timeout`` must also be
    above 0: ``setitimer`` reads 0 as "no alarm"."""
    positive = name == "timeout"
    if value is not None and not (
        (value > 0 if positive else value >= 0) and value <= MAX_TIMEOUT_S
    ):
        raise ValueError(
            f"{name} must be a finite number of seconds "
            f"{'above 0' if positive else 'at least 0'} and no larger "
            f"than {MAX_TIMEOUT_S:g}, got {value!r}"
        )


def check_count(name: str, value: Optional[int]) -> None:
    """Raise ``ValueError`` unless *value* is None or at least 1."""
    if value is not None and value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")


@dataclass(frozen=True)
class WorkItem:
    """One program to optimize, in a transportable (picklable) form.

    Kinds:

    ``path``
        *payload* is a filesystem path; the **worker** reads and parses
        it, so unreadable/malformed files become error records.
    ``source``
        *payload* is mini-language source text.
    ``json``
        *payload* is a serialised CFG (``cfg_to_json``).
    ``call``
        *payload* is a ``"module.path:function"`` reference resolved in
        the worker; the function must return a :class:`CFG`.  This is
        the extension point for custom loaders (and what the
        fault-injection payloads in :mod:`repro.batch.testing` use).
    ``generated``
        *payload* is a ``(seed, GeneratorConfig)`` spec
        (:func:`repro.corpus.generate.spec_payload`); the worker mints
        the program on demand, so whole corpora travel as seeds.

    *cost* is a relative work prediction (any nonnegative scale) used
    by the pooled batch's LPT order; 0 means unknown, and equal costs
    keep input order.
    """

    name: str
    kind: str
    payload: str
    cost: float = 0.0


def items_from_dir(
    directory: str,
    suffixes: Sequence[str] = CORPUS_SUFFIXES,
    recursive: bool = False,
) -> List[WorkItem]:
    """Scan *directory* for corpus files, sorted by name (deterministic).

    Suffix matching is case-insensitive, *recursive* walks the whole
    tree, and item names are derived from the path relative to the
    root (so equal stems in different subdirectories stay distinct).
    Raises ``ValueError`` when the directory does not exist or holds no
    matching files — an empty batch is almost always a wrong path.
    (Thin alias of :func:`repro.corpus.sources.scan_directory`, kept
    for callers that predate the corpus subsystem.)
    """
    from repro.corpus.sources import scan_directory

    return scan_directory(directory, suffixes=suffixes, recursive=recursive)


def stable_hash(name: str) -> int:
    """A platform/process-independent 64-bit hash of an item name.

    Used for shard assignment and per-item differential input seeding;
    must never change, or shards from different builds stop agreeing.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def shard_of(name: str, total: int) -> int:
    """The 0-based shard (of *total*) owning item *name*."""
    return stable_hash(name) % total


def shard_items(
    items: Sequence[WorkItem], index: int, total: int
) -> List[WorkItem]:
    """The subsequence of *items* belonging to shard *index* of *total*.

    Assignment hashes the item **name** (:func:`shard_of`), not the
    list position, so membership survives corpus insertions and
    deletions and is identical however the caller ordered the list.
    Relative order within the shard is preserved.  *index* is 0-based
    here; the CLI's ``--shard i/n`` is 1-based and subtracts one.
    """
    if total < 1:
        raise ValueError(f"shard count must be >= 1, got {total}")
    if not 0 <= index < total:
        raise ValueError(
            f"shard index {index} out of range for {total} shard"
            f"{'s' if total != 1 else ''}"
        )
    return [item for item in items if shard_of(item.name, total) == index]


def items_from_cfgs(
    cfgs: Iterable[CFG],
    names: Optional[Sequence[str]] = None,
) -> List[WorkItem]:
    """Wrap in-memory graphs as work items (serialised for transport)."""
    from repro.ir.serialize import cfg_to_json

    items = []
    for i, cfg in enumerate(cfgs):
        name = names[i] if names is not None else f"cfg{i}"
        cost = float(len(cfg) * max(1, cfg.static_computation_count()))
        items.append(WorkItem(name, "json", cfg_to_json(cfg), cost=cost))
    return items


@dataclass(frozen=True)
class BatchConfig:
    """Knobs for :func:`run_batch` / :func:`iter_batch`.

    Attributes:
        pass_: the registered optimisation pass to run per program.
        pipeline: run the full standard pass pipeline instead.
        jobs: worker processes; 1 (or less) means serial in-process.
        timeout: per-item wall-clock budget in seconds, above 0
            (None: none).
        grace: extra seconds (at least 0) past *timeout* the worker
            pool waits for the in-worker soft timeout to fire before
            SIGKILLing the worker — the hard deadline is
            ``timeout + grace``.
        retries: extra attempts for items that error or time out; a
            failed item is retried at once.
        max_tasks_per_worker: recycle (retire and respawn) a worker
            after it served this many items, at least 1, bounding
            per-process memory growth (None: workers live for the
            whole batch).
        stop_after_failures: cancel the rest of the batch once this
            many items (at least 1) failed; unfinished items are
            recorded as ``status="skipped"`` (None: never).
        deadline_s: whole-batch wall-clock budget in seconds, at least
            0; on expiry the remainder is cancelled as ``skipped``
            (None: none).
        cache: whether worker analysis managers memoize (the CLI's
            ``--no-cache`` turns this off).
        store_path: directory of a shared on-disk
            :class:`~repro.obs.store.SolutionStore` every worker's
            manager consults and writes through (None: memory-only).
            Safe to share across concurrent batches and invocations.
        keep_ir: carry the optimised program (serialised JSON) in each
            ok item record — bulky, but what differential checks need.
        analyze: run the LCM analysis stack instead of transforming;
            ok records carry the :meth:`repro.api.AnalyzeOutcome.to_dict`
            payload in their ``analysis`` field (what the ``repro
            serve`` daemon's ``analyze`` op dispatches).
        differential: after optimizing, execute the original and the
            transformed program on ``diff_runs`` seeded random inputs
            and compare observable behaviour
            (:mod:`repro.batch.differential`); a mismatch turns the
            record into ``status="divergent"`` with a structured
            ``differential`` block.  Incompatible with ``analyze``
            (there is no transformed program to compare).
        diff_runs: input environments per item in differential mode.
        diff_seed: base seed for differential inputs; each item mixes
            in a stable hash of its *name*, so shard and unsharded
            runs draw identical decks.
        diff_max_steps: interpreter step budget per differential run
            (generated loops can iterate; runs where the *original*
            exhausts the budget are skipped, not failed).
    """

    pass_: str = "lcm"
    pipeline: bool = False
    jobs: int = 1
    timeout: Optional[float] = None
    grace: float = 1.0
    retries: int = 0
    max_tasks_per_worker: Optional[int] = None
    stop_after_failures: Optional[int] = None
    deadline_s: Optional[float] = None
    cache: bool = True
    store_path: Optional[str] = None
    keep_ir: bool = False
    analyze: bool = False
    differential: bool = False
    diff_runs: int = 8
    diff_seed: int = 0
    diff_max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        for name in ("timeout", "grace", "deadline_s"):
            check_seconds(name, getattr(self, name))
        for name in ("max_tasks_per_worker", "stop_after_failures"):
            check_count(name, getattr(self, name))
        if self.differential and self.analyze:
            raise ValueError(
                "differential mode compares optimized execution; it "
                "cannot be combined with analyze=True"
            )


# ---------------------------------------------------------------------------
# Worker side.  One warm AnalysisManager per process, installed by the
# worker pool's entry point; the serial path calls the initializer
# itself so jobs=1 exercises the identical item code path.
# ---------------------------------------------------------------------------

_WORKER_MANAGER: Optional[AnalysisManager] = None


def _init_worker(cache_enabled: bool, store_path: Optional[str] = None) -> None:
    """Create this process's warm analysis manager.

    With *store_path*, the manager gets the shared on-disk tier — each
    worker opens its own :class:`SolutionStore` handle on the common
    directory (the store's atomic writes make that safe).
    """
    global _WORKER_MANAGER
    store = SolutionStore(store_path) if store_path else None
    _WORKER_MANAGER = AnalysisManager(enabled=cache_enabled, store=store)


class _ItemTimeout(Exception):
    """Raised inside a worker when an item exceeds its time budget."""


def _raise_timeout(signum, frame):
    raise _ItemTimeout()


def _load_item(item: WorkItem) -> CFG:
    """Materialise the item's CFG (inside the worker, so failures are
    per-item records)."""
    from repro import api

    if item.kind in api.KINDS:
        return api.load_cfg(item.payload, item.kind)
    if item.kind == "call":
        import importlib

        module_name, _, attr = item.payload.partition(":")
        fn = getattr(importlib.import_module(module_name), attr)
        return fn()
    raise ValueError(f"unknown work-item kind {item.kind!r}")


def _execute_item(cfg: CFG, config: BatchConfig, manager: AnalysisManager):
    """One unit of work through the :mod:`repro.api` facade."""
    from repro import api

    if config.analyze:
        return api.analyze_cfg(cfg, manager=manager)
    return api.optimize_cfg(
        cfg,
        config.pass_,
        pipeline=config.pipeline,
        manager=manager,
        keep_ir=config.keep_ir,
    )


def _diff_item(item, cfg, outcome, config: BatchConfig):
    """The differential block for one optimised item.

    The input deck is seeded from ``diff_seed`` mixed with the stable
    hash of the item *name* — never its batch position — so shard runs
    and the unsharded run execute identical environments and their
    records stay byte-comparable.  For ``generated`` items the minting
    seed and generator config ride along, making a divergence
    reproducible from the report alone.  Pipeline runs skip the
    branch-decision comparison (branch folding legitimately removes
    decisions); single-pass code motion must preserve them exactly.
    """
    from repro.batch.differential import diff_cfgs

    deck_seed = (config.diff_seed + stable_hash(item.name)) % 2**63
    block = diff_cfgs(
        cfg,
        outcome.cfg,
        runs=config.diff_runs,
        seed=deck_seed,
        max_steps=config.diff_max_steps,
        compare_decisions=not config.pipeline,
    )
    block["input_seed"] = deck_seed
    if item.kind == "generated":
        try:
            from repro.corpus.generate import parse_spec

            seed, generator = parse_spec(item.payload)
        except ValueError:  # pragma: no cover - payload already loaded
            pass
        else:
            block["seed"] = seed
            block["generator"] = generator.to_dict()
    return block


def _run_item(index: int, item: WorkItem, config: BatchConfig) -> ItemResult:
    """Execute one work item; never raises — every outcome is a record."""
    global _WORKER_MANAGER
    if _WORKER_MANAGER is None:  # process without initializer (not ours)
        _init_worker(config.cache, config.store_path)
    manager = _WORKER_MANAGER
    hits_before = manager.stats.hits
    misses_before = manager.stats.misses
    disk_hits_before = manager.stats.disk_hits
    disk_misses_before = manager.stats.disk_misses
    disk_writes_before = manager.stats.disk_writes

    tracer = Tracer()
    use_alarm = config.timeout is not None and hasattr(signal, "SIGALRM")
    previous_handler = None
    start = time.perf_counter()
    status, message, trace_back = STATUS_OK, "", ""
    outcome = None
    cfg = None
    differential = None
    try:
        if use_alarm:
            previous_handler = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, config.timeout)
        with tracing(tracer):
            cfg = _load_item(item)
            outcome = _execute_item(cfg, config, manager)
            if config.differential and not config.analyze:
                differential = _diff_item(item, cfg, outcome, config)
    except _ItemTimeout:
        status = STATUS_TIMEOUT
        message = f"exceeded {config.timeout}s budget"
    except Exception as exc:  # fault isolation: record, don't propagate
        status = STATUS_ERROR
        message = f"{type(exc).__name__}: {exc}"
        trace_back = traceback_module.format_exc()
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous_handler)
    duration_ms = (time.perf_counter() - start) * 1000.0
    if status == STATUS_OK and differential and differential["divergences"]:
        status = STATUS_DIVERGENT
        first = differential["divergences"][0]
        count = len(differential["divergences"])
        message = (
            f"{count} of {differential['runs']} differential run"
            f"{'s' if count != 1 else ''} diverged: {first['detail']}"
        )

    record = ItemResult(
        index=index,
        name=item.name,
        status=status,
        message=message,
        traceback=trace_back,
        duration_ms=duration_ms,
        cache={
            "hits": manager.stats.hits - hits_before,
            "misses": manager.stats.misses - misses_before,
            "disk_hits": manager.stats.disk_hits - disk_hits_before,
            "disk_misses": manager.stats.disk_misses - disk_misses_before,
            "disk_writes": manager.stats.disk_writes - disk_writes_before,
        },
        counters=dict(tracer.counters),
        summary=tracer.summary(),
        pid=os.getpid(),
    )
    if status in (STATUS_OK, STATUS_DIVERGENT):
        record.fingerprint = outcome.fingerprint
        if config.analyze:
            record.static_before = cfg.static_computation_count()
            record.static_after = record.static_before
            record.analysis = outcome.to_dict()
        else:
            record.static_before = outcome.static_before
            record.static_after = outcome.static_after
            record.ir = outcome.ir
        record.differential = differential
    return record


# ---------------------------------------------------------------------------
# Driver side.
# ---------------------------------------------------------------------------


def _lane(pending: Deque[int], done: "queue.SimpleQueue", finish) -> None:
    """One dispatcher thread of a pooled batch: pull the next index,
    run it to its final record, hand the record over; repeat until the
    queue is empty.  An exception (the pool closed under a cancelled
    batch, or a bug) is handed over in place of a record."""
    while True:
        try:
            index = pending.popleft()
        except IndexError:
            return
        try:
            done.put(finish(index))
        except Exception as exc:
            done.put(exc)
            return


def iter_batch(
    items: Sequence[WorkItem],
    config: Optional[BatchConfig] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Iterator[ItemResult]:
    """Stream one final :class:`ItemResult` per item, in completion order.

    Every submitted index is yielded exactly once; records carry
    :attr:`~repro.batch.report.ItemResult.index` so callers can
    reassemble input order (:func:`run_batch` does exactly that).
    Early-exit policies (``stop_after_failures``, ``deadline_s``)
    cancel the remainder as ``status="skipped"`` records, which are
    streamed too — the stream is always complete.

    With ``jobs >= 2`` one :class:`~repro.batch.supervisor.WorkerPool`
    of ``min(jobs, len(items))`` workers runs the items — a one-item
    batch too, so its item still gets the hard kill — fed by one lane
    thread per worker pulling indices in LPT order; with ``jobs=1`` each
    item runs inline, in input order.
    Either way a failed item is retried at once, and this one loop
    applies the early-exit policies.

    *stats*, when given, is filled with supervision counters
    (``batch.worker.respawn``, ``batch.item.killed``, …) as the run
    progresses; :func:`run_batch` surfaces them as
    :attr:`BatchReport.supervisor`.  Abandoning the iterator early
    (``break``, ``.close()``) shuts the workers down — no orphans.
    """
    config = config if config is not None else BatchConfig()
    stats = stats if stats is not None else {}
    pooled = config.jobs > 1 and len(items) > 0
    order: Sequence[int] = range(len(items))
    if pooled:
        # LPT: predicted-heavy items first (ties keep input order).
        order = sorted(order, key=lambda index: (-items[index].cost, index))
    pending: Deque[int] = deque(order)
    attempts: Dict[int, int] = {}
    deadline = (
        time.monotonic() + config.deadline_s
        if config.deadline_s is not None
        else None
    )
    pool: Optional[WorkerPool] = None

    def finish(index: int) -> ItemResult:
        """Run one item until it succeeds or its retry budget is spent."""
        while True:
            if pool is None:
                record = _run_item(index, items[index], config)
            else:
                record = pool.run(items[index], index=index)
            attempts[index] = attempts.get(index, 0) + 1
            record.attempts = attempts[index]
            if record.ok or record.attempts > config.retries:
                return record

    done: "queue.SimpleQueue" = queue.SimpleQueue()
    lanes: List[threading.Thread] = []
    unfinished = set(range(len(items)))
    failures = 0
    stop_reason = ""
    try:
        if pooled:
            jobs = min(config.jobs, len(items))
            pool = WorkerPool(config, jobs, stats)
            for n in range(jobs):
                lane = threading.Thread(
                    target=_lane,
                    args=(pending, done, finish),
                    name=f"repro-batch-lane-{n}",
                    daemon=True,
                )
                lane.start()
                lanes.append(lane)
        else:
            _init_worker(config.cache, config.store_path)
        while unfinished:
            wait = None
            if deadline is not None:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    stop_reason = (
                        f"batch deadline {config.deadline_s}s exceeded"
                    )
                    break
            if pool is None:
                record = finish(pending.popleft())
            else:
                try:
                    record = done.get(timeout=wait)
                except queue.Empty:
                    continue  # the batch deadline passed
                if isinstance(record, Exception):
                    raise record
            unfinished.discard(record.index)
            yield record
            if not record.ok:
                failures += 1
                if (
                    config.stop_after_failures is not None
                    and failures >= config.stop_after_failures
                ):
                    stop_reason = (
                        f"stopped after {failures} failed "
                        f"item{'s' if failures != 1 else ''}"
                    )
                    break
    finally:
        # Lanes take nothing new; close() SIGKILLs in-flight items,
        # which releases their lanes.
        pending.clear()
        if pool is not None:
            pool.close()
        for lane in lanes:
            lane.join()
    # Only an early exit leaves items unfinished.
    for index in sorted(unfinished):
        stats[COUNTER_SKIPPED] = stats.get(COUNTER_SKIPPED, 0) + 1
        trace.count(COUNTER_SKIPPED)
        yield ItemResult(
            index=index,
            name=items[index].name,
            status=STATUS_SKIPPED,
            message=f"cancelled: {stop_reason}",
            attempts=attempts.get(index, 0),
        )


def collect_report(
    results: Iterable[ItemResult],
    config: BatchConfig,
    wall_time_s: float = 0.0,
    supervisor: Optional[Dict[str, int]] = None,
) -> BatchReport:
    """Fold streamed records into the input-ordered :class:`BatchReport`
    (what :func:`run_batch` returns; the CLI's ``--stream`` uses this
    to finish with a report identical to the non-streaming run)."""
    ordered = sorted(results, key=lambda record: record.index)
    store_stats = (
        SolutionStore(config.store_path).stats() if config.store_path else None
    )
    return BatchReport(
        items=ordered,
        jobs=max(1, config.jobs),
        wall_time_s=wall_time_s,
        pass_=config.pass_,
        pipeline=config.pipeline,
        store=store_stats,
        supervisor=dict(supervisor) if supervisor else None,
    )


def run_batch(
    items: Sequence[WorkItem],
    config: Optional[BatchConfig] = None,
) -> BatchReport:
    """Optimize every item; always returns a complete, input-ordered report.

    The report's :attr:`~repro.batch.report.BatchReport.ok` is False as
    soon as any item errored, timed out or was skipped — callers
    deciding an exit code should use it — but every item, failed or
    not, has a record.
    """
    config = config if config is not None else BatchConfig()
    stats: Dict[str, int] = {}
    start = time.perf_counter()
    results = list(iter_batch(items, config, stats))
    wall = time.perf_counter() - start
    return collect_report(results, config, wall, stats)
