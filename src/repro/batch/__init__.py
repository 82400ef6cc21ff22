"""Supervised corpus optimization with per-program fault isolation.

The throughput layer on top of :func:`repro.core.pipeline.optimize`:
a batch driver that pushes whole corpora of programs through a
supervised pool of long-lived worker processes
(:mod:`repro.batch.supervisor`), isolates per-program failures as
structured records, enforces airtight per-item deadlines (soft SIGALRM
in the worker, hard SIGKILL from the parent for C-call hangs),
recycles workers to bound memory, streams results as they complete,
and merges per-item observability (trace summaries, counters, cache
hit rates) into one report.

::

    from repro.batch import BatchConfig, items_from_dir, run_batch

    items = items_from_dir("tests/corpus")
    report = run_batch(items, BatchConfig(jobs=4, timeout=10.0))
    assert report.ok, report.tally
    print(report.render_table())
    print(report.to_json())

Streaming, with early exit::

    from repro.batch import iter_batch

    config = BatchConfig(jobs=4, timeout=10.0, stop_after_failures=3)
    for record in iter_batch(items, config):
        print(record.index, record.name, record.status)

Scale-out: ``repro batch DIR --shard i/n`` runs a deterministic
name-hash partition of the corpus (:func:`shard_items`) and ``repro
batch merge`` recombines the per-shard reports byte-identically
(:func:`merge_report_dicts`); ``--differential`` turns the batch into
a differential fuzzer (:mod:`repro.batch.differential`) that flags
miscompiles as ``divergent`` records.

CLI: ``repro batch DIR --jobs N --timeout S --stream --max-failures N
--recycle-after N --emit json|table``.  See ``docs/BATCH.md`` for the
worker runtime, the streaming protocol and the report schema,
and ``docs/CORPUS.md`` for corpus sources and generation.
"""

from repro.batch.driver import (
    CORPUS_SUFFIXES,
    BatchConfig,
    WorkItem,
    collect_report,
    items_from_cfgs,
    items_from_dir,
    iter_batch,
    run_batch,
    shard_items,
    shard_of,
    stable_hash,
)
from repro.batch.report import (
    REPORT_FORMAT,
    REPORT_VERSION,
    STATUS_DIVERGENT,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    BatchReport,
    ItemResult,
    merge_report_dicts,
    stable_report_json,
)
from repro.batch.supervisor import WorkerPool

__all__ = [
    "BatchConfig",
    "BatchReport",
    "CORPUS_SUFFIXES",
    "ItemResult",
    "REPORT_FORMAT",
    "REPORT_VERSION",
    "STATUS_DIVERGENT",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "STATUS_TIMEOUT",
    "WorkItem",
    "WorkerPool",
    "collect_report",
    "items_from_cfgs",
    "items_from_dir",
    "iter_batch",
    "merge_report_dicts",
    "run_batch",
    "shard_items",
    "shard_of",
    "stable_hash",
    "stable_report_json",
]
