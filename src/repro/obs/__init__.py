"""Observability and caching: tracing, metrics and memoized analyses.

The cross-cutting layer behind the reproduction's cost claims:

* :mod:`repro.obs.trace` — spans, counters and gauges with a structured
  JSON exporter; free when no tracer is installed;
* :mod:`repro.obs.fingerprint` — content fingerprints of CFGs, the
  cache key;
* :mod:`repro.obs.manager` — the :class:`AnalysisManager`, which
  memoizes dataflow solutions and analysis bundles and is invalidated
  through :func:`notify_cfg_mutated` when graphs mutate in place;
* :mod:`repro.obs.store` — the :class:`SolutionStore`, a
  content-addressed on-disk second tier shared across processes and
  invocations (what makes the batch cache persistent).

See ``docs/OBSERVABILITY.md`` for the trace schema and span-name
inventory, and ``docs/CACHING.md`` for the two-tier cache story.
"""

from repro.obs.trace import (
    SpanEvent,
    Tracer,
    activate,
    count,
    current,
    deactivate,
    gauge,
    is_active,
    merge_counters,
    merge_summaries,
    snapshot,
    span,
    tracing,
)
from repro.obs.fingerprint import cfg_fingerprint
from repro.obs.manager import AnalysisManager, CacheStats, notify_cfg_mutated
from repro.obs.store import JSONRecord, SolutionStore, default_code_version

__all__ = [
    "AnalysisManager",
    "CacheStats",
    "JSONRecord",
    "SolutionStore",
    "SpanEvent",
    "Tracer",
    "activate",
    "cfg_fingerprint",
    "count",
    "current",
    "deactivate",
    "default_code_version",
    "gauge",
    "is_active",
    "merge_counters",
    "merge_summaries",
    "notify_cfg_mutated",
    "snapshot",
    "span",
    "tracing",
]
