"""The analysis manager: memoized dataflow solutions with invalidation.

The paper's cost argument is that LCM's four unidirectional analyses
are cheap; this module makes them cheap *in practice* by never solving
the same problem on the same program twice.  An :class:`AnalysisManager`
memoizes :class:`~repro.dataflow.solver.Solution` objects (and whole
analysis bundles such as :class:`~repro.core.lcm.LCMAnalysis`) keyed by

    (CFG content fingerprint, computation key)

so repeated pipeline runs, strategy comparisons and report generation
over an unchanged graph hit the cache and return the *same* object —
bit-identical facts, zero solver work.

Because the fingerprint is content-based, caching is sound even across
distinct CFG objects with equal content — and across programs that only
differ in formatting, which lower to equal graphs.  The only subtlety is
in-place mutation: fingerprints are themselves memoized per CFG
*object* (one whole-graph hash per graph state), so code that mutates a
graph in place must call :func:`notify_cfg_mutated` — the pass pipeline
(:mod:`repro.passes.pipeline`) and DCE do.  The hook drops the memoized
fingerprint, so the next lookup hashes the graph afresh.  Cached
solutions are never dropped by invalidation: they stay valid for any
graph that hashes to their fingerprint; invalidation only forces the
fingerprint itself to be recomputed.

A manager can additionally be given a
:class:`~repro.obs.store.SolutionStore`, which turns the cache into two
tiers: in-memory hit first, then disk, then solve-and-write.  The disk
tier is shared across processes and invocations (batch workers point at
one ``--cache-dir``); a disk hit is promoted into the memory tier, so
repeated lookups pay the deserialisation once.  Values the store has no
codec for stay memory-only — the disk tier is transparent, never
load-bearing.

Cache traffic is observable: hits, misses and invalidations bump the
``cache.hit`` / ``cache.miss`` / ``cache.invalidate`` counters on the
installed tracer (see :mod:`repro.obs.trace`), the disk tier bumps
``cache.disk.hit`` / ``cache.disk.miss`` / ``cache.disk.write``, and
both tiers are tallied separately in :attr:`AnalysisManager.stats` —
so ``repro cache stats``, batch reports and trace counters agree.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

# The module, not the function: benchmarks/e2e/README.md lists every
# name bound to a layer entry point such as cfg_fingerprint.
from repro.obs import fingerprint as _fingerprint
from repro.obs import trace
from repro.ir.cfg import CFG

#: Every live manager, so module-level mutation hooks can reach them all.
_LIVE_MANAGERS: "weakref.WeakSet" = weakref.WeakSet()


def notify_cfg_mutated(cfg: CFG) -> None:
    """Invalidate cached facts about *cfg* in every live manager.

    The one hook mutating code must call after changing a graph in
    place, whether it edited instructions or changed the structure
    (blocks added/removed, edges retargeted).  Every live manager drops
    its memoized fingerprint of *cfg*; cheap when no managers exist or
    none has seen the graph.
    """
    for manager in list(_LIVE_MANAGERS):
        manager.invalidate(cfg)


@dataclass
class CacheStats:
    """Hit/miss/invalidation tallies for one manager, split by tier.

    ``hits`` are in-memory hits and ``misses`` are full misses (the
    solver actually ran); the disk tier is counted separately so batch
    reports and ``repro cache stats`` can tell "served from a previous
    process" apart from "already warm in this one":

    * ``disk_hits`` — lookups served by deserialising a store entry;
    * ``disk_misses`` — lookups where the store was consulted and had
      nothing usable (every full miss with a store attached);
    * ``disk_writes`` — solutions persisted after a full miss.

    The dense solver backend adds two memory-only tallies —
    ``plan_hits``/``plan_misses`` for the per-fingerprint plan caches
    (:class:`~repro.dataflow.dense.DenseGraph` solve plans and the
    fused :class:`~repro.dataflow.fused.LCMPlan` tier share the
    columns; kept out of the hit/miss tallies above so cache-rate
    assertions stay about *solutions*) — and ``backends``, a
    per-backend count of the solves this manager actually ran
    (``{"dense": ..., "reference": ...}``, plus ``"fused"`` counting
    whole-cascade runs of :mod:`repro.dataflow.fused`).
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_writes: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    backends: Dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without solving (either tier)."""
        return (self.hits + self.disk_hits) / self.lookups if self.lookups else 0.0


class AnalysisManager:
    """Memoizes analysis results keyed by CFG content fingerprint.

    Args:
        enabled: with False, every lookup recomputes (the CLI's
            ``--no-cache``); stats still record the misses, and the
            disk tier is bypassed entirely.
        store: an optional :class:`~repro.obs.store.SolutionStore`
            consulted between the memory tier and a fresh solve, and
            written through on misses (the CLI's ``--cache-dir``).
    """

    def __init__(self, enabled: bool = True, store=None) -> None:
        self.enabled = enabled
        self.store = store
        self.stats = CacheStats()
        self._store: Dict[Tuple[str, str], Any] = {}
        self._plans: Dict[str, Any] = {}
        self._fingerprints: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        _LIVE_MANAGERS.add(self)

    # -- keys -----------------------------------------------------------

    def fingerprint(self, cfg: CFG) -> str:
        """The content fingerprint of *cfg*, memoized per object.

        The memo holds one :func:`~repro.obs.fingerprint.cfg_fingerprint`
        per graph state: :meth:`invalidate` drops it, and the next
        lookup hashes the whole graph again.
        """
        value = self._fingerprints.get(cfg)
        if value is None:
            value = _fingerprint.cfg_fingerprint(cfg)
            self._fingerprints[cfg] = value
        return value

    # -- lookups --------------------------------------------------------

    def cached(self, cfg: CFG, key: str, compute: Callable[[], Any]) -> Any:
        """Return the memoized value for (*cfg* content, *key*).

        Tiers, in order: memory, then the attached disk store (a hit is
        promoted into memory), then *compute* — whose result goes into
        memory and, when the store has a codec for it, onto disk.  The
        stored object is returned as-is on later hits — callers must
        treat it as immutable.
        """
        if not self.enabled:
            self.stats.misses += 1
            trace.count("cache.miss")
            return compute()
        fingerprint = self.fingerprint(cfg)
        full_key = (fingerprint, key)
        try:
            value = self._store[full_key]
        except KeyError:
            pass
        else:
            self.stats.hits += 1
            trace.count("cache.hit")
            return value
        if self.store is not None:
            value = self.store.load(fingerprint, key, cfg=cfg)
            if value is not None:
                self.stats.disk_hits += 1
                self._store[full_key] = value
                return value
            self.stats.disk_misses += 1
        self.stats.misses += 1
        trace.count("cache.miss")
        value = compute()
        self._store[full_key] = value
        if self.store is not None and self.store.save(fingerprint, key, value):
            self.stats.disk_writes += 1
        return value

    def dense_plan(self, cfg: CFG):
        """The dense solve plan for *cfg*, memoized by content fingerprint.

        Plans (:class:`~repro.dataflow.dense.DenseGraph`) are pure
        functions of graph content, so one compilation serves all four
        LCM solves plus liveness on the same graph — and any other
        graph with equal content.  The cache is memory-only (plans cost
        less to recompile than to deserialise) with its own
        ``plan_hits``/``plan_misses`` stats, so solution hit rates are
        unaffected.  With caching disabled, every call recompiles.
        """
        from repro.dataflow.dense import compile_plan

        if not self.enabled:
            self.stats.plan_misses += 1
            return compile_plan(cfg)
        fingerprint = self.fingerprint(cfg)
        try:
            plan = self._plans[fingerprint]
        except KeyError:
            self.stats.plan_misses += 1
            plan = compile_plan(cfg)
            self._plans[fingerprint] = plan
        else:
            self.stats.plan_hits += 1
        return plan

    def lcm_plan(self, cfg: CFG, local):
        """The fused LCM plan for *cfg*, memoized by content fingerprint.

        Plans (:class:`~repro.dataflow.fused.LCMPlan`) bundle the dense
        graph with the LCM local predicate rows lowered to raw ints, so
        the whole earliest/later/insert/replace cascade
        (:mod:`repro.dataflow.fused`) runs with zero per-call lowering.
        The underlying :class:`~repro.dataflow.dense.DenseGraph` comes
        from :meth:`dense_plan`, so fused and staged solves on one graph
        share a single id mapping.  Only sound when *local* was derived
        from *cfg*'s own default universe (the same caveat as the
        solution memo); callers with an explicit universe compile their
        own plan.  The cache is memory-only, keyed next to the dense
        plans, sharing the ``plan_hits``/``plan_misses`` stats and
        bumping the ``fused.plan.hit``/``fused.plan.miss`` counters.
        """
        from repro.dataflow.fused import compile_lcm_plan

        if not self.enabled:
            self.stats.plan_misses += 1
            trace.count("fused.plan.miss")
            return compile_lcm_plan(cfg, local)
        key = f"fused:{self.fingerprint(cfg)}"
        try:
            plan = self._plans[key]
        except KeyError:
            self.stats.plan_misses += 1
            trace.count("fused.plan.miss")
            plan = compile_lcm_plan(cfg, local, graph=self.dense_plan(cfg))
            self._plans[key] = plan
        else:
            self.stats.plan_hits += 1
            trace.count("fused.plan.hit")
        return plan

    def solve(self, cfg: CFG, problem, strategy: str = "auto"):
        """Memoized :func:`repro.dataflow.solver.solve`.

        The key includes the problem name, the vector width and the
        solver strategy; pass problems whose universe is derived from
        the graph content (the default everywhere) so equal fingerprints
        imply equal problems.  Actual solves (cache misses) share this
        manager's dense plan for the graph, and the backend that ran is
        tallied in ``stats.backends``.
        """
        from repro.dataflow.solver import solve as _solve

        key = f"solve:{problem.name}:w{problem.width}:{strategy}"

        def compute():
            solution = _solve(
                cfg, problem, strategy=strategy, plan=self.dense_plan(cfg)
            )
            backend = solution.stats.backend or "reference"
            self.stats.backends[backend] = (
                self.stats.backends.get(backend, 0) + 1
            )
            return solution

        return self.cached(cfg, key, compute)

    # -- invalidation ---------------------------------------------------

    def invalidate(self, cfg: CFG) -> None:
        """Note an in-place mutation of *cfg*: drop its memoized
        fingerprint, so the next lookup hashes the graph afresh."""
        if self._fingerprints.pop(cfg, None) is not None:
            self.stats.invalidations += 1
            trace.count("cache.invalidate")

    def clear(self) -> None:
        """Drop every memoized result, plan and fingerprint."""
        self._store.clear()
        self._plans.clear()
        self._fingerprints = weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self._store)
