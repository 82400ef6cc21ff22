"""Incremental + demand-driven liveness: cost scales with the edit.

The private liveness engine of assignment sinking
(:mod:`repro.extensions.sinking`), which edits a handful of
instructions per round and then asks liveness questions again.  (DCE
answers its question with one strong-liveness solve instead, see
:mod:`repro.passes.dce`, and the LCM transform's cleanup asks only
about its own temps through :class:`repro.core.transform.TempLiveness`.)
Re-running the global fixpoint after each edit would make the
*analysis* cost proportional to the program, even though the *edit*
touched two instructions; this engine's cost scales with the edit:

* :class:`IncrementalLiveness` solves a CFG's liveness **once** (through
  the dense backend) and thereafter *updates* the cached fixpoint after
  local edits.  :meth:`~IncrementalLiveness.block_edited` records that a
  block's instruction list changed (insert/delete/replace — exactly the
  edits the transformation loops make); the next query recomputes that
  block's local sets, resets the **affected region** — the blocks that
  can reach an edited block, the only ones whose facts may depend on it
  in a backward problem — and re-runs a priority worklist over that
  region only.  Because liveness is a union (some-path) problem whose
  fixpoint is the unique least fixpoint, re-iterating the affected
  region from bottom with the untouched facts held fixed reproduces the
  full re-solve **bit for bit** (a hypothesis differential suite pins
  this), including after *deletions*, where naive re-propagation from
  stale facts would leave self-sustaining live ranges around loops.

* The **demand-driven** point-query API (:meth:`is_live_after`,
  :meth:`is_live_in`, :meth:`is_live_out` — the formulation of "Lazy
  Pointer Analysis", Khedker/Mycroft/Rawat) answers questions without
  ever computing the global fixpoint: when no facts are cached, it
  solves only the query's backward slice — the successor closure of the
  queried block, the only facts a backward analysis at that block can
  depend on.  Solved regions are remembered and grow monotonically;
  a later query outside the region solves just the difference.

* **Structural** changes (blocks or edges added/removed) are outside
  the edit-delta model: :meth:`structure_changed` drops everything and
  the next use rebuilds from scratch.  The engine's owner reports every
  edit to it directly.

Observability: ``dataflow.incr.fullsolve`` counts global solves,
``dataflow.incr.update`` counts applied edit deltas,
``dataflow.query.demand`` counts demand-driven region solves and
``dataflow.query.point`` counts point queries answered (see
``docs/OBSERVABILITY.md``); the per-engine :class:`IncrementalStats`
carries the same tallies plus region sizes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.obs import trace

__all__ = ["IncrementalLiveness", "IncrementalStats"]


@dataclass
class IncrementalStats:
    """Work tallies for one :class:`IncrementalLiveness` engine.

    Attributes:
        full_solves: global fixpoint solves (the expensive path).
        incr_updates: edit deltas applied by region re-iteration.
        demand_solves: demand-driven region solves (includes promoting
            a partial engine to the full fixpoint).
        point_queries: ``is_live_*`` point queries answered.
        edits_seen: block-edit notifications received.
        blocks_updated: total blocks re-iterated by incremental updates.
        blocks_demanded: total blocks solved by demand queries.
        node_visits: transfer evaluations in region worklists.
    """

    full_solves: int = 0
    incr_updates: int = 0
    demand_solves: int = 0
    point_queries: int = 0
    edits_seen: int = 0
    blocks_updated: int = 0
    blocks_demanded: int = 0
    node_visits: int = 0


def _scan_block(block) -> Tuple[Set[str], Set[str], FrozenSet[str]]:
    """A block's (upward-exposed uses, defs, all mentioned names)."""
    upward: Set[str] = set()
    defined: Set[str] = set()
    mentioned: Set[str] = set()
    for instr in block.instrs:
        for v in instr.uses():
            mentioned.add(v)
            if v not in defined:
                upward.add(v)
        defined.add(instr.target)
        mentioned.add(instr.target)
    if block.terminator is not None:
        for v in block.terminator.uses():
            mentioned.add(v)
            if v not in defined:
                upward.add(v)
    return upward, defined, frozenset(mentioned)


class IncrementalLiveness:
    """Per-CFG liveness that solves once and updates after local edits.

    Args:
        cfg: the graph; the engine reads it lazily, so construct first
            and solve later.  The engine must be told about mutations:
            :meth:`block_edited` for instruction-level edits to an
            existing block, :meth:`structure_changed` for everything
            else (blocks added/removed, terminators rewritten, edges
            split).
        live_at_exit: names observable after the program ends (live at
            the exit block), exactly as for
            :func:`~repro.analysis.liveness.compute_liveness`.

    All query answers — and :meth:`result`, the materialised
    :class:`~repro.analysis.liveness.LivenessResult` — are bit-identical
    to a fresh ``compute_liveness`` on the current graph content.
    """

    def __init__(self, cfg, live_at_exit: Iterable[str] = ()) -> None:
        self.cfg = cfg
        self.exit_names: Tuple[str, ...] = tuple(sorted(set(live_at_exit)))
        self.stats = IncrementalStats()
        self._plan = None
        self._position: Dict[int, int] = {}  # member id -> worklist priority
        self._vars: List[str] = []
        self._vidx: Dict[str, int] = {}
        self._mentions: Dict[str, int] = {}  # name -> blocks mentioning it
        self._names: List[FrozenSet[str]] = []
        self._use: List[int] = []
        self._def: List[int] = []
        self._in: List[int] = []
        self._out: List[int] = []
        self._boundary = 0
        self._solved: Set[int] = set()
        self._full = False
        self._dirty: Set[int] = set()
        self._materialized = None

    # -- edit notifications ---------------------------------------------

    def block_edited(self, label: str) -> None:
        """Record that *label*'s instruction list changed in place.

        Cheap: the recompute is deferred to the next query, so a burst
        of edits coalesces into one delta.  A label the engine has not
        seen (a freshly added block) escalates to a structural change.
        """
        self.stats.edits_seen += 1
        if self._plan is None:
            return  # nothing cached yet; the first solve reads fresh state
        idx = self._plan.index.get(label)
        if idx is None:
            self.structure_changed()
            return
        self._dirty.add(idx)
        self._materialized = None

    def blocks_edited(self, labels: Iterable[str]) -> None:
        """Record edits to several blocks (see :meth:`block_edited`)."""
        for label in labels:
            self.block_edited(label)

    def structure_changed(self) -> None:
        """Drop everything: blocks/edges changed, the plan is stale."""
        self._plan = None
        self._position = {}
        self._vars = []
        self._vidx = {}
        self._mentions = {}
        self._names = []
        self._use = []
        self._def = []
        self._in = []
        self._out = []
        self._boundary = 0
        self._solved = set()
        self._full = False
        self._dirty = set()
        self._materialized = None

    # -- construction ----------------------------------------------------

    def _ensure_built(self) -> None:
        if self._plan is not None:
            return
        from repro.dataflow.dense import compile_plan

        plan = compile_plan(self.cfg)
        self._plan = plan
        self._position = {i: pos for pos, i in enumerate(plan.backward_order)}
        n = len(plan.labels)
        mentions: Dict[str, int] = {}
        names: List[FrozenSet[str]] = []
        scans = []
        for label in plan.labels:
            upward, defined, mentioned = _scan_block(self.cfg.block(label))
            scans.append((upward, defined))
            names.append(mentioned)
            for name in mentioned:
                mentions[name] = mentions.get(name, 0) + 1
        universe = sorted(set(mentions) | set(self.exit_names))
        vidx = {name: i for i, name in enumerate(universe)}
        self._vars = universe
        self._vidx = vidx
        self._mentions = mentions
        self._names = names
        self._use = [self._bits(upward) for upward, _ in scans]
        self._def = [self._bits(defined) for _, defined in scans]
        self._boundary = self._bits(self.exit_names)
        self._in = [0] * n
        self._out = [0] * n
        self._dirty = set()

    def _bits(self, names: Iterable[str]) -> int:
        vidx = self._vidx
        bits = 0
        for name in names:
            bits |= 1 << vidx[name]
        return bits

    # -- the region worklist ---------------------------------------------

    def _solve_region(self, region: Set[int]) -> None:
        """Iterate *region* (member ids) to its least fixpoint.

        Facts outside the region are held fixed: solved blocks carry
        their final values, never-visited blocks stay at the init value
        (0) — exactly the reference solver's treatment of blocks missing
        from the backward order.  The region must be closed under the
        influence relation it is iterated for (predecessor-closed for
        updates, successor-closed for demand), which both callers
        guarantee by construction.
        """
        plan = self._plan
        position = self._position
        use, df = self._use, self._def
        fin, fout = self._in, self._out
        succs, preds = plan.succs, plan.preds
        exit_id = plan.exit
        boundary = self._boundary
        heap = sorted((position[i], i) for i in region)
        queued = set(region)
        visits = 0
        while heap:
            _, i = heapq.heappop(heap)
            queued.discard(i)
            visits += 1
            if i == exit_id:
                out = boundary
            else:
                out = 0
                for s in succs[i]:
                    out |= fin[s]
            nin = use[i] | (out & ~df[i])
            if out != fout[i] or nin != fin[i]:
                fout[i] = out
                if nin != fin[i]:
                    fin[i] = nin
                    for p in preds[i]:
                        if p in region and p not in queued:
                            queued.add(p)
                            heapq.heappush(heap, (position[p], p))
        self.stats.node_visits += visits

    # -- edit application -------------------------------------------------

    def _apply_edits(self) -> None:
        dirty, self._dirty = self._dirty, set()
        if self._plan is None or not dirty:
            return
        plan = self._plan
        mentions = self._mentions
        for i in sorted(dirty):
            upward, defined, mentioned = _scan_block(self.cfg.block(plan.labels[i]))
            old = self._names[i]
            if mentioned != old:
                for name in mentioned - old:
                    count = mentions.get(name, 0)
                    mentions[name] = count + 1
                    if name not in self._vidx:
                        # Universe growth: new columns start all-zero,
                        # which is the pre-edit truth for a name with no
                        # occurrences; the region re-solve fills them in.
                        self._vidx[name] = len(self._vars)
                        self._vars.append(name)
                for name in old - mentioned:
                    count = mentions[name] - 1
                    if count:
                        mentions[name] = count
                    else:
                        # Keep the (now dead) column: liveness is
                        # componentwise per variable, so its bits decay
                        # to zero through the update and materialise
                        # projects it away.
                        del mentions[name]
                self._names[i] = mentioned
            self._use[i] = self._bits(upward)
            self._def[i] = self._bits(defined)
        self._materialized = None
        if not self._solved:
            return  # locals refreshed; no facts exist to patch yet
        # The affected region: solved blocks that can reach an edited
        # block — in a backward problem, the only facts that may depend
        # on the edited local sets.  Predecessor-closed by construction.
        frontier = [i for i in dirty if i in self._solved]
        if not frontier:
            return
        region: Set[int] = set()
        while frontier:
            i = frontier.pop()
            if i in region:
                continue
            region.add(i)
            for p in self._plan.preds[i]:
                if p in self._solved and p not in region:
                    frontier.append(p)
        # Reset to bottom and re-iterate: sound for *deletions* too,
        # where propagating from stale facts would keep dead loop
        # variables alive forever.
        for i in region:
            self._in[i] = 0
            self._out[i] = 0
        self._solve_region(region)
        self.stats.incr_updates += 1
        self.stats.blocks_updated += len(region)
        trace.count("dataflow.incr.update")

    # -- solving ----------------------------------------------------------

    def _full_solve(self) -> None:
        from repro.analysis.liveness import compute_liveness

        plan = self._plan
        result = compute_liveness(
            self.cfg, live_at_exit=self.exit_names, plan=plan
        )
        index = plan.index
        if result.variables == self._vars:
            for label, vec in result.livein.items():
                self._in[index[label]] = vec.bits
            for label, vec in result.liveout.items():
                self._out[index[label]] = vec.bits
            self._materialized = result
        else:
            # A universe drift between build and solve: edits applied
            # before the first solve appended columns out of sorted
            # order.  Remap columns by name.
            remap = [(self._vidx[name], ri) for ri, name in enumerate(result.variables)]
            for label, vec in result.livein.items():
                bits = vec.bits
                self._in[index[label]] = sum(
                    ((bits >> ri) & 1) << si for si, ri in remap
                )
            for label, vec in result.liveout.items():
                bits = vec.bits
                self._out[index[label]] = sum(
                    ((bits >> ri) & 1) << si for si, ri in remap
                )
            self._materialized = None
        self._solved = set(self._position)
        self._full = True
        self.stats.full_solves += 1
        trace.count("dataflow.incr.fullsolve")

    def solve(self) -> None:
        """Ensure the full fixpoint is cached (idempotent).

        Applies any pending edit delta first; with no facts at all it
        runs the global solve; a partial (demand-solved) engine is
        promoted by solving just the remaining blocks.
        """
        self._ensure_built()
        if self._dirty:
            self._apply_edits()
        if self._full:
            return
        if not self._solved:
            self._full_solve()
            return
        region = set(self._position) - self._solved
        self._solve_region(region)
        self._solved |= region
        self._full = True
        self.stats.demand_solves += 1
        self.stats.blocks_demanded += len(region)
        trace.count("dataflow.query.demand")

    def _need(self, i: int) -> None:
        """Ensure block id *i* has valid facts, demand-solving its slice."""
        if self._dirty:
            self._apply_edits()
        if self._full or i in self._solved or i not in self._position:
            return
        # The backward slice: everything the query's facts can depend
        # on is the successor closure of the queried block.
        region: Set[int] = set()
        stack = [i]
        position = self._position
        solved = self._solved
        succs = self._plan.succs
        while stack:
            j = stack.pop()
            if j in region or j in solved or j not in position:
                continue
            region.add(j)
            stack.extend(succs[j])
        self._solve_region(region)
        solved |= region
        if len(solved) == len(position):
            self._full = True
        self.stats.demand_solves += 1
        self.stats.blocks_demanded += len(region)
        trace.count("dataflow.query.demand")

    # -- queries -----------------------------------------------------------

    def _block_id(self, label: str) -> int:
        idx = self._plan.index.get(label)
        if idx is None:
            from repro.ir.cfg import CFGError

            raise CFGError(f"no block named {label!r}")
        return idx

    def is_live_out(self, label: str, var: str) -> bool:
        """Is *var* live on exit from *label*? (demand-driven)"""
        self.stats.point_queries += 1
        trace.count("dataflow.query.point")
        self._ensure_built()
        vi = self._vidx.get(var)
        if vi is None:
            return False
        i = self._block_id(label)
        self._need(i)
        return (self._out[i] >> vi) & 1 == 1

    def is_live_in(self, label: str, var: str) -> bool:
        """Is *var* live on entry to *label*? (demand-driven)"""
        self.stats.point_queries += 1
        trace.count("dataflow.query.point")
        self._ensure_built()
        vi = self._vidx.get(var)
        if vi is None:
            return False
        i = self._block_id(label)
        self._need(i)
        return (self._in[i] >> vi) & 1 == 1

    def is_live_after(self, label: str, index: int, var: str) -> bool:
        """Is *var* live immediately after instruction *index* of *label*?

        The demand-driven point query of the tentpole: the block tail is
        scanned locally (uses before defs, then the terminator), and only
        if the answer rests on the block-exit fact does the engine solve
        — and then only the query's backward slice.
        """
        self._ensure_built()
        block = self.cfg.block(label)
        for instr in block.instrs[index + 1 :]:
            if var in instr.uses():
                return True
            if instr.target == var:
                return False
        if block.terminator is not None and var in block.terminator.uses():
            return True
        return self.is_live_out(label, var)

    def live_in(self, label: str) -> Set[str]:
        """The names live on entry to *label* (demand-driven)."""
        self.stats.point_queries += 1
        trace.count("dataflow.query.point")
        self._ensure_built()
        i = self._block_id(label)
        self._need(i)
        return self._names_of(self._in[i])

    def live_out(self, label: str) -> Set[str]:
        """The names live on exit from *label* (demand-driven)."""
        self.stats.point_queries += 1
        trace.count("dataflow.query.point")
        self._ensure_built()
        i = self._block_id(label)
        self._need(i)
        return self._names_of(self._out[i])

    def _names_of(self, bits: int) -> Set[str]:
        names = set()
        vars_ = self._vars
        i = 0
        while bits:
            if bits & 1:
                names.add(vars_[i])
            bits >>= 1
            i += 1
        return names

    # -- materialisation ----------------------------------------------------

    def result(self):
        """The full fixpoint as a :class:`~repro.analysis.liveness.LivenessResult`.

        Bit-identical to ``compute_liveness(cfg, live_at_exit)`` on the
        current graph content; when the engine's internal universe has
        drifted after edits (appended or retired columns), the facts are
        projected onto the canonical sorted universe first.
        """
        self.solve()
        if self._materialized is not None:
            return self._materialized
        from repro.analysis.liveness import LivenessResult
        from repro.dataflow.bitvec import BitVector
        from repro.dataflow.stats import SolverStats

        target = sorted(set(self._mentions) | set(self.exit_names))
        width = len(target)
        plan = self._plan
        if target == self._vars:
            livein = {
                label: BitVector(width, self._in[i])
                for i, label in enumerate(plan.labels)
            }
            liveout = {
                label: BitVector(width, self._out[i])
                for i, label in enumerate(plan.labels)
            }
        else:
            perm = [self._vidx[name] for name in target]

            def project(bits: int) -> int:
                out = 0
                for ti, si in enumerate(perm):
                    out |= ((bits >> si) & 1) << ti
                return out

            livein = {
                label: BitVector(width, project(self._in[i]))
                for i, label in enumerate(plan.labels)
            }
            liveout = {
                label: BitVector(width, project(self._out[i]))
                for i, label in enumerate(plan.labels)
            }
        materialized = LivenessResult(
            variables=list(target),
            index={name: i for i, name in enumerate(target)},
            livein=livein,
            liveout=liveout,
            stats=SolverStats(
                node_visits=self.stats.node_visits, backend="incremental"
            ),
        )
        self._materialized = materialized
        return materialized
