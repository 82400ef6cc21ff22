"""Applying placements: the code motion transformation itself.

Given a CFG and one :class:`~repro.core.placement.Placement` per
expression, :func:`apply_placements` produces the transformed program:

1. **Replace** the upwards-exposed occurrence ``x = e`` in every
   ``delete_blocks`` member with ``x = t``.
2. **Initialise** ``t``: insert ``t = e`` at every ``insert_entries``
   block entry and on every ``insert_edges`` edge (realised by edge
   splitting; simultaneous insertions of several expressions on one edge
   share the split block).
3. **Copy at generators**: every *remaining* occurrence ``x = e`` is
   tentatively rewritten to ``t = e; x = t`` so its value can flow to
   replaced occurrences downstream.
4. **Suppress isolated copies**: a tentative copy whose temporary is
   dead after the pair is collapsed back to the original ``x = e``.
   This reproduces the paper's isolation treatment *semantically*; the
   analyses' own isolation handling is cross-checked against it in the
   tests.  The temps' liveness comes from :class:`TempLiveness`, which
   solves one temp at a time, on demand.

The result is always semantically equivalent to the input for *any*
placement that is value-correct; the interpreter-based checkers in
:mod:`repro.core.optimality` verify this property for every algorithm in
the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.liveness import LivenessResult
from repro.core.placement import Placement, PlacementError, upward_exposed_index
from repro.ir.cfg import CFG, Edge
from repro.ir.expr import Expr, Var
from repro.ir.instr import Assign
from repro.obs import trace


class TempLiveness:
    """Liveness of the placement temporaries only, solved per temp on demand.

    Step 4 only ever asks whether a *temp* is live, and liveness is
    computed separately for each variable: a temp's facts depend only on
    that temp's occurrences.  So instead of a whole-program fixpoint
    over every variable, this answers for the queried names alone (the
    demand-driven formulation of "Lazy Pointer Analysis",
    Khedker/Mycroft/Rawat):

    * **Build.** One scan of *labels* records, per temp, the blocks with
      an upward-exposed use and the blocks defining it.  Temps are fresh
      names, so only the blocks steps 1-3 edited can mention one.
    * **Solve.** The first query about a temp computes its live-out set
      by backward reachability from its use blocks, passing only through
      blocks that do not define it.  Live-out of the exit is ∅.  The
      reference solver iterates every block (``backward_order`` appends
      those that cannot reach the exit), so walking all predecessors
      answers unreachable code exactly as a full solve does.
    * **Update.** :meth:`edited` rescans just the edited blocks and drops
      the solved sets of the temps they mention (before or after the
      edit); the next query re-solves those temps.  Between updates the
      answers stay frozen, exactly like a fixpoint patched at the same
      points.

    Only instruction-level edits are supported: the predecessor map is
    read once, on the first solve.
    """

    def __init__(
        self, cfg: CFG, temps: Set[str], labels: Iterable[str]
    ) -> None:
        self.cfg = cfg
        self.temps = temps
        self.solves = 0
        self._uses: Dict[str, Set[str]] = {t: set() for t in temps}
        self._defs: Dict[str, Set[str]] = {t: set() for t in temps}
        self._mentions: Dict[str, Set[str]] = {}  # label -> temps it mentions
        self._live_out: Dict[str, Set[str]] = {}  # temp -> live-out labels
        self._preds: Optional[Dict[str, List[str]]] = None
        for label in labels:
            self._scan(label)

    def _scan(self, label: str) -> None:
        temps = self.temps
        block = self.cfg.block(label)
        upward: Set[str] = set()
        defined: Set[str] = set()
        for instr in block.instrs:
            for v in instr.uses():
                if v in temps and v not in defined:
                    upward.add(v)
            if instr.target in temps:
                defined.add(instr.target)
        if block.terminator is not None:
            for v in block.terminator.uses():
                if v in temps and v not in defined:
                    upward.add(v)
        for temp in upward:
            self._uses[temp].add(label)
        for temp in defined:
            self._defs[temp].add(label)
        self._mentions[label] = upward | defined

    def edited(self, labels: Iterable[str]) -> None:
        """Rescan *labels* after an edit; their temps re-solve on demand."""
        for label in labels:
            old = self._mentions.get(label, set())
            for temp in old:
                self._uses[temp].discard(label)
                self._defs[temp].discard(label)
            self._scan(label)
            for temp in old | self._mentions[label]:
                self._live_out.pop(temp, None)

    def live_out_blocks(self, temp: str) -> Set[str]:
        """The labels *temp* is live on exit from."""
        live_out = self._live_out.get(temp)
        if live_out is not None:
            return live_out
        preds = self._preds
        if preds is None:
            preds = self._preds = {label: [] for label in self.cfg.labels}
            for block in self.cfg:
                for succ in block.successors():
                    preds[succ].append(block.label)
        live_out = set()
        defs = self._defs[temp]
        live_in = set(self._uses[temp])
        stack = list(live_in)
        exit_label = self.cfg.exit
        while stack:
            for pred in preds[stack.pop()]:
                if pred == exit_label or pred in live_out:
                    continue
                live_out.add(pred)
                if pred not in defs and pred not in live_in:
                    live_in.add(pred)
                    stack.append(pred)
        self._live_out[temp] = live_out
        self.solves += 1
        trace.count("transform.temp_solve")
        return live_out

    def is_live_out(self, label: str, temp: str) -> bool:
        """Is *temp* live on exit from *label*?"""
        return label in self.live_out_blocks(temp)


@dataclass
class TransformResult:
    """The outcome of applying a set of placements."""

    original: CFG
    cfg: CFG
    placements: List[Placement]
    temps: Set[str]
    copies_added: List[Tuple[str, str]] = field(default_factory=list)
    copies_collapsed: List[Tuple[str, str]] = field(default_factory=list)
    insertions_dropped: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def copy_blocks(self) -> Set[str]:
        """Blocks where a generating occurrence kept its copy (COPY set)."""
        collapsed = set(self.copies_collapsed)
        return {label for label, _ in self.copies_added if (label, _) not in collapsed}

    def describe(self) -> str:
        lines = [p.describe() for p in self.placements if not p.is_identity]
        if not lines:
            return "no transformation applied"
        return "\n".join(lines)


def _is_live_after(
    cfg: CFG,
    liveness: Union[LivenessResult, TempLiveness],
    label: str,
    index: int,
    var: str,
) -> bool:
    """Is *var* live immediately after instruction *index* of *label*?

    The block tail is scanned locally; only an answer resting on the
    block-exit fact consults *liveness*.
    """
    block = cfg.block(label)
    for instr in block.instrs[index + 1 :]:
        if var in instr.uses():
            return True
        if instr.target == var:
            return False
    if block.terminator is not None and var in block.terminator.uses():
        return True
    return liveness.is_live_out(label, var)


def apply_placements(
    cfg: CFG,
    placements: Sequence[Placement],
    add_copies: bool = True,
    collapse_isolated_copies: bool = True,
    drop_dead_insertions: bool = True,
) -> TransformResult:
    """Apply *placements* to a copy of *cfg* and return the result.

    Args:
        cfg: the program to transform (left untouched).
        placements: one plan per expression; temps must be distinct.
        add_copies: rewrite remaining occurrences to ``t = e; x = t`` so
            their value reaches replaced occurrences (step 3 above).
            Disable only for algorithms that provably need no
            generators, or to study the resulting miscompiles.
        collapse_isolated_copies: undo copies whose temp is dead
            (step 4).  Disabling yields the ALCM-style "copy
            everywhere" program, used by the isolation ablation.
        drop_dead_insertions: remove inserted ``t = e`` whose temp is
            dead — a defensive cleanup for baselines that may insert
            uselessly; LCM/BCM never trigger it.

    Both cleanups query only the temps, through one
    :class:`TempLiveness` over the work graph; no whole-program
    liveness is solved.
    """
    temps = [p.temp for p in placements]
    if len(set(temps)) != len(temps):
        raise PlacementError("placements must use pairwise distinct temps")
    # Uniquify temp names against the program (re-optimising an already
    # transformed program would otherwise reuse last round's temps).
    existing = set(cfg.variables())
    taken = existing | set(temps)
    renamed: List[Placement] = []
    for placement in placements:
        placement.validate_against(cfg)
        temp = placement.temp
        if temp in existing:
            suffix = 2
            while f"{temp}~{suffix}" in taken:
                suffix += 1
            temp = f"{temp}~{suffix}"
            taken.add(temp)
            placement = Placement(
                placement.expr,
                temp,
                placement.insert_edges,
                placement.insert_entries,
                placement.delete_blocks,
                placement.insert_exits,
            )
        renamed.append(placement)
    placements = renamed

    work = cfg.copy()
    result = TransformResult(
        original=cfg,
        cfg=work,
        placements=list(placements),
        temps={p.temp for p in placements},
    )

    # Blocks steps 1-3 write a temp into: the only ones mentioning one.
    step_edits: Set[str] = set()

    # Step 1: replace deleted occurrences.
    for placement in placements:
        for label in sorted(placement.delete_blocks):
            index = upward_exposed_index(work, label, placement.expr)
            block = work.block(label)
            old = block.instrs[index]
            block.instrs[index] = Assign(old.target, Var(placement.temp))
            step_edits.add(label)

    # Step 3 (before insertions so indices refer to original occurrences):
    # tentative copies at every remaining occurrence.  The rewrite keeps
    # every occurrence of the planned expression in place (``x = e``
    # becomes ``t = e; x = t``) and never plants one in a new block, so
    # a single occurrence scan up front serves every placement —
    # including later placements over the same expression.
    if add_copies:
        planned = {p.expr for p in placements}
        occ_labels: Dict[Expr, List[str]] = {}
        for block in work:
            seen_here: Set[Expr] = set()
            for instr in block.instrs:
                expr = instr.expr
                if expr in planned and expr not in seen_here:
                    seen_here.add(expr)
                    occ_labels.setdefault(expr, []).append(block.label)
        for placement in placements:
            for label in occ_labels.get(placement.expr, ()):
                block = work.block(label)
                rewritten: List[Assign] = []
                changed = False
                for instr in block.instrs:
                    if instr.expr == placement.expr and instr.target != placement.temp:
                        rewritten.append(Assign(placement.temp, placement.expr))
                        rewritten.append(Assign(instr.target, Var(placement.temp)))
                        result.copies_added.append((block.label, placement.temp))
                        changed = True
                    else:
                        rewritten.append(instr)
                if changed:
                    block.instrs[:] = rewritten
                    step_edits.add(label)

    # Step 2a: entry insertions (prepended, so they precede every use)
    # and exit insertions (appended, after every occurrence).
    for placement in placements:
        for label in sorted(placement.insert_entries):
            work.block(label).instrs.insert(
                0, Assign(placement.temp, placement.expr)
            )
            step_edits.add(label)
        for label in sorted(placement.insert_exits):
            work.block(label).append(Assign(placement.temp, placement.expr))
            step_edits.add(label)

    # Step 2b: edge insertions; one split block per edge, shared by all
    # expressions inserting there.
    by_edge: Dict[Edge, List[Placement]] = {}
    for placement in placements:
        for edge in placement.insert_edges:
            by_edge.setdefault(edge, []).append(placement)
    split_labels: Set[str] = set()
    for edge in sorted(by_edge):
        src, dst = edge
        split = work.split_edge(src, dst, f"ins_{src}_{dst}")
        for placement in sorted(by_edge[edge], key=lambda p: p.temp):
            split.append(Assign(placement.temp, placement.expr))
        split_labels.add(split.label)
        step_edits.add(split.label)

    # Step 4: collapse isolated copies and drop dead insertions.  Both
    # sweeps ask only about temps, so one temp-scoped liveness serves
    # them, updated at each sweep's update points.  Temps are only ever
    # defined at copy sites and insertion sites, so both sweeps visit
    # just those blocks.
    if (collapse_isolated_copies and result.copies_added) or drop_dead_insertions:
        with trace.span(
            "transform.cleanup", temps=len(result.temps)
        ) as cleanup:
            liveness = TempLiveness(work, result.temps, sorted(step_edits))
            if collapse_isolated_copies and result.copies_added:
                _collapse_dead_copies(work, result, liveness)
            if drop_dead_insertions:
                def_sites = split_labels | {
                    label for label, _ in result.copies_added
                }
                for placement in placements:
                    def_sites |= placement.insert_entries
                    def_sites |= placement.insert_exits
                _drop_dead_insertions(work, result, liveness, def_sites)
            cleanup.set(
                collapsed=len(result.copies_collapsed),
                dropped=len(result.insertions_dropped),
                temp_solves=liveness.solves,
            )

    return result


def _collapse_dead_copies(
    cfg: CFG, result: TransformResult, liveness: TempLiveness
) -> None:
    """Rewrite ``t = e; x = t`` back to ``x = e`` where *t* dies at once."""
    copies = set(result.copies_added)
    copy_sites = {label for label, _ in copies}
    for block in cfg:
        if block.label not in copy_sites:
            continue
        changed = False
        i = 0
        while i + 1 < len(block.instrs):
            first, second = block.instrs[i], block.instrs[i + 1]
            if (
                first.target in result.temps
                and second.expr == Var(first.target)
                and second.target != first.target
                and (block.label, first.target) in copies
                and not _is_live_after(
                    cfg, liveness, block.label, i + 1, first.target
                )
            ):
                block.instrs[i : i + 2] = [Assign(second.target, first.expr)]
                result.copies_collapsed.append((block.label, first.target))
                changed = True
                # A collapse can only shorten later liveness, never extend
                # it, so continuing with this block's stale exit fact is
                # sound: it may miss a newly dead copy in *earlier* blocks,
                # which the fixpoint loop in the caller would catch; in
                # practice the pairs are independent.  Update the facts
                # at the block boundary to stay exact.
            else:
                i += 1
        if changed:
            liveness.edited([block.label])


def _drop_dead_insertions(
    cfg: CFG,
    result: TransformResult,
    liveness: TempLiveness,
    candidates: Optional[Set[str]] = None,
) -> None:
    """Remove inserted/copy definitions of temps that are never used.

    *candidates*, when given, is the set of labels that can contain a
    temp definition (insertion sites, split blocks, copy sites); other
    blocks define no temps and are skipped.  Removals never create temp
    definitions elsewhere, so the set stays valid across rounds.
    """
    changed = True
    while changed:
        changed = False
        edited: List[str] = []
        for block in cfg:
            if candidates is not None and block.label not in candidates:
                continue
            keep: List[Assign] = []
            for i, instr in enumerate(block.instrs):
                if instr.target in result.temps and not _is_live_after(
                    cfg, liveness, block.label, i, instr.target
                ):
                    result.insertions_dropped.append((block.label, instr.target))
                    changed = True
                else:
                    keep.append(instr)
            if len(keep) != len(block.instrs):
                block.instrs[:] = keep
                edited.append(block.label)
        if edited:
            # Facts stay frozen within the round (every block decides
            # against the same fixpoint — the old re-solve-per-round
            # semantics); the update lands at the round boundary.
            liveness.edited(edited)
