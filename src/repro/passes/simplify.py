"""CFG cleanup: structural simplifications that preserve semantics.

The code motion transformations leave structural residue — split
blocks whose insertions were collapsed away, pass-through blocks from
critical-edge splitting — and front-end lowering produces empty join
blocks.  This pass removes what can be removed:

* **branch folding** — a conditional branch on a constant, or with two
  equal targets, becomes a jump;
* **pass-through elision** — an empty block that just jumps on is cut
  out of every predecessor's edge (unless doing so would give a
  conditional branch two identical successors while the condition
  variable still matters — those are folded first);
* **linear merging** — a block whose single successor has no other
  predecessors absorbs it (straight-line chains become one block);
* **unreachable removal** — blocks no longer reachable from the entry
  are deleted.

The entry and exit blocks are never removed.  The pass iterates to a
fixed point and reports how many of each rewrite it performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.ir.cfg import CFG
from repro.ir.instr import CondBranch, Const, Jump


@dataclass
class SimplifyStats:
    """What :func:`simplify_cfg` did."""

    branches_folded: int = 0
    blocks_elided: int = 0
    blocks_merged: int = 0
    unreachable_removed: int = 0

    @property
    def total(self) -> int:
        return (
            self.branches_folded
            + self.blocks_elided
            + self.blocks_merged
            + self.unreachable_removed
        )


def _fold_branches(cfg: CFG, stats: SimplifyStats) -> bool:
    changed = False
    for block in cfg:
        term = block.terminator
        if not isinstance(term, CondBranch):
            continue
        if term.then_target == term.else_target:
            block.terminator = Jump(term.then_target)
            stats.branches_folded += 1
            changed = True
        elif isinstance(term.cond, Const):
            target = term.then_target if term.cond.value else term.else_target
            block.terminator = Jump(target)
            stats.branches_folded += 1
            changed = True
    if changed:
        cfg.notify_terminator_changed()
    return changed


def _elide_pass_throughs(cfg: CFG, stats: SimplifyStats) -> bool:
    changed = False
    for label in list(cfg.labels):
        if label in (cfg.entry, cfg.exit):
            continue
        block = cfg.block(label)
        if block.instrs or not isinstance(block.terminator, Jump):
            continue
        target = block.terminator.target
        if target == label:
            continue  # degenerate self-loop; unreachable removal's job
        preds = cfg.preds(label)
        if not preds:
            continue  # unreachable; handled separately
        # Retargeting a CondBranch may produce two equal successors;
        # that is legal only if we immediately fold it, which loses the
        # branch (fine: the condition is a pure atom).  Check that no
        # predecessor already reaches `target` through its other arm
        # AND requires distinct targets semantically — it never does,
        # so always safe; we just need to fold afterwards.
        for pred in preds:
            cfg.retarget(pred, label, target)
        cfg.remove_block(label)
        stats.blocks_elided += 1
        changed = True
        _fold_branches(cfg, stats)
    return changed


def _merge_linear_pairs(cfg: CFG, stats: SimplifyStats) -> bool:
    """Absorb a sole-predecessor successor into its predecessor.

    ``b: ...; goto c`` followed by ``c`` (whose only predecessor is
    ``b``) becomes one block carrying ``c``'s terminator.  The entry
    block stays empty (the structural invariant) and the exit block is
    never absorbed.
    """
    changed = False
    for label in list(cfg.labels):
        if label == cfg.entry or label not in cfg:
            continue
        block = cfg.block(label)
        term = block.terminator
        if not isinstance(term, Jump):
            continue
        succ = term.target
        if succ in (cfg.entry, cfg.exit, label):
            continue
        if cfg.preds(succ) != [label]:
            continue
        succ_block = cfg.block(succ)
        block.instrs.extend(succ_block.instrs)
        block.terminator = succ_block.terminator
        cfg.notify_terminator_changed()
        cfg.remove_block(succ)
        stats.blocks_merged += 1
        changed = True
    return changed


def _remove_unreachable(cfg: CFG, stats: SimplifyStats) -> bool:
    reachable: Set[str] = set()
    stack = [cfg.entry]
    while stack:
        label = stack.pop()
        if label in reachable:
            continue
        reachable.add(label)
        stack.extend(cfg.succs(label))
    doomed = [l for l in cfg.labels if l not in reachable and l != cfg.exit]
    for label in doomed:
        cfg.remove_block(label)
        stats.unreachable_removed += 1
    return bool(doomed)


def simplify_cfg(cfg: CFG) -> SimplifyStats:
    """Simplify *cfg* in place to a fixed point; returns statistics."""
    stats = SimplifyStats()
    changed = True
    while changed:
        changed = False
        changed |= _fold_branches(cfg, stats)
        changed |= _elide_pass_throughs(cfg, stats)
        changed |= _merge_linear_pairs(cfg, stats)
        changed |= _remove_unreachable(cfg, stats)
    return stats
