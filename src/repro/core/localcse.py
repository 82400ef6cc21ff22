"""Local common-subexpression elimination (with temporaries).

The paper assumes LCSE has been applied to every basic block before the
global analyses run, so each block exposes at most one upwards- and one
downwards-exposed occurrence per expression.  This pass establishes
that normal form: within a block, recomputations of an expression whose
operands are unchanged since an earlier occurrence are replaced by
copies.

The subtlety is *holder loss*: in ``w = d*a; w = c*d; u = d*a`` the
value of ``d*a`` outlives the variable that held it.  A holder-based
LCSE cannot fix the recomputation, and block-granular PRE cannot
either (only the upwards-exposed first occurrence of a block is
replaceable) — whereas the paper's statement-granular formulation can.
To keep the two formulations equivalent, this pass saves the value into
a fresh dotted temporary (``lcse<N>.t``) whenever the natural holder
does not survive to the last reuse, exactly like local value numbering
with temporaries in production compilers.

No global information is used; the pass is idempotent and semantics
preserving.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.cfg import CFG
from repro.ir.expr import Expr, Var, expr_vars, is_computation
from repro.ir.instr import Assign


def _occurrence_runs(instrs: List[Assign]) -> List[Tuple[Expr, List[int]]]:
    """Maximal kill-free runs of same-expression occurrences.

    A run of expression ``e`` is a maximal sequence of instruction
    indices computing ``e`` with no assignment to an operand of ``e``
    in between.  Every occurrence after the first of a run is locally
    redundant.
    """
    runs: List[Tuple[Expr, List[int]]] = []
    open_runs: Dict[Expr, List[int]] = {}
    for i, instr in enumerate(instrs):
        expr = instr.expr
        if is_computation(expr):
            open_runs.setdefault(expr, []).append(i)
        target = instr.target
        for e in list(open_runs):
            if target in expr_vars(e):
                runs.append((e, open_runs.pop(e)))
    runs.extend(open_runs.items())
    return runs


def local_cse_block(
    instrs: List[Assign], temp_stem: str = "lcse", temp_start: int = 0
) -> Tuple[List[Assign], int]:
    """LCSE over one instruction list; returns (new list, replacements).

    Temporaries introduced for holder-loss runs are named
    ``<temp_stem><n>.t`` starting at *temp_start*; the dot keeps them
    out of the source namespace.
    """
    runs = [(e, idxs) for e, idxs in _occurrence_runs(instrs) if len(idxs) >= 2]

    # Decide, per redundant run, whether the first occurrence's target
    # can serve as the holder or a temp is needed.
    #   rewrite_def[i] = temp name  -> emit "temp = e; x = temp" at i
    #   rewrite_use[i] = source var -> emit "x = source" at i
    rewrite_def: Dict[int, str] = {}
    rewrite_use: Dict[int, str] = {}
    temp_counter = temp_start
    replaced = 0
    for expr, idxs in runs:
        first, last = idxs[0], idxs[-1]
        occurrence_set = set(idxs)
        holder = instrs[first].target
        holder_survives = holder not in expr_vars(expr) and not any(
            instrs[j].target == holder
            for j in range(first + 1, last + 1)
            if j not in occurrence_set
        )
        if holder_survives:
            source = holder
        else:
            source = f"{temp_stem}{temp_counter}.t"
            temp_counter += 1
            rewrite_def[first] = source
        for j in idxs[1:]:
            rewrite_use[j] = source
            replaced += 1

    result: List[Assign] = []
    for i, instr in enumerate(instrs):
        if i in rewrite_def:
            temp = rewrite_def[i]
            result.append(Assign(temp, instr.expr))
            result.append(Assign(instr.target, Var(temp)))
        elif i in rewrite_use:
            source = rewrite_use[i]
            if instr.target != source:
                result.append(Assign(instr.target, Var(source)))
            # target == source: the recomputation is a pure no-op; drop.
        else:
            result.append(instr)
    return result, replaced


def local_cse(cfg: CFG) -> Tuple[CFG, int]:
    """Apply LCSE to every block of a copy of *cfg*.

    Returns the transformed copy and the number of occurrences
    replaced.
    """
    work = cfg.copy()
    total = 0
    temp_start = 0
    for block in work:
        new_instrs, replaced = local_cse_block(
            block.instrs, temp_start=temp_start
        )
        if replaced:
            block.instrs[:] = new_instrs
            total += replaced
        # Advance the counter past any temps the block introduced so
        # names stay unique graph-wide.
        temp_start += sum(
            1 for instr in block.instrs if instr.target.startswith("lcse")
        )
    return work, total
