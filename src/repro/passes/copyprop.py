"""Global copy propagation via a "reaching copies" analysis.

After code motion every replaced occurrence reads its value through a
copy (``x = t``); downstream uses of ``x`` can often read ``t``
directly, shortening ``x``'s live range and exposing dead assignments.
This pass computes, as a forward all-paths bit-vector problem over the
universe of copy instructions, which copies ``x = y`` are *valid* (both
``x`` and ``y`` unassigned since the copy executed) at each block
entry, then rewrites uses accordingly — including branch conditions.

A single application performs one propagation step along each chain
(``a = b; c = a`` becomes ``c = b`` only after the pass sees ``a = b``
reach the use); the pass pipeline iterates passes to a fixed point, so
chains collapse fully in practice.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dataflow.bitvec import BitVector
from repro.dataflow.problem import DataflowProblem
from repro.dataflow.solver import solve
from repro.ir.cfg import CFG
from repro.ir.expr import Atom, BinExpr, Const, Expr, UnaryExpr, Var
from repro.ir.instr import Assign, CondBranch

#: A copy fact: (destination, source) for "dest = source".
CopyPair = Tuple[str, str]


def _collect_pairs(cfg: CFG) -> List[CopyPair]:
    pairs: List[CopyPair] = []
    seen = set()
    for _, _, instr in cfg.instructions():
        if isinstance(instr.expr, Var) and instr.expr.name != instr.target:
            pair = (instr.target, instr.expr.name)
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    return pairs


def _substitute(expr: Expr, mapping: Dict[str, str]) -> Expr:
    def sub_atom(atom: Atom) -> Atom:
        if isinstance(atom, Var) and atom.name in mapping:
            return Var(mapping[atom.name])
        return atom

    if isinstance(expr, Var):
        return sub_atom(expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, UnaryExpr):
        return UnaryExpr(expr.op, sub_atom(expr.operand))
    if isinstance(expr, BinExpr):
        return BinExpr(expr.op, sub_atom(expr.left), sub_atom(expr.right))
    return expr


def copy_propagate(cfg: CFG, manager=None) -> int:
    """Propagate copies through *cfg* in place; returns rewrites made.

    Args:
        cfg: the program (mutated).
        manager: optional :class:`~repro.obs.manager.AnalysisManager`;
            the solve routes through its memo tiers and dense plan.
    """
    pairs = _collect_pairs(cfg)
    if not pairs:
        return 0
    width = len(pairs)
    index = {pair: i for i, pair in enumerate(pairs)}

    # Per block: gen (copies downward exposed) and keep (survivors).
    gen: Dict[str, BitVector] = {}
    keep: Dict[str, BitVector] = {}
    for block in cfg:
        g = BitVector.empty(width)
        k = BitVector.full(width)
        for instr in block.instrs:
            target = instr.target
            killed = BitVector.of(
                width,
                (
                    i
                    for i, (dst, src) in enumerate(pairs)
                    if dst == target or src == target
                ),
            )
            g = g - killed
            k = k - killed
            if (
                isinstance(instr.expr, Var)
                and instr.expr.name != target
            ):
                g = g.with_bit(index[(target, instr.expr.name)])
        gen[block.label] = g
        keep[block.label] = k

    def transfer(label: str, fact: BitVector) -> BitVector:
        return gen[label] | (fact & keep[label])

    problem = DataflowProblem.forward_intersect("reaching-copies", width, transfer)
    if manager is not None:
        solution = manager.solve(cfg, problem)
    else:
        solution = solve(cfg, problem)

    rewrites = 0
    for block in cfg:
        active: Dict[str, str] = {
            dst: src
            for dst, src in (pairs[i] for i in solution.inof[block.label])
        }
        block_rewrites = 0
        new_instrs: List[Assign] = []
        for instr in block.instrs:
            new_expr = _substitute(instr.expr, active)
            if new_expr != instr.expr:
                block_rewrites += 1
                new_instrs.append(Assign(instr.target, new_expr))
            else:
                new_instrs.append(instr)
            target = instr.target
            active = {
                d: s for d, s in active.items() if d != target and s != target
            }
            if isinstance(new_expr, Var) and new_expr.name != target:
                active[target] = new_expr.name
        if block_rewrites:
            block.instrs[:] = new_instrs
        term = block.terminator
        if isinstance(term, CondBranch) and isinstance(term.cond, Var):
            if term.cond.name in active:
                block.terminator = CondBranch(
                    Var(active[term.cond.name]),
                    term.then_target,
                    term.else_target,
                )
                block_rewrites += 1
                cfg.notify_terminator_changed()
        rewrites += block_rewrites
    return rewrites
