"""Constant folding and forward constant propagation.

Two cooperating rewrites, iterated to a local fixed point:

* **folding** — an operator expression whose operands are all literal
  constants is evaluated at compile time (with the interpreter's own
  total arithmetic, so runtime and compile time always agree);
* **propagation** — a forward dataflow over the constant lattice
  (⊥ unseen / known value / ⊤ varying) replaces variable operands that
  are provably constant at their use.

Branch conditions are rewritten too, but branches are *not* folded
here — that is :mod:`repro.passes.simplify`'s job, keeping each pass
single-purpose.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional

from repro.dataflow.order import reverse_postorder
from repro.interp.machine import eval_expr
from repro.ir.cfg import CFG
from repro.ir.expr import Atom, BinExpr, Const, Expr, UnaryExpr, Var
from repro.ir.instr import Assign, CondBranch

#: Lattice: absent = bottom (unseen), int = known, TOP = varying.
TOP = object()


def _meet(a, b):
    if a is TOP or b is TOP:
        return TOP
    if a is None:
        return b
    if b is None:
        return a
    return a if a == b else TOP


def _try_fold(expr: Expr) -> Expr:
    """Fold *expr* to a constant if all operands are literals."""
    if isinstance(expr, (BinExpr, UnaryExpr)):
        operands = (
            (expr.operand,)
            if isinstance(expr, UnaryExpr)
            else (expr.left, expr.right)
        )
        if all(isinstance(op, Const) for op in operands):
            return Const(eval_expr(expr, {}))
    return expr


def _substitute_consts(expr: Expr, env: Dict[str, object]) -> Expr:
    def sub(atom: Atom) -> Atom:
        if isinstance(atom, Var):
            value = env.get(atom.name)
            if isinstance(value, int):
                return Const(value)
        return atom

    if isinstance(expr, Var):
        return sub(expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, UnaryExpr):
        return UnaryExpr(expr.op, sub(expr.operand))
    if isinstance(expr, BinExpr):
        return BinExpr(expr.op, sub(expr.left), sub(expr.right))
    return expr


def _block_out(env: Dict[str, object], block) -> Dict[str, object]:
    """Abstractly execute *block* from the entry environment *env*."""
    out = dict(env)
    for instr in block.instrs:
        expr = _try_fold(_substitute_consts(instr.expr, out))
        if isinstance(expr, Const):
            out[instr.target] = expr.value
        else:
            out[instr.target] = TOP
    return out


def _solve_entry_envs(cfg: CFG) -> Dict[str, Dict[str, object]]:
    """The block-entry constant environments, by worklist iteration.

    Chaotic iteration of a monotone system from a fixed start converges
    to the unique least fixpoint regardless of visit order, so this
    priority-worklist solver (reverse postorder, with per-block output
    environments cached and recomputed only when the entry environment
    changes) computes exactly the environments the naive
    sweep-until-stable loop did — without re-executing every block's
    transfer function on every sweep.
    """
    order = reverse_postorder(cfg)
    position = {label: i for i, label in enumerate(order)}
    entry_env: Dict[str, Dict[str, object]] = {
        label: {} for label in cfg.labels
    }
    entry_env[cfg.entry] = {name: TOP for name in cfg.variables()}
    out_env: Dict[str, Dict[str, object]] = {}

    pending = [(position[label], label) for label in order]
    heapq.heapify(pending)
    queued = set(order)
    while pending:
        _, label = heapq.heappop(pending)
        queued.discard(label)
        out = _block_out(entry_env[label], cfg.block(label))
        if out == out_env.get(label):
            continue
        out_env[label] = out
        for succ in cfg.succs(label):
            if succ == cfg.entry:
                continue  # the entry environment is fixed (all ⊤)
            merged: Optional[Dict[str, object]] = None
            for pred in cfg.preds(succ):
                pout = out_env.get(pred)
                if pout is None:
                    pout = _block_out(entry_env[pred], cfg.block(pred))
                    out_env[pred] = pout
                if merged is None:
                    merged = dict(pout)
                else:
                    keys = set(merged) | set(pout)
                    merged = {
                        k: _meet(merged.get(k), pout.get(k)) for k in keys
                    }
            env = merged or {}
            if env != entry_env[succ]:
                entry_env[succ] = env
                if succ not in queued and succ in position:
                    heapq.heappush(pending, (position[succ], succ))
                    queued.add(succ)
    return entry_env


def fold_constants(cfg: CFG) -> int:
    """Fold/propagate constants through *cfg* in place; returns rewrites.

    Every variable may carry an arbitrary *input* value when the
    program starts (this library's execution model), so the entry
    environment maps all variables to ⊤; a variable is only treated as
    constant at a point when every path to that point assigns it that
    constant.
    """
    entry_env = _solve_entry_envs(cfg)

    # Rewrite with the solved environments.
    rewrites = 0
    for block in cfg:
        env = dict(entry_env[block.label])
        block_rewrites = 0
        new_instrs = []
        for instr in block.instrs:
            expr = _try_fold(_substitute_consts(instr.expr, env))
            if expr != instr.expr:
                block_rewrites += 1
                new_instrs.append(Assign(instr.target, expr))
            else:
                new_instrs.append(instr)
            env[instr.target] = expr.value if isinstance(expr, Const) else TOP
        if block_rewrites:
            block.instrs[:] = new_instrs
        term = block.terminator
        if isinstance(term, CondBranch) and isinstance(term.cond, Var):
            value = env.get(term.cond.name)
            if isinstance(value, int):
                block.terminator = CondBranch(
                    Const(value), term.then_target, term.else_target
                )
                block_rewrites += 1
                cfg.notify_terminator_changed()
        rewrites += block_rewrites
    return rewrites
