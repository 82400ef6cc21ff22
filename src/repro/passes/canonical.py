"""Expression canonicalisation: make equal values syntactically equal.

PRE reasons about *syntactic* expression identity, so ``a + b`` and
``b + a`` are different candidates even though they always compute the
same value.  Canonicalisation widens PRE's reach by rewriting every
expression into a normal form:

* operands of commutative operators (``+ * & | ^ == != min max``) are
  sorted (constants first, then variables by name);
* ``>`` and ``>=`` comparisons are flipped into ``<`` / ``<=`` with
  swapped operands, merging the two spellings of the same test.

The rewrite never changes values (the interpreter's semantics for the
affected operators are symmetric under the transformation), so it can
run before any analysis; the ablation benchmark measures how many
additional redundancies it exposes.
"""

from __future__ import annotations

from typing import Tuple

from repro.ir.cfg import CFG
from repro.ir.expr import Atom, BinExpr, Const, Expr
from repro.ir.instr import Assign

#: Operators where operand order does not affect the value.
COMMUTATIVE = frozenset({"+", "*", "&", "|", "^", "==", "!=", "min", "max"})

#: Comparisons rewritten into their mirrored form.
MIRROR = {">": "<", ">=": "<="}


def _atom_key(atom: Atom) -> Tuple[int, object]:
    if isinstance(atom, Const):
        return (0, atom.value)
    return (1, atom.name)


def canonicalize_expr(expr: Expr) -> Expr:
    """The canonical form of one expression."""
    if not isinstance(expr, BinExpr):
        return expr
    op, left, right = expr.op, expr.left, expr.right
    if op in MIRROR:
        op, left, right = MIRROR[op], right, left
    if op in COMMUTATIVE and _atom_key(right) < _atom_key(left):
        left, right = right, left
    if (op, left, right) == (expr.op, expr.left, expr.right):
        return expr
    return BinExpr(op, left, right)


def canonicalize(cfg: CFG) -> int:
    """Canonicalise every expression of *cfg* in place; returns rewrites."""
    rewrites = 0
    for block in cfg:
        new_instrs = []
        for instr in block.instrs:
            expr = canonicalize_expr(instr.expr)
            if expr is not instr.expr:
                rewrites += 1
                new_instrs.append(Assign(instr.target, expr))
            else:
                new_instrs.append(instr)
        block.instrs[:] = new_instrs
    return rewrites
