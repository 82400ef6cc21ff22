"""Whole-program dead code elimination by strong liveness.

Removes assignments whose value can never reach an observable result.
Under this library's execution model the final environment is
observable, so — unlike classic compiler DCE — variables are considered
live at the program exit by default; an assignment is dead only when
its target is overwritten before any *live* use.  Passes that know
better (e.g. the PRE engine cleaning up its own temporaries, which are
never observable) can narrow the observable set.

Right-hand sides in this IR are pure, so removal is always sound for a
dead target.

The analysis is strong (faint-variable) liveness: an assignment's
operands become live only if its target is live, so a read inside a
dead assignment keeps nothing alive.  Classic liveness counts that
read, which is why DCE built on it must repeat rounds (removing one
dead store can make another dead) and still keeps *faint* cycles such
as ``t = u; u = t`` in a loop, which no number of rounds removes.
Strong liveness is a monotone backward some-path problem, so one
:func:`repro.dataflow.solver.solve` reaches its fixpoint and one
bottom-up sweep per block removes everything it proves dead.  The
transfer is not gen/kill: the dense backend runs it through its
per-block closure fallback, a :func:`~repro.dataflow.bitvec.counting`
context gets the counted reference path, and traces show the solve as
a ``dataflow.solve`` span with problem ``strong-liveness``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.dataflow.bitvec import BitVector
from repro.dataflow.problem import Confluence, DataflowProblem, Direction
from repro.dataflow.solver import solve
from repro.ir.cfg import CFG
from repro.obs.manager import notify_cfg_mutated

#: One assignment as ``(target bit, operand bits)``.
Step = Tuple[int, int]


def _live_before(steps: List[Step], live: int) -> int:
    """Walk a block's *steps* (bottom-up) backwards from *live*.

    A live target's assignment kills the target and makes its operands
    live; a dead (faint) one is skipped.
    """
    for target, operands in steps:
        if live & target:
            live = (live & ~target) | operands
    return live


def dead_code_elimination(
    cfg: CFG, observable: Optional[Iterable[str]] = None
) -> int:
    """Remove dead assignments from *cfg* in place; returns the count.

    Args:
        cfg: the program (mutated).
        observable: variables whose final value matters (live at exit).
            Defaults to every variable of the program — the
            conservative choice matching the interpreter's semantics.
            Names the program never mentions are honoured, not dropped:
            an assignment to an observable-but-otherwise-unused name is
            kept.

    Edits are announced through
    :func:`repro.obs.manager.notify_cfg_mutated`, so callers need not
    announce them again.
    """
    names = cfg.variables()
    exit_names = names if observable is None else set(observable)
    variables = sorted(names | exit_names)
    bit = {name: 1 << i for i, name in enumerate(variables)}
    width = len(variables)

    def mask(used: Iterable[str]) -> int:
        bits = 0
        for name in used:
            bits |= bit[name]
        return bits

    term: Dict[str, int] = {}
    steps: Dict[str, List[Step]] = {}
    for block in cfg:
        uses = () if block.terminator is None else block.terminator.uses()
        term[block.label] = mask(uses)
        steps[block.label] = [
            (bit[instr.target], mask(instr.uses()))
            for instr in reversed(block.instrs)
        ]

    def transfer(label: str, fact: BitVector) -> BitVector:
        live = _live_before(steps[label], fact.bits | term[label])
        return BitVector(width, live)

    problem = DataflowProblem(
        "strong-liveness",
        Direction.BACKWARD,
        Confluence.UNION,
        width,
        transfer,
        boundary=BitVector(width, mask(exit_names)),
        init=BitVector.empty(width),
    )
    solution = solve(cfg, problem)

    removed = 0
    for block in cfg:
        live = solution.outof[block.label].bits | term[block.label]
        keep = []
        for instr, (target, operands) in zip(
            reversed(block.instrs), steps[block.label]
        ):
            if live & target:
                live = (live & ~target) | operands
                keep.append(instr)
        if len(keep) != len(block.instrs):
            removed += len(block.instrs) - len(keep)
            keep.reverse()
            block.instrs[:] = keep
    if removed:
        notify_cfg_mutated(cfg)
    return removed
