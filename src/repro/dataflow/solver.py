"""Iterative solver for unidirectional bit-vector dataflow problems.

One entry point, :func:`solve`, with interchangeable strategies
producing identical fixpoints:

* ``"auto"`` (the default) — the dense int-array backend
  (:mod:`repro.dataflow.dense`) whenever no operation counter is
  installed, the counted reference round-robin loop otherwise;
* ``"dense"`` — the dense backend explicitly (it still steps aside for
  an active :func:`~repro.dataflow.bitvec.counting` context, so
  benchmark C1's operation tallies are never distorted);
* ``"round-robin"`` — full sweeps in reverse postorder (forward) or
  reverse postorder of the reversed graph (backward), the textbook
  algorithm whose sweep count the paper's complexity remarks refer to;
* ``"worklist"`` — a priority worklist keyed by traversal-order
  position, revisiting only blocks whose inputs changed.

All return a :class:`Solution` mapping every block to the fact holding
at its entry (``inof``) and exit (``outof``), plus work statistics.

When tracing is active, every solve emits a ``dataflow.solve`` span on
the installed tracer (see :mod:`repro.obs.trace`) carrying the problem
name, strategy, the ``backend`` that actually ran (``"dense"`` or
``"reference"``), sweep and visit counts and — on the reference
backend — the per-run bit-vector operation tally, which is also stored
in ``Solution.stats.bitvec_ops``.  When tracing is off, :func:`solve`
enters no span context at all, so the dense inner loop is not wrapped
in dead tracing machinery.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.dataflow.bitvec import BitVector, counting, counting_active
from repro.dataflow.dense import DenseGraph, solve_dense
from repro.dataflow.order import backward_order, reverse_postorder
from repro.dataflow.problem import Confluence, DataflowProblem, Direction
from repro.dataflow.stats import SolverStats
from repro.ir.cfg import CFG
from repro.obs.trace import is_active, span

#: The solver strategies accepted by :func:`solve`.
STRATEGIES = ("auto", "dense", "round-robin", "worklist")

#: The strategies served by the dense backend (absent an op counter).
_DENSE_STRATEGIES = ("auto", "dense")


@dataclass
class Solution:
    """A dataflow fixpoint: facts at every block boundary, plus stats."""

    problem: str
    inof: Dict[str, BitVector]
    outof: Dict[str, BitVector]
    stats: SolverStats = field(default_factory=SolverStats)


def _meet(problem: DataflowProblem, facts: Iterable[BitVector]) -> BitVector:
    """Fold the confluence operator over *facts* without materializing them."""
    intersect = problem.confluence is Confluence.INTERSECT
    result: Optional[BitVector] = None
    for fact in facts:
        if result is None:
            result = fact
        elif intersect:
            result = result & fact
        else:
            result = result | fact
    if result is None:
        # Joins with no incoming facts only occur at the graph boundary,
        # which the solvers special-case; return the neutral element.
        if intersect:
            return BitVector.full(problem.width)
        return BitVector.empty(problem.width)
    return result


def solve(
    cfg: CFG,
    problem: DataflowProblem,
    strategy: str = "auto",
    max_sweeps: int = 10_000,
    plan: Optional[DenseGraph] = None,
) -> Solution:
    """Solve *problem* on *cfg* to its fixpoint with the named *strategy*.

    Args:
        cfg: the graph to analyse.
        strategy: one of :data:`STRATEGIES`; all reach the same
            fixpoint (a property test pins this).  ``"auto"`` and
            ``"dense"`` run the int-array backend unless an operation
            counter is installed, in which case the counted reference
            path runs instead (so measured op tallies never change).
        max_sweeps: divergence guard for the sweeping strategies
            (a non-monotone transfer function raises RuntimeError).
        plan: a precompiled :class:`~repro.dataflow.dense.DenseGraph`
            for *cfg*, letting consecutive solves share one id mapping
            (the analysis manager caches these by content fingerprint);
            only consulted by the dense backend.
    """
    if strategy not in STRATEGIES:
        names = ", ".join(STRATEGIES)
        raise ValueError(f"unknown solver strategy {strategy!r}; choose one of: {names}")
    dense = strategy in _DENSE_STRATEGIES and not counting_active()
    if not is_active():
        # Tracing off: skip the span machinery entirely.
        if dense:
            return solve_dense(cfg, problem, plan=plan, max_sweeps=max_sweeps)
        return _run(cfg, problem, strategy, max_sweeps)
    with span(
        "dataflow.solve", problem=problem.name, strategy=strategy
    ) as solve_span:
        if dense:
            solution = solve_dense(cfg, problem, plan=plan, max_sweeps=max_sweeps)
        else:
            # Attach a per-run counter so the span and the solution both
            # carry the bit-vector op tally; non-exclusive, so outer
            # counting() contexts (benchmark totals) still see every op.
            with counting(exclusive=False) as ops:
                solution = _run(cfg, problem, strategy, max_sweeps)
            solution.stats.bitvec_ops = dict(ops.counts)
        solve_span.set(
            sweeps=solution.stats.sweeps,
            node_visits=solution.stats.node_visits,
            bitvec_ops=solution.stats.total_bitvec_ops,
            blocks=len(cfg),
            width=problem.width,
            backend=solution.stats.backend,
        )
    return solution


def _run(
    cfg: CFG, problem: DataflowProblem, strategy: str, max_sweeps: int
) -> Solution:
    if strategy == "worklist":
        solution = _solve_worklist(cfg, problem)
    else:
        solution = _solve_round_robin(cfg, problem, max_sweeps)
    solution.stats.backend = "reference"
    return solution


def _solve_round_robin(
    cfg: CFG, problem: DataflowProblem, max_sweeps: int
) -> Solution:
    """Round-robin iteration to the maximum (resp. minimum) fixpoint."""
    forward = problem.direction is Direction.FORWARD
    order = reverse_postorder(cfg) if forward else backward_order(cfg)
    boundary_label = cfg.entry if forward else cfg.exit

    inof: Dict[str, BitVector] = {}
    outof: Dict[str, BitVector] = {}
    for label in cfg.labels:
        inof[label] = problem.init
        outof[label] = problem.init

    stats = SolverStats()
    changed = True
    while changed:
        if stats.sweeps >= max_sweeps:
            raise RuntimeError(
                f"dataflow problem {problem.name!r} did not converge in "
                f"{max_sweeps} sweeps"
            )
        changed = False
        stats.sweeps += 1
        for label in order:
            stats.node_visits += 1
            if forward:
                if label == boundary_label:
                    new_in = problem.boundary
                else:
                    new_in = _meet(problem, map(outof.__getitem__, cfg.preds(label)))
                new_out = problem.transfer(label, new_in)
                if new_in != inof[label] or new_out != outof[label]:
                    inof[label], outof[label] = new_in, new_out
                    changed = True
            else:
                if label == boundary_label:
                    new_out = problem.boundary
                else:
                    new_out = _meet(problem, map(inof.__getitem__, cfg.succs(label)))
                new_in = problem.transfer(label, new_out)
                if new_in != inof[label] or new_out != outof[label]:
                    inof[label], outof[label] = new_in, new_out
                    changed = True
    return Solution(problem.name, inof, outof, stats)


def _solve_worklist(cfg: CFG, problem: DataflowProblem) -> Solution:
    """Priority-worklist iteration; same fixpoint as round-robin."""
    forward = problem.direction is Direction.FORWARD
    order = reverse_postorder(cfg) if forward else backward_order(cfg)
    priority = {label: i for i, label in enumerate(order)}
    boundary_label = cfg.entry if forward else cfg.exit

    inof: Dict[str, BitVector] = {label: problem.init for label in cfg.labels}
    outof: Dict[str, BitVector] = {label: problem.init for label in cfg.labels}

    stats = SolverStats()
    heap: List[tuple] = []
    queued = set()

    def push(label: str) -> None:
        if label not in queued and label in priority:
            queued.add(label)
            heapq.heappush(heap, (priority[label], label))

    for label in order:
        push(label)

    while heap:
        _, label = heapq.heappop(heap)
        queued.discard(label)
        stats.node_visits += 1
        if forward:
            if label == boundary_label:
                new_in = problem.boundary
            else:
                new_in = _meet(problem, map(outof.__getitem__, cfg.preds(label)))
            new_out = problem.transfer(label, new_in)
            if new_in != inof[label] or new_out != outof[label]:
                inof[label], outof[label] = new_in, new_out
                for succ in cfg.succs(label):
                    push(succ)
        else:
            if label == boundary_label:
                new_out = problem.boundary
            else:
                new_out = _meet(problem, map(inof.__getitem__, cfg.succs(label)))
            new_in = problem.transfer(label, new_out)
            if new_in != inof[label] or new_out != outof[label]:
                inof[label], outof[label] = new_in, new_out
                for pred in cfg.preds(label):
                    push(pred)
    return Solution(problem.name, inof, outof, stats)
