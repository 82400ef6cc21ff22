"""Variable liveness: backward, some-path, over a variable universe.

Used by the lifetime-optimality experiments: after a code motion
transformation, the live range of each introduced temporary is measured
with this analysis, and the paper's theorem (LCM's temporaries are live
on a subset of the points where any other computationally optimal
placement's are) is checked on the results.

Equations::

    LIVEOUT(n) = ∪_{s ∈ succ(n)} LIVEIN(s)        (∅ at exit)
    LIVEIN(n)  = USE(n) ∪ (LIVEOUT(n) − DEF(n))

where ``USE(n)`` are the variables read in ``n`` before any definition
(branch conditions read at the end of the block) and ``DEF(n)`` the
variables assigned in ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.dataflow.bitvec import BitVector
from repro.dataflow.problem import DataflowProblem, GenKillTransfer
from repro.dataflow.solver import solve
from repro.dataflow.stats import SolverStats
from repro.ir.cfg import CFG


@dataclass
class LivenessResult:
    """LIVEIN/LIVEOUT per block plus the variable index space."""

    variables: List[str]
    index: Dict[str, int]
    livein: Dict[str, BitVector]
    liveout: Dict[str, BitVector]
    stats: SolverStats

    def live_in(self, label: str) -> Set[str]:
        """The names live on entry to *label*."""
        return {self.variables[i] for i in self.livein[label]}

    def live_out(self, label: str) -> Set[str]:
        """The names live on exit from *label*."""
        return {self.variables[i] for i in self.liveout[label]}

    def is_live_out(self, label: str, var: str) -> bool:
        idx = self.index.get(var)
        return idx is not None and idx in self.liveout[label]

    def is_live_in(self, label: str, var: str) -> bool:
        idx = self.index.get(var)
        return idx is not None and idx in self.livein[label]


def compute_liveness(cfg: CFG, live_at_exit=(), plan=None) -> LivenessResult:
    """Solve liveness for every variable of *cfg*.

    *live_at_exit* names variables considered observable after the
    program ends (live at the exit block).  The default — nothing live
    at exit — is the classic compiler-internal view; passes that must
    preserve the final environment (e.g. assignment sinking under this
    library's observable-state semantics) pass the observable set
    instead.

    The transfer is the standard gen/kill shape (``USE`` generates,
    ``DEF`` kills), so the solve lowers to the dense backend; pass a
    precompiled dense *plan* for *cfg* to share it across analyses.

    Names in *live_at_exit* that the program never mentions are kept in
    the universe (live on every path from their first absence of a
    definition — i.e. everywhere, since nothing assigns them), not
    silently dropped: a caller declaring a variable observable deserves
    a truthful answer to ``is_live_out(label, name)`` even when the
    program text never touches the name.
    """
    variables = sorted(set(cfg.variables()) | set(live_at_exit))
    index = {name: i for i, name in enumerate(variables)}
    width = len(variables)

    use: Dict[str, BitVector] = {}
    notdef: Dict[str, BitVector] = {}
    for block in cfg:
        upward: Set[str] = set()
        defined: Set[str] = set()
        for instr in block.instrs:
            upward.update(v for v in instr.uses() if v not in defined)
            defined.add(instr.target)
        if block.terminator is not None:
            upward.update(
                v for v in block.terminator.uses() if v not in defined
            )
        use[block.label] = BitVector.of(width, (index[v] for v in upward))
        notdef[block.label] = ~BitVector.of(width, (index[v] for v in defined))

    problem = DataflowProblem.backward_union(
        "liveness", width, GenKillTransfer(gen=use, keep=notdef)
    )
    boundary = BitVector.of(width, (index[v] for v in live_at_exit))
    if boundary:
        from dataclasses import replace

        problem = replace(problem, boundary=boundary)
    solution = solve(cfg, problem, plan=plan)
    return LivenessResult(
        variables, index, solution.inof, solution.outof, solution.stats
    )


def liveness_key(live_at_exit=()) -> str:
    """The :class:`~repro.obs.manager.AnalysisManager` computation key.

    ``"liveness"`` for the default (empty) exit set — compatible with
    store entries written by earlier versions — and a digest-tagged
    variant otherwise, so results for different observable sets never
    collide under one fingerprint.
    """
    names = tuple(sorted(set(live_at_exit)))
    if not names:
        return "liveness"
    import hashlib

    tag = hashlib.sha1("\x00".join(names).encode("utf-8")).hexdigest()[:12]
    return f"liveness:x{tag}"


def liveness_of(cfg: CFG, live_at_exit=(), manager=None) -> LivenessResult:
    """Liveness for *cfg*, memoized through *manager* when one is given.

    The shared front door for every full-fixpoint liveness lookup in
    the library: with a manager, the solve is keyed by content
    fingerprint + :func:`liveness_key` (memory → disk → solve) and
    shares the manager's dense plan with every other analysis of the
    same graph; without one, it is a plain :func:`compute_liveness`.
    """
    exit_names = tuple(sorted(set(live_at_exit)))
    if manager is None:
        return compute_liveness(cfg, live_at_exit=exit_names)
    return manager.cached(
        cfg,
        liveness_key(exit_names),
        lambda: compute_liveness(
            cfg, live_at_exit=exit_names, plan=manager.dense_plan(cfg)
        ),
    )
