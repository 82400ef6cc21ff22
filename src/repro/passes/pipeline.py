"""Pass pipeline: compose cleanup passes and PRE into one optimiser.

``standard_pipeline`` is the order a real compiler would use around a
PRE pass: normalise first (constant folding exposes equal expressions,
LCSE canonicalises blocks), run Lazy Code Motion, then clean up the
copies and structure it leaves behind — iterating the cleanup trio to a
fixed point because each enables the others (copy propagation exposes
dead stores, DCE exposes pass-through blocks, ...).

Every pass runs under a :func:`repro.obs.trace.span` (``pipeline.run``
with one ``pass.<name>`` child per rewrite pass and one
``pipeline.round`` span per cleanup iteration).  Every rewrite pass has
the same shape, ``fn(cfg) -> rewrite count``, and a pass that rewrote
anything is announced through the one mutation hook,
:func:`repro.obs.manager.notify_cfg_mutated`, which drops the
managers' memoized fingerprint of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.localcse import local_cse
from repro.core.pipeline import OptimizeConfig, optimize
from repro.ir.cfg import CFG
from repro.ir.validate import validate_cfg
from repro.obs.manager import AnalysisManager, notify_cfg_mutated
from repro.obs.trace import span
from repro.passes.canonical import canonicalize
from repro.passes.constfold import fold_constants
from repro.passes.copyprop import copy_propagate
from repro.passes.dce import dead_code_elimination
from repro.passes.simplify import simplify_cfg


@dataclass
class PassResult:
    """Outcome of a pipeline run."""

    cfg: CFG
    rewrites: Dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, count: int) -> None:
        if count:
            self.rewrites[name] = self.rewrites.get(name, 0) + count

    @property
    def total_rewrites(self) -> int:
        return sum(self.rewrites.values())

    def describe(self) -> str:
        if not self.rewrites:
            return "pipeline: no rewrites"
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.rewrites.items()))
        return f"pipeline: {parts}"


def _run_pass(result: PassResult, name: str, fn, cfg: CFG) -> int:
    """Run one in-place rewrite pass under a span and tally it.

    ``fn(cfg)`` returns its rewrite count; a non-zero count is announced
    through :func:`~repro.obs.manager.notify_cfg_mutated`.
    """
    with span(f"pass.{name}") as sp:
        count = fn(cfg)
        sp.set(rewrites=count)
    if count:
        notify_cfg_mutated(cfg)
    result.bump(name, count)
    return count


def _cleanup_to_fixpoint(
    cfg: CFG,
    result: PassResult,
    manager: Optional[AnalysisManager],
    max_rounds: int = 20,
) -> None:
    """Run the cleanup passes over the whole CFG until a round rewrites
    nothing."""
    for round_no in range(max_rounds):
        with span("pipeline.round", round=round_no) as round_sp:
            total = _run_pass(
                result,
                "copyprop",
                lambda c: copy_propagate(c, manager=manager),
                cfg,
            )
            total += _run_pass(result, "constfold", fold_constants, cfg)
            total += _run_pass(result, "dce", dead_code_elimination, cfg)
            total += _run_pass(
                result, "simplify", lambda c: simplify_cfg(c).total, cfg
            )
            round_sp.set(rewrites=total)
        if total == 0:
            return


def run_pipeline(
    cfg: CFG,
    pre_strategy: Optional[str] = "lcm",
    validate: bool = True,
    manager: Optional[AnalysisManager] = None,
) -> PassResult:
    """Run the standard pipeline on a copy of *cfg*.

    Args:
        cfg: input program (never mutated).
        pre_strategy: which PRE pass to run in the middle, or None to
            run the cleanup passes only.
        validate: validate the input and the final result.
        manager: optional :class:`repro.obs.manager.AnalysisManager`
            memoizing dataflow solutions across the PRE pass (and
            across repeated pipeline runs on identical programs).
    """
    if validate:
        with span("pass.validate", stage="input"):
            validate_cfg(cfg)
    with span("pipeline.run", pre=pre_strategy or "none") as sp:
        work = cfg.copy()
        result = PassResult(cfg=work)
        _run_pass(result, "canonicalize", canonicalize, work)
        _run_pass(result, "constfold", fold_constants, work)
        with span("pass.lcse") as lcse_sp:
            work, lcse_replaced = local_cse(work)
            lcse_sp.set(rewrites=lcse_replaced)
        result.cfg = work
        result.bump("lcse", lcse_replaced)

        if pre_strategy is not None:
            pre = optimize(
                work,
                pre_strategy,
                config=OptimizeConfig(run_local_cse=False, validate=False),
                manager=manager,
            )
            work = pre.cfg
            result.cfg = work
            result.bump(
                f"pre({pre_strategy})",
                sum(
                    p.insertion_count + len(p.delete_blocks)
                    for p in pre.placements
                ),
            )

        _cleanup_to_fixpoint(work, result, manager)
        sp.set(total_rewrites=result.total_rewrites)
    if validate:
        with span("pass.validate", stage="output"):
            validate_cfg(work)
    return result


def standard_pipeline(
    cfg: CFG, manager: Optional[AnalysisManager] = None
) -> PassResult:
    """The default full pipeline: normalise, LCM, clean up."""
    return run_pipeline(cfg, "lcm", manager=manager)
