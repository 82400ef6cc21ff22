"""The paper's contribution: Busy and Lazy Code Motion.

Two independent implementations are provided and cross-checked:

* :mod:`repro.core.lcm` — the practical *edge-based* basic-block
  formulation (anticipability, availability, earliestness on edges, the
  LATER postponement system, INSERT/DELETE), the shape used by GCC's
  ``lcm.c``;
* :mod:`repro.core.krs` — the original *node-level* formulation of the
  paper (down-safety, up-safety, earliestness, delayability, latestness,
  isolation) on a statement-granular graph built by
  :mod:`repro.core.nodegraph`.

Both produce :class:`repro.core.placement.Placement` objects, which
:mod:`repro.core.transform` applies to a CFG.  :mod:`repro.core.pipeline`
wires everything into the one-call public API;
:mod:`repro.core.lifetime` and :mod:`repro.core.optimality` provide the
machinery that checks the paper's optimality theorems.
"""

from repro.core.placement import Placement, PlacementError
from repro.core.lcm import LCMAnalysis, analyze_lcm, lcm_placements, bcm_placements
from repro.core.krs import KRSAnalysis, analyze_krs, krs_placements
from repro.core.nodegraph import NodeGraph, expand_to_nodes
from repro.core.transform import TransformResult, apply_placements
from repro.core.pipeline import (
    OptimizeConfig,
    OptimizeContext,
    PREStrategy,
    available_strategies,
    get_pass,
    optimize,
    register_pass,
)
from repro.core.lifetime import LifetimeReport, measure_lifetimes
from repro.core.optimality import (
    PathReport,
    check_safety_and_optimality,
    enumerate_traces,
)

__all__ = [
    "KRSAnalysis",
    "LCMAnalysis",
    "LifetimeReport",
    "NodeGraph",
    "OptimizeConfig",
    "OptimizeContext",
    "PREStrategy",
    "PathReport",
    "Placement",
    "PlacementError",
    "TransformResult",
    "analyze_krs",
    "analyze_lcm",
    "apply_placements",
    "available_strategies",
    "bcm_placements",
    "check_safety_and_optimality",
    "enumerate_traces",
    "expand_to_nodes",
    "get_pass",
    "krs_placements",
    "lcm_placements",
    "measure_lifetimes",
    "optimize",
    "register_pass",
]
