"""The transform cleanup's temp-scoped liveness equals a full re-solve.

Step 4 of :func:`~repro.core.transform.apply_placements` (collapsing
isolated copies, dropping dead insertions) asks liveness questions only
about the placement temps, and answers them with
:class:`~repro.core.transform.TempLiveness`, which solves one temp at a
time on demand.  The pins here:

* per-temp live-out sets match
  :func:`~repro.analysis.liveness.compute_liveness` bit for bit, on
  random reducible and irreducible graphs, after random edit scripts,
  and on graphs with unreachable code;
* a hypothesis differential runs both sweeps against a test-local
  reference that re-solves ``compute_liveness`` at every update point,
  and requires identical ``copies_collapsed``, ``insertions_dropped``
  and serialised output;
* an LCM optimize through a manager runs no whole-program liveness
  solve and compiles one dense plan.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import do_while_invariant
from tests.test_dataflow_incremental import SHAPES, SMALL, _random_edit

from repro.analysis.liveness import compute_liveness
from repro.bench.generators import random_cfg
from repro.bench.shapegen import random_shape_cfg
from repro.core.lcm import analyze_lcm, bcm_placements, lcm_placements
from repro.core.pipeline import OptimizeConfig, optimize
from repro.core.placement import Placement
from repro.core.transform import TempLiveness, _is_live_after, apply_placements
from repro.ir.builder import CFGBuilder
from repro.ir.expr import Var
from repro.ir.instr import Assign
from repro.ir.serialize import cfg_to_json
from repro.obs.manager import AnalysisManager
from repro.obs.trace import tracing

quick = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)
shapes = st.sampled_from(["structured", "unstructured"])


def _graph(shape, seed):
    if shape == "structured":
        return random_cfg(seed, SMALL)
    return random_shape_cfg(seed, SHAPES)


def _assert_temp_facts(liveness, cfg, context=""):
    reference = compute_liveness(cfg)
    for temp in sorted(liveness.temps):
        expected = {
            label for label in cfg.labels if reference.is_live_out(label, temp)
        }
        assert liveness.live_out_blocks(temp) == expected, (context, temp)


def _with_unreachable_code():
    """A graph with a dead region and a block that never reaches the exit."""
    b = CFGBuilder()
    b.block("top", "x = a + b", "p = a < x").branch("p", "loop", "tail")
    b.block("loop", "y = x + 1").jump("loop")  # never reaches the exit
    b.block("tail", "z = x + y").to_exit()
    b.block("dead", "x = y + 1", "w = x + z").jump("dead2")  # unreachable
    b.block("dead2", "y = w + x").jump("tail")
    return b.build(validate=False)


class TestTempFacts:
    @quick
    @given(shape=shapes, seed=seeds, edit_seed=seeds)
    def test_live_out_matches_full_solve_under_edits(
        self, shape, seed, edit_seed
    ):
        # Any variable can play a temp: liveness is per variable.
        cfg = _graph(shape, seed)
        rng = random.Random(edit_seed)
        names = set(cfg.variables()) | {f"fresh{step}" for step in range(5)}
        liveness = TempLiveness(cfg, names, cfg.labels)
        _assert_temp_facts(liveness, cfg, "initial")
        for step in range(5):
            label = _random_edit(cfg, rng, step)
            liveness.edited([label])
            _assert_temp_facts(liveness, cfg, f"step {step}")

    def test_unreachable_code_answers_like_a_full_solve(self):
        cfg = _with_unreachable_code()
        liveness = TempLiveness(cfg, set(cfg.variables()), cfg.labels)
        _assert_temp_facts(liveness, cfg)
        assert "dead2" in liveness.live_out_blocks("x")  # live into tail
        assert "loop" in liveness.live_out_blocks("x")  # the loop reads it
        assert "loop" not in liveness.live_out_blocks("y")  # def before use

    def test_solves_only_queried_temps_and_only_once(self):
        cfg = do_while_invariant()
        liveness = TempLiveness(cfg, {"z", "w", "i"}, cfg.labels)
        liveness.live_out_blocks("i")
        liveness.live_out_blocks("i")
        assert liveness.solves == 1
        liveness.edited(["after"])  # mentions w only: i stays solved
        liveness.live_out_blocks("i")
        assert liveness.solves == 1
        liveness.edited(["body"])  # mentions i: re-solved on demand
        liveness.live_out_blocks("i")
        assert liveness.solves == 2


# -- the cleanup differential ------------------------------------------------


def _random_placements(cfg, rng):
    """Arbitrary (not value-correct) plans: insertions that may be dead,
    deletions at upward-exposed occurrences, copies everywhere."""
    analysis = analyze_lcm(cfg)
    universe = analysis.universe
    edges = sorted(cfg.edges())
    labels = list(cfg.labels)
    plans = []
    for idx, expr in universe.enumerate():
        antloc = [l for l in labels if idx in analysis.local.antloc[l]]
        plans.append(
            Placement.make(
                expr,
                universe.temp_name(expr),
                insert_edges=[e for e in edges if rng.random() < 0.15],
                insert_entries=[l for l in labels if rng.random() < 0.1],
                insert_exits=[l for l in labels if rng.random() < 0.1],
                delete_blocks=[l for l in antloc if rng.random() < 0.5],
            )
        )
    return plans


def _placements(cfg, kind, rng):
    if kind == "random":
        return _random_placements(cfg, rng)
    analysis = analyze_lcm(cfg)
    return (lcm_placements if kind == "lcm" else bcm_placements)(analysis)


def _reference_cleanup(cfg, placements):
    """Both step-4 sweeps against ``compute_liveness``, re-solved at each
    update point: after every edited block of the collapse sweep and
    after every round of the drop sweep."""
    result = apply_placements(
        cfg,
        placements,
        collapse_isolated_copies=False,
        drop_dead_insertions=False,
    )
    work, temps = result.cfg, result.temps
    collapsed, dropped = [], []
    live = compute_liveness(work)
    for block in work:
        changed = False
        i = 0
        while i + 1 < len(block.instrs):
            first, second = block.instrs[i], block.instrs[i + 1]
            if (
                first.target in temps
                and second.expr == Var(first.target)
                and second.target != first.target
                and (block.label, first.target) in result.copies_added
                and not _is_live_after(
                    work, live, block.label, i + 1, first.target
                )
            ):
                block.instrs[i : i + 2] = [Assign(second.target, first.expr)]
                collapsed.append((block.label, first.target))
                changed = True
            else:
                i += 1
        if changed:
            live = compute_liveness(work)
    changed = True
    while changed:
        changed = False
        for block in work:
            keep = []
            for i, instr in enumerate(block.instrs):
                if instr.target in temps and not _is_live_after(
                    work, live, block.label, i, instr.target
                ):
                    dropped.append((block.label, instr.target))
                    changed = True
                else:
                    keep.append(instr)
            block.instrs[:] = keep
        if changed:
            live = compute_liveness(work)
    return work, collapsed, dropped


class TestCleanupDifferential:
    @quick
    @given(
        shape=shapes,
        seed=seeds,
        kind=st.sampled_from(["lcm", "bcm", "random"]),
        plan_seed=seeds,
    )
    def test_matches_full_resolve_reference(
        self, shape, seed, kind, plan_seed
    ):
        cfg = _graph(shape, seed)
        placements = _placements(cfg, kind, random.Random(plan_seed))
        work, collapsed, dropped = _reference_cleanup(cfg, placements)
        result = apply_placements(cfg, placements)
        assert result.copies_collapsed == collapsed
        assert result.insertions_dropped == dropped
        assert cfg_to_json(result.cfg) == cfg_to_json(work)

    def test_unreachable_code_cleanup_matches_reference(self):
        cfg = _with_unreachable_code()
        placements = _random_placements(cfg, random.Random(3))
        work, collapsed, dropped = _reference_cleanup(cfg, placements)
        result = apply_placements(cfg, placements)
        assert (result.copies_collapsed, result.insertions_dropped) == (
            collapsed,
            dropped,
        )
        assert cfg_to_json(result.cfg) == cfg_to_json(work)


# -- cost pins ---------------------------------------------------------------


class TestCleanupCost:
    def test_lcm_optimize_runs_no_global_liveness_and_one_plan(
        self, monkeypatch
    ):
        import repro.dataflow.dense as dense

        compiles = []
        original = dense.compile_plan

        def counting_compile(cfg):
            compiles.append(cfg)
            return original(cfg)

        monkeypatch.setattr(dense, "compile_plan", counting_compile)
        manager = AnalysisManager()
        config = OptimizeConfig(run_local_cse=False, validate=False)
        with tracing() as tracer:
            optimize(
                do_while_invariant(), "lcm", config=config, manager=manager
            )
        assert tracer.counters.get("dataflow.incr.fullsolve", 0) == 0
        assert len(compiles) == 1
        (cleanup,) = tracer.spans("transform.cleanup")
        assert cleanup.attrs["temps"] >= 1
        assert cleanup.attrs["temp_solves"] == tracer.counters.get(
            "transform.temp_solve", 0
        )
        assert cleanup.attrs["dropped"] == 0  # LCM never inserts uselessly

    def test_cleanup_span_counts_match_the_result(self):
        cfg = random_cfg(11, SMALL)
        placements = _random_placements(cfg, random.Random(5))
        with tracing() as tracer:
            result = apply_placements(cfg, placements)
        (cleanup,) = tracer.spans("transform.cleanup")
        assert cleanup.attrs["temps"] == len(result.temps)
        assert cleanup.attrs["collapsed"] == len(result.copies_collapsed)
        assert cleanup.attrs["dropped"] == len(result.insertions_dropped)
        assert cleanup.attrs["dropped"] > 0
