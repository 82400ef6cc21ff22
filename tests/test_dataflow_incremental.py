"""Incremental + demand-driven liveness is bit-identical to re-solving.

The correctness spine of the incremental engine
(:mod:`repro.dataflow.incremental`): for random CFGs and random
insert/delete edit scripts, the patched fixpoint — and every
demand-driven point query — must coincide **bit for bit** with a fresh
:func:`~repro.analysis.liveness.compute_liveness` of the current graph
content.  Targeted tests pin the counter contracts (an edit performs
one update, not a second full solve; pure point-query workloads perform
none; DCE and the pass pipeline, which solve strong liveness once,
touch no engine at all) and the edge cases (unknown labels, unknown
variables, observable names the program never mentions).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import diamond, do_while_invariant

from repro.analysis.liveness import compute_liveness, liveness_of
from repro.bench.generators import GeneratorConfig, random_cfg
from repro.bench.shapegen import ShapeConfig, random_shape_cfg
from repro.core.transform import _is_live_after
from repro.dataflow.incremental import IncrementalLiveness
from repro.ir.cfg import CFGError
from repro.ir.expr import BinExpr, Const, Var
from repro.ir.instr import Assign
from repro.obs.manager import AnalysisManager
from repro.obs.trace import Tracer, activate, deactivate, tracing

SMALL = GeneratorConfig(statements=10, max_depth=2)
SHAPES = ShapeConfig(blocks=8, back_edge_probability=0.5)

quick = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def _random_edit(cfg, rng, step):
    """Mutate one block's instruction list in place; return its label."""
    labels = [l for l in cfg.labels if cfg.block(l).instrs]
    if labels and rng.random() < 0.5:
        label = rng.choice(labels)
        block = cfg.block(label)
        del block.instrs[rng.randrange(len(block.instrs))]
    else:
        label = rng.choice(list(cfg.labels))
        block = cfg.block(label)
        names = sorted(cfg.variables()) or ["seed"]
        target = rng.choice(names + [f"fresh{step}"])
        expr = BinExpr("+", Var(rng.choice(names)), Const(rng.randrange(7)))
        block.instrs.insert(rng.randrange(len(block.instrs) + 1), Assign(target, expr))
    return label


def _assert_matches_reference(engine, cfg, exit_names, context=""):
    """engine.result() must equal compute_liveness bit for bit."""
    reference = compute_liveness(cfg, live_at_exit=exit_names)
    result = engine.result()
    assert result.variables == reference.variables, context
    assert result.index == reference.index, context
    for label in cfg.labels:
        assert result.livein[label].width == reference.livein[label].width
        assert result.livein[label].bits == reference.livein[label].bits, (
            context,
            label,
            "livein",
        )
        assert result.liveout[label].bits == reference.liveout[label].bits, (
            context,
            label,
            "liveout",
        )


class TestIncrementalEquivalence:
    @quick
    @given(seed=seeds, edit_seed=seeds)
    def test_edit_scripts_match_full_resolve(self, seed, edit_seed):
        cfg = random_cfg(seed, SMALL)
        rng = random.Random(edit_seed)
        names = sorted(cfg.variables())
        exit_names = names[: rng.randrange(3)] if names else []
        engine = IncrementalLiveness(cfg, live_at_exit=exit_names)
        _assert_matches_reference(engine, cfg, exit_names, "initial")
        for step in range(6):
            label = _random_edit(cfg, rng, step)
            engine.block_edited(label)
            _assert_matches_reference(engine, cfg, exit_names, f"step {step}")
        assert engine.stats.full_solves == 1  # everything after is patched
        assert engine.stats.incr_updates >= 1

    @quick
    @given(seed=seeds, edit_seed=seeds)
    def test_edit_scripts_on_loopy_shapes(self, seed, edit_seed):
        # Deletion around back edges is where naive re-propagation from
        # stale facts goes wrong: a loop-carried live range sustains
        # itself.  The reset-region update must not.
        cfg = random_shape_cfg(seed, SHAPES)
        rng = random.Random(edit_seed)
        engine = IncrementalLiveness(cfg)
        engine.solve()
        for step in range(6):
            label = _random_edit(cfg, rng, step)
            engine.block_edited(label)
        _assert_matches_reference(engine, cfg, (), "after burst")
        assert engine.stats.full_solves == 1

    @quick
    @given(seed=seeds, edit_seed=seeds)
    def test_point_queries_match_reference(self, seed, edit_seed):
        cfg = random_cfg(seed, SMALL)
        rng = random.Random(edit_seed)
        engine = IncrementalLiveness(cfg)
        for step in range(4):
            reference = compute_liveness(cfg)
            probe_vars = (reference.variables or ["x"])[:4]
            for label in cfg.labels:
                assert engine.live_in(label) == reference.live_in(label)
                assert engine.live_out(label) == reference.live_out(label)
                for var in probe_vars:
                    assert engine.is_live_in(label, var) == reference.is_live_in(
                        label, var
                    )
                    assert engine.is_live_out(label, var) == reference.is_live_out(
                        label, var
                    )
                block = cfg.block(label)
                for i, instr in enumerate(block.instrs):
                    assert engine.is_live_after(
                        label, i, instr.target
                    ) == _is_live_after(cfg, reference, label, i, instr.target)
            label = _random_edit(cfg, rng, step)
            engine.block_edited(label)


class TestDemandDriven:
    def test_point_queries_never_solve_globally(self):
        cfg = do_while_invariant()
        engine = IncrementalLiveness(cfg)
        reference = compute_liveness(cfg)
        assert engine.is_live_in("after", "w") == reference.is_live_in("after", "w")
        assert engine.stats.full_solves == 0
        assert engine.stats.demand_solves >= 1

    def test_demand_region_is_the_backward_slice(self):
        # Querying a late block of a chain must not solve the blocks
        # before it: a backward fact depends only on successors.
        b_count = 12
        from repro.ir.builder import CFGBuilder

        b = CFGBuilder()
        for i in range(b_count):
            handle = b.block(f"s{i}", f"v{i} = a + {i}")
            if i + 1 < b_count:
                handle.jump(f"s{i + 1}")
            else:
                handle.to_exit()
        cfg = b.build()
        engine = IncrementalLiveness(cfg)
        engine.is_live_out(f"s{b_count - 1}", "a")
        assert engine.stats.full_solves == 0
        # The slice of the last block is just itself (+ the exit block).
        assert engine.stats.blocks_demanded <= 2

    def test_promotion_after_demand_is_exact(self):
        cfg = random_cfg(7, SMALL)
        engine = IncrementalLiveness(cfg)
        some_label = next(iter(cfg.labels))
        engine.live_in(some_label)  # partial demand solve
        assert engine.stats.full_solves == 0
        _assert_matches_reference(engine, cfg, (), "promoted")

    def test_interleaved_demand_and_edits(self):
        cfg = random_shape_cfg(3, SHAPES)
        rng = random.Random(11)
        engine = IncrementalLiveness(cfg)
        for step in range(8):
            reference = compute_liveness(cfg)
            label = rng.choice(list(cfg.labels))
            var = rng.choice(reference.variables) if reference.variables else "x"
            assert engine.is_live_out(label, var) == reference.is_live_out(label, var)
            engine.block_edited(_random_edit(cfg, rng, step))
        assert engine.stats.full_solves == 0


class TestCounters:
    def _counters(self, fn):
        tracer = Tracer()
        activate(tracer)
        try:
            fn()
        finally:
            deactivate()
        return dict(tracer.counters)

    def test_dce_performs_exactly_one_full_solve(self):
        # DCE is one strong-liveness solve plus one sweep: no rounds and
        # no engine, so the pipeline that runs it every cleanup round
        # records no engine counter either.
        from repro.passes.dce import dead_code_elimination
        from repro.passes.pipeline import run_pipeline

        cfg = random_cfg(5, GeneratorConfig(statements=14))
        with tracing() as tracer:
            dead_code_elimination(cfg)
        solves = [
            event.attrs["problem"]
            for event in tracer.events
            if event.name == "dataflow.solve"
        ]
        assert solves == ["strong-liveness"]
        with tracing() as tracer:
            run_pipeline(
                random_cfg(5, GeneratorConfig(statements=14)),
                manager=AnalysisManager(),
            )
        assert not [
            name
            for name in tracer.counters
            if name.startswith("dataflow.incr.")
        ]

    def test_update_counter_fires_on_edits(self):
        cfg = diamond()
        engine = IncrementalLiveness(cfg)

        def run():
            engine.solve()
            cfg.block("left").instrs.append(Assign("q", BinExpr("+", Var("a"), Const(1))))
            engine.block_edited("left")
            engine.solve()

        counters = self._counters(run)
        assert counters.get("dataflow.incr.fullsolve", 0) == 1
        assert counters.get("dataflow.incr.update", 0) == 1


class TestManagerWiring:
    def test_liveness_of_routes_through_the_memo_tier(self):
        manager = AnalysisManager()
        cfg = diamond()
        first = liveness_of(cfg, manager=manager)
        second = liveness_of(cfg, manager=manager)
        assert first is second
        assert manager.stats.hits == 1
        assert liveness_of(cfg).livein.keys() == first.livein.keys()


class TestEdgeCases:
    def test_unknown_label_raises(self):
        engine = IncrementalLiveness(diamond())
        with pytest.raises(CFGError):
            engine.is_live_in("nope", "a")

    def test_unknown_variable_is_dead(self):
        engine = IncrementalLiveness(diamond())
        assert not engine.is_live_in("join", "zzz")
        assert not engine.is_live_out("cond", "zzz")

    def test_unmentioned_exit_name_is_live_everywhere(self):
        cfg = diamond()
        engine = IncrementalLiveness(cfg, live_at_exit=["phantom"])
        for label in cfg.labels:
            assert engine.is_live_in(label, "phantom")
            assert engine.is_live_out(label, "phantom")
        _assert_matches_reference(engine, cfg, ("phantom",), "phantom")

    def test_new_block_label_escalates_to_rebuild(self):
        cfg = diamond()
        engine = IncrementalLiveness(cfg)
        engine.solve()
        split = cfg.split_edge("cond", "right", "wedge")
        split.instrs.append(Assign("r", BinExpr("+", Var("a"), Const(2))))
        engine.block_edited(split.label)  # unseen label: full rebuild
        _assert_matches_reference(engine, cfg, (), "after split")

    def test_universe_growth_and_decay_roundtrip(self):
        cfg = diamond()
        engine = IncrementalLiveness(cfg)
        engine.solve()
        # Grow: a brand-new variable appears...
        cfg.block("left").instrs.append(
            Assign("w", BinExpr("+", Var("fresh"), Const(1)))
        )
        engine.block_edited("left")
        _assert_matches_reference(engine, cfg, (), "grown")
        # ... and decays: its last mention is deleted again.
        del cfg.block("left").instrs[-1]
        engine.block_edited("left")
        _assert_matches_reference(engine, cfg, (), "decayed")
