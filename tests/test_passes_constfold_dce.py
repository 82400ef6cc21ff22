"""Unit tests for constant folding/propagation and whole-program DCE."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import straight_line

from repro.analysis.liveness import compute_liveness
from repro.bench.generators import GeneratorConfig, random_cfg
from repro.bench.shapegen import ShapeConfig, random_shape_cfg
from repro.core.optimality import check_equivalence, enumerate_traces
from repro.core.transform import _is_live_after
from repro.interp.machine import run
from repro.ir.builder import CFGBuilder
from repro.ir.expr import Const, Var
from repro.ir.instr import CondBranch
from repro.passes.constfold import fold_constants
from repro.passes.dce import dead_code_elimination


class TestFolding:
    def test_literal_fold(self):
        cfg = straight_line(["x = 2 * 3"])
        assert fold_constants(cfg) == 1
        assert cfg.block("s0").instrs[0].expr == Const(6)

    def test_propagation_then_fold(self):
        cfg = straight_line(["x = 4", "y = x * 2"])
        fold_constants(cfg)
        assert cfg.block("s0").instrs[1].expr == Const(8)

    def test_fold_agrees_with_runtime_on_negative_remainder(self):
        # Folding goes through the interpreter's eval_expr, so the
        # compile-time value of -7 % 2 must be the truncated -1 (C
        # semantics), never Python's +1.
        cfg = straight_line(["x = 0 - 7", "y = x % 2", "z = x / 2"])
        fold_constants(cfg)
        instrs = cfg.block("s0").instrs
        assert instrs[1].expr == Const(-1)
        assert instrs[2].expr == Const(-3)

    def test_fold_agrees_with_runtime_on_shifts(self):
        # Folding goes through eval_expr, so compile-time shifts use
        # the same mod-64/arithmetic convention as the interpreter
        # (docs/LANGUAGE.md): 1 << 67 folds to 8, and -8 >> 1 stays
        # sign-preserving.
        cfg = straight_line(["x = 1 << 67", "y = 0 - 8", "z = y >> 1"])
        fold_constants(cfg)
        instrs = cfg.block("s0").instrs
        assert instrs[0].expr == Const(8)
        assert instrs[2].expr == Const(-4)

    def test_input_variables_not_assumed(self):
        cfg = straight_line(["y = a * 2"])  # a is an input
        assert fold_constants(cfg) == 0

    def test_initial_value_respected_at_partial_assignment(self):
        # x is set to 5 on one arm only; at the join x is not constant
        # (the other path keeps x's input value).
        b = CFGBuilder()
        b.block("top").branch("p", "set", "skip")
        b.block("set", "x = 5").jump("join")
        b.block("skip").jump("join")
        b.block("join", "y = x + 1").to_exit()
        cfg = b.build()
        assert fold_constants(cfg) == 0

    def test_join_agreeing_constants(self):
        b = CFGBuilder()
        b.block("top").branch("p", "l", "r")
        b.block("l", "x = 5").jump("join")
        b.block("r", "x = 5").jump("join")
        b.block("join", "y = x + 1").to_exit()
        cfg = b.build()
        fold_constants(cfg)
        assert cfg.block("join").instrs[0].expr == Const(6)

    def test_join_disagreeing_constants(self):
        b = CFGBuilder()
        b.block("top").branch("p", "l", "r")
        b.block("l", "x = 5").jump("join")
        b.block("r", "x = 7").jump("join")
        b.block("join", "y = x + 1").to_exit()
        cfg = b.build()
        assert fold_constants(cfg) == 0

    def test_branch_condition_becomes_constant(self):
        b = CFGBuilder()
        b.block("top", "p = 1").branch("p", "l", "r")
        b.block("l").to_exit()
        b.block("r").to_exit()
        cfg = b.build()
        fold_constants(cfg)
        term = cfg.block("top").terminator
        assert isinstance(term, CondBranch)
        assert term.cond == Const(1)

    def test_loop_variant_not_folded(self):
        b = CFGBuilder()
        b.block("init", "i = 0").jump("head")
        b.block("head", "i = i + 1", "c = i < n").branch("c", "head", "out")
        b.block("out", "y = i * 2").to_exit()
        cfg = b.build()
        fold_constants(cfg)
        # i varies around the loop: no instruction may claim it constant
        # after the header.
        assert cfg.block("out").instrs[0].expr == __import__(
            "repro.ir.expr", fromlist=["BinExpr"]
        ).BinExpr("*", Var("i"), Const(2))

    def test_total_division_agrees_with_runtime(self):
        cfg = straight_line(["x = 7 / 0", "y = -7 / 2"])
        fold_constants(cfg)
        assert cfg.block("s0").instrs[0].expr == Const(0)
        assert cfg.block("s0").instrs[1].expr == Const(-3)

    def test_semantics_preserved_on_random_programs(self):
        from repro.bench.generators import GeneratorConfig, random_cfg

        for seed in range(8):
            cfg = random_cfg(seed, GeneratorConfig(statements=8))
            snapshot = cfg.copy()
            fold_constants(cfg)
            assert check_equivalence(snapshot, cfg, runs=10).equivalent, seed


class TestDeadCodeElimination:
    def test_shadowed_store_removed(self):
        cfg = straight_line(["x = a + b", "x = 5"])
        assert dead_code_elimination(cfg) == 1
        assert [str(i) for i in cfg.block("s0").instrs] == ["x = 5"]

    def test_final_values_are_observable(self):
        # x is never read but its final value is observable: keep it.
        cfg = straight_line(["x = a + b"])
        assert dead_code_elimination(cfg) == 0

    def test_narrowed_observable_set(self):
        cfg = straight_line(["x = a + b", "y = c * 2"])
        removed = dead_code_elimination(cfg, observable=["y"])
        assert removed == 1
        assert [str(i) for i in cfg.block("s0").instrs] == ["y = c * 2"]

    def test_cascading_removal(self):
        cfg = straight_line(["t1 = a + b", "t2 = t1 + 1", "t2 = 0", "t1 = 0"])
        # t2 = t1+1 is shadowed; then t1 = a+b becomes shadowed too.
        assert dead_code_elimination(cfg) == 2

    def test_loop_use_keeps_store(self):
        b = CFGBuilder()
        b.block("init", "s = 0").jump("head")
        b.block("head", "s = s + 1", "c = s < n").branch("c", "head", "out")
        b.block("out").to_exit()
        cfg = b.build()
        assert dead_code_elimination(cfg) == 0

    def test_semantics_preserved(self):
        from repro.bench.generators import GeneratorConfig, random_cfg

        for seed in range(8):
            cfg = random_cfg(seed, GeneratorConfig(statements=8))
            snapshot = cfg.copy()
            dead_code_elimination(cfg)
            assert check_equivalence(snapshot, cfg, runs=10).equivalent, seed

    def test_observable_name_never_mentioned_is_kept_in_universe(self):
        # A name declared observable but absent from the program used to
        # be silently dropped from the liveness universe; it must stay
        # (live everywhere: nothing ever assigns it) and DCE must accept
        # such observable sets without surprises.
        from repro.analysis.liveness import compute_liveness

        cfg = straight_line(["x = a + b", "y = c * 2"])
        live = compute_liveness(cfg, live_at_exit=["y", "phantom"])
        assert "phantom" in live.variables
        assert live.is_live_in("s0", "phantom")
        assert live.is_live_out("s0", "phantom")

        removed = dead_code_elimination(cfg, observable=["y", "phantom"])
        assert removed == 1  # x is dead; phantom changes nothing else
        assert [str(i) for i in cfg.block("s0").instrs] == ["y = c * 2"]

    def test_faint_loop_update_removed_when_everything_is_observable(self):
        # a = d - a feeds only itself around the loop, and the exit path
        # overwrites a: no value it computes is ever observed.  Classic
        # liveness counts its own read, so iterated DCE keeps it.
        b = CFGBuilder()
        b.block("init", "i = 0").jump("head")
        b.block("head", "c = i < n").branch("c", "body", "out")
        b.block("body", "a = d - a", "i = i + 1").jump("head")
        b.block("out", "a = 1").to_exit()
        cfg = b.build()
        snapshot = cfg.copy()
        assert dead_code_elimination(cfg) == 1
        assert [str(i) for i in cfg.block("body").instrs] == ["i = i + 1"]
        assert check_equivalence(snapshot, cfg, runs=10).equivalent

    def test_faint_copy_cycle_removed_with_nothing_observable(self):
        b = CFGBuilder()
        b.block("init", "i = 0").jump("head")
        b.block("head", "t = u", "u = t", "i = i + 1", "c = i < n").branch(
            "c", "head", "out"
        )
        b.block("out").to_exit()
        cfg = b.build()
        assert dead_code_elimination(cfg, observable=[]) == 2
        assert [str(i) for i in cfg.block("head").instrs] == [
            "i = i + 1",
            "c = i < n",
        ]


def _iterated_dce(cfg, observable):
    """The classic algorithm: solve liveness, drop dead assignments,
    repeat until a round removes nothing."""
    exit_names = sorted(observable)
    while True:
        liveness = compute_liveness(cfg, live_at_exit=exit_names)
        kept = {
            block.label: [
                instr
                for i, instr in enumerate(block.instrs)
                if _is_live_after(cfg, liveness, block.label, i, instr.target)
            ]
            for block in cfg
        }
        if all(len(kept[block.label]) == len(block.instrs) for block in cfg):
            return
        for block in cfg:
            block.instrs[:] = kept[block.label]


def _is_subsequence(short, long):
    rest = iter(long)
    return all(any(item == other for other in rest) for item in short)


def _final_envs_agree(original, transformed, names, max_branches=6):
    """Same decision sequence -> same final values of *names*."""
    for trace in enumerate_traces(original, max_branches):
        before = run(original, decisions=trace.decisions)
        after = run(transformed, decisions=trace.decisions)
        if not after.reached_exit:
            return False
        for name in names:
            if before.env.get(name, 0) != after.env.get(name, 0):
                return False
    return True


class TestStrongLivenessDCE:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shaped=st.booleans(),
        mode=st.sampled_from(["all", "subset", "none"]),
        pick=st.integers(min_value=0, max_value=10_000),
    )
    def test_keeps_a_subsequence_of_iterated_dce(
        self, seed, shaped, mode, pick
    ):
        if shaped:
            cfg = random_shape_cfg(seed, ShapeConfig(blocks=8))
        else:
            cfg = random_cfg(seed, GeneratorConfig(statements=10))
        names = sorted(cfg.variables())
        if mode == "all":
            observable = names
        elif mode == "none":
            observable = []
        else:
            rng = random.Random(pick)
            observable = [name for name in names if rng.random() < 0.5]
        strong = cfg.copy()
        dead_code_elimination(strong, observable=observable)
        iterated = cfg.copy()
        _iterated_dce(iterated, observable)
        for label in cfg.labels:
            assert _is_subsequence(
                strong.block(label).instrs, iterated.block(label).instrs
            ), label
        assert _final_envs_agree(cfg, strong, observable)
        assert _final_envs_agree(cfg, iterated, observable)
