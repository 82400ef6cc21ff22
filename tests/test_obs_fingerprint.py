"""Content fingerprints and the manager's fingerprint memo, pinned.

Three contracts from docs/OBSERVABILITY.md and docs/PERFORMANCE.md:

* :func:`cfg_fingerprint` — one SHA-256 over the canonical JSON — is
  sensitive to everything that is content: block order, edges (via
  terminators), edge weights;
* an :class:`AnalysisManager` memoizes one digest per graph state and
  drops it on every edit announced through :func:`notify_cfg_mutated`,
  so its fingerprint never goes stale, and the optimize path hashes
  exactly three graph states per item;
* the pass pipeline and the optimize path produce the IR and rewrite
  tallies pinned by golden digests over seeded random programs.
"""

import hashlib
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import diamond, do_while_invariant

from repro.api import optimize_cfg
from repro.bench.generators import GeneratorConfig, random_cfg
from repro.bench.shapegen import ShapeConfig, random_shape_cfg
from repro.ir.builder import CFGBuilder
from repro.ir.expr import BinExpr, Var
from repro.ir.instr import Assign, Jump
from repro.ir.serialize import cfg_to_json
from repro.obs.fingerprint import cfg_fingerprint
from repro.obs.manager import AnalysisManager, notify_cfg_mutated
from repro.obs.trace import span, tracing
from repro.passes.pipeline import run_pipeline

SMALL = GeneratorConfig(statements=8, max_depth=2)
SHAPES = ShapeConfig(blocks=8, back_edge_probability=0.5)

quick = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)


def _full_hashes(tracer) -> int:
    return tracer.counters.get("fingerprint.full", 0)


class TestCombine:
    """What the digest covers: everything that is graph content."""

    def test_block_order_is_content(self):
        def build(arms):
            b = CFGBuilder()
            b.block("cond", "p = a < b").branch("p", "left", "right")
            for label, instrs in arms:
                b.block(label, *instrs).jump("join")
            b.block("join", "y = a + b").to_exit()
            return b.build()

        first = build([("left", ["x = a + b"]), ("right", [])])
        second = build([("right", []), ("left", ["x = a + b"])])
        assert {bl.label for bl in first} == {bl.label for bl in second}
        assert cfg_fingerprint(first) != cfg_fingerprint(second)

    def test_edges_are_content_via_terminators(self):
        from repro.ir.instr import CondBranch

        base = diamond()
        flipped = diamond()
        flipped.block("cond").terminator = CondBranch(
            Var("p"), "right", "left"
        )
        flipped.notify_terminator_changed()
        assert cfg_fingerprint(flipped) != cfg_fingerprint(base)

    def test_edge_weights_are_content(self):
        cfg = diamond()
        before = cfg_fingerprint(cfg)
        cfg.set_weight(("cond", "left"), 9)
        assert cfg_fingerprint(cfg) != before


class TestFingerprintState:
    """The manager's per-object fingerprint: dropped on every announced
    edit, so a lookup always equals hashing from scratch."""

    def test_edit_refresh_matches_scratch(self):
        manager = AnalysisManager()
        cfg = diamond()
        assert manager.fingerprint(cfg) == cfg_fingerprint(cfg)
        cfg.block("join").append(Assign("q", BinExpr("+", Var("a"), Var("b"))))
        notify_cfg_mutated(cfg)
        assert manager.fingerprint(cfg) == cfg_fingerprint(cfg)

    def test_refresh_handles_added_and_removed_blocks(self):
        manager = AnalysisManager()
        cfg = diamond()
        manager.fingerprint(cfg)
        split = cfg.split_edge("right", "join", "landing")
        split.append(Assign("t", BinExpr("+", Var("a"), Var("b"))))
        notify_cfg_mutated(cfg)
        assert manager.fingerprint(cfg) == cfg_fingerprint(cfg)
        # Undo the split: remove the landing block, jump straight again.
        cfg.remove_block(split.label)
        cfg.block("right").terminator = Jump("join")
        cfg.notify_terminator_changed()
        notify_cfg_mutated(cfg)
        assert manager.fingerprint(cfg) == cfg_fingerprint(cfg)

    @quick
    @given(
        seeds,
        st.booleans(),
        st.lists(st.integers(0, 10_000), min_size=1, max_size=8),
    )
    def test_edit_scripts_agree_with_scratch(self, seed, shaped, script):
        if shaped:
            cfg = random_shape_cfg(seed, SHAPES)
        else:
            cfg = random_cfg(seed, SMALL)
        manager = AnalysisManager()
        assert manager.fingerprint(cfg) == cfg_fingerprint(cfg)
        for step, pick in enumerate(script):
            labels = list(cfg.labels)
            label = labels[pick % len(labels)]
            block = cfg.block(label)
            succs = cfg.succs(label)
            if pick % 4 == 3 and succs:
                # Structural: split an outgoing edge, announced coarsely.
                split = cfg.split_edge(label, succs[0], f"ed{step}")
                split.append(Assign(f"ed{step}", Var("a")))
                notify_cfg_mutated(cfg)
            elif block.instrs and pick % 4 == 0:
                del block.instrs[0]
                notify_cfg_mutated(cfg)
            else:
                block.append(
                    Assign(f"ed{step}", BinExpr("+", Var("a"), Var("b")))
                )
                notify_cfg_mutated(cfg)
            assert manager.fingerprint(cfg) == cfg_fingerprint(cfg)


class TestManagerCounters:
    def test_one_hash_per_graph_state(self):
        manager = AnalysisManager()
        cfg = diamond()
        with tracing() as tracer:
            first = manager.fingerprint(cfg)
            assert manager.fingerprint(cfg) == first
            cfg.block("join").append(
                Assign("q", BinExpr("+", Var("a"), Var("b")))
            )
            notify_cfg_mutated(cfg)
            second = manager.fingerprint(cfg)
            assert manager.fingerprint(cfg) == second
        assert second != first
        assert _full_hashes(tracer) == 2
        assert tracer.counters.get("cache.invalidate", 0) == 1

    def test_optimize_full_hash_budget(self):
        # Three graph states per item: the source, the LCSE copy (the
        # graph LCM analyses) and the output.
        manager = AnalysisManager()
        cfg = do_while_invariant()
        with tracing() as tracer:
            outcome = optimize_cfg(cfg, "lcm", manager=manager)
        assert outcome.fingerprint == cfg_fingerprint(outcome.cfg)
        assert _full_hashes(tracer) == 3


class TestSpanNoOp:
    def test_span_is_shared_null_context_when_tracing_off(self):
        first = span("anything", k=1)
        second = span("other")
        assert first is second
        with first as handle:
            handle.set(extra=2)  # accepted and discarded


# -- golden outputs ---------------------------------------------------------

GOLDEN_PROGRAMS = GeneratorConfig(statements=12, max_depth=3)
GOLDEN_SHAPES = ShapeConfig(blocks=10, back_edge_probability=0.5)
GOLDEN_SEEDS = range(50)

#: SHA-256 over every program's ``cfg_to_json(result.cfg)`` and JSON
#: rewrite tally after ``run_pipeline(cfg, "lcm")``; recorded before
#: the cleanup fixpoint became one whole-CFG loop.
PIPELINE_GOLDEN = (
    "0b07b2c2e688f5b1d98b2979cf176b1043198a0555bea1f41c6c4a6ab7c9fddd"
)
#: The same over ``optimize_cfg(cfg, "lcm")``'s output and description.
OPTIMIZE_GOLDEN = (
    "e0c9b350c3f591557dc4ddfa440e21f524b3f7ecf4ceadb302250c727d0900ab"
)


def _golden_digest(run) -> str:
    """Hash ``run(cfg) -> (output CFG, tally)`` over 100 seeded programs:
    reducible (``random_cfg``) and irreducible (``random_shape_cfg``)."""
    hasher = hashlib.sha256()
    for seed in GOLDEN_SEEDS:
        for cfg in (
            random_cfg(seed, GOLDEN_PROGRAMS),
            random_shape_cfg(seed, GOLDEN_SHAPES),
        ):
            output, tally = run(cfg)
            hasher.update(cfg_to_json(output).encode("utf-8"))
            hasher.update(json.dumps(tally, sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()


class TestGoldenOutputs:
    def test_pipeline_without_manager(self):
        def run(cfg):
            result = run_pipeline(cfg, "lcm")
            return result.cfg, result.rewrites

        assert _golden_digest(run) == PIPELINE_GOLDEN

    def test_pipeline_with_one_warm_manager(self):
        manager = AnalysisManager()

        def run(cfg):
            result = run_pipeline(cfg, "lcm", manager=manager)
            assert manager.fingerprint(result.cfg) == cfg_fingerprint(
                result.cfg
            )
            return result.cfg, result.rewrites

        assert _golden_digest(run) == PIPELINE_GOLDEN

    def test_optimize_with_manager(self):
        def run(cfg):
            outcome = optimize_cfg(cfg, "lcm", manager=AnalysisManager())
            return outcome.cfg, outcome.description

        assert _golden_digest(run) == OPTIMIZE_GOLDEN
