"""Unit tests for the unidirectional solvers.

Fixpoints are validated on graphs small enough to compute by hand, and
the two solvers (round-robin and worklist) are cross-checked.
"""

import pytest

from tests.helpers import diamond, do_while_invariant, straight_line

from repro.analysis.local import compute_local_properties
from repro.dataflow.bitvec import BitVector
from repro.dataflow.problem import (
    Confluence,
    DataflowProblem,
    Direction,
    GenKillTransfer,
)
from repro.dataflow.solver import solve
from repro.ir.expr import BinExpr, Var


def availability_problem(cfg):
    local = compute_local_properties(cfg)
    problem = DataflowProblem.forward_intersect(
        "avail",
        local.universe.width,
        GenKillTransfer(gen=local.comp, keep=local.transp),
    )
    return local, problem


class TestRoundRobin:
    def test_availability_on_chain(self):
        cfg = straight_line(["x = a + b"], ["y = c * d"], ["z = a + b"])
        local, problem = availability_problem(cfg)
        sol = solve(cfg, problem)
        ab = local.universe.index_of(BinExpr("+", Var("a"), Var("b")))
        assert ab not in sol.inof["s0"]
        assert ab in sol.outof["s0"]
        assert ab in sol.inof["s2"]

    def test_kill_stops_availability(self):
        cfg = straight_line(["x = a + b"], ["a = 1"], ["z = a + b"])
        local, problem = availability_problem(cfg)
        sol = solve(cfg, problem)
        ab = local.universe.index_of(BinExpr("+", Var("a"), Var("b")))
        assert ab not in sol.inof["s2"]

    def test_intersection_at_join(self):
        cfg = diamond()  # only 'left' computes a+b
        local, problem = availability_problem(cfg)
        sol = solve(cfg, problem)
        ab = local.universe.index_of(BinExpr("+", Var("a"), Var("b")))
        assert ab not in sol.inof["join"]  # not on the right path

    def test_loop_fixpoint(self):
        cfg = do_while_invariant()
        local, problem = availability_problem(cfg)
        sol = solve(cfg, problem)
        ab = local.universe.index_of(BinExpr("+", Var("a"), Var("b")))
        # Available at loop exit and on the back edge.
        assert ab in sol.inof["after"]
        assert ab in sol.outof["body"]

    def test_boundary_respected(self):
        cfg = diamond()
        _, problem = availability_problem(cfg)
        sol = solve(cfg, problem)
        assert sol.inof[cfg.entry] == problem.boundary

    def test_stats_populated(self):
        cfg = diamond()
        _, problem = availability_problem(cfg)
        sol = solve(cfg, problem)
        assert sol.stats.sweeps >= 2  # at least one change sweep + one check
        assert sol.stats.node_visits >= len(cfg)

    def test_divergence_guard(self):
        cfg = straight_line(["x = a + b"])
        width = 1

        flip = {"state": False}

        def bad_transfer(label, fact):
            # Non-monotone oscillation must hit the sweep guard.
            flip["state"] = not flip["state"]
            return BitVector.of(width, [0]) if flip["state"] else BitVector.empty(width)

        problem = DataflowProblem.forward_intersect("bad", width, bad_transfer)
        with pytest.raises(RuntimeError, match="converge"):
            solve(cfg, problem, max_sweeps=5)


class TestWorklist:
    @pytest.mark.parametrize(
        "graph", [diamond, do_while_invariant, lambda: straight_line(["x = a + b"], ["y = a + b"])]
    )
    def test_matches_round_robin_forward(self, graph):
        cfg = graph()
        _, problem = availability_problem(cfg)
        a = solve(cfg, problem)
        b = solve(cfg, problem, strategy="worklist")
        assert a.inof == b.inof
        assert a.outof == b.outof

    def test_matches_round_robin_backward(self):
        cfg = do_while_invariant()
        local = compute_local_properties(cfg)
        problem = DataflowProblem.backward_intersect(
            "ant",
            local.universe.width,
            GenKillTransfer(gen=local.antloc, keep=local.transp),
        )
        a = solve(cfg, problem)
        b = solve(cfg, problem, strategy="worklist")
        assert a.inof == b.inof
        assert a.outof == b.outof

    def test_unknown_strategy_rejected(self):
        cfg = diamond()
        _, problem = availability_problem(cfg)
        with pytest.raises(ValueError, match="worklist"):
            solve(cfg, problem, strategy="chaotic")


class TestProblemConstruction:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DataflowProblem(
                "bad",
                Direction.FORWARD,
                Confluence.INTERSECT,
                4,
                lambda l, f: f,
                boundary=BitVector.empty(3),
                init=BitVector.full(4),
            )

    def test_union_inits_empty(self):
        p = DataflowProblem.forward_union("u", 3, lambda l, f: f)
        assert p.init == BitVector.empty(3)

    def test_intersect_inits_full(self):
        p = DataflowProblem.backward_intersect("i", 3, lambda l, f: f)
        assert p.init == BitVector.full(3)
