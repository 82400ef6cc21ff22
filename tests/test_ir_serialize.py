"""Unit + property tests for CFG JSON serialisation."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.helpers import diamond, do_while_invariant

from repro.bench.generators import GeneratorConfig, random_cfg
from repro.ir.expr import BinExpr, Const, UnaryExpr, Var
from repro.ir.serialize import (
    SerializeError,
    cfg_from_dict,
    cfg_from_json,
    cfg_to_dict,
    cfg_to_json,
    expr_from_dict,
    expr_to_dict,
)


class TestExprRoundTrip:
    @pytest.mark.parametrize(
        "expr",
        [
            Const(42),
            Const(-7),
            Var("alpha"),
            UnaryExpr("-", Var("x")),
            UnaryExpr("abs", Const(-3)),
            BinExpr("+", Var("a"), Var("b")),
            BinExpr("<<", Var("a"), Const(2)),
            BinExpr("min", Const(1), Var("z")),
        ],
    )
    def test_roundtrip(self, expr):
        assert expr_from_dict(expr_to_dict(expr)) == expr

    def test_bad_kind_rejected(self):
        with pytest.raises(SerializeError, match="kind"):
            expr_from_dict({"kind": "lambda"})

    def test_non_dict_rejected(self):
        with pytest.raises(SerializeError):
            expr_from_dict(["const", 1])

    def test_nested_expression_rejected(self):
        nested = {
            "kind": "binary",
            "op": "+",
            "left": {"kind": "binary", "op": "*", "left": {"kind": "var", "name": "a"},
                     "right": {"kind": "var", "name": "b"}},
            "right": {"kind": "const", "value": 1},
        }
        with pytest.raises(SerializeError, match="atomic"):
            expr_from_dict(nested)


class TestCfgRoundTrip:
    def test_diamond_roundtrip(self):
        cfg = diamond()
        again = cfg_from_dict(cfg_to_dict(cfg))
        assert str(again) == str(cfg)
        assert again.labels == cfg.labels

    def test_json_roundtrip(self):
        cfg = do_while_invariant()
        assert str(cfg_from_json(cfg_to_json(cfg))) == str(cfg)

    def test_weights_preserved(self):
        cfg = diamond()
        cfg.set_weight(("cond", "left"), 9)
        again = cfg_from_dict(cfg_to_dict(cfg))
        assert again.weight(("cond", "left")) == 9
        assert again.weight(("cond", "right")) == 1

    def test_unterminated_block_rejected_on_write(self):
        from repro.ir.block import BasicBlock
        from repro.ir.cfg import CFG

        cfg = CFG()
        cfg.add_block(BasicBlock("entry"))
        with pytest.raises(SerializeError, match="unterminated"):
            cfg_to_dict(cfg)

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializeError, match="repro-cfg"):
            cfg_from_dict({"format": "elf", "version": 1})

    def test_wrong_version_rejected(self):
        data = cfg_to_dict(diamond())
        data["version"] = 99
        with pytest.raises(SerializeError, match="version"):
            cfg_from_dict(data)

    def test_bad_json_rejected(self):
        with pytest.raises(SerializeError, match="JSON"):
            cfg_from_json("{not json")

    def test_malformed_block_reports_path(self):
        data = cfg_to_dict(diamond())
        data["blocks"][2] = {"nope": True}
        with pytest.raises(SerializeError, match=r"blocks\[2\]"):
            cfg_from_dict(data)

    @pytest.mark.parametrize(
        "corrupt, field",
        [
            (
                lambda d: d["blocks"][2].update(instrs=5),
                r"blocks\[2\]\.instrs",
            ),
            (lambda d: d.update(weights=5), "weights"),
            (lambda d: d.pop("entry"), "entry"),
            (lambda d: d.pop("exit"), "exit"),
            (
                lambda d: d["blocks"].append(dict(d["blocks"][2])),
                r"blocks\[6\]\.label",
            ),
            (
                lambda d: d["blocks"][2]["instrs"][0].pop("target"),
                r"blocks\[2\]\.instrs\[0\]",
            ),
            (
                lambda d: d["weights"].append(
                    {"src": "cond", "dst": "left", "weight": "many"}
                ),
                r"weights\[0\]",
            ),
        ],
        ids=[
            "instrs-not-a-list",
            "weights-not-a-list",
            "entry-missing",
            "exit-missing",
            "duplicate-label",
            "target-missing",
            "weight-not-a-number",
        ],
    )
    def test_malformed_field_raises_serialize_error(self, corrupt, field):
        data = cfg_to_dict(diamond())
        corrupt(data)
        with pytest.raises(SerializeError, match=field):
            cfg_from_dict(data)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=5000))
    def test_random_program_roundtrip(self, seed):
        cfg = random_cfg(seed, GeneratorConfig(statements=8))
        again = cfg_from_json(cfg_to_json(cfg))
        assert str(again) == str(cfg)
        assert again.edges() == cfg.edges()

    def test_all_figures_roundtrip(self):
        from repro.bench.figures import FIGURES

        for name, fn in sorted(FIGURES.items()):
            cfg = fn()
            again = cfg_from_json(cfg_to_json(cfg))
            assert str(again) == str(cfg), name

    def test_unstructured_graphs_roundtrip(self):
        from repro.bench.shapegen import random_shape_cfg

        for seed in range(5):
            cfg = random_shape_cfg(seed)
            again = cfg_from_json(cfg_to_json(cfg))
            assert str(again) == str(cfg), seed

    def test_optimised_program_roundtrips(self):
        from repro.core.pipeline import optimize

        cfg = optimize(diamond(), "lcm").cfg
        again = cfg_from_json(cfg_to_json(cfg))
        assert str(again) == str(cfg)
