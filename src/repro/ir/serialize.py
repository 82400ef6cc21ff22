"""JSON serialisation of CFGs.

Lets programs cross process boundaries — cached compilation artefacts,
golden files, the CLI's ``--emit json``.  The format is versioned and
self-describing; :func:`cfg_from_dict` validates shape and raises
:class:`SerializeError` with a path-like message on malformed input.

Round-tripping is exact: ``cfg_from_dict(cfg_to_dict(g))`` reproduces
the graph, including block order, terminators and edge weights (a
hypothesis property test pins this on random programs).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.ir.block import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.expr import Atom, BinExpr, Const, Expr, UnaryExpr, Var
from repro.ir.instr import Assign, CondBranch, Halt, Jump, Terminator

FORMAT_VERSION = 1


class SerializeError(ValueError):
    """Raised on malformed serialised input."""


# -- expressions ------------------------------------------------------------

def expr_to_dict(expr: Expr) -> Dict[str, Any]:
    if isinstance(expr, Const):
        return {"kind": "const", "value": expr.value}
    if isinstance(expr, Var):
        return {"kind": "var", "name": expr.name}
    if isinstance(expr, UnaryExpr):
        return {
            "kind": "unary",
            "op": expr.op,
            "operand": expr_to_dict(expr.operand),
        }
    if isinstance(expr, BinExpr):
        return {
            "kind": "binary",
            "op": expr.op,
            "left": expr_to_dict(expr.left),
            "right": expr_to_dict(expr.right),
        }
    raise SerializeError(f"not an expression: {expr!r}")


def _atom_from_dict(data: Dict[str, Any], where: str) -> Atom:
    expr = expr_from_dict(data, where)
    if not isinstance(expr, (Const, Var)):
        raise SerializeError(f"{where}: expected an atomic operand")
    return expr


def expr_from_dict(data: Any, where: str = "expr") -> Expr:
    if not isinstance(data, dict) or "kind" not in data:
        raise SerializeError(f"{where}: expected an expression object")
    kind = data["kind"]
    try:
        if kind == "const":
            return Const(int(data["value"]))
        if kind == "var":
            return Var(str(data["name"]))
        if kind == "unary":
            return UnaryExpr(
                data["op"], _atom_from_dict(data["operand"], f"{where}.operand")
            )
        if kind == "binary":
            return BinExpr(
                data["op"],
                _atom_from_dict(data["left"], f"{where}.left"),
                _atom_from_dict(data["right"], f"{where}.right"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializeError(f"{where}: {exc}") from exc
    raise SerializeError(f"{where}: unknown expression kind {kind!r}")


# -- terminators ------------------------------------------------------------

def _terminator_to_dict(term: Terminator) -> Dict[str, Any]:
    if isinstance(term, Jump):
        return {"kind": "jump", "target": term.target}
    if isinstance(term, CondBranch):
        return {
            "kind": "branch",
            "cond": expr_to_dict(term.cond),
            "then": term.then_target,
            "else": term.else_target,
        }
    if isinstance(term, Halt):
        return {"kind": "halt"}
    raise SerializeError(f"unknown terminator {term!r}")


def _terminator_from_dict(data: Any, where: str) -> Terminator:
    if not isinstance(data, dict) or "kind" not in data:
        raise SerializeError(f"{where}: expected a terminator object")
    kind = data["kind"]
    try:
        if kind == "jump":
            return Jump(str(data["target"]))
        if kind == "branch":
            return CondBranch(
                _atom_from_dict(data["cond"], f"{where}.cond"),
                str(data["then"]),
                str(data["else"]),
            )
        if kind == "halt":
            return Halt()
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"{where}: {exc}") from exc
    raise SerializeError(f"{where}: unknown terminator kind {kind!r}")


# -- blocks -----------------------------------------------------------------

def block_to_dict(block: BasicBlock) -> Dict[str, Any]:
    """Serialise one basic block (label, instructions, terminator).

    The per-block payload of :func:`cfg_to_dict`.
    """
    if block.terminator is None:
        raise SerializeError(
            f"block {block.label!r} is unterminated; validate first"
        )
    return {
        "label": block.label,
        "instrs": [
            {"target": i.target, "expr": expr_to_dict(i.expr)}
            for i in block.instrs
        ],
        "terminator": _terminator_to_dict(block.terminator),
    }


# -- whole graphs -----------------------------------------------------------

def cfg_to_dict(cfg: CFG) -> Dict[str, Any]:
    """Serialise *cfg* to plain JSON-compatible data."""
    blocks: List[Dict[str, Any]] = [block_to_dict(block) for block in cfg]
    weights = [
        {"src": src, "dst": dst, "weight": cfg.weight((src, dst))}
        for src, dst in cfg.edges()
        if cfg.weight((src, dst)) != 1
    ]
    return {
        "format": "repro-cfg",
        "version": FORMAT_VERSION,
        "entry": cfg.entry,
        "exit": cfg.exit,
        "blocks": blocks,
        "weights": weights,
    }


def _list_field(data: Dict[str, Any], key: str, where: str) -> List[Any]:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise SerializeError(f"{where}: expected a list")
    return value


def cfg_from_dict(data: Any) -> CFG:
    """Deserialise a CFG from :func:`cfg_to_dict` output."""
    if not isinstance(data, dict) or data.get("format") != "repro-cfg":
        raise SerializeError("not a repro-cfg document")
    if data.get("version") != FORMAT_VERSION:
        raise SerializeError(
            f"unsupported format version {data.get('version')!r}"
        )
    for key in ("entry", "exit"):
        if key not in data:
            raise SerializeError(f"{key}: missing block label")
    cfg = CFG(entry=str(data["entry"]), exit=str(data["exit"]))
    blocks = data.get("blocks")
    if not isinstance(blocks, list):
        raise SerializeError("blocks: expected a list")
    for i, bdata in enumerate(blocks):
        where = f"blocks[{i}]"
        if not isinstance(bdata, dict) or "label" not in bdata:
            raise SerializeError(f"{where}: expected a block object")
        block = BasicBlock(str(bdata["label"]))
        if block.label in cfg:
            raise SerializeError(
                f"{where}.label: duplicate block label {block.label!r}"
            )
        instrs = _list_field(bdata, "instrs", f"{where}.instrs")
        for j, idata in enumerate(instrs):
            iwhere = f"{where}.instrs[{j}]"
            if not isinstance(idata, dict) or "target" not in idata:
                raise SerializeError(f"{iwhere}: expected an instruction")
            block.append(
                Assign(
                    str(idata["target"]),
                    expr_from_dict(idata.get("expr"), f"{iwhere}.expr"),
                )
            )
        block.terminator = _terminator_from_dict(
            bdata.get("terminator"), f"{where}.terminator"
        )
        cfg.add_block(block)
    for k, wdata in enumerate(_list_field(data, "weights", "weights")):
        try:
            cfg.set_weight(
                (str(wdata["src"]), str(wdata["dst"])), int(wdata["weight"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializeError(f"weights[{k}]: {exc}") from exc
    return cfg


def cfg_to_json(cfg: CFG, indent: int = 2) -> str:
    """Serialise *cfg* to a JSON string."""
    return json.dumps(cfg_to_dict(cfg), indent=indent)


def cfg_from_json(text: str) -> CFG:
    """Parse a CFG from :func:`cfg_to_json` output."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializeError(f"invalid JSON: {exc}") from exc
    return cfg_from_dict(data)
