"""The control flow graph.

A :class:`CFG` is a set of labelled basic blocks with a distinguished
entry and exit.  Following the paper, the entry and exit blocks are empty
and every block is assumed to lie on some path from entry to exit
(enforced by :func:`repro.ir.validate.validate_cfg`).

Edges are implicit in block terminators: the CFG keeps predecessor and
successor maps in sync with the blocks and offers graph surgery used by
the transformation engine (edge splitting for insertions on edges).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.ir.block import BasicBlock
from repro.ir.expr import is_computation
from repro.ir.instr import Assign, CondBranch, Jump, Terminator

#: A control flow edge, as a (source label, target label) pair.
Edge = Tuple[str, str]


class CFGError(ValueError):
    """Raised for structurally invalid CFG operations."""


class CFG:
    """A control flow graph of basic blocks.

    Blocks are kept in insertion order, which also serves as the default
    iteration order for deterministic output.  Predecessor/successor maps
    are recomputed lazily after mutations.
    """

    def __init__(self, entry: str = "entry", exit: str = "exit") -> None:
        self._blocks: Dict[str, BasicBlock] = {}
        self.entry = entry
        self.exit = exit
        self._preds: Optional[Dict[str, List[str]]] = None
        self._weights: Dict[Edge, int] = {}

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Insert *block*; its label must be fresh."""
        if block.label in self._blocks:
            raise CFGError(f"duplicate block label {block.label!r}")
        self._blocks[block.label] = block
        self._dirty()
        return block

    def new_block(self, label: str) -> BasicBlock:
        """Create, insert and return an empty block named *label*."""
        return self.add_block(BasicBlock(label))

    def remove_block(self, label: str) -> None:
        """Remove the block *label*.  Callers must fix dangling edges."""
        if label in (self.entry, self.exit):
            raise CFGError(f"cannot remove the {label!r} block")
        if label not in self._blocks:
            raise CFGError(f"no block named {label!r}")
        del self._blocks[label]
        self._dirty()

    def block(self, label: str) -> BasicBlock:
        """Return the block named *label*."""
        try:
            return self._blocks[label]
        except KeyError:
            raise CFGError(f"no block named {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self._blocks.values())

    @property
    def labels(self) -> List[str]:
        """All block labels in insertion order."""
        return list(self._blocks.keys())

    @property
    def blocks(self) -> List[BasicBlock]:
        """All blocks in insertion order."""
        return list(self._blocks.values())

    def fresh_label(self, stem: str) -> str:
        """Return a label derived from *stem* that is not yet in use."""
        if stem not in self._blocks:
            return stem
        i = 1
        while f"{stem}.{i}" in self._blocks:
            i += 1
        return f"{stem}.{i}"

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def _dirty(self) -> None:
        self._preds = None

    def notify_terminator_changed(self) -> None:
        """Invalidate cached edge maps after a terminator was mutated."""
        self._dirty()

    def set_terminator(self, label: str, term: Terminator) -> None:
        """Set the terminator of block *label* and refresh edge caches."""
        self.block(label).terminator = term
        self._dirty()

    def succs(self, label: str) -> Tuple[str, ...]:
        """Successor labels of *label*, in branch order."""
        return self.block(label).successors()

    def preds(self, label: str) -> List[str]:
        """Predecessor labels of *label*, in deterministic block order."""
        if self._preds is None:
            preds: Dict[str, List[str]] = {name: [] for name in self._blocks}
            for block in self._blocks.values():
                for succ in block.successors():
                    if succ not in preds:
                        raise CFGError(
                            f"block {block.label!r} targets missing block {succ!r}"
                        )
                    preds[succ].append(block.label)
            self._preds = preds
        return list(self._preds[label])

    def edges(self) -> List[Edge]:
        """All control flow edges in deterministic order."""
        result: List[Edge] = []
        for block in self._blocks.values():
            seen: Set[str] = set()
            for succ in block.successors():
                if succ not in seen:  # parallel edges collapse to one
                    result.append((block.label, succ))
                    seen.add(succ)
        return result

    def has_edge(self, src: str, dst: str) -> bool:
        """True if control can transfer directly from *src* to *dst*."""
        return dst in self.block(src).successors()

    # ------------------------------------------------------------------
    # Weights (execution frequencies; optional, used by profiling tools)
    # ------------------------------------------------------------------

    def set_weight(self, edge: Edge, weight: int) -> None:
        """Attach a (positive) execution frequency to *edge*."""
        if weight <= 0:
            raise CFGError(
                "classic PRE assumes all edges have non-zero frequency "
                f"(Assumption 2); got weight {weight} for {edge}"
            )
        self._weights[edge] = weight

    def weight(self, edge: Edge, default: int = 1) -> int:
        """The execution frequency of *edge* (defaults to 1)."""
        return self._weights.get(edge, default)

    # ------------------------------------------------------------------
    # Surgery
    # ------------------------------------------------------------------

    def retarget(self, src: str, old_dst: str, new_dst: str) -> None:
        """Redirect every edge ``src -> old_dst`` to ``src -> new_dst``."""
        block = self.block(src)
        term = block.terminator
        if term is None:
            raise CFGError(f"block {src!r} has no terminator")
        if isinstance(term, Jump):
            if term.target != old_dst:
                raise CFGError(f"no edge {src!r} -> {old_dst!r}")
            block.terminator = Jump(new_dst)
        elif isinstance(term, CondBranch):
            then_t = new_dst if term.then_target == old_dst else term.then_target
            else_t = new_dst if term.else_target == old_dst else term.else_target
            if (then_t, else_t) == (term.then_target, term.else_target):
                raise CFGError(f"no edge {src!r} -> {old_dst!r}")
            block.terminator = CondBranch(term.cond, then_t, else_t)
        else:
            raise CFGError(f"block {src!r} has no outgoing edges")
        self._dirty()

    def split_edge(self, src: str, dst: str, label: Optional[str] = None) -> BasicBlock:
        """Insert a fresh empty block on the edge ``src -> dst``.

        Returns the new block, which jumps unconditionally to *dst*.  Used
        both for critical-edge splitting and to realise insertions on
        edges (``INSERT(m, n)`` of the transformation).
        """
        if not self.has_edge(src, dst):
            raise CFGError(f"no edge {src!r} -> {dst!r} to split")
        new_label = self.fresh_label(label or f"{src}__{dst}")
        new_block = BasicBlock(new_label, [], Jump(dst))
        self._blocks[new_label] = new_block
        self.retarget(src, dst, new_label)
        weight = self._weights.pop((src, dst), None)
        if weight is not None:
            self._weights[(src, new_label)] = weight
            self._weights[(new_label, dst)] = weight
        self._dirty()
        return new_block

    # ------------------------------------------------------------------
    # Whole-graph queries and copies
    # ------------------------------------------------------------------

    def variables(self) -> Set[str]:
        """Every variable name defined or used anywhere in the graph."""
        names: Set[str] = set()
        for block in self:
            names.update(block.defs())
            names.update(block.uses())
        return names

    def instructions(self) -> Iterator[Tuple[str, int, Assign]]:
        """Yield ``(block label, index, instruction)`` over the graph."""
        for block in self:
            for i, instr in enumerate(block.instrs):
                yield block.label, i, instr

    def static_computation_count(self) -> int:
        """Number of operator-expression occurrences in the whole graph."""
        return sum(
            1
            for block in self._blocks.values()
            for instr in block.instrs
            if is_computation(instr.expr)
        )

    def copy(self) -> "CFG":
        """Deep-copy the graph (instructions are immutable and shared)."""
        clone = CFG(self.entry, self.exit)
        for block in self:
            clone._blocks[block.label] = block.copy()
        clone._weights = dict(self._weights)
        return clone

    def __str__(self) -> str:
        return "\n".join(str(self.block(label)) for label in self.labels)
