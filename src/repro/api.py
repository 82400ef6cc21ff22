"""The public facade: typed entry points every front-end routes through.

The CLI, the batch workers and the ``repro serve`` daemon all need the
same two operations — *optimize this program* and *analyze this
program* — yet each used to hand-roll its own mix of ``compile_program``
/ ``optimize`` / ``analyze_lcm`` calls and its own result plumbing.
This module is the single seam: the front-ends parse their transport
(argv, pipe messages, NDJSON requests) into plain arguments, call
:func:`optimize_source` / :func:`analyze_source` (or the ``*_cfg``
variants when they already hold a graph), and get back a structured,
JSON-ready outcome object.

Entry points:

* :func:`load_cfg` — materialise a program from source text, a
  serialised-CFG JSON document, or a filesystem path;
* :func:`optimize_source` / :func:`optimize_cfg` — run one registered
  pass (or the full pipeline) and return an :class:`OptimizeOutcome`;
* :func:`analyze_source` / :func:`analyze_cfg` — run the LCM analysis
  stack without transforming and return an :class:`AnalyzeOutcome`.

Outcomes carry the live objects (the transformed :class:`~repro.ir.cfg.CFG`,
the :class:`~repro.core.lcm.LCMAnalysis` bundle) for in-process callers
*and* a :meth:`to_dict` projection of plain-JSON fields for the wire
(the batch report and the serve protocol embed exactly that shape).

Bad input is one exception type: :exc:`SourceError` wraps parse,
validation and load failures so transports can map it to their own
error record without enumerating parser internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.pipeline import OptimizeConfig, optimize
from repro.ir.cfg import CFG
from repro.obs.fingerprint import cfg_fingerprint

def _fingerprint(cfg: CFG, manager=None) -> str:
    """Content fingerprint of *cfg*, through *manager* when given.

    The manager memoizes one digest per graph state, so a graph it has
    already hashed (and that was not edited since) is not serialised
    again.
    """
    if manager is not None:
        return manager.fingerprint(cfg)
    return cfg_fingerprint(cfg)


#: Payload kinds :func:`load_cfg` accepts.
KIND_SOURCE = "source"
KIND_JSON = "json"
KIND_PATH = "path"
#: A ``(seed, GeneratorConfig)`` spec minted by :mod:`repro.corpus` —
#: the program is generated on demand, so a corpus item is reproducible
#: from its payload alone.
KIND_GENERATED = "generated"
KINDS = (KIND_SOURCE, KIND_JSON, KIND_PATH, KIND_GENERATED)


class SourceError(ValueError):
    """A program could not be loaded (parse error, bad file, bad kind)."""


def load_cfg(payload: str, kind: str = KIND_SOURCE) -> CFG:
    """Materialise a program from *payload*.

    Kinds: ``source`` (mini-language text), ``json`` (a serialised CFG
    document), ``path`` (a filesystem path; ``.json`` files are read
    as serialised CFGs, everything else as source) and ``generated``
    (a ``(seed, config)`` spec minted from the corpus generator — see
    :mod:`repro.corpus.generate`).  Every failure — unreadable file,
    parse error, malformed JSON — raises :exc:`SourceError` with a
    one-line message.
    """
    from repro.ir.serialize import cfg_from_json
    from repro.lang import compile_program

    if kind == KIND_PATH:
        try:
            with open(payload) as handle:
                text = handle.read()
        except OSError as exc:
            raise SourceError(f"cannot read {payload}: {exc}") from exc
        kind = KIND_JSON if payload.endswith(".json") else KIND_SOURCE
        payload = text
    if kind not in (KIND_SOURCE, KIND_JSON, KIND_GENERATED):
        raise SourceError(f"unknown payload kind {kind!r}")
    try:
        if kind == KIND_JSON:
            return cfg_from_json(payload)
        if kind == KIND_GENERATED:
            from repro.corpus.generate import load_generated

            return load_generated(payload)
        return compile_program(payload)
    except SourceError:
        raise
    except Exception as exc:
        raise SourceError(f"{type(exc).__name__}: {exc}") from exc


@dataclass
class OptimizeOutcome:
    """The structured result of one optimize request.

    ``transform`` is the live
    :class:`~repro.core.transform.TransformResult` (or
    :class:`~repro.passes.pipeline.PassResult` for pipeline runs) for
    in-process callers; :meth:`to_dict` projects the plain-JSON fields
    the batch report and serve protocol embed.
    """

    pass_: str
    pipeline: bool
    #: Content fingerprint of the *input* graph — the request cache key.
    source_fingerprint: str
    #: Content fingerprint of the optimised graph — two runs that agree
    #: here produced bit-identical IR.
    fingerprint: str
    static_before: int
    static_after: int
    description: str
    #: Serialised optimised IR, when requested with ``keep_ir``.
    ir: Optional[str] = None
    transform: Any = None

    @property
    def cfg(self) -> CFG:
        """The optimised graph."""
        return self.transform.cfg

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "pass": self.pass_,
            "pipeline": self.pipeline,
            "source_fingerprint": self.source_fingerprint,
            "fingerprint": self.fingerprint,
            "static_before": self.static_before,
            "static_after": self.static_after,
            "description": self.description,
        }
        if self.ir is not None:
            payload["ir"] = self.ir
        return payload


@dataclass
class AnalyzeOutcome:
    """The structured result of one analyze request.

    ``placements`` maps each universe expression (as text) to its LCM
    decision: the edges gaining an initialisation and the blocks whose
    original computation becomes a temporary read.  ``analysis`` is the
    live :class:`~repro.core.lcm.LCMAnalysis` bundle for in-process
    callers; :meth:`to_dict` is the wire projection.
    """

    fingerprint: str
    expressions: List[str]
    #: expression text -> {"insert_edges": [...], "delete_blocks": [...]}
    placements: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)
    analysis: Any = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "expressions": list(self.expressions),
            "placements": {
                expr: {
                    "insert_edges": list(decision["insert_edges"]),
                    "delete_blocks": list(decision["delete_blocks"]),
                }
                for expr, decision in self.placements.items()
            },
        }


def optimize_cfg(
    cfg: CFG,
    pass_: str = "lcm",
    *,
    pipeline: bool = False,
    manager=None,
    config: Optional[OptimizeConfig] = None,
    keep_ir: bool = False,
) -> OptimizeOutcome:
    """Optimise an in-memory graph and return the structured outcome.

    With ``pipeline=True`` the full standard pass pipeline runs instead
    of the single registered pass named *pass_*.  The input graph is
    never mutated.
    """
    from repro.passes import standard_pipeline

    source_fingerprint = _fingerprint(cfg, manager)
    if pipeline:
        result = standard_pipeline(cfg, manager=manager)
    else:
        result = optimize(cfg, pass_, config=config, manager=manager)
    ir = None
    if keep_ir:
        from repro.ir.serialize import cfg_to_json

        ir = cfg_to_json(result.cfg)
    return OptimizeOutcome(
        pass_=pass_,
        pipeline=pipeline,
        source_fingerprint=source_fingerprint,
        fingerprint=_fingerprint(result.cfg, manager),
        static_before=cfg.static_computation_count(),
        static_after=result.cfg.static_computation_count(),
        description=result.describe(),
        ir=ir,
        transform=result,
    )


def optimize_source(
    payload: str,
    pass_: str = "lcm",
    *,
    kind: str = KIND_SOURCE,
    pipeline: bool = False,
    manager=None,
    config: Optional[OptimizeConfig] = None,
    keep_ir: bool = False,
) -> OptimizeOutcome:
    """Load a program (see :func:`load_cfg`) and optimise it."""
    return optimize_cfg(
        load_cfg(payload, kind),
        pass_,
        pipeline=pipeline,
        manager=manager,
        config=config,
        keep_ir=keep_ir,
    )


def analyze_cfg(cfg: CFG, *, manager=None) -> AnalyzeOutcome:
    """Run the LCM analysis stack on *cfg* without transforming it."""
    from repro.core.lcm import analyze_lcm

    analysis = analyze_lcm(cfg, manager=manager)
    universe = analysis.universe
    placements: Dict[str, Dict[str, List[str]]] = {}
    for expr in universe:
        idx = universe.index_of(expr)
        placements[str(expr)] = {
            "insert_edges": sorted(
                f"{m}->{n}"
                for (m, n), vec in analysis.insert.items()
                if idx in vec
            ),
            "delete_blocks": sorted(
                label for label, vec in analysis.delete.items() if idx in vec
            ),
        }
    return AnalyzeOutcome(
        fingerprint=_fingerprint(cfg, manager),
        expressions=[str(expr) for expr in universe],
        placements=placements,
        analysis=analysis,
    )


def analyze_source(
    payload: str, *, kind: str = KIND_SOURCE, manager=None
) -> AnalyzeOutcome:
    """Load a program (see :func:`load_cfg`) and analyze it."""
    return analyze_cfg(load_cfg(payload, kind), manager=manager)
