"""The wire schema: one versioned NDJSON codec for batch and serve.

Two surfaces speak newline-delimited JSON: ``repro batch --stream``
(one item record per line, then the collected report) and the
``repro serve`` daemon (request in, tagged response records out).
Before this module each surface shaped its own dictionaries; now both
route through the same codec so they cannot drift:

* :func:`item_record` / :func:`report_record` — the *bare* shapes of
  one :class:`~repro.batch.report.ItemResult` and one
  :class:`~repro.batch.report.BatchReport`.  These are exactly the
  batch schema-v3 lines (``repro-batch-report`` version 3, see
  ``docs/BATCH.md``); the stream CLI emits them unchanged.
* The serve *envelopes* — :func:`result_record`, :func:`error_record`,
  :func:`rejected_record`, :func:`stats_record`, :func:`pong_record`,
  :func:`listening_record`, :func:`bye_record` — wrap a payload with
  ``{"v": PROTOCOL_VERSION, "type": ..., "id": ...}`` so responses on
  a multiplexed connection can be matched to their request.  A serve
  ``result`` record is the envelope plus the *same* item fields a
  batch stream line carries.
* :func:`parse_request` — the single validated entry for inbound
  request lines; every malformed shape raises :exc:`ProtocolError`
  with a one-line reason the server maps to an ``error`` record.

Lines are UTF-8 JSON documents terminated by ``\\n`` — encode with
:func:`encode`, decode with :func:`decode`.  The envelope version is
bumped whenever a record shape changes incompatibly; servers answer
requests of the versions they know and reject the rest explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.batch.driver import MAX_TIMEOUT_S
from repro.batch.report import BatchReport, ItemResult

#: Name and version of the serve envelope schema.
PROTOCOL = "repro-serve"
PROTOCOL_VERSION = 1

#: Request operations the daemon understands.
OP_OPTIMIZE = "optimize"
OP_ANALYZE = "analyze"
OP_STATS = "stats"
OP_PING = "ping"
OP_SHUTDOWN = "shutdown"
OPS = (OP_OPTIMIZE, OP_ANALYZE, OP_STATS, OP_PING, OP_SHUTDOWN)

#: Operations that carry a program payload and run on a worker.
WORK_OPS = (OP_OPTIMIZE, OP_ANALYZE)

#: Response record types.
TYPE_RESULT = "result"
TYPE_ERROR = "error"
TYPE_REJECTED = "rejected"
TYPE_STATS = "stats"
TYPE_PONG = "pong"
TYPE_LISTENING = "listening"
TYPE_BYE = "bye"

#: Payload kinds a work request may carry.  ``source``, ``json`` and
#: ``generated`` (a corpus ``(seed, config)`` spec) match
#: :func:`repro.api.load_cfg`; ``call`` resolves a ``module:function``
#: reference inside the worker and is only honoured by servers started
#: with ``allow_call`` (fault injection and tests).
REQUEST_KINDS = ("source", "json", "call", "generated")


class ProtocolError(ValueError):
    """An inbound line does not parse as a valid request."""


@dataclass(frozen=True)
class Request:
    """One validated inbound request.

    ``id`` is the client's correlation token, echoed verbatim on every
    response record the request produces; ``None`` when the client sent
    none.  ``timeout`` overrides the server's default per-request
    budget (the two-tier ``timeout + grace`` kill machinery applies
    either way).
    """

    op: str
    id: Optional[str] = None
    source: str = ""
    kind: str = "source"
    pass_: str = "lcm"
    pipeline: bool = False
    timeout: Optional[float] = None
    keep_ir: bool = False
    name: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """The wire shape of this request (what a client sends)."""
        payload: Dict[str, Any] = {"v": PROTOCOL_VERSION, "op": self.op}
        if self.id is not None:
            payload["id"] = self.id
        if self.op in WORK_OPS:
            payload["source"] = self.source
            payload["kind"] = self.kind
            payload["pass"] = self.pass_
            payload["pipeline"] = self.pipeline
            payload["keep_ir"] = self.keep_ir
            if self.timeout is not None:
                payload["timeout"] = self.timeout
            if self.name:
                payload["name"] = self.name
        return payload


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def parse_request(document: Any) -> Request:
    """Validate one decoded request document into a :class:`Request`.

    Accepts the raw line (str/bytes) or an already-decoded mapping.
    Raises :exc:`ProtocolError` on anything malformed: bad JSON, a
    non-object line, an unknown ``op`` or ``kind``, wrong field types,
    an unsupported envelope version, or a missing program payload.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except ValueError as exc:
            raise ProtocolError(f"bad JSON: {exc}") from exc
    _expect(isinstance(document, dict), "request must be a JSON object")
    version = document.get("v", PROTOCOL_VERSION)
    _expect(
        version == PROTOCOL_VERSION,
        f"unsupported protocol version {version!r} "
        f"(this server speaks v{PROTOCOL_VERSION})",
    )
    op = document.get("op")
    _expect(
        op in OPS,
        f"unknown op {op!r}; expected one of: {', '.join(OPS)}",
    )
    request_id = document.get("id")
    _expect(
        request_id is None or isinstance(request_id, (str, int)),
        "id must be a string or integer",
    )
    if request_id is not None:
        request_id = str(request_id)
    if op not in WORK_OPS:
        return Request(op=op, id=request_id)

    source = document.get("source")
    _expect(
        isinstance(source, str) and source != "",
        f"op {op!r} needs a non-empty string 'source'",
    )
    kind = document.get("kind", "source")
    _expect(
        kind in REQUEST_KINDS,
        f"unknown kind {kind!r}; expected one of: {', '.join(REQUEST_KINDS)}",
    )
    pass_ = document.get("pass", "lcm")
    _expect(isinstance(pass_, str), "pass must be a string")
    pipeline = document.get("pipeline", False)
    _expect(isinstance(pipeline, bool), "pipeline must be a boolean")
    keep_ir = document.get("keep_ir", False)
    _expect(isinstance(keep_ir, bool), "keep_ir must be a boolean")
    timeout = document.get("timeout")
    if timeout is not None:
        _expect(
            isinstance(timeout, (int, float))
            and not isinstance(timeout, bool)
            and 0 < timeout <= MAX_TIMEOUT_S,
            "timeout must be a positive number of seconds no larger "
            f"than {MAX_TIMEOUT_S:g}",
        )
        timeout = float(timeout)
    name = document.get("name", "")
    _expect(isinstance(name, str), "name must be a string")
    return Request(
        op=op,
        id=request_id,
        source=source,
        kind=kind,
        pass_=pass_,
        pipeline=pipeline,
        timeout=timeout,
        keep_ir=keep_ir,
        name=name,
    )


# ---------------------------------------------------------------------------
# The bare batch shapes.  `repro batch --stream` emits these unchanged
# (one item line per result, the report as the final line), and a serve
# `result` record embeds the same item fields — one schema, two
# transports.
# ---------------------------------------------------------------------------


def item_record(item: ItemResult) -> Dict[str, Any]:
    """The bare wire shape of one item result (a batch stream line)."""
    return item.to_dict()


def report_record(report: BatchReport) -> Dict[str, Any]:
    """The bare wire shape of a collected batch report (schema v3)."""
    return report.to_dict()


# ---------------------------------------------------------------------------
# The serve envelopes.
# ---------------------------------------------------------------------------


def _envelope(type_: str, request_id: Optional[str]) -> Dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "type": type_, "id": request_id}


def result_record(
    request_id: Optional[str],
    item: ItemResult,
    *,
    cached: bool = False,
) -> Dict[str, Any]:
    """A work result: the envelope plus the bare item fields.

    ``cached`` marks responses served from the daemon's response cache
    without dispatching to a worker.
    """
    record = _envelope(TYPE_RESULT, request_id)
    record.update(item_record(item))
    record["cached"] = cached
    return record


def cached_result_record(
    request_id: Optional[str], payload: Dict[str, Any]
) -> Dict[str, Any]:
    """A work result replayed from an already-encoded item payload."""
    record = _envelope(TYPE_RESULT, request_id)
    record.update(payload)
    record["cached"] = True
    return record


def error_record(
    request_id: Optional[str], message: str
) -> Dict[str, Any]:
    """A request-level failure (protocol violation, bad program, ...)."""
    record = _envelope(TYPE_ERROR, request_id)
    record["message"] = message
    return record


def rejected_record(
    request_id: Optional[str],
    reason: str,
    *,
    queue_depth: int,
    queue_limit: int,
) -> Dict[str, Any]:
    """Admission control turned the request away; try again later."""
    record = _envelope(TYPE_REJECTED, request_id)
    record["reason"] = reason
    record["queue_depth"] = queue_depth
    record["queue_limit"] = queue_limit
    return record


def stats_record(
    request_id: Optional[str], stats: Dict[str, Any]
) -> Dict[str, Any]:
    """A live daemon stats snapshot."""
    record = _envelope(TYPE_STATS, request_id)
    record["stats"] = stats
    return record


def pong_record(request_id: Optional[str]) -> Dict[str, Any]:
    """The answer to a ``ping``."""
    return _envelope(TYPE_PONG, request_id)


def listening_record(host: str, port: int) -> Dict[str, Any]:
    """The daemon's readiness line (stdout, not the socket)."""
    record = _envelope(TYPE_LISTENING, None)
    del record["id"]
    record["host"] = host
    record["port"] = port
    return record


def bye_record(request_id: Optional[str]) -> Dict[str, Any]:
    """The acknowledgement of a ``shutdown`` request."""
    return _envelope(TYPE_BYE, request_id)


# ---------------------------------------------------------------------------
# Line framing.
# ---------------------------------------------------------------------------


def encode(record: Dict[str, Any]) -> bytes:
    """One record as a compact, newline-terminated UTF-8 JSON line."""
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: Any) -> Dict[str, Any]:
    """One NDJSON line back into a record (:exc:`ProtocolError` on junk)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        document = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from exc
    _expect(isinstance(document, dict), "record must be a JSON object")
    return document
