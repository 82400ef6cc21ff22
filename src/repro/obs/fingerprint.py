"""Content fingerprints for CFGs.

The cache key of the :class:`~repro.obs.manager.AnalysisManager`: a
SHA-256 digest over the canonical JSON serialisation of the graph
(block order, instructions, terminators, entry/exit, edge weights).
Two graphs with the same fingerprint have identical dataflow facts, so
a memoized :class:`~repro.dataflow.solver.Solution` can be reused
bit-for-bit.

The digest deliberately goes through :func:`repro.ir.serialize.cfg_to_dict`
rather than ``str(cfg)``: the serialiser is versioned, round-trip exact
and covers edge weights, which pretty-printing omits.  Every digest runs
under a ``fingerprint`` span and bumps the ``fingerprint.full`` counter;
the manager memoizes one per graph state, so the counter is the number
of whole-graph hashes actually paid.
"""

from __future__ import annotations

import hashlib
import json

from repro.ir.cfg import CFG
from repro.ir.serialize import cfg_to_dict
from repro.obs import trace


def cfg_fingerprint(cfg: CFG) -> str:
    """A stable hex digest of *cfg*'s full content."""
    with trace.span("fingerprint", blocks=len(cfg)):
        payload = json.dumps(
            cfg_to_dict(cfg), sort_keys=True, separators=(",", ":")
        )
        value = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    trace.count("fingerprint.full")
    return value
