"""Summary statistics and the regression rule of ``run.py compare``.

Pure functions over plain numbers and result documents: the runner,
the comparison and the harness tests share them, and none imports
``repro``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: Metrics that are a deterministic function of the seed's inputs and
#: the optimiser's output: two runs of one commit on one seed must agree
#: exactly, so ``compare`` applies no tolerance to them.
EXACT = ("static_ratio", "dynamic_ratio", "temp_live_points")

#: A reported percentile needs this many samples strictly beyond it.
MIN_TAIL = 10


def tail_count(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank *q*-th percentile of *n*."""
    return n - math.ceil(q / 100.0 * n)


def percentile(values: Sequence[float], q: float,
               min_tail: int = MIN_TAIL) -> float:
    """The nearest-rank *q*-th percentile of *values*.

    Raises ``ValueError`` when fewer than *min_tail* samples lie beyond
    it: a percentile read off a handful of tail samples is noise.
    """
    if not values:
        raise ValueError("percentile of no samples")
    n = len(values)
    if tail_count(n, q) < min_tail:
        raise ValueError(
            f"p{q:g} of {n} samples has {tail_count(n, q)} beyond it; "
            f"need {min_tail}"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def verdict(base: Dict, new: Dict, better: str, bound: float,
            exact: bool) -> str:
    """Classify one metric of *new* against *base*.

    Each side is ``{"value": v, "samples": [...]}``.  ``better`` is
    ``"lower"`` or ``"higher"``; *bound* is the share by which the value
    may worsen.  Exact metrics must match exactly.  When either side's
    run-to-run spread is wider than the bound, the comparison is
    unresolved unless every sample of *new* beats every sample of
    *base*; otherwise the change is judged against the bound.
    """
    b, n = base["value"], new["value"]
    sign = 1.0 if better == "lower" else -1.0
    if exact:
        if n == b:
            return "exact match"
        return "worse" if sign * (n - b) > 0 else "better"
    base_samples = base.get("samples") or [b]
    new_samples = new.get("samples") or [n]
    if max(spread(base_samples), spread(new_samples)) > bound:
        if max(sign * x for x in new_samples) < min(
            sign * x for x in base_samples
        ):
            return "better"
        return "unresolved"
    change = sign * (n - b) / abs(b) if b else 0.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def compare(base_doc: Dict, new_doc: Dict, spec: Dict) -> List[Dict]:
    """One row per workload x end-to-end metric of the two documents.

    *spec* is the parsed ``BENCHMARK.json``.  Metrics in :data:`EXACT`
    get the exact rule only when both runs used the same seed.
    """
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        base_w = base_doc["workloads"].get(name)
        new_w = new_doc["workloads"].get(name)
        if base_w is None or new_w is None:
            continue
        same_seed = base_w["seed"] == new_w["seed"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            base_m = base_w["end_to_end"][key]
            new_m = new_w["end_to_end"][key]
            b, n = base_m["value"], new_m["value"]
            rows.append({
                "workload": name,
                "metric": key,
                "unit": metric["unit"],
                "base": b,
                "new": n,
                "ratio": n / b if b else None,
                "verdict": verdict(
                    base_m, new_m, metric["better"], metric["bound"],
                    exact=same_seed and key in EXACT,
                ),
            })
    return rows
