"""Outside-in layer timing: wrap each layer's public functions, keep the
spans in memory, and turn them into a per-layer self-time table.

A *layer* is a module of the ``repro`` package.  :data:`LAYERS` names,
for each layer, the functions and methods through which callers enter
it.  :func:`find_sites` resolves every place those callables are bound:
the defining module, and every other ``repro`` module that imported
the name (``repro.core.pipeline.apply_placements`` as well as
``repro.core.transform.apply_placements``), so a call is timed however
its caller reached it.  Methods are wrapped once, on their class.

A layer's *self time* is the duration of its spans minus the part
covered by nested wrapped calls; the benchmark's own root span absorbs
everything outside every layer (``other``).  The self times of all
spans therefore sum to the root span's wall time exactly.

Nothing here is imported by the timed passes: patching happens only in
the separate traced child process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: The pseudo-layer of the root span: time inside no wrapped call.
OTHER = "other"

#: layer -> entry points, as ``(module, attribute)``.  An attribute
#: ``Class.*`` stands for every public method defined on the class.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "lang": (("repro.api", "load_cfg"),),
    "ir.validate": (("repro.ir.validate", "validate_cfg"),),
    "core.localcse": (("repro.core.localcse", "local_cse"),),
    "analysis.local": (
        ("repro.analysis.local", "compute_local_properties"),
    ),
    "dataflow.fused": (
        ("repro.dataflow.fused", "compile_lcm_plan"),
        ("repro.dataflow.fused", "run_fused_lcm"),
    ),
    "dataflow.dense": (
        ("repro.dataflow.dense", "compile_plan"),
        ("repro.dataflow.dense", "solve_dense"),
    ),
    "core.lcm": (
        ("repro.core.lcm", "analyze_lcm"),
        ("repro.core.lcm", "lcm_placements"),
    ),
    "core.transform": (("repro.core.transform", "apply_placements"),),
    "dataflow.incremental": (
        ("repro.dataflow.incremental", "IncrementalLiveness.*"),
    ),
    "passes.canonical": (("repro.passes.canonical", "canonicalize"),),
    "passes.constfold": (("repro.passes.constfold", "fold_constants"),),
    "passes.copyprop": (("repro.passes.copyprop", "copy_propagate"),),
    "passes.dce": (("repro.passes.dce", "dead_code_elimination"),),
    "passes.simplify": (("repro.passes.simplify", "simplify_cfg"),),
    "passes.pipeline": (("repro.passes.pipeline", "run_pipeline"),),
    "obs.fingerprint": (
        ("repro.obs.manager", "AnalysisManager.fingerprint"),
        ("repro.obs.fingerprint", "cfg_fingerprint"),
    ),
    "ir.serialize": (("repro.ir.serialize", "block_to_dict"),),
}

#: Tracer counters reported next to the self times.
COUNTERS = (
    "dataflow.incr.fullsolve",
    "dataflow.incr.update",
    "fingerprint.full",
    "fingerprint.incr",
)

#: Per-call observations: span name -> (metric, getter on the result).
OBSERVE = {
    "repro.analysis.local.compute_local_properties": (
        "analysis.local.width", lambda props: props.universe.width
    ),
    "repro.dataflow.fused.run_fused_lcm": (
        "dataflow.fused.node_visits", lambda lcm: lcm.stats.node_visits
    ),
}


#: Layers whose number of entries (calls not nested in a call of the
#: same layer) is reported as ``<layer>.calls``.
CALL_COUNTED = ("dataflow.incremental", "obs.fingerprint")


@dataclass(frozen=True)
class Site:
    """One binding to replace: ``owner.attr`` currently holds *original*."""

    owner: object
    attr: str
    original: Callable
    layer: str
    #: The qualified name of the wrapped callable (the span name).
    name: str

    @property
    def path(self) -> str:
        return f"{_owner_name(self.owner)}.{self.attr}"


def _owner_name(owner) -> str:
    if inspect.ismodule(owner):
        return owner.__name__
    return f"{owner.__module__}.{owner.__qualname__}"


def import_all() -> None:
    """Import every ``repro`` module (so every binding exists)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):  # that one runs the CLI
            importlib.import_module(info.name)


def find_sites() -> List[Site]:
    """Every binding of every entry point in :data:`LAYERS`."""
    import_all()
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    sites: List[Site] = []
    for layer, targets in LAYERS.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(module, class_name)
                if method == "*":
                    methods = sorted(
                        name for name, value in vars(cls).items()
                        if not name.startswith("_")
                        and inspect.isfunction(value)
                    )
                else:
                    methods = [method]
                for name in methods:
                    sites.append(
                        Site(cls, name, vars(cls)[name], layer,
                             f"{module_name}.{class_name}.{name}")
                    )
                continue
            original = getattr(module, attr)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        sites.append(
                            Site(owner, key, original, layer,
                                 f"{module_name}.{attr}")
                        )
    return sites


class SpanRecorder:
    """Keeps one ``(id, parent, name, start, end)`` tuple per wrapped call.

    *clock* is injectable so tests can drive a synthetic call tree with
    exact timings.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.layer_of: Dict[str, str] = {}
        self.observed: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[int] = []
        self._next = 0

    def wrap(self, layer: str, name: str, fn: Callable,
             observe: Optional[Tuple[str, Callable]] = None) -> Callable:
        """A wrapper of *fn* recording one span per call.

        With *observe* ``(metric, getter)``, ``getter(result)`` is
        appended to ``observed[metric]`` after each call.
        """
        self.layer_of[name] = layer
        clock = self.clock
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if observe is not None:
                self.observed[observe[0]].append(observe[1](result))
            return result

        return wrapper

    def root(self, fn: Callable, *args, **kwargs):
        """Run *fn* under the root span (layer :data:`OTHER`)."""
        return self.wrap(OTHER, OTHER, fn)(*args, **kwargs)

    def write(self, path: str) -> None:
        """Write the spans as JSON: name, start, end, parent, layer."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "format": "repro-e2e-spans",
                    "version": 1,
                    "spans": [
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "layer": self.layer_of[name],
                            "start_s": start,
                            "end_s": end,
                        }
                        for span_id, parent, name, start, end in self.spans
                    ],
                },
                handle,
            )
            handle.write("\n")


def self_times(spans, layer_of: Dict[str, str]) -> Dict[str, float]:
    """Seconds of self time per layer.

    A span's self time is its duration minus the durations of its
    direct children (which in turn exclude theirs), so the values sum to
    the total duration of the root spans.
    """
    covered: Dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        totals[layer_of[name]] += (end - start) - covered[span_id]
    return dict(totals)


def layer_entries(spans, layer_of: Dict[str, str]) -> Dict[str, int]:
    """Calls per layer that are not nested in a call of the same layer."""
    layer_by_id = {
        span_id: layer_of[name] for span_id, _, name, _, _ in spans
    }
    parent_of = {span_id: parent for span_id, parent, _, _, _ in spans}
    entries: Dict[str, int] = defaultdict(int)
    for span_id, layer in layer_by_id.items():
        parent = parent_of[span_id]
        nested = False
        while parent is not None:
            if layer_by_id[parent] == layer:
                nested = True
                break
            parent = parent_of[parent]
        if not nested:
            entries[layer] += 1
    return dict(entries)


def install(recorder: SpanRecorder) -> List[str]:
    """Replace every site with a recording wrapper; returns the paths."""
    wrappers: Dict[int, Callable] = {}
    paths = []
    for site in find_sites():
        key = id(site.original)
        if key not in wrappers:
            wrappers[key] = recorder.wrap(
                site.layer, site.name, site.original, OBSERVE.get(site.name)
            )
        setattr(site.owner, site.attr, wrappers[key])
        paths.append(site.path)
    return sorted(paths)


def layer_metrics(recorder: SpanRecorder, counters: Dict[str, int]):
    """The per-layer metrics of one traced pass (ms, counts, coverage)."""
    spans = recorder.spans
    selfs = self_times(spans, recorder.layer_of)
    wall = sum(end - start for _, parent, _, start, end in spans
               if parent is None)
    metrics = {}
    for layer in list(LAYERS) + [OTHER]:
        metrics[f"{layer}.self_ms"] = (selfs.get(layer, 0.0) * 1000.0, "ms")
    entries = layer_entries(spans, recorder.layer_of)
    for layer in CALL_COUNTED:
        metrics[f"{layer}.calls"] = (entries.get(layer, 0), "count")
    compiles = sum(
        1 for _, _, name, _, _ in spans
        if name == "repro.dataflow.dense.compile_plan"
    )
    metrics["dataflow.dense.compiles"] = (compiles, "count")
    widths = recorder.observed.get("analysis.local.width", [])
    metrics["analysis.local.width"] = (
        sum(widths) / len(widths) if widths else 0.0, "count"
    )
    metrics["dataflow.fused.node_visits"] = (
        sum(recorder.observed.get("dataflow.fused.node_visits", [])), "count"
    )
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    metrics["trace.coverage"] = (
        1.0 - selfs.get(OTHER, 0.0) / wall if wall else 0.0, "ratio"
    )
    return metrics, wall
