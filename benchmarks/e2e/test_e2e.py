"""Tests of the end-to-end benchmark harness itself.

Run with an explicit path from the repository root (the suite's
``testpaths`` do not include them)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_times_of_a_nested_call_tree():
    clock = FakeClock()
    recorder = layers.SpanRecorder(clock)

    def leaf():
        clock.advance(2.0)

    leaf_w = recorder.wrap("dataflow", "leaf", leaf)

    def inner(depth):
        clock.advance(1.0)
        leaf_w()
        if depth:
            inner_w(depth - 1)  # recursion within one layer
        clock.advance(1.0)

    inner_w = recorder.wrap("core", "inner", inner)

    def outer():
        clock.advance(3.0)
        inner_w(1)
        leaf_w()
        clock.advance(0.5)

    outer_w = recorder.wrap("lang", "outer", outer)

    def work():
        clock.advance(0.25)
        outer_w()

    recorder.root(work)

    selfs = layers.self_times(recorder.spans, recorder.layer_of)
    assert selfs == {
        layers.OTHER: 0.25,
        "lang": 3.5,
        "core": 4.0,  # two inner frames, 2 s of own time each
        "dataflow": 6.0,  # three leaf calls
    }
    root_wall = sum(end - start for _, parent, _, start, end in
                    recorder.spans if parent is None)
    assert sum(selfs.values()) == pytest.approx(root_wall) == 13.75
    entries = layers.layer_entries(recorder.spans, recorder.layer_of)
    assert entries == {layers.OTHER: 1, "lang": 1, "core": 1, "dataflow": 3}


def test_recorder_keeps_spans_when_the_call_raises():
    clock = FakeClock()
    recorder = layers.SpanRecorder(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        recorder.wrap("lang", "boom", boom)()
    ((_, parent, name, start, end),) = recorder.spans
    assert (parent, name, end - start) == (None, "boom", 1.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.tail_count(200, 95) == 10
    assert measure.tail_count(199, 95) == 9
    values = list(range(1, 201))
    assert measure.percentile(values, 95) == 190
    assert measure.percentile(values, 50) == 100
    with pytest.raises(ValueError):
        measure.percentile(values[:199], 95)
    assert measure.percentile([5.0, 1.0, 3.0], 50, min_tail=0) == 3.0


def test_spread_is_interquartile_range_over_median():
    assert measure.spread([10.0]) == 0.0
    q1, _, q3 = statistics.quantiles([8, 9, 10, 11, 12], n=4)
    assert measure.spread([8, 9, 10, 11, 12]) == pytest.approx(
        (q3 - q1) / 10
    )


def side(value, samples=None):
    return {"value": value, "samples": samples or [value]}


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        (side(100, [99, 100, 101]), side(104, [103, 104, 105]), "lower",
         "within bound"),
        # Beyond the bound with one sample overlapping the base's.
        (side(100, [99, 100, 101]),
         side(120, [100.5, 119, 120, 120, 120, 121, 121]), "lower",
         "worse"),
        (side(100, [99, 100, 101]),
         side(80, [79, 80, 80, 80, 81, 81, 99.5]), "lower", "better"),
        (side(100, [99, 100, 101]),
         side(80, [79, 80, 80, 80, 81, 81, 99.5]), "higher", "worse"),
        (side(100, [99, 100, 101]), side(120, [119, 120, 121]), "lower",
         "worse"),
        # Run-to-run spread wider than the bound: no verdict ...
        (side(100, [60, 100, 140]), side(115, [70, 115, 150]), "lower",
         "unresolved"),
        (side(100, [60, 100, 140]), side(200, [170, 200, 240]), "lower",
         "unresolved"),
        # ... unless every new sample beats every base sample.
        (side(100, [90, 100, 140]), side(50, [20, 50, 85]), "lower",
         "better"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert measure.verdict(base, new, better, 0.1, exact=False) == expected


def test_exact_metrics_allow_no_tolerance():
    assert measure.verdict(side(0.9), side(0.9), "lower", 0.1,
                           exact=True) == "exact match"
    assert measure.verdict(side(0.9), side(0.9001), "lower", 0.1,
                           exact=True) == "worse"


def test_compare_documents_against_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def doc(seed, scale):
        metrics = {
            m["name"]: {"value": 1.0 * scale, "samples": [1.0 * scale]}
            for m in spec["end_to_end"]
        }
        return {"workloads": {"loopy-opt": {"seed": seed,
                                            "end_to_end": metrics}}}

    rows = measure.compare(doc(0, 1.0), doc(0, 1.0), spec)
    assert len(rows) == len(spec["end_to_end"])
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts["static_ratio"] == "exact match"
    assert verdicts["throughput_items_per_s"] == "within bound"
    rows = measure.compare(doc(0, 1.0), doc(1, 1.01), spec)
    assert {row["metric"]: row["verdict"] for row in rows}[
        "static_ratio"] == "within bound"


def test_timed_passes_refuse_an_installed_tracer():
    workloads = pytest.importorskip("workloads")
    from repro.obs.trace import tracing

    class Untouchable:
        def run_pass(self, index, warmup):
            raise AssertionError("ran a pass under a tracer")

        def stop(self):
            pass

    with tracing():
        with pytest.raises(RuntimeError, match="tracing off"):
            workloads.timed(Untouchable(), 0.0, 0, measure.MIN_TAIL)


def test_readme_lists_every_patched_attribute():
    readme = (HERE / "README.md").read_text()
    paths = sorted({site.path for site in layers.find_sites()})
    assert paths
    missing = [path for path in paths if f"`{path}`" not in readme]
    assert not missing, missing


def test_smoke_run_of_all_workloads(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True
    assert elapsed < 30.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    document = json.loads(out.read_text())
    assert sorted(document["workloads"]) == sorted(
        w["name"] for w in spec["workloads"]
    )
    for entry in document["workloads"].values():
        assert entry["failed"] == 0
        assert set(entry["end_to_end"]) == {
            m["name"] for m in spec["end_to_end"]
        }
        assert set(entry["per_layer"]) == {
            m["name"] for m in spec["per_layer"]
        }
        assert entry["per_layer"]["trace.coverage"]["value"] >= 0.9
