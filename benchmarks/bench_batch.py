"""Batch throughput: the parallel corpus driver vs. the serial baseline.

Pushes the realistic corpus (``tests/corpus``) plus a pile of generated
workloads through :func:`repro.batch.run_batch` at increasing worker
counts.  Two things are checked, matching the driver's contract:

* every job count produces **bit-identical per-program IR** (equal
  content fingerprints item by item) — parallelism must not change
  results;
* the parallel run completes with a zero error tally.

The wall-time rows (items/s, speedup over ``jobs=1``) are recorded in
the end-of-run report tables, and the ``jobs``-max batch report is
persisted as ``BENCH_BATCH.json`` in the invocation directory (the
session trace, ``BENCH_TRACE.json``, lands next to it but is not
committed).

A second benchmark measures the persistent store (docs/CACHING.md):
a cold run populating a fresh ``--cache-dir`` vs. a warm run over the
same corpus, asserting the warm run does **zero solver work** (no
memory-tier misses, therefore no solves) with bit-identical IR.
"""

import json
import os
import tempfile
import time
from pathlib import Path

from repro.api import load_cfg, optimize_cfg
from repro.batch import BatchConfig, items_from_dir, run_batch, WorkItem
from repro.bench.generators import GeneratorConfig, random_program
from repro.bench.harness import Table, record_report, write_json_report
from repro.lang.unparse import unparse
from repro.obs.manager import AnalysisManager
from repro.obs.trace import tracing
from repro.passes.pipeline import run_pipeline

CORPUS_DIR = Path(__file__).resolve().parent.parent / "tests" / "corpus"
GENERATED = 51  # with the 9 corpus programs: a 60-program batch
JOB_COUNTS = (1, 2, 4)
REPORT_FILENAME = "BENCH_BATCH.json"

# The LCM transform's cleanup asks only about its temps and solves
# each one on demand (``transform.temp_solve``), so an LCM corpus runs
# no whole-program liveness solve at all.  Before the incremental
# engine this corpus re-solved ~14x per item (826 solves / 60 items);
# with it, once per item.
MAX_LIVENESS_SOLVES_PER_ITEM = 0.0

# Whole-graph fingerprint hashes per item.  The optimize path hashes
# three graph states (the source, the LCSE copy LCM analyses, the
# output); the pipeline hashes each state the cleanup loop looks up.
# The optimize budget is the hash count of the earlier per-block
# incremental digests over this corpus (180).  The pipeline budget is
# the count measured once DCE stopped looking its liveness up through
# the manager (239, down from 273): 239 / 60 items, rounded up.
# benchmarks/ci_checks.py reads both constants from here.
MAX_OPTIMIZE_HASHES_PER_ITEM = 3.0
MAX_PIPELINE_HASHES_PER_ITEM = 4.0

# Serial walls over this exact 60-item corpus measured at commit
# 4c3a37c (before the transform-side rewrites): the before side of the
# speedup rows.
SEED_OPTIMIZE_WALL_S = 0.638
SEED_PIPELINE_WALL_S = 1.016


def _merge_batch_report(updates):
    """Read-modify-write ``BENCH_BATCH.json`` so the throughput and
    rewrite benchmarks can each update their own keys without
    clobbering the other's numbers (the tests run in either order, or
    alone)."""
    data = {}
    try:
        with open(REPORT_FILENAME) as handle:
            previous = json.load(handle)
        if (
            isinstance(previous, dict)
            and previous.get("format") == "repro-batch-report"
        ):
            data = previous
    except (OSError, ValueError):
        pass
    data.update(updates)
    try:
        return write_json_report(REPORT_FILENAME, data)
    except OSError:
        return data  # read-only invocation dir: the artifact is best-effort


def liveness_solves(report) -> int:
    """Full liveness fixpoint solves recorded in *report*'s trace."""
    entry = report.merged_summary().get("dataflow.solve[liveness]", {})
    return int(entry.get("count", 0))


def build_items():
    items = items_from_dir(str(CORPUS_DIR))
    for seed in range(GENERATED):
        source = unparse(random_program(seed, GeneratorConfig(statements=14)))
        items.append(WorkItem(f"gen{seed:03d}", "source", source))
    return items


def sweep():
    items = build_items()
    reports = {}
    for jobs in JOB_COUNTS:
        report = run_batch(items, BatchConfig(jobs=jobs, timeout=60.0))
        assert report.ok, report.tally
        solves = liveness_solves(report)
        per_item = solves / len(report.items)
        assert per_item <= MAX_LIVENESS_SOLVES_PER_ITEM, (
            f"jobs={jobs}: {solves} liveness solves over "
            f"{len(report.items)} items ({per_item:.1f}/item) — the "
            "transform cleanup should solve per temp, not globally"
        )
        reports[jobs] = report

    # Parallelism must not change results: same fingerprints everywhere.
    baseline = [item.fingerprint for item in reports[JOB_COUNTS[0]].items]
    for jobs in JOB_COUNTS[1:]:
        fingerprints = [item.fingerprint for item in reports[jobs].items]
        assert fingerprints == baseline, f"jobs={jobs} changed the IR"
    return reports


def test_batch_throughput(benchmark):
    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        ["jobs", "items", "wall s", "items/s", "speedup", "hit rate", "live solves"],
        title=f"batch throughput over {len(reports[1].items)} programs "
        f"({os.cpu_count()} cores)",
    )
    serial_wall = reports[JOB_COUNTS[0]].wall_time_s
    for jobs in JOB_COUNTS:
        report = reports[jobs]
        wall = report.wall_time_s
        table.add_row(
            jobs,
            len(report.items),
            wall,
            len(report.items) / wall if wall else 0.0,
            serial_wall / wall if wall else 0.0,
            report.cache_stats()["hit_rate"],
            liveness_solves(report),
        )
    record_report("batch throughput", table)

    final = reports[max(JOB_COUNTS)]
    payload = final.to_dict()
    counters = final.merged_counters()
    payload["liveness"] = {
        "full_solves": liveness_solves(final),
        "solves_per_item": liveness_solves(final) / len(final.items),
        "temp_solves": counters.get("transform.temp_solve", 0),
    }
    _merge_batch_report(payload)


def store_sweep(store_dir):
    items = build_items()
    config = BatchConfig(jobs=2, timeout=60.0, store_path=store_dir)
    cold = run_batch(items, config)
    assert cold.ok, cold.tally
    warm = run_batch(items, config)
    assert warm.ok, warm.tally

    # The warm run must do zero solver work: a memory-tier miss is the
    # only path that runs a solver, and there are none.
    warm_stats = warm.cache_stats()
    assert warm_stats["misses"] == 0, warm_stats
    assert warm_stats["disk_writes"] == 0, warm_stats
    assert warm_stats["hits"] + warm_stats["disk_hits"] > 0
    # ... with bit-identical IR to the cold run.
    cold_fps = [item.fingerprint for item in cold.items]
    warm_fps = [item.fingerprint for item in warm.items]
    assert warm_fps == cold_fps, "warm store changed the IR"
    return cold, warm


def test_batch_warm_store(benchmark):
    with tempfile.TemporaryDirectory(prefix="repro-store-") as store_dir:
        cold, warm = benchmark.pedantic(
            store_sweep, args=(store_dir,), rounds=1, iterations=1
        )
        table = Table(
            ["run", "items", "wall s", "misses", "disk hits", "disk writes"],
            title=f"persistent store: cold vs warm over {len(cold.items)} "
            f"programs (jobs=2, entries={warm.store['entries']})",
        )
        for name, report in (("cold", cold), ("warm", warm)):
            stats = report.cache_stats()
            table.add_row(
                name,
                len(report.items),
                report.wall_time_s,
                stats["misses"],
                stats["disk_hits"],
                stats["disk_writes"],
            )
        record_report("batch warm store", table)


def _hashes(tracer) -> int:
    return tracer.counters.get("fingerprint.full", 0)


def rewrite_sweep():
    """The rewrite-side benchmark: the optimize path and the full pass
    pipeline over the same corpus, serial, one manager each.

    Each path must stay within its whole-graph hash budget
    (:data:`MAX_OPTIMIZE_HASHES_PER_ITEM`,
    :data:`MAX_PIPELINE_HASHES_PER_ITEM`).
    """
    items = build_items()
    cfgs = [load_cfg(item.payload, item.kind) for item in items]
    n = len(cfgs)

    manager = AnalysisManager()
    with tracing() as pipeline_tracer:
        start = time.perf_counter()
        for cfg in cfgs:
            manager.fingerprint(cfg)
            result = run_pipeline(cfg, "lcm", manager=manager)
            manager.fingerprint(result.cfg)
        pipeline_wall = time.perf_counter() - start

    # The single-pass optimize path (what the serve daemon drives).
    manager = AnalysisManager()
    with tracing() as optimize_tracer:
        start = time.perf_counter()
        for cfg in cfgs:
            optimize_cfg(cfg, "lcm", manager=manager)
        optimize_wall = time.perf_counter() - start

    hashes = {
        "optimize": _hashes(optimize_tracer),
        "pipeline": _hashes(pipeline_tracer),
    }
    for path, budget in (
        ("optimize", MAX_OPTIMIZE_HASHES_PER_ITEM),
        ("pipeline", MAX_PIPELINE_HASHES_PER_ITEM),
    ):
        assert hashes[path] <= budget * n, (
            f"{path}: {hashes[path]} whole-graph hashes over {n} items "
            f"({hashes[path] / n:.2f}/item, budget {budget}/item)"
        )
    return n, optimize_wall, pipeline_wall, hashes


def test_batch_rewrite(benchmark):
    n, optimize_wall, pipeline_wall, hashes = benchmark.pedantic(
        rewrite_sweep, rounds=1, iterations=1
    )
    walls = {"optimize": optimize_wall, "pipeline": pipeline_wall}
    seeds = {
        "optimize": SEED_OPTIMIZE_WALL_S,
        "pipeline": SEED_PIPELINE_WALL_S,
    }
    table = Table(
        ["path", "wall s", "seed s", "speedup", "hashes"],
        title=f"rewrite side over {n} programs (serial)",
    )
    for path in ("optimize", "pipeline"):
        table.add_row(
            f"{path} (lcm)",
            walls[path],
            seeds[path],
            seeds[path] / walls[path] if walls[path] else 0.0,
            hashes[path],
        )
    record_report("batch rewrite", table)

    _merge_batch_report(
        {
            "rewrite": {
                "items": n,
                "optimize_wall_s": optimize_wall,
                "pipeline_wall_s": pipeline_wall,
                "seed_baseline_s": seeds,
                "speedup_vs_seed": {
                    path: seeds[path] / walls[path] if walls[path] else 0.0
                    for path in walls
                },
                "hashes": {
                    path: {"total": hashes[path], "per_item": hashes[path] / n}
                    for path in hashes
                },
            }
        }
    )
