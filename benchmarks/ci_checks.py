#!/usr/bin/env python
"""Post-run assertions for the CI smoke steps, in one reviewable place.

Every smoke step in ``.github/workflows/ci.yml`` follows the same
shape: run a ``repro`` command (or a benchmark) that writes a JSON
artifact, then assert the artifact's invariants.  The assertions used
to live as inline ``python - <<EOF`` heredocs scattered through the
workflow — unlintable, untestable, and easy to drift.  They now live
here as named checks::

    PYTHONPATH=src python benchmarks/ci_checks.py batch-report /tmp/b.json
    PYTHONPATH=src python benchmarks/ci_checks.py shard-merge full.json merged.json
    PYTHONPATH=src python benchmarks/ci_checks.py differential /tmp/fuzz.json 200

Each check prints a one-line ``<name> ok: ...`` summary on success and
raises ``SystemExit`` with a reason on failure (so the CI step fails
loudly).  The fuzz checks additionally append a human-readable section
to ``$GITHUB_STEP_SUMMARY`` when the variable is set — divergent seeds
land in the job summary with a copy-pasteable reproduction command.

Run ``python benchmarks/ci_checks.py --list`` for the full menu.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Dict, List


def _load(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read artifact {path}: {exc}")


def _step_summary(lines: List[str]) -> None:
    """Append *lines* to the GitHub job summary, when running in CI."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


# -- benchmark artifacts ------------------------------------------------------


def check_bench_trace(args: List[str]) -> None:
    """BENCH_TRACE.json: the pipeline benchmark produced a real trace."""
    data = _load(args[0] if args else "BENCH_TRACE.json")
    assert data["format"] == "repro-bench-trace", data.get("format")
    trace = data["trace"]
    assert trace["format"] == "repro-trace" and trace["events"], "empty trace"
    print(f"trace ok: {len(trace['events'])} events,",
          f"{len(trace['summary'])} summary entries")


def check_solver_bench(args: List[str]) -> None:
    """BENCH_solver.json: dense solver equivalent to the reference.

    Gate on equivalence only; the speedup is recorded, not asserted,
    so a loaded runner cannot flake the build.
    """
    data = _load(args[0] if args else "BENCH_solver.json")
    assert data["format"] == "repro-solver-bench", data.get("format")
    assert data["equivalent"] is True, data
    assert data["blocks"] >= 200 and data["width"] >= 128, data
    print(f"solver bench ok: {data['blocks']} blocks,",
          f"width {data['width']}, {data['speedup']}x dense speedup")


def check_fused(args: List[str]) -> None:
    """BENCH_solver.json: the fused plan matched the staged quartet."""
    data = _load(args[0] if args else "BENCH_solver.json")
    fused = data["fused"]
    assert fused["equivalent"] is True, fused
    assert fused["blocks"] >= 200 and fused["width"] >= 128, fused
    print(f"fused plan ok: {fused['blocks']} blocks,",
          f"width {fused['width']}, {fused['speedup']}x vs staged")


def check_bench_batch(args: List[str]) -> None:
    """BENCH_BATCH.json: liveness solve budget held during the bench."""
    data = _load(args[0] if args else "BENCH_BATCH.json")
    live = data["liveness"]
    # The LCM corpus runs no whole-program liveness solve: the
    # transform cleanup solves per temp on demand.
    assert live["full_solves"] == 0, live
    assert live["temp_solves"] > 0, live
    print(f"bench batch ok: {live['full_solves']} full solves,",
          f"{live['temp_solves']} temp solves over",
          f"{data['items_total']} items")


def check_rewrite(args: List[str]) -> None:
    """BENCH_BATCH.json: whole-graph hash budgets held in the rewrite run.

    The per-item budgets for the optimize path and the pipeline are the
    constants of ``benchmarks/bench_batch.py``, which explains them, so
    the benchmark and this check cannot drift apart.
    """
    from bench_batch import (
        MAX_OPTIMIZE_HASHES_PER_ITEM,
        MAX_PIPELINE_HASHES_PER_ITEM,
    )

    data = _load(args[0] if args else "BENCH_BATCH.json")
    assert "liveness" in data, sorted(data)  # merge kept earlier keys
    rewrite = data["rewrite"]
    hashes = rewrite["hashes"]
    assert (
        hashes["optimize"]["per_item"] <= MAX_OPTIMIZE_HASHES_PER_ITEM
    ), hashes
    assert (
        hashes["pipeline"]["per_item"] <= MAX_PIPELINE_HASHES_PER_ITEM
    ), hashes
    print(f"rewrite ok: {rewrite['items']} items,",
          f"{hashes['optimize']['total']} optimize +",
          f"{hashes['pipeline']['total']} pipeline hashes,",
          f"{rewrite['speedup_vs_seed']['pipeline']:.2f}x pipeline,",
          f"{rewrite['speedup_vs_seed']['optimize']:.2f}x optimize",
          "vs seed")


# -- batch reports ------------------------------------------------------------


def check_batch_report(args: List[str]) -> None:
    """A plain batch report: schema v3, all ok, liveness budget held."""
    data = _load(args[0] if args else "/tmp/batch.json")
    assert data["format"] == "repro-batch-report", data.get("format")
    assert data["version"] == 3, data.get("version")
    assert data["tally"] == {"ok": data["items_total"]}, data["tally"]
    assert data["items_total"] >= 5
    assert all(i["status"] == "ok" and i["fingerprint"]
               for i in data["items"])
    # The LCM transform's cleanup solves liveness per temp on demand,
    # so no whole-program liveness solve runs (this corpus once
    # recorded ~14 per item, then 1).
    solves = data["summary"].get("dataflow.solve[liveness]", {})
    assert solves.get("count", 0) == 0, (
        f"{solves.get('count')} liveness solves over "
        f"{data['items_total']} items — the transform cleanup should "
        "not solve globally")
    print(f"batch ok: {data['items_total']} items,",
          f"{data['wall_time_s']:.2f}s wall, jobs={data['jobs']},",
          "0 liveness solves")


def check_stream_parity(args: List[str]) -> None:
    """The NDJSON stream collects to the same report as a plain run."""
    from repro.batch import stable_report_json

    stream_path = args[0] if args else "/tmp/batch-stream.ndjson"
    plain_path = args[1] if len(args) > 1 else "/tmp/batch-plain.json"
    with open(stream_path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    report, item_lines = lines[-1], lines[:-1]
    assert report["format"] == "repro-batch-report", "missing report line"
    # One NDJSON line per item, each index exactly once.
    assert len(item_lines) == report["items_total"], len(item_lines)
    assert sorted(line["index"] for line in item_lines) == list(
        range(report["items_total"]))
    assert all(line["status"] == "ok" for line in item_lines)
    plain = _load(plain_path)
    assert stable_report_json(report) == stable_report_json(plain), \
        "stream/plain diverge"
    print(f"stream ok: {len(item_lines)} NDJSON lines, parity holds")


def check_warm_store(args: List[str]) -> None:
    """Cold run populates the store; warm run reads it, solves nothing."""
    cold = _load(args[0] if args else "/tmp/batch-cold.json")
    warm = _load(args[1] if len(args) > 1 else "/tmp/batch-warm.json")
    assert cold["cache"]["disk_writes"] > 0, cold["cache"]
    assert cold["store"]["entries"] > 0, cold["store"]
    assert warm["cache"]["disk_hits"] > 0, warm["cache"]
    assert warm["cache"]["misses"] == 0, warm["cache"]
    assert warm["cache"]["disk_writes"] == 0, warm["cache"]

    def stable(report):
        return [(i["name"], i["status"], i["fingerprint"],
                 i["static_before"], i["static_after"])
                for i in report["items"]]

    assert stable(warm) == stable(cold), "warm store changed results"
    print(f"warm store ok: {warm['cache']['disk_hits']} disk hits,",
          f"{warm['store']['entries']} entries")


def check_shard_merge(args: List[str]) -> None:
    """Sharded runs recombine byte-identically to the unsharded run.

    Args: ``FULL.json MERGED.json SHARD1.json [SHARD2.json ...]``.
    The shard reports are checked for disjoint, complete coverage and
    correct shard blocks; the merged report must match the unsharded
    one exactly once timing fields are set aside.
    """
    from repro.batch import stable_report_json

    if len(args) < 3:
        raise SystemExit(
            "shard-merge needs FULL.json MERGED.json SHARD1.json ...")
    full = _load(args[0])
    merged = _load(args[1])
    shards = [_load(path) for path in args[2:]]
    total = len(shards)
    for i, shard in enumerate(shards):
        block = shard.get("shard")
        assert block == {
            "index": i + 1, "total": total,
            "universe": full["items_total"],
        }, (i, block)
    counted = sum(s["items_total"] for s in shards)
    assert counted == full["items_total"], (counted, full["items_total"])
    indexes = sorted(
        item["index"] for shard in shards for item in shard["items"])
    assert indexes == list(range(full["items_total"])), "shards overlap"
    assert "shard" not in merged, "merge must drop the shard block"
    assert stable_report_json(merged) == stable_report_json(full), \
        "merged shard reports != unsharded report"
    sizes = ", ".join(str(s["items_total"]) for s in shards)
    print(f"shard-merge ok: {total} shards ({sizes} items),",
          f"byte-identical to the {full['items_total']}-item run")


# -- differential fuzzing -----------------------------------------------------


def _divergence_lines(data: dict) -> List[str]:
    """Job-summary rows for every divergent item in a fuzz report."""
    lines = []
    for item in data["items"]:
        if item["status"] != "divergent":
            continue
        diff = item.get("differential", {})
        seed = diff.get("seed")
        config = diff.get("generator", {})
        first = diff["divergences"][0] if diff.get("divergences") else {}
        lines.append(
            f"| `{item['name']}` | {seed} | "
            f"stmts={config.get('statements')} "
            f"depth={config.get('max_depth')} "
            f"loop={config.get('loop_probability')} "
            f"branch={config.get('branch_probability')} | "
            f"{first.get('detail', item['message'])} |")
    return lines


def check_differential(args: List[str]) -> None:
    """A differential-fuzz report over a clean pass came back green.

    Args: ``REPORT.json [MIN_ITEMS]``.  Every item must be ``ok`` with
    an empty ``divergences`` list; a divergence prints the minting
    seed and generator config into the job summary, with the
    reproduction command.
    """
    data = _load(args[0] if args else "/tmp/fuzz.json")
    minimum = int(args[1]) if len(args) > 1 else 200
    assert data["version"] == 3, data.get("version")
    assert data["items_total"] >= minimum, (
        f"fuzz corpus shrank: {data['items_total']} < {minimum} items")
    divergent = [i for i in data["items"] if i["status"] == "divergent"]
    compared = 0
    for item in data["items"]:
        diff = item.get("differential")
        if item["status"] in ("ok", "divergent"):
            assert diff is not None, f"{item['name']}: no differential block"
            compared += diff["compared"]
    if divergent:
        rows = _divergence_lines(data)
        _step_summary([
            "## Differential fuzz: DIVERGENCES FOUND",
            "",
            "| item | seed | generator config | first divergence |",
            "|---|---|---|---|",
            *rows,
            "",
            "Reproduce one locally:",
            "```",
            "repro corpus generate --seed-range SEED:SEED+1 --out /tmp/c",
            "repro batch /tmp/c --differential --emit json",
            "```",
        ])
        names = ", ".join(i["name"] for i in divergent[:5])
        raise SystemExit(
            f"differential fuzz found {len(divergent)} miscompiled "
            f"program(s): {names} — seeds and configs in the job summary")
    assert data["tally"] == {"ok": data["items_total"]}, data["tally"]
    _step_summary([
        "## Differential fuzz: green",
        "",
        f"{data['items_total']} generated programs, {compared} "
        f"before/after executions compared, 0 divergences.",
    ])
    print(f"differential ok: {data['items_total']} programs,",
          f"{compared} runs compared, 0 divergences")


def check_differential_injection(args: List[str]) -> None:
    """The fuzzer caught the deliberately miscompiled pass.

    Args: ``REPORT.json``.  The report ran ``miscompile-dce`` (a pass
    that silently drops a live store); the check demands divergent
    records and that each carries the minting seed + generator config
    — the reproduction contract the job summary relies on.
    """
    data = _load(args[0] if args else "/tmp/fuzz-injected.json")
    divergent = [i for i in data["items"] if i["status"] == "divergent"]
    assert divergent, (
        "fault injection not detected: miscompile-dce ran but no item "
        "came back divergent — the differential oracle is broken")
    for item in divergent:
        diff = item["differential"]
        assert diff["divergences"], item["name"]
        assert isinstance(diff.get("seed"), int), (
            f"{item['name']}: divergent record lost its minting seed")
        assert diff.get("generator", {}).get("statements"), (
            f"{item['name']}: divergent record lost its generator config")
        first = diff["divergences"][0]
        assert "env" in first and "detail" in first, first
    seeds = [i["differential"]["seed"] for i in divergent]
    _step_summary([
        "## Differential fuzz: fault injection caught",
        "",
        f"`miscompile-dce` flagged divergent on {len(divergent)} of "
        f"{data['items_total']} programs (seeds: "
        f"{', '.join(map(str, seeds[:10]))}"
        + ("…" if len(seeds) > 10 else "") + ").",
    ])
    print(f"differential-injection ok: {len(divergent)}/"
          f"{data['items_total']} programs flagged divergent,",
          f"seeds attached")


# -- self-contained smokes (run + assert) -------------------------------------


def check_kill_resilience(args: List[str]) -> None:
    """Hard worker isolation: a C-call hang dies by parent SIGKILL."""
    import multiprocessing
    import time

    from repro.batch import (
        BatchConfig,
        WorkItem,
        items_from_dir,
        run_batch,
    )

    corpus = args[0] if args else "tests/corpus"
    # A real corpus plus one item that hangs inside a single C call --
    # immune to SIGALRM; only the supervisor's hard deadline (SIGKILL
    # from the parent) can end it.
    items = items_from_dir(corpus)
    items.append(
        WorkItem("spin-c", "call", "repro.batch.testing:busy_loop_c"))
    report = run_batch(items, BatchConfig(jobs=2, timeout=2.0, grace=1.0))

    assert report.tally.get("timeout") == 1, report.tally
    assert report.tally.get("ok") == len(items) - 1, report.tally
    spin = next(i for i in report.items if i.name == "spin-c")
    assert spin.status == "timeout" and "killed" in spin.message, (
        spin.status, spin.message)
    assert report.supervisor["batch.item.killed"] == 1, report.supervisor
    assert report.supervisor["batch.worker.respawn"] >= 1, report.supervisor
    # The supervisor must have reaped every worker it ever spawned.
    assert not multiprocessing.active_children(), "orphan workers"
    print("kill-resilience ok:", report.tally, report.supervisor)

    # The cancel path: two C-call hangs and no per-item timeout, so only
    # the batch deadline ends them.  At cost 0 they run last (LPT), once
    # every corpus item is done, and must come back skipped.
    items = items_from_dir(corpus)
    hung = {"spin-c-1", "spin-c-2"}
    items += [WorkItem(name, "call", "repro.batch.testing:busy_loop_c")
              for name in sorted(hung)]
    deadline = 3.0
    start = time.monotonic()
    report = run_batch(items, BatchConfig(jobs=2, deadline_s=deadline))
    elapsed = time.monotonic() - start

    for item in report.items:
        expected = "skipped" if item.name in hung else "ok"
        assert item.status == expected, (item.name, item.status,
                                         item.message)
    assert elapsed < deadline + 10.0, f"cancel took {elapsed:.1f}s"
    assert not multiprocessing.active_children(), "orphan workers"
    print(f"kill-resilience cancel ok: {report.tally} in {elapsed:.1f}s")


def check_serve(args: List[str]) -> None:
    """The serve daemon answers a cold/warm pair and shuts down clean."""
    import subprocess

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--jobs", "1"],
        stdout=subprocess.PIPE,
    )
    try:
        ready = json.loads(proc.stdout.readline())
        assert ready["type"] == "listening", ready

        from repro.service import ServeClient

        src = "x = a + b; if (p) { y = a + b; } z = a + b;"
        with ServeClient(ready["host"], ready["port"], 60) as client:
            cold = client.optimize(src)
            warm = client.optimize(src)
            stats = client.stats()
            client.shutdown()
        assert cold["status"] == "ok" and cold["cached"] is False
        assert warm["status"] == "ok" and warm["cached"] is True
        assert warm["fingerprint"] == cold["fingerprint"]
        counters = stats["counters"]
        assert counters["serve.cache.hit"] == 1, counters
        assert counters["serve.pool.dispatch"] == 1, counters
        assert stats["protocol"] == "repro-serve", stats
        # The shutdown op must end the daemon cleanly.
        assert proc.wait(timeout=30) == 0, proc.returncode
        print("serve ok:", counters)
    finally:
        proc.kill()


CHECKS: Dict[str, Callable[[List[str]], None]] = {
    "bench-trace": check_bench_trace,
    "solver-bench": check_solver_bench,
    "fused": check_fused,
    "bench-batch": check_bench_batch,
    "rewrite": check_rewrite,
    "batch-report": check_batch_report,
    "stream-parity": check_stream_parity,
    "warm-store": check_warm_store,
    "shard-merge": check_shard_merge,
    "differential": check_differential,
    "differential-injection": check_differential_injection,
    "kill-resilience": check_kill_resilience,
    "serve": check_serve,
}


def main(argv: List[str]) -> int:
    if not argv or argv[0] in ("--list", "-l"):
        for name, fn in sorted(CHECKS.items()):
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:24s} {doc}")
        return 0 if argv else 2
    name, rest = argv[0], argv[1:]
    if name not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        print(f"unknown check {name!r}; one of: {known}", file=sys.stderr)
        return 2
    try:
        CHECKS[name](rest)
    except AssertionError as exc:
        print(f"check {name} FAILED: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        print(f"check {name} FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
