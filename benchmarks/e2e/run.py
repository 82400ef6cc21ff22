"""End-to-end benchmark: four workloads, output checks, layer self times.

Run from the repository root::

    python3 benchmarks/e2e/run.py                    # all four, table + JSON
    python3 benchmarks/e2e/run.py --workload loopy-opt --seed 1 \\
        --seconds 10 --trace 0                      # one workload
    python3 benchmarks/e2e/run.py --smoke            # all four, 1/20 size
    python3 benchmarks/e2e/run.py compare A.json B.json

For one workload the steps are: five spawns of a fresh child to time
set-up (the last of them goes on to run the workload), the timed child
(warm-up, timed passes with tracing off, output check), and with
``--trace 1`` a separate traced child that times every layer from the
outside.  Every metric is printed by name and unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``).  The exit
status is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_SPAWNS = 5
SMOKE_SCALE = 1.0 / 20.0
#: Wall-clock budget of one workload's children: a run must end within
#: 180 s, so a hung child is killed in time to report the failure.
WORKLOAD_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    """A child process exited non-zero, timed out or printed no result."""


def child_env() -> Dict[str, str]:
    """The environment a child needs to import ``repro`` from source."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
    return env


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(role: str, args, deadline: float,
          extra: List[str] = ()) -> Tuple[float, Dict]:
    """Run one child, killed at *deadline* (``time.monotonic``);
    returns (seconds until it was ready, its result)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ] + (["--smoke"] if args.smoke else []) + list(extra)
    start = time.perf_counter()
    ready_s: Optional[float] = None
    result: Optional[Dict] = None
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=child_env(), start_new_session=True)
    expired = []

    def expire() -> None:
        expired.append(True)
        kill_group(child.pid)

    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               expire)
    watchdog.start()
    try:
        for line in child.stdout:
            if line.startswith("E2E-READY"):
                ready_s = time.perf_counter() - start
            elif line.startswith("E2E-RESULT "):
                result = json.loads(line[len("E2E-RESULT "):])
            else:
                sys.stderr.write(line)
        code = child.wait()
    finally:
        watchdog.cancel()
        kill_group(child.pid)  # the child, or anything it left behind
        child.wait()
        child.stdout.close()
    if expired:
        raise ChildFailed(f"{role} child of {args.workload} ran past the "
                          f"{WORKLOAD_LIMIT_S:g} s budget")
    if code != 0:
        raise ChildFailed(f"{role} child of {args.workload} exited {code}")
    if role != "traced" and ready_s is None:
        raise ChildFailed(f"{role} child never reported ready")
    return ready_s or 0.0, result or {}


def run_workload(args, trace_out: Optional[Path]) -> Dict:
    """All children of one workload, folded into its result entry."""
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    spawns = 1 if args.smoke else SETUP_SPAWNS
    setups = [spawn("setup", args, deadline)[0] for _ in range(spawns - 1)]
    ready, timed = spawn("timed", args, deadline)
    setups.append(ready)
    end_to_end = dict(timed["end_to_end"])
    end_to_end["setup_s"] = {
        "value": statistics.median(setups), "unit": "s", "samples": setups
    }
    entry = {
        "seed": args.seed,
        "correct": timed["failed"] == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "fail_ratio": timed["failed"] / timed["attempted"],
        "failures": timed["failures"],
        "passes": timed["passes"],
        "programs": timed["programs"],
        "latency_samples": timed["latency_samples"],
        "end_to_end": end_to_end,
    }
    if args.trace:
        extra = ["--trace-out", str(trace_out)] if trace_out else []
        _, traced = spawn("traced", args, deadline, extra)
        per_layer = dict(traced["metrics"])
        per_layer.update(timed["timed_layer"])
        per_layer["trace.overhead_ratio"] = {
            "value": traced["wall_ms"] / timed["work_ms"], "unit": "ratio"
        }
        entry["per_layer"] = per_layer
        entry["traced_wall_ms"] = traced["wall_ms"]
        entry["spans"] = traced["spans"]
    return entry


def print_entry(name: str, entry: Dict) -> None:
    print(f"== {name}  seed {entry['seed']}  passes {entry['passes']}  "
          f"programs {entry['programs']}  latency samples "
          f"{entry['latency_samples']}  attempted {entry['attempted']}  "
          f"failed {entry['failed']}  fail_ratio {entry['fail_ratio']:g}")
    for failure in entry["failures"]:
        print(f"   FAIL {failure}")
    for metric, data in entry["end_to_end"].items():
        spread = measure.spread(data.get("samples") or [])
        print(f"   {metric:<34} {data['value']:>14.6g} {data['unit']:<8}"
              f" spread {spread:.1%}")
    wall = entry.get("traced_wall_ms")
    for metric, data in entry.get("per_layer", {}).items():
        share = ""
        if metric.endswith(".self_ms") and wall:
            share = f" {data['value'] / wall:6.1%} of traced wall"
        print(f"   {metric:<34} {data['value']:>14.6g} {data['unit']:<8}"
              f"{share}")


def final_line(entry: Dict, spec: Dict, traced: bool) -> Dict:
    """The last output line for a run of one workload."""
    group = spec["per_layer"] if traced else spec["end_to_end"]
    source = entry["per_layer"] if traced else entry["end_to_end"]
    metrics = {
        m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
        for m in group
    }
    return {
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


def main_run(args, spec: Dict) -> int:
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke:
        args.seconds = 0.0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        names = [args.workload]
    trace_dir = Path(args.trace_out) if args.trace_out else None
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)
    entries = {}
    for name in names:
        args_one = argparse.Namespace(**vars(args))
        args_one.workload = name
        trace_out = trace_dir / f"{name}.spans.json" if trace_dir else None
        try:
            entries[name] = run_workload(args_one, trace_out)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_entry(name, entries[name])
        sys.stdout.flush()
    document = {
        "format": "repro-e2e-results",
        "version": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "workloads": entries,
    }
    out = args.out
    if out is None and args.workload == "all":
        out = str(HERE / "out" / f"seed{args.seed}.json")
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(document, indent=1) + "\n")
        print(f"results: {out}")
    correct = all(entry["correct"] for entry in entries.values())
    if len(entries) == 1:
        (entry,) = entries.values()
        print(json.dumps(final_line(entry, spec, bool(args.trace))))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(e["attempted"] for e in entries.values()),
            "failed": sum(e["failed"] for e in entries.values()),
            "results": out,
        }))
    return 0 if correct else 1


def main_child(args) -> int:
    import workloads

    scale = SMOKE_SCALE if args.smoke else 1.0
    workload = workloads.make(args.workload, args.seed, scale)
    if args.role == "traced":
        result = workloads.traced(workload, args.trace_out)
    else:
        workload.start()
        print("E2E-READY", flush=True)
        if args.role == "setup":
            workload.stop()
            return 0
        min_tail = 0 if args.smoke else measure.MIN_TAIL
        result = workloads.timed(workload, args.seconds, args.seed, min_tail)
    print("E2E-RESULT " + json.dumps(result), flush=True)
    return 0


def main_compare(argv: List[str], spec: Dict) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="apply BENCHMARK.json's bounds to two results files",
    )
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    rows = measure.compare(base, new, spec)
    print(f"base {args.base}\nnew  {args.new}")
    print(f"{'workload':<18} {'metric':<24} {'base':>12} {'new':>12} "
          f"{'ratio':>8}  verdict")
    for row in rows:
        ratio = f"{row['ratio']:.4f}" if row["ratio"] is not None else "-"
        print(f"{row['workload']:<18} {row['metric']:<24} "
              f"{row['base']:>12.6g} {row['new']:>12.6g} {ratio:>8}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def parse_args(argv: List[str], spec: Dict):
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark of the LCM reproduction "
        "(see benchmarks/e2e/README.md)",
    )
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w["name"]
                                           for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 also runs the traced child and prints "
                        "the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, minimum passes, one set-up spawn")
    parser.add_argument("--out", help="write the results JSON here")
    parser.add_argument("--trace-out",
                        help="directory (child: file) for the traced "
                        "run's spans")
    parser.add_argument("--role", choices=("setup", "timed", "traced"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(SPEC_PATH.read_text())
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:], spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    args = parse_args(argv, spec)
    if args.role:
        return main_child(args)
    return main_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
