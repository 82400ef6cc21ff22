"""The four workloads: inputs minted from a seed, timed passes, and the
output check.

Every workload runs in its own child process (see ``run.py``), which is
also the single load-generating process.  A child mints its inputs,
starts what it drives (nothing, batch workers per pass, or a ``repro
serve`` daemon), runs one untimed warm-up pass, then timed passes until
the requested seconds have elapsed (at least three), and finally checks
every distinct program's output with the interpreter.

Why these four (see README.md for the full table):

* ``batch-small`` -- ~1,000 small programs through ``run_batch``:
  per-item fixed costs (parse, fingerprint, IPC, records) dominate;
* ``loopy-opt`` -- 200 large loop-nested programs through
  ``optimize_source``: the analyses and the transform dominate;
* ``branchy-pipeline`` -- 200 branchy programs through the full pass
  pipeline: the only workload running the cleanup fixpoint;
* ``serve-mixed`` -- a daemon under a closed loop of two connections
  with exact repeats, reformatted repeats and fresh programs: the only
  workload where the cache tiers answer anything.
"""

from __future__ import annotations

import gc
import glob
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.batch import BatchConfig, WorkItem, items_from_dir, run_batch
from repro.batch import differential
from repro.bench.generators import GeneratorConfig, random_program
from repro.core.lifetime import measure_lifetimes
from repro.corpus.generate import profile_config
from repro.ir.serialize import cfg_from_json, cfg_to_json
from repro.lang.unparse import unparse
from repro.obs import trace
from repro.obs.fingerprint import cfg_fingerprint
from repro.obs.manager import AnalysisManager
from repro.service import ProtocolError, ServeClient

import measure

ROOT = Path(__file__).resolve().parents[2]
CORPUS_DIR = ROOT / "tests" / "corpus"

#: ``*`` is dropped from every generator: squaring inside nested
#: ``repeat`` loops grows integers without bound, and one multiply of a
#: multi-million-bit integer is a single interpreter step, so no step
#: budget bounds the output check (loopy seed 2 never returns with it).
OPERATORS = ("+", "-", "&")
#: The bench_batch.py generator, for batch-small and serve-mixed.
SMALL = GeneratorConfig(statements=14, operators=OPERATORS)
LOOPY = replace(profile_config("loopy", 40, 4), operators=OPERATORS)
BRANCHY = replace(profile_config("branchy", 40, 4), operators=OPERATORS)

#: Per-layer metrics read off the timed runs' records, with their units.
TIMED_LAYER = {
    "obs.manager.hit_ratio": "ratio",
    "batch.busy_ratio": "ratio",
    "batch.dispatch_ms_per_item": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.overhead_ms_p50": "ms",
    "service.cached_latency_p50_ms": "ms",
}

#: Interpreter input decks per program in the output check.
DECKS = 2
#: Batch jobs, daemon workers and client connections: the benchmark is
#: sized for two cores.
JOBS = 2
MIN_PASSES = 3


def _seeds(label: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _sources(label: str, seed: int, count: int,
             config: GeneratorConfig) -> List[str]:
    return [unparse(random_program(s, config))
            for s in _seeds(label, seed, count)]


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


@dataclass
class Item:
    """One timed unit of work: one program optimised once."""

    key: str
    ok: bool
    latency_ms: float
    fingerprint: str = ""
    message: str = ""


@dataclass
class Pass:
    wall_s: float
    #: Untraced optimiser time of the pass: the wall time in-process,
    #: the summed worker-side item time for batch and serve.
    work_ms: float
    items: List[Item]


@dataclass
class Reference:
    """What the check phase needs to know about one distinct program."""

    payload: str
    kind: str
    #: The optimised program as serialised JSON: text keeps the timed
    #: passes' heap, and so their garbage-collection pauses, small.
    output: str
    fingerprint: str
    static_before: int
    static_after: int


class _SamePrograms:
    """A workload that optimises the same programs in every pass; the
    warm-up pass keeps their outputs for the check."""

    pipeline = False

    def __init__(self) -> None:
        self.references: Dict[str, Reference] = {}
        self.hits = self.misses = 0  # solution memo, timed passes

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def check_references(self) -> Dict[str, Reference]:
        return self.references

    def quality_keys(self) -> None:
        return None  # every program, in every pass

    def latencies(self, passes: List[Pass]) -> List[float]:
        return fastest_per_program(passes)


class InProcess(_SamePrograms):
    """``optimize_source`` in this process, one fresh manager per program.

    A fresh manager per program is what ``repro opt`` gives each file.
    The programs are distinct, so a manager shared across a pass could
    not hit; it would only keep every program's solutions alive, and
    the growing heap would turn full garbage collections into the p95.
    """

    def __init__(self, name: str, config: GeneratorConfig, pipeline: bool,
                 seed: int, scale: float) -> None:
        super().__init__()
        self.name = name
        self.pipeline = pipeline
        # 200 programs: a p95 over per-program values needs 10 beyond it.
        sources = _sources(name, seed, _scaled(200, scale), config)
        self.programs = {f"p{i:03d}": src for i, src in enumerate(sources)}

    def start(self) -> None:
        # Unlike a `repro opt` process, this one optimises hundreds of
        # programs; without this, every full collection would re-scan
        # the modules and inputs, a pause per ~15 programs that lands
        # right at the p95.
        gc.freeze()

    def run_pass(self, index: int, warmup: bool) -> Pass:
        items = []
        managers = []
        clock = time.perf_counter
        start = clock()
        for key, source in self.programs.items():
            manager = AnalysisManager()
            begin = clock()
            try:
                outcome = api.optimize_source(
                    source, "lcm", pipeline=self.pipeline, manager=manager
                )
            except Exception as exc:  # a failed item is a record
                items.append(Item(key, False, 0.0, message=repr(exc)))
                continue
            items.append(Item(key, True, (clock() - begin) * 1000.0,
                              outcome.fingerprint))
            managers.append(manager.stats)
            if warmup:
                self.references[key] = Reference(
                    source, "source", cfg_to_json(outcome.cfg),
                    outcome.fingerprint,
                    outcome.static_before, outcome.static_after,
                )
        wall = clock() - start
        if not warmup:
            self.hits += sum(stats.hits for stats in managers)
            self.misses += sum(stats.misses for stats in managers)
        return Pass(wall, wall * 1000.0, items)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def timed_layer_metrics(self, passes: List[Pass]) -> Dict:
        return {"obs.manager.hit_ratio": _ratio(self.hits, self.misses)}

    def traced_pass(self) -> None:
        self.run_pass(0, warmup=False)


class Batch(_SamePrograms):
    """``run_batch`` with two forked workers, as ``repro batch`` does."""

    name = "batch-small"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__()
        self.items = items_from_dir(str(CORPUS_DIR))
        sources = _sources(self.name, seed, _scaled(1000, scale), SMALL)
        self.items += [WorkItem(f"gen{i:04d}", "source", src)
                       for i, src in enumerate(sources)]

    def run_pass(self, index: int, warmup: bool) -> Pass:
        config = BatchConfig(jobs=JOBS, timeout=60.0, keep_ir=warmup)
        report = run_batch(self.items, config)
        items = []
        payloads = {item.name: item for item in self.items}
        for record in report.items:
            items.append(Item(record.name, record.ok, record.duration_ms,
                              record.fingerprint or "", record.message))
            if warmup and record.ok:
                item = payloads[record.name]
                self.references[record.name] = Reference(
                    item.payload, item.kind, record.ir,
                    record.fingerprint, record.static_before,
                    record.static_after,
                )
            elif not warmup:
                self.hits += record.cache.get("hits", 0)
                self.misses += record.cache.get("misses", 0)
        work = sum(record.duration_ms for record in report.items)
        return Pass(report.wall_time_s, work, items)

    def peak_rss_mb(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_maxrss / 1024.0

    def timed_layer_metrics(self, passes: List[Pass]) -> Dict:
        busy = [p.work_ms / (p.wall_s * 1000.0 * JOBS) for p in passes]
        dispatch = [
            (p.wall_s * 1000.0 * JOBS - p.work_ms) / len(p.items)
            for p in passes
        ]
        return {
            "obs.manager.hit_ratio": _ratio(self.hits, self.misses),
            "batch.busy_ratio": statistics.median(busy),
            "batch.dispatch_ms_per_item": statistics.median(dispatch),
        }

    def traced_pass(self) -> None:
        # What a batch worker calls per item, with the one warm manager
        # a worker keeps for every item it serves.
        manager = AnalysisManager()
        for item in self.items:
            cfg = api.load_cfg(item.payload, item.kind)
            api.optimize_cfg(cfg, "lcm", manager=manager)


@dataclass(frozen=True)
class Request:
    key: str
    source: str


class Serve:
    """A ``repro serve`` daemon under a closed loop of two connections.

    Each pass is a seeded shuffle of exact repeats of a hot set
    (answered by the response cache), whitespace-reformatted repeats of
    it (new text, same graph: a worker's memo answers) and programs
    never seen before.
    """

    name = "serve-mixed"
    pipeline = False
    HOT = 32
    #: Requests per pass: (exact repeats, reformatted repeats, fresh).
    MIX = (500, 250, 500)

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.mix = tuple(_scaled(n, scale) for n in self.MIX)
        hot = _sources("serve-hot", seed, _scaled(self.HOT, scale), SMALL)
        self.hot = {f"h{i:02d}": src for i, src in enumerate(hot)}
        self.fresh: Dict[str, str] = {}
        self.streams: Dict[int, List[Request]] = {}
        self.daemon: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self.hits = self.misses = 0
        self.dispatched: List[Tuple[float, float]] = []
        self.cached_rtt: List[float] = []
        self.stats_before: Dict = {}
        self.stats_after: Dict = {}
        self.stream(0)

    # -- the request stream ---------------------------------------------

    def stream(self, index: int) -> List[Request]:
        """The requests of pass *index* (0 is the warm-up)."""
        if index in self.streams:
            return self.streams[index]
        rng = random.Random(f"serve-order:{self.seed}:{index}")
        exact, reformatted, fresh = self.mix
        keys = sorted(self.hot)
        requests = [Request(k, self.hot[k])
                    for k in (rng.choice(keys) for _ in range(exact))]
        for variant in range(reformatted):
            key = rng.choice(keys)
            number = index * 100_000 + variant
            requests.append(Request(key, _reformat(self.hot[key], number)))
        sources = _sources(f"serve-fresh-{index}", self.seed, fresh, SMALL)
        for i, source in enumerate(sources):
            key = f"f{index}.{i:03d}"
            self.fresh[key] = source
            requests.append(Request(key, source))
        rng.shuffle(requests)
        self.streams[index] = requests
        return requests

    # -- the daemon ------------------------------------------------------

    def start(self) -> None:
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", str(JOBS),
             "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        line = self.daemon.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("repro serve exited before listening")
        ready = json.loads(line)
        self.address = (ready["host"], ready["port"])
        with self._client() as client:
            client.ping()

    def stop(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        try:
            if daemon.poll() is None and self.address is not None:
                with self._client() as client:
                    client.shutdown()
            daemon.wait(timeout=30)
        except (OSError, ProtocolError, subprocess.TimeoutExpired):
            daemon.kill()
            daemon.wait()
        finally:
            daemon.stdout.close()

    def _client(self) -> ServeClient:
        return ServeClient(*self.address, timeout=120.0)

    def _send_all(self, requests: List[Request], keep_ir: bool = False):
        """Send *requests* over two connections, closed loop; returns
        ``(request, rtt_ms, record or None, error)`` in input order."""
        results: List = [None] * len(requests)

        def connection(lane: int) -> None:
            clock = time.perf_counter
            with self._client() as client:
                for i in range(lane, len(requests), JOBS):
                    request = requests[i]
                    begin = clock()
                    try:
                        record = client.optimize(request.source,
                                                 keep_ir=keep_ir)
                        error = ""
                    except (OSError, ProtocolError) as exc:
                        record, error = None, repr(exc)
                    rtt = (clock() - begin) * 1000.0
                    results[i] = (request, rtt, record, error)

        threads = [threading.Thread(target=connection, args=(lane,))
                   for lane in range(JOBS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    # -- passes ------------------------------------------------------------

    def run_pass(self, index: int, warmup: bool) -> Pass:
        requests = self.stream(index)
        if index == 1:
            with self._client() as client:
                self.stats_before = client.stats()
        start = time.perf_counter()
        results = self._send_all(requests)
        wall = time.perf_counter() - start
        items = []
        work = 0.0
        for request, rtt, record, error in results:
            ok = _record_ok(record)
            message = error or ("" if ok else json.dumps(record)[:200])
            fingerprint = record.get("fingerprint", "") if ok else ""
            items.append(Item(request.key, ok, rtt, fingerprint, message))
            if not ok:
                continue
            if not record.get("cached"):
                work += record["duration_ms"]
            if warmup:
                continue
            if record.get("cached"):
                self.cached_rtt.append(rtt)
            else:
                self.dispatched.append((rtt, record["duration_ms"]))
                self.hits += record["cache"].get("hits", 0)
                self.misses += record["cache"].get("misses", 0)
        if not warmup:
            with self._client() as client:
                self.stats_after = client.stats()
        return Pass(wall, work, items)

    def check_references(self) -> Dict[str, Reference]:
        """Replay every distinct program with ``keep_ir`` (untimed)."""
        programs = dict(self.hot)
        programs.update(self.fresh)
        requests = [Request(k, s) for k, s in sorted(programs.items())]
        references = {}
        for request, _, record, _ in self._send_all(requests, keep_ir=True):
            if not _record_ok(record) or "ir" not in record:
                continue
            references[request.key] = Reference(
                request.source, "source", record["ir"],
                record["fingerprint"], record["static_before"],
                record["static_after"],
            )
        return references

    def quality_keys(self) -> set:
        """The hot set and the fresh programs of the warm-up and the
        first timed passes: the same programs however many passes the
        machine's speed allowed."""
        keys = set(self.hot)
        for index in range(MIN_PASSES + 1):
            keys.update(request.key for request in self.streams[index]
                        if request.key in self.fresh)
        return keys

    def latencies(self, passes: List[Pass]) -> List[float]:
        # Every request is its own event under load; fresh programs are
        # never sent twice, so there is no per-program best to take.
        return every_request(passes)

    def peak_rss_mb(self) -> float:
        """The largest VmHWM over the daemon and its worker processes."""
        pids = [self.daemon.pid] + _children(self.daemon.pid)
        return max(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def timed_layer_metrics(self, passes: List[Pass]) -> Dict:
        before = self.stats_before.get("counters", {})
        after = self.stats_after.get("counters", {})

        def delta(name: str) -> int:
            return after.get(name, 0) - before.get(name, 0)

        hit, miss = delta("serve.cache.hit"), delta("serve.cache.miss")
        overhead = [rtt - duration for rtt, duration in self.dispatched]
        return {
            "obs.manager.hit_ratio": _ratio(self.hits, self.misses),
            "service.cache_hit_ratio": _ratio(hit, miss),
            "service.overhead_ms_p50": statistics.median(overhead),
            "service.cached_latency_p50_ms":
                statistics.median(self.cached_rtt),
        }

    def traced_pass(self) -> None:
        # What the workers execute for the warm-up stream: every request
        # the response cache cannot answer, on one warm manager.
        manager = AnalysisManager()
        seen = set()
        for request in self.stream(0):
            if request.source in seen:
                continue
            seen.add(request.source)
            cfg = api.load_cfg(request.source)
            api.optimize_cfg(cfg, "lcm", manager=manager)


def _reformat(source: str, number: int) -> str:
    """*source* with different whitespace: a new text, the same graph.

    The leading whitespace line spells *number* in binary with spaces
    and tabs, so every variant is a distinct request (and response-cache
    key).
    """
    bits = format(number + 1, "b")
    header = "".join(" " if bit == "1" else "\t" for bit in bits)
    return header + "\n" + source.replace("    ", "\t")


def _record_ok(record) -> bool:
    return (
        record is not None
        and record.get("type") == "result"
        and record.get("status") == "ok"
    )


def _children(pid: int) -> List[int]:
    """The process ids whose parent is *pid* (from ``/proc/*/stat``)."""
    pids = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the process exited during the scan
            continue
        if int(fields[1]) == pid:
            pids.append(int(path.split("/")[2]))
    return pids


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _ratio(part: int, rest: int) -> float:
    return part / (part + rest) if part + rest else 0.0


def make(name: str, seed: int, scale: float = 1.0):
    """Mint the inputs of workload *name* for *seed*."""
    if name == "batch-small":
        return Batch(seed, scale)
    if name == "loopy-opt":
        return InProcess(name, LOOPY, False, seed, scale)
    if name == "branchy-pipeline":
        return InProcess(name, BRANCHY, True, seed, scale)
    if name == "serve-mixed":
        return Serve(seed, scale)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# The output check.
# ---------------------------------------------------------------------------


@contextmanager
def _counting_runs(log: List):
    """Record every interpreter run ``diff_cfgs`` makes, as ``(cfg,
    result)``, so one execution serves both the equivalence verdict and
    the dynamic evaluation counts."""
    real = differential.run

    def counted(cfg, *args, **kwargs):
        result = real(cfg, *args, **kwargs)
        log.append((cfg, result))
        return result

    differential.run = counted
    try:
        yield
    finally:
        differential.run = real


def check(references: Dict[str, Reference], pipeline: bool, seed: int,
          quality_keys=None):
    """Run every reference output against its source in the interpreter.

    Returns ``(failures, quality)``: failures maps a program key to why
    its output is wrong; quality holds the paper's three output
    measures summed over the programs in *quality_keys* (None: all).
    """
    failures: Dict[str, str] = {}
    static = [0, 0]
    dynamic = [0, 0]
    live_points = 0
    for key in sorted(references):
        ref = references[key]
        original = api.load_cfg(ref.payload, ref.kind)
        output = cfg_from_json(ref.output)
        if cfg_fingerprint(output) != ref.fingerprint:
            failures[key] = "serialised output does not match its fingerprint"
            continue
        log: List = []
        deck_seed = zlib.crc32(f"{seed}:{key}".encode())
        with _counting_runs(log):
            block = differential.diff_cfgs(
                original, output, runs=DECKS, seed=deck_seed,
                compare_decisions=not pipeline,
            )
        if block["divergences"]:
            failures[key] = block["divergences"][0]["detail"]
        elif block["compared"] == 0:
            failures[key] = "no input deck reached the exit"
        if quality_keys is not None and key not in quality_keys:
            continue
        for cfg, result in log:
            if cfg is original and result.reached_exit:
                dynamic[0] += result.total_evaluations
            elif cfg is output:
                dynamic[1] += result.total_evaluations
        static[0] += ref.static_before
        static[1] += ref.static_after
        temps = output.variables() - original.variables()
        live_points += measure_lifetimes(output, temps).total_live_points
    quality = {
        "static_ratio": static[1] / static[0] if static[0] else 0.0,
        "dynamic_ratio": dynamic[1] / dynamic[0] if dynamic[0] else 0.0,
        "temp_live_points": live_points,
    }
    return failures, quality


# ---------------------------------------------------------------------------
# The child-process roles.
# ---------------------------------------------------------------------------


def _untraced_pass(workload, index: int, warmup: bool) -> Pass:
    # An installed tracer would add its spans' cost to every timing.
    if trace.is_active():
        raise RuntimeError("a tracer is installed; timed passes need "
                           "tracing off")
    return workload.run_pass(index, warmup=warmup)


def timed(workload, seconds: float, seed: int, min_tail: int) -> Dict:
    """Warm up, time passes for *seconds*, check; the raw result."""
    try:
        warm = _untraced_pass(workload, 0, warmup=True)
        passes: List[Pass] = []
        began = time.monotonic()
        while (len(passes) < MIN_PASSES
               or time.monotonic() - began < seconds):
            passes.append(
                _untraced_pass(workload, len(passes) + 1, warmup=False)
            )
            if len(passes) == MIN_PASSES:
                # After a fixed amount of work: the daemon's memo grows
                # with every pass a faster machine fits in.
                peak = workload.peak_rss_mb()
        layer = workload.timed_layer_metrics(passes)
        references = workload.check_references()
    finally:
        workload.stop()
    failures, quality = check(references, workload.pipeline, seed,
                              workload.quality_keys())
    return summarise(workload, warm, passes, references, failures, quality,
                     peak, layer, min_tail)


def summarise(workload, warm: Pass, passes: List[Pass], references,
              failures: Dict[str, str], quality: Dict, peak: float,
              layer: Dict, min_tail: int) -> Dict:
    """Fold the passes and the check into the child's result document."""
    attempted = failed = 0
    reasons: List[str] = []
    for p in [warm] + passes:
        for item in p.items:
            if p is not warm:
                attempted += 1
            reason = _failure(item, references, failures)
            if reason is None:
                continue
            if p is not warm:
                failed += 1
            if len(reasons) < 5:
                reasons.append(f"{item.key}: {reason}")
    latencies = workload.latencies(passes)
    # The same statistic with one pass left out, once per pass: how much
    # the reported value depends on any single pass (the spread that
    # `run.py compare` reads).
    held_out = [workload.latencies(passes[:j] + passes[j + 1:])
                for j in range(len(passes))]
    throughput = [sum(i.ok for i in p.items) / p.wall_s for p in passes]

    def pct(q):
        return (measure.percentile(latencies, q, min_tail=min_tail),
                "ms",
                [measure.percentile(v, q, min_tail=min_tail)
                 for v in held_out])

    end_to_end = {
        "throughput_items_per_s": (statistics.median(throughput), "items/s",
                                   throughput),
        "latency_p50_ms": pct(50),
        "latency_p95_ms": pct(95),
        "peak_rss_mb": (peak, "MB", [peak]),
        "static_ratio": (quality["static_ratio"], "ratio", []),
        "dynamic_ratio": (quality["dynamic_ratio"], "ratio", []),
        "temp_live_points": (quality["temp_live_points"], "count", []),
    }
    return {
        "workload": workload.name,
        "passes": len(passes),
        "programs": len(references),
        "latency_samples": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "end_to_end": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in end_to_end.items()
        },
        # Every workload reports every timed-run layer metric; the ones
        # it has no such layer for read 0.
        "timed_layer": {
            name: {"value": layer.get(name, 0.0), "unit": unit}
            for name, unit in TIMED_LAYER.items()
        },
        "work_ms": statistics.median([p.work_ms for p in passes]),
    }


def fastest_per_program(passes: List[Pass]) -> List[float]:
    """Each program's fastest timed run, one value per program.

    Other processes on the machine can only add time to a run, so the
    fastest of a program's runs is its cost with the least interference.
    """
    best: Dict[str, float] = {}
    for p in passes:
        for item in p.items:
            if item.ok:
                best[item.key] = min(item.latency_ms,
                                     best.get(item.key, math.inf))
    return list(best.values())


def every_request(passes: List[Pass]) -> List[float]:
    """Every OK request's round trip, pooled over the passes."""
    return [item.latency_ms for p in passes for item in p.items if item.ok]


def _failure(item: Item, references, failures) -> Optional[str]:
    if not item.ok:
        return item.message or "failed"
    if item.key not in references:
        return "no reference output (warm-up or replay failed)"
    if item.key in failures:
        return f"output check: {failures[item.key]}"
    if item.fingerprint != references[item.key].fingerprint:
        return "output differs from the checked output"
    return None


def traced(workload, trace_out: Optional[str]) -> Dict:
    """One in-process pass under layer wrappers and the Tracer."""
    import layers

    recorder = layers.SpanRecorder()
    layers.install(recorder)
    gc.freeze()  # as InProcess.start does for the timed passes
    tracer = trace.Tracer()
    with trace.tracing(tracer):
        recorder.root(workload.traced_pass)
    metrics, wall = layers.layer_metrics(recorder, tracer.counters)
    if trace_out:
        recorder.write(trace_out)
    return {
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "wall_ms": wall * 1000.0,
        "spans": len(recorder.spans),
    }
