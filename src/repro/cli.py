"""Command-line interface: compile, optimise, run and audit programs.

Usage (also via ``python -m repro``)::

    repro compile prog.mini                  # lower to IR and print it
    repro opt prog.mini --strategy lcm       # optimise, print the result
    repro opt prog.mini --pipeline           # full pass pipeline
    repro opt prog.mini --emit json          # machine-readable output
    repro opt prog.mini --emit dot           # Graphviz
    repro run prog.mini -i n=5 -i a=3        # execute, print final env
    repro run prog.mini --optimized          # ... the optimised program
    repro audit prog.mini --expr "a + b"     # per-block analysis facts
    repro report prog.mini                   # strategy comparison table
    repro batch tests/corpus --jobs 4        # whole-corpus parallel driver
    repro batch DIR --stream --max-failures 3   # NDJSON stream, early exit
    repro batch DIR --shard 2/3 --emit json  # deterministic corpus shard
    repro batch merge r1.json r2.json r3.json   # recombine shard reports
    repro batch corpus.ndjson --differential    # fuzz: compare before/after
    repro corpus generate --seed-range 0:200 --profile loopy --out DIR
    repro serve --jobs 4 --timeout 10        # long-lived request daemon
    repro --trace out.json opt prog.mini     # + JSON trace of all analyses
    repro --no-cache audit prog.mini --full  # disable solution memoization
    repro --cache-dir .repro-cache opt p.mini   # persistent on-disk cache
    repro cache stats --cache-dir .repro-cache  # inspect / gc / clear it
    repro cache gc --cache-dir D --max-bytes N  # LRU-evict to a size budget

Input files hold mini-language source (see :mod:`repro.lang`); files
ending in ``.json`` are read as serialised CFGs instead.  Program
loading and the optimize/analyze operations themselves go through the
:mod:`repro.api` facade — the same entry points the batch workers and
the serve daemon use.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro import api
from repro.bench.harness import Table
from repro.bench.metrics import measure_strategy
from repro.core.pipeline import available_strategies
from repro.interp.machine import run
from repro.ir.cfg import CFG
from repro.ir.dot import cfg_to_dot
from repro.ir.expr import parse_expr
from repro.ir.pretty import pretty_cfg
from repro.ir.serialize import cfg_to_json
from repro.obs.manager import AnalysisManager
from repro.obs.store import SolutionStore
from repro.obs.trace import Tracer, activate, deactivate


class CliError(Exception):
    """User-facing failure (bad arguments, bad input file)."""


def load_program(path: str) -> CFG:
    """Read a program: mini-language source, or a ``.json`` CFG dump."""
    try:
        return api.load_cfg(path, kind=api.KIND_PATH)
    except api.SourceError as exc:
        raise CliError(str(exc)) from exc


def _emit(cfg: CFG, fmt: str, out) -> None:
    if fmt == "text":
        print(pretty_cfg(cfg), file=out)
    elif fmt == "json":
        print(cfg_to_json(cfg), file=out)
    elif fmt == "dot":
        print(cfg_to_dot(cfg), file=out)
    else:
        raise CliError(f"unknown emit format {fmt!r}")


def _parse_bindings(pairs: Sequence[str]) -> Dict[str, int]:
    env: Dict[str, int] = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"bad input binding {pair!r}; expected name=value")
        name, _, value = pair.partition("=")
        try:
            env[name.strip()] = int(value)
        except ValueError as exc:
            raise CliError(f"bad input binding {pair!r}: {exc}") from exc
    return env


# -- subcommands -------------------------------------------------------------

def cmd_compile(args, out) -> int:
    cfg = load_program(args.file)
    _emit(cfg, args.emit, out)
    return 0


def cmd_opt(args, out) -> int:
    cfg = load_program(args.file)
    outcome = api.optimize_cfg(
        cfg, args.strategy, pipeline=args.pipeline, manager=args.manager
    )
    transformed = outcome.cfg
    if args.pipeline:
        print(f"; {outcome.description}", file=out)
        compare_decisions = False  # the pipeline may fold branches
    else:
        if args.emit == "text":
            for line in outcome.description.splitlines():
                print(f"; {line}", file=out)
        compare_decisions = True  # strategies never touch branches
    _emit(transformed, args.emit, out)
    if args.verify:
        from repro.core.verify import verify_transformation

        expect_safe = not args.pipeline and args.strategy != "licm"
        verdict = verify_transformation(
            cfg,
            transformed,
            compare_decisions=compare_decisions,
            expect_safe=expect_safe,
        )
        for line in verdict.describe().splitlines():
            print(f"; {line}", file=out)
        if not verdict.ok:
            return 1
    return 0


def cmd_run(args, out) -> int:
    cfg = load_program(args.file)
    if args.optimized:
        cfg = api.optimize_cfg(cfg, args.strategy, manager=args.manager).cfg
    env = _parse_bindings(args.input or [])
    result = run(cfg, env, max_steps=args.max_steps)
    if not result.reached_exit:
        print(f"program did not finish within {args.max_steps} steps", file=out)
        return 1
    for name in sorted(result.env):
        print(f"{name} = {result.env[name]}", file=out)
    print(f"; {result.total_evaluations} expression evaluations", file=out)
    return 0


def cmd_audit(args, out) -> int:
    cfg = load_program(args.file)
    if args.full:
        from repro.core.report import optimization_report

        print(
            optimization_report(
                cfg,
                strategy=args.strategy,
                title=args.file,
                manager=args.manager,
            ),
            file=out,
        )
        return 0
    outcome = api.analyze_cfg(cfg, manager=args.manager)
    if args.expr:
        wanted = str(parse_expr(args.expr))
        if wanted not in outcome.placements:
            known = ", ".join(outcome.expressions)
            raise CliError(
                f"{args.expr!r} does not occur in the program; "
                f"candidates: {known or '(none)'}"
            )
        exprs = [wanted]
    else:
        exprs = list(outcome.expressions)
    for expr in exprs:
        decision = outcome.placements[expr]
        inserts = decision["insert_edges"]
        deletes = decision["delete_blocks"]
        print(f"{expr}:", file=out)
        print(f"  INSERT on edges : {', '.join(inserts) or '(none)'}", file=out)
        print(f"  DELETE in blocks: {', '.join(deletes) or '(none)'}", file=out)
    return 0


def _parse_shard(spec: str):
    """``--shard i/n`` (1-based) -> 0-based ``(index, total)``."""
    head, sep, tail = spec.partition("/")
    try:
        if not sep:
            raise ValueError("missing '/'")
        index, total = int(head), int(tail)
    except ValueError as exc:
        raise CliError(
            f"bad shard spec {spec!r}; expected i/n, e.g. 2/3"
        ) from exc
    if total < 1 or not 1 <= index <= total:
        raise CliError(
            f"bad shard spec {spec!r}: index must be in 1..n"
        )
    return index - 1, total


def _cmd_batch_merge(args, out) -> int:
    """``repro batch merge R1.json R2.json ...``: recombine shard reports."""
    from repro.batch import merge_report_dicts

    if not args.reports:
        raise CliError("merge needs at least one report file")
    reports = []
    for path in args.reports:
        try:
            with open(path) as handle:
                reports.append(json.load(handle))
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read report {path}: {exc}") from exc
    try:
        merged = merge_report_dicts(reports)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(json.dumps(merged, indent=2), file=out)
    bad = {k: v for k, v in merged["tally"].items() if k != "ok"}
    if bad:
        total = sum(bad.values())
        print(
            f"error: {total}/{merged['items_total']} items failed: "
            + ", ".join(f"{v} {k}" for k, v in sorted(bad.items())),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_batch(args, out) -> int:
    import time as time_module

    from repro.batch import (
        BatchConfig,
        collect_report,
        iter_batch,
        run_batch,
        shard_items,
    )
    from repro.corpus import load_corpus

    if args.dir == "merge":
        return _cmd_batch_merge(args, out)
    if args.reports:
        raise CliError(
            "unexpected extra arguments: "
            + " ".join(args.reports)
            + " (report files are only accepted after 'merge')"
        )
    try:
        items = load_corpus(
            args.dir, recursive=args.recursive, allow_call=args.allow_call
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    shard = None
    positions = {item.name: i for i, item in enumerate(items)}
    universe = len(items)
    if args.shard:
        index, total = _parse_shard(args.shard)
        shard = {"index": index + 1, "total": total, "universe": universe}
        items = shard_items(items, index, total)
    try:
        config = BatchConfig(
            pass_=args.strategy,
            pipeline=args.pipeline,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            max_tasks_per_worker=args.recycle_after,
            stop_after_failures=args.max_failures,
            deadline_s=args.deadline,
            cache=not args.no_cache,
            store_path=args.cache_dir,
            keep_ir=args.keep_ir,
            differential=args.differential,
            diff_runs=args.diff_runs,
            diff_seed=args.diff_seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.stream:
        # NDJSON: one compact item record per line, in completion
        # order, flushed as it happens — then the collected report
        # (identical to the non-streaming run, modulo timings).  The
        # record shapes come from the shared protocol codec, so the
        # stream and the serve daemon cannot drift apart.
        from repro.service import protocol

        stats: Dict[str, int] = {}
        results = []
        start = time_module.perf_counter()
        for record in iter_batch(items, config, stats):
            # Shard runs remap record indexes to positions in the full
            # corpus, so shard reports merge back seamlessly.
            record.index = positions[record.name]
            print(json.dumps(protocol.item_record(record)), file=out,
                  flush=True)
            results.append(record)
        wall = time_module.perf_counter() - start
        report = collect_report(results, config, wall, stats)
    else:
        report = run_batch(items, config)
        for record in report.items:
            record.index = positions[record.name]
    report.shard = shard
    if args.stream and args.emit == "json":
        # Keep stdout line-oriented: the report is the final NDJSON
        # line, recognisable by its "format" key.
        from repro.service import protocol

        print(json.dumps(protocol.report_record(report)), file=out,
              flush=True)
    elif args.emit == "json":
        print(report.to_json(), file=out)
    else:
        print(report.render_table(), file=out)
    if not report.ok:
        failed = [i.name for i in report.items if not i.ok]
        print(
            f"error: {report.error_count}/{len(report.items)} items failed: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_corpus(args, out) -> int:
    from repro.corpus import (
        generated_items,
        parse_seed_range,
        profile_config,
        read_manifest,
        regenerate_corpus,
        write_corpus,
        write_manifest,
    )

    if args.action != "generate":
        raise CliError(f"unknown corpus action {args.action!r}")
    try:
        if args.from_manifest:
            if not args.out:
                raise ValueError(
                    "--from-manifest regenerates files; pass --out DIR"
                )
            written = regenerate_corpus(args.from_manifest, args.out)
            items = read_manifest(args.from_manifest)
        else:
            if not args.seed_range:
                raise ValueError(
                    "corpus generate needs --seed-range A:B "
                    "(or --from-manifest FILE)"
                )
            seeds = parse_seed_range(args.seed_range)
            config = profile_config(
                args.profile,
                statements=args.size,
                max_depth=args.max_depth,
            )
            items = generated_items(seeds, config, prefix=args.prefix)
            written = None
            if args.out:
                written = write_corpus(items, args.out)
            if args.manifest:
                write_manifest(items, args.manifest)
            if not args.out and not args.manifest:
                raise ValueError(
                    "nowhere to write: pass --out DIR and/or "
                    "--manifest FILE"
                )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if written is not None:
        print(
            f"wrote {written['files']} programs + manifest to "
            f"{written['dir']}",
            file=out,
        )
    if not args.from_manifest and args.manifest:
        print(f"wrote {len(items)}-item manifest to {args.manifest}",
              file=out)
    return 0


def cmd_cache(args, out) -> int:
    if not args.cache_dir:
        raise CliError(
            "cache needs a store directory; pass --cache-dir DIR"
        )
    store = SolutionStore(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        if args.emit == "json":
            print(json.dumps(stats, indent=2), file=out)
        else:
            print(f"store        : {stats['path']}", file=out)
            print(f"code version : {stats['code_version']}", file=out)
            print(
                f"entries      : {stats['entries']} "
                f"({stats['bytes']} bytes)",
                file=out,
            )
            print(
                f"stale entries: {stats['stale_entries']} "
                f"({stats['stale_bytes']} bytes, other code versions; "
                f"reclaim with `repro cache gc`)",
                file=out,
            )
            print(
                f"evictions    : {stats['evicted_entries']} entries "
                f"({stats['evicted_bytes']} bytes, cumulative, by "
                f"`gc --max-bytes` LRU sweeps)",
                file=out,
            )
        return 0
    if args.action == "gc":
        removed = store.gc(max_bytes=args.max_bytes)
        print(
            f"gc: removed {removed['removed_entries']} stale entries, "
            f"reclaimed {removed['reclaimed_bytes']} bytes",
            file=out,
        )
        if args.max_bytes is not None:
            print(
                f"gc: evicted {removed['evicted_entries']} "
                f"least-recently-used entries "
                f"({removed['evicted_bytes']} bytes) to fit the "
                f"{args.max_bytes}-byte budget",
                file=out,
            )
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(
            f"clear: removed {removed['removed_entries']} entries, "
            f"reclaimed {removed['reclaimed_bytes']} bytes",
            file=out,
        )
        return 0
    raise CliError(f"unknown cache action {args.action!r}")


def cmd_serve(args, out) -> int:
    from repro.service import ReproServer, ServeConfig
    from repro.service.protocol import encode, listening_record

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            timeout=args.timeout,
            queue_limit=args.queue_limit,
            cache_size=args.response_cache,
            store_path=args.cache_dir,
            cache=not args.no_cache,
            max_tasks_per_worker=args.recycle_after,
            allow_call=args.allow_call,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    server = ReproServer(config)

    def announce(host: str, port: int) -> None:
        # The readiness line: scripts wait for it, then parse the port.
        out.write(encode(listening_record(host, port)).decode("utf-8"))
        out.flush()

    server.on_listening = announce
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_report(args, out) -> int:
    cfg = load_program(args.file)
    headers = ["strategy", "static", "dynamic", "temps", "live pts",
               "pressure", "bv ops", "blocks"]
    table = Table(headers, title=f"strategy comparison for {args.file}")
    for strategy in args.strategies.split(","):
        metrics = measure_strategy(cfg, strategy.strip(), runs=args.runs)
        table.add_mapping(metrics.as_row())
    print(table.render(), file=out)
    return 0


# -- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    strategies = [s.name for s in available_strategies()]
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lazy Code Motion reproduction: compile, optimise, "
        "run and audit mini-language programs.",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a structured JSON trace of every analysis/transform "
        "span to FILE (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the AnalysisManager memoization of dataflow solutions",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="directory of a persistent, shareable on-disk solution store "
        "consulted before solving and written through on misses "
        "(see docs/CACHING.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="lower source to IR")
    p_compile.add_argument("file")
    p_compile.add_argument("--emit", choices=("text", "json", "dot"),
                           default="text")
    p_compile.set_defaults(handler=cmd_compile)

    p_opt = sub.add_parser("opt", help="optimise a program")
    p_opt.add_argument("file")
    p_opt.add_argument("--strategy", choices=strategies, default="lcm")
    p_opt.add_argument("--pipeline", action="store_true",
                       help="run the full pass pipeline instead of one strategy")
    p_opt.add_argument("--emit", choices=("text", "json", "dot"), default="text")
    p_opt.add_argument("--verify", action="store_true",
                       help="verify semantics + per-path safety afterwards")
    p_opt.set_defaults(handler=cmd_opt)

    p_run = sub.add_parser("run", help="execute a program")
    p_run.add_argument("file")
    p_run.add_argument("-i", "--input", action="append", metavar="NAME=VALUE")
    p_run.add_argument("--optimized", action="store_true",
                       help="optimise before running")
    p_run.add_argument("--strategy", choices=strategies, default="lcm")
    p_run.add_argument("--max-steps", type=int, default=1_000_000)
    p_run.set_defaults(handler=cmd_run)

    p_audit = sub.add_parser("audit", help="show LCM decisions per expression")
    p_audit.add_argument("file")
    p_audit.add_argument("--expr", help="restrict to one expression, e.g. 'a + b'")
    p_audit.add_argument("--full", action="store_true",
                         help="full report: universe, placements, metrics, verdict")
    p_audit.add_argument("--strategy", choices=strategies, default="lcm")
    p_audit.set_defaults(handler=cmd_audit)

    p_batch = sub.add_parser(
        "batch",
        help="optimise a whole corpus across a worker pool "
        "(or 'merge' per-shard reports)",
    )
    p_batch.add_argument(
        "dir",
        help="corpus to run: a directory of .mini/.json programs, a "
        ".zip/.tar archive, or a manifest file — or the word 'merge' "
        "to recombine per-shard report files",
    )
    p_batch.add_argument(
        "reports", nargs="*", metavar="REPORT",
        help="with 'merge': the per-shard JSON report files "
        "(merge always emits the recombined JSON report)",
    )
    p_batch.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1: serial in-process)")
    p_batch.add_argument("--recursive", action="store_true",
                         help="scan corpus directories recursively "
                         "(item names carry the relative path)")
    p_batch.add_argument("--shard", metavar="I/N", default=None,
                         help="run only shard I of N (1-based); items "
                         "partition by a stable hash of their names, and "
                         "per-shard reports recombine with 'repro batch "
                         "merge'")
    p_batch.add_argument("--differential", action="store_true",
                         help="differential fuzzing: execute each program "
                         "before and after optimization on seeded random "
                         "inputs; mismatches become 'divergent' records")
    p_batch.add_argument("--diff-runs", type=int, default=8, metavar="N",
                         help="input environments per item in "
                         "differential mode")
    p_batch.add_argument("--diff-seed", type=int, default=0, metavar="S",
                         help="base seed for differential input decks")
    p_batch.add_argument("--allow-call", action="store_true",
                         help="honour kind='call' manifest items "
                         "(arbitrary module:function loaders; tests only)")
    p_batch.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="per-item wall-clock budget in seconds")
    p_batch.add_argument("--retries", type=int, default=0,
                         help="extra attempts for items that error/time out")
    p_batch.add_argument("--stream", action="store_true",
                         help="emit one NDJSON item record per line as "
                         "results complete (completion order; the collected "
                         "report follows)")
    p_batch.add_argument("--max-failures", type=int, default=None,
                         metavar="N",
                         help="cancel the rest of the batch after N failed "
                         "items (the remainder is recorded as 'skipped')")
    p_batch.add_argument("--recycle-after", type=int, default=None,
                         metavar="N",
                         help="retire and respawn each worker after it "
                         "served N items (bounds worker memory growth)")
    p_batch.add_argument("--deadline", type=float, default=None, metavar="S",
                         help="whole-batch wall-clock budget in seconds; "
                         "on expiry the remainder is 'skipped'")
    p_batch.add_argument("--strategy", choices=strategies, default="lcm")
    p_batch.add_argument("--pipeline", action="store_true",
                         help="run the full pass pipeline per program")
    p_batch.add_argument("--emit", choices=("table", "json"), default="table")
    p_batch.add_argument("--keep-ir", action="store_true",
                         help="include each optimised program's JSON IR "
                         "in the report")
    # Accepted after the subcommand too (`repro batch DIR --cache-dir X`);
    # SUPPRESS keeps an omitted flag from clobbering the global value.
    p_batch.add_argument("--cache-dir", metavar="DIR",
                         default=argparse.SUPPRESS,
                         help="shared on-disk solution store for all workers")
    p_batch.set_defaults(handler=cmd_batch)

    p_corpus = sub.add_parser(
        "corpus",
        help="mint reproducible program corpora from seed ranges "
        "(see docs/CORPUS.md)",
    )
    p_corpus.add_argument("action", choices=("generate",),
                          help="generate: mint programs from "
                          "--seed-range + profile knobs")
    p_corpus.add_argument("--seed-range", metavar="A:B", default=None,
                          help="half-open seed range, e.g. 0:200 "
                          "(one program per seed)")
    p_corpus.add_argument("--profile", choices=("mixed", "loopy", "branchy"),
                          default="mixed",
                          help="generator bias: loop-heavy, branch-heavy, "
                          "or the mixed default")
    p_corpus.add_argument("--size", type=int, default=12, metavar="N",
                          help="statements per program")
    p_corpus.add_argument("--max-depth", type=int, default=3, metavar="N",
                          help="maximum control-flow nesting depth")
    p_corpus.add_argument("--prefix", default="gen-",
                          help="item/file name prefix (default 'gen-')")
    p_corpus.add_argument("--out", metavar="DIR", default=None,
                          help="materialise NAME.mini files plus "
                          "manifest.ndjson under DIR")
    p_corpus.add_argument("--manifest", metavar="FILE", default=None,
                          help="write the manifest alone (.ndjson for the "
                          "line-oriented encoding) — workers mint programs "
                          "on demand")
    p_corpus.add_argument("--from-manifest", metavar="FILE", default=None,
                          help="regenerate a materialised corpus "
                          "bit-identically from an existing manifest "
                          "(requires --out)")
    p_corpus.set_defaults(handler=cmd_corpus)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or maintain an on-disk solution store",
    )
    p_cache.add_argument("action", choices=("stats", "gc", "clear"),
                         help="stats: entry/size summary; gc: drop entries "
                         "of other code versions; clear: drop everything")
    p_cache.add_argument("--cache-dir", metavar="DIR",
                         default=argparse.SUPPRESS,
                         help="the store directory (also accepted globally)")
    p_cache.add_argument("--max-bytes", type=int, default=None, metavar="N",
                         help="with gc: after the stale sweep, evict "
                         "least-recently-used current entries until the "
                         "store is at most N bytes")
    p_cache.add_argument("--emit", choices=("text", "json"), default="text")
    p_cache.set_defaults(handler=cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived optimization daemon: NDJSON requests over TCP, "
        "multiplexed onto a warm worker pool (see docs/SERVE.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (loopback by default)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="bind port; 0 picks a free one (announced "
                         "in the readiness line)")
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="pool worker processes")
    p_serve.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="default per-request wall-clock budget; a "
                         "request's own 'timeout' field overrides it")
    p_serve.add_argument("--queue-limit", type=int, default=8, metavar="N",
                         help="work requests allowed to wait beyond the "
                         "JOBS already running; more are rejected")
    p_serve.add_argument("--response-cache", type=int, default=256,
                         metavar="N",
                         help="response-cache entries held in memory "
                         "(LRU; 0 disables response caching)")
    p_serve.add_argument("--recycle-after", type=int, default=None,
                         metavar="N",
                         help="retire and respawn each worker after it "
                         "served N requests")
    p_serve.add_argument("--allow-call", action="store_true",
                         help="honour kind='call' requests (arbitrary "
                         "module:function loaders; tests only)")
    p_serve.add_argument("--cache-dir", metavar="DIR",
                         default=argparse.SUPPRESS,
                         help="shared on-disk store: the workers' "
                         "solution cache and the response cache's "
                         "persistent tier")
    p_serve.set_defaults(handler=cmd_serve)

    p_report = sub.add_parser("report", help="strategy comparison table")
    p_report.add_argument("file")
    p_report.add_argument("--strategies", default="none,gcse,mr,bcm,lcm")
    p_report.add_argument("--runs", type=int, default=10)
    p_report.set_defaults(handler=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    # A disabled manager (not None): handlers that default a missing
    # manager to a fresh one must stay uncached under --no-cache.
    store = (
        SolutionStore(args.cache_dir)
        if args.cache_dir and not args.no_cache
        else None
    )
    args.manager = AnalysisManager(enabled=not args.no_cache, store=store)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        activate(tracer)
    try:
        code = args.handler(args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    finally:
        if tracer is not None:
            deactivate()
    if tracer is not None:
        try:
            tracer.write(args.trace)
        except OSError as exc:
            print(f"error: cannot write trace {args.trace}: {exc}",
                  file=sys.stderr)
            code = code or 2
    return code


if __name__ == "__main__":
    sys.exit(main())
