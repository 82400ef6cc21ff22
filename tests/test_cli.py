"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import CliError, _parse_bindings, load_program, main

SOURCE = """
x = a + b;
if (p) { y = a + b; } else { y = 0; }
z = a + b;
"""


@pytest.fixture
def prog(tmp_path):
    path = tmp_path / "prog.mini"
    path.write_text(SOURCE)
    return str(path)


def invoke(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCompile:
    def test_text_output(self, prog):
        code, text = invoke("compile", prog)
        assert code == 0
        assert "x = a + b" in text
        assert "entry:" in text

    def test_json_output_roundtrips(self, prog, tmp_path):
        code, text = invoke("compile", prog, "--emit", "json")
        assert code == 0
        data = json.loads(text)
        assert data["format"] == "repro-cfg"
        # JSON dumps are accepted back as input files.
        json_path = tmp_path / "prog.json"
        json_path.write_text(text)
        code, text2 = invoke("compile", str(json_path))
        assert code == 0
        assert "x = a + b" in text2

    def test_dot_output(self, prog):
        code, text = invoke("compile", prog, "--emit", "dot")
        assert code == 0
        assert text.startswith("digraph")


class TestOpt:
    def test_lcm_plan_in_comments(self, prog):
        code, text = invoke("opt", prog)
        assert code == 0
        # a+b is fully redundant below its first occurrence here, so
        # the plan replaces without inserting.
        assert "; a + b: " in text
        assert "replace in" in text

    def test_strategy_choice(self, prog):
        code, text = invoke("opt", prog, "--strategy", "gcse")
        assert code == 0

    def test_pipeline_mode(self, prog):
        code, text = invoke("opt", prog, "--pipeline")
        assert code == 0
        assert "; pipeline:" in text

    def test_bad_strategy_rejected_by_argparse(self, prog):
        with pytest.raises(SystemExit):
            invoke("opt", prog, "--strategy", "bogus")


class TestRun:
    def test_run_prints_env(self, prog):
        code, text = invoke("run", prog, "-i", "a=2", "-i", "b=3", "-i", "p=1")
        assert code == 0
        assert "x = 5" in text
        assert "z = 5" in text
        assert "expression evaluations" in text

    def test_optimized_run_matches(self, prog):
        _, plain = invoke("run", prog, "-i", "a=2", "-i", "b=3", "-i", "p=1")
        _, optimised = invoke(
            "run", prog, "--optimized", "-i", "a=2", "-i", "b=3", "-i", "p=1"
        )
        def env_lines(text):
            return {
                line for line in text.splitlines()
                if line and not line.startswith(";") and "." not in line.split(" =")[0]
            }
        assert env_lines(plain) <= env_lines(optimised) | env_lines(plain)
        # All original variables agree.
        for line in env_lines(plain):
            assert line in optimised

    def test_optimized_evaluates_less(self, prog):
        def evals(text):
            for line in text.splitlines():
                if "expression evaluations" in line:
                    return int(line.split()[1])
            raise AssertionError("no evaluation count printed")

        _, plain = invoke("run", prog, "-i", "a=2", "-i", "b=3", "-i", "p=1")
        _, optimised = invoke(
            "run", prog, "--optimized", "-i", "a=2", "-i", "b=3", "-i", "p=1"
        )
        assert evals(optimised) < evals(plain)

    def test_bad_binding_reports_error(self, prog):
        code, _ = invoke("run", prog, "-i", "a")
        assert code == 2


class TestAudit:
    def test_audit_all(self, prog):
        code, text = invoke("audit", prog)
        assert code == 0
        assert "a + b:" in text
        assert "INSERT on edges" in text

    def test_audit_single_expr(self, prog):
        code, text = invoke("audit", prog, "--expr", "a + b")
        assert code == 0
        assert "DELETE in blocks" in text

    def test_audit_unknown_expr(self, prog):
        code, _ = invoke("audit", prog, "--expr", "q * q")
        assert code == 2


class TestReport:
    def test_report_table(self, prog):
        code, text = invoke("report", prog, "--runs", "3")
        assert code == 0
        assert "strategy comparison" in text
        for name in ("none", "gcse", "lcm"):
            assert name in text


class TestVerifyFlag:
    def test_opt_verify_ok(self, prog):
        code, text = invoke("opt", prog, "--verify")
        assert code == 0
        assert "; verdict   : OK" in text

    def test_opt_verify_pipeline(self, prog):
        code, text = invoke("opt", prog, "--pipeline", "--verify")
        assert code == 0
        assert "verdict   : OK" in text

    def test_opt_verify_licm_tolerated(self, prog):
        # licm is expected-unsafe; --verify must not fail it on safety.
        code, _ = invoke("opt", prog, "--strategy", "licm", "--verify")
        assert code == 0

    def test_size_governed_strategy_available(self, prog):
        code, _ = invoke("opt", prog, "--strategy", "lcm-size")
        assert code == 0


class TestJsonFlow:
    def test_opt_emit_json_then_run(self, prog, tmp_path):
        code, text = invoke("opt", prog, "--emit", "json")
        assert code == 0
        json_start = text.index("{")
        json_path = tmp_path / "opt.json"
        json_path.write_text(text[json_start:])
        code, out = invoke(
            "run", str(json_path), "-i", "a=2", "-i", "b=3", "-i", "p=1"
        )
        assert code == 0
        assert "x = 5" in out


class TestTraceFlag:
    def test_trace_writes_valid_json(self, prog, tmp_path):
        trace_path = tmp_path / "out.json"
        code, _ = invoke("--trace", str(trace_path), "opt", prog)
        assert code == 0
        data = json.loads(trace_path.read_text())
        assert data["format"] == "repro-trace"
        fused = [e for e in data["events"] if e["name"] == "lcm.fused"]
        assert fused, "expected lcm.fused events in the trace"
        for event in fused:
            assert event["duration_ms"] >= 0
            assert event["attrs"]["sweeps"] >= 1
            assert event["attrs"]["node_visits"] >= 1
        assert "lcm.fused" in data["summary"]
        assert any(e["name"] == "optimize" for e in data["events"])

    def test_trace_covers_pipeline_passes(self, prog, tmp_path):
        trace_path = tmp_path / "out.json"
        code, _ = invoke("--trace", str(trace_path), "opt", prog, "--pipeline")
        assert code == 0
        names = {e["name"] for e in json.loads(trace_path.read_text())["events"]}
        assert "pipeline.run" in names
        assert any(name.startswith("pass.") for name in names)

    def test_no_cache_flag_disables_memoization(self, prog, tmp_path):
        trace_path = tmp_path / "out.json"
        code, _ = invoke(
            "--no-cache", "--trace", str(trace_path), "audit", prog, "--full"
        )
        assert code == 0
        counters = json.loads(trace_path.read_text())["counters"]
        assert counters.get("cache.hit", 0) == 0

    def test_cached_audit_full_reuses_solutions(self, prog, tmp_path):
        trace_path = tmp_path / "out.json"
        code, _ = invoke("--trace", str(trace_path), "audit", prog, "--full")
        assert code == 0
        counters = json.loads(trace_path.read_text())["counters"]
        assert counters.get("cache.hit", 0) >= 1


class TestBatch:
    @pytest.fixture
    def corpus(self, tmp_path):
        (tmp_path / "first.mini").write_text(SOURCE)
        (tmp_path / "second.mini").write_text("u = c * d; v = c * d;")
        return tmp_path

    def test_table_output(self, corpus):
        code, text = invoke("batch", str(corpus))
        assert code == 0
        assert "first" in text and "second" in text
        assert "ok=2" in text

    def test_json_report(self, corpus):
        code, text = invoke("batch", str(corpus), "--jobs", "2",
                            "--emit", "json")
        assert code == 0
        data = json.loads(text)
        assert data["format"] == "repro-batch-report"
        assert data["tally"] == {"ok": 2}
        assert [item["name"] for item in data["items"]] == ["first", "second"]

    def test_failing_item_sets_exit_code_but_report_is_complete(self, corpus):
        (corpus / "broken.mini").write_text("x = ;")
        code, text = invoke("batch", str(corpus), "--emit", "json")
        assert code == 1
        data = json.loads(text)
        assert data["tally"] == {"ok": 2, "error": 1}
        assert len(data["items"]) == 3

    def test_missing_directory_is_cli_error(self, tmp_path):
        code, _ = invoke("batch", str(tmp_path / "nope"))
        assert code == 2

    def test_unwaitable_timeout_is_cli_error(self, corpus, capsys):
        code, _ = invoke("batch", str(corpus), "--jobs", "2",
                         "--timeout", "inf")
        assert code == 2
        assert "error: timeout must be a finite number" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flags, message", [
        (["--max-failures", "0"], "stop_after_failures must be at least 1"),
        (["--timeout", "-1"], "timeout must be a finite number"),
        (["--recycle-after", "0"], "max_tasks_per_worker must be at least 1"),
    ], ids=["max-failures-0", "timeout-negative", "recycle-after-0"])
    def test_out_of_range_flag_is_cli_error(self, corpus, capsys, flags,
                                            message):
        code, text = invoke("batch", str(corpus), "--jobs", "2", *flags)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_stream_emits_ndjson_then_report(self, corpus):
        code, text = invoke("batch", str(corpus), "--jobs", "2",
                            "--stream", "--emit", "json")
        assert code == 0
        lines = [json.loads(line) for line in text.splitlines() if line]
        report = lines[-1]
        assert report["format"] == "repro-batch-report"
        item_lines = lines[:-1]
        assert len(item_lines) == report["items_total"] == 2
        assert sorted(line["index"] for line in item_lines) == [0, 1]
        assert all(line["status"] == "ok" for line in item_lines)

    def test_stream_report_matches_plain_run(self, corpus):
        code, plain = invoke("batch", str(corpus), "--emit", "json")
        assert code == 0
        code, streamed = invoke("batch", str(corpus), "--stream",
                                "--emit", "json")
        assert code == 0
        plain_report = json.loads(plain)
        stream_report = json.loads(streamed.splitlines()[-1])

        def stable(report):
            return [
                (i["name"], i["status"], i.get("fingerprint"),
                 i.get("static_before"), i.get("static_after"))
                for i in report["items"]
            ]

        assert stable(stream_report) == stable(plain_report)
        assert stream_report["tally"] == plain_report["tally"]

    def test_max_failures_skips_remainder(self, corpus):
        (corpus / "aaa-broken.mini").write_text("x = ;")  # sorts first
        code, text = invoke("batch", str(corpus), "--max-failures", "1",
                            "--emit", "json")
        assert code == 1
        data = json.loads(text)
        assert data["version"] == 3
        assert data["tally"]["error"] == 1
        assert data["tally"]["skipped"] == 2

    def test_recycle_after_flag_respawns_workers(self, corpus):
        (corpus / "third.mini").write_text("w = e + f; q = e + f;")
        code, text = invoke("batch", str(corpus), "--jobs", "2",
                            "--recycle-after", "1", "--emit", "json")
        assert code == 0
        data = json.loads(text)
        assert data["supervisor"]["batch.worker.respawn"] >= 1

    def test_pipeline_mode(self, corpus):
        code, text = invoke("batch", str(corpus), "--pipeline")
        assert code == 0
        assert "pipeline" in text


class TestBatchShard:
    @pytest.fixture
    def corpus(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "first.mini").write_text(SOURCE)
        (root / "second.mini").write_text("u = c * d; v = c * d;")
        (root / "third.mini").write_text("w = e + f; q = e + f;")
        return root

    def test_shard_then_merge_matches_unsharded(self, corpus, tmp_path):
        from repro.batch import stable_report_json

        code, full = invoke("batch", str(corpus), "--emit", "json")
        assert code == 0
        shard_files = []
        for i in (1, 2, 3):
            code, text = invoke("batch", str(corpus), "--shard",
                                f"{i}/3", "--emit", "json")
            assert code == 0
            data = json.loads(text)
            assert data["shard"] == {
                "index": i, "total": 3, "universe": 3,
            }
            path = tmp_path / f"shard{i}.json"
            path.write_text(text)
            shard_files.append(str(path))
        code, merged = invoke("batch", "merge", *shard_files)
        assert code == 0
        assert stable_report_json(json.loads(merged)) == \
            stable_report_json(json.loads(full))

    def test_bad_shard_spec_is_cli_error(self, corpus):
        code, _ = invoke("batch", str(corpus), "--shard", "4/3")
        assert code == 2
        code, _ = invoke("batch", str(corpus), "--shard", "nope")
        assert code == 2

    def test_report_files_only_accepted_after_merge(self, corpus):
        code, _ = invoke("batch", str(corpus), "stray.json")
        assert code == 2

    def test_merge_without_reports_is_cli_error(self):
        code, _ = invoke("batch", "merge")
        assert code == 2

    def test_recursive_scan(self, corpus):
        sub = corpus / "sub"
        sub.mkdir()
        (sub / "first.mini").write_text(SOURCE)
        code, text = invoke("batch", str(corpus), "--recursive",
                            "--emit", "json")
        assert code == 0
        names = [i["name"] for i in json.loads(text)["items"]]
        assert "sub/first" in names

    def test_differential_clean_run(self, corpus):
        code, text = invoke("batch", str(corpus), "--differential",
                            "--diff-runs", "3", "--emit", "json")
        assert code == 0
        data = json.loads(text)
        assert data["tally"] == {"ok": 3}
        for item in data["items"]:
            assert item["differential"]["divergences"] == []


class TestCorpusCli:
    def test_generate_out_dir(self, tmp_path):
        out = tmp_path / "corpus"
        code, text = invoke("corpus", "generate", "--seed-range", "0:6",
                            "--out", str(out))
        assert code == 0
        assert "wrote 6 programs" in text
        assert len(list(out.glob("*.mini"))) == 6
        assert (out / "manifest.ndjson").exists()

    def test_generate_manifest_then_batch(self, tmp_path):
        manifest = tmp_path / "fuzz.ndjson"
        code, text = invoke("corpus", "generate", "--seed-range", "0:4",
                            "--profile", "loopy",
                            "--manifest", str(manifest))
        assert code == 0
        assert "4-item manifest" in text
        code, text = invoke("batch", str(manifest), "--emit", "json")
        assert code == 0
        data = json.loads(text)
        assert data["tally"] == {"ok": 4}
        assert [i["name"] for i in data["items"]] == [
            f"gen-0000000{i}" for i in range(4)
        ]

    def test_from_manifest_regenerates_bit_identically(self, tmp_path):
        first = tmp_path / "first"
        code, _ = invoke("corpus", "generate", "--seed-range", "0:3",
                         "--out", str(first))
        assert code == 0
        second = tmp_path / "second"
        code, _ = invoke("corpus", "generate", "--from-manifest",
                         str(first / "manifest.ndjson"),
                         "--out", str(second))
        assert code == 0
        for path in first.glob("*.mini"):
            assert (second / path.name).read_bytes() == \
                path.read_bytes()

    def test_generate_needs_destination(self):
        code, _ = invoke("corpus", "generate", "--seed-range", "0:3")
        assert code == 2

    def test_bad_seed_range_is_cli_error(self, tmp_path):
        code, _ = invoke("corpus", "generate", "--seed-range", "nope",
                         "--out", str(tmp_path / "c"))
        assert code == 2

    def test_from_manifest_requires_out(self, tmp_path):
        manifest = tmp_path / "m.ndjson"
        code, _ = invoke("corpus", "generate", "--seed-range", "0:2",
                         "--manifest", str(manifest))
        assert code == 0
        code, _ = invoke("corpus", "generate", "--from-manifest",
                         str(manifest))
        assert code == 2


class TestCacheDir:
    @pytest.fixture
    def corpus(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "first.mini").write_text(SOURCE)
        (root / "second.mini").write_text("u = c * d; v = c * d;")
        return root

    def test_warm_second_batch_reports_disk_hits(self, corpus, tmp_path):
        cache = str(tmp_path / "cache")
        code, cold = invoke("batch", str(corpus), "--cache-dir", cache,
                            "--emit", "json")
        assert code == 0
        cold_data = json.loads(cold)
        assert cold_data["cache"]["disk_writes"] > 0
        assert cold_data["store"]["entries"] > 0

        code, warm = invoke("batch", str(corpus), "--cache-dir", cache,
                            "--emit", "json")
        assert code == 0
        warm_data = json.loads(warm)
        assert warm_data["cache"]["misses"] == 0
        assert warm_data["cache"]["disk_hits"] > 0
        assert [i["fingerprint"] for i in warm_data["items"]] == [
            i["fingerprint"] for i in cold_data["items"]
        ]

    def test_global_flag_position_also_works(self, corpus, tmp_path):
        cache = str(tmp_path / "cache")
        code, _ = invoke("--cache-dir", cache, "batch", str(corpus))
        assert code == 0
        code, text = invoke("--cache-dir", cache, "batch", str(corpus))
        assert code == 0
        assert "disk hits" in text  # table footer shows store traffic

    def test_opt_uses_the_store(self, prog, tmp_path):
        cache = str(tmp_path / "cache")
        code, _ = invoke("--cache-dir", cache, "opt", prog)
        assert code == 0
        code, text = invoke("cache", "stats", "--cache-dir", cache)
        assert code == 0
        assert "entries" in text

    def test_no_cache_wins_over_cache_dir(self, prog, tmp_path):
        cache = str(tmp_path / "cache")
        code, _ = invoke("--no-cache", "--cache-dir", cache, "opt", prog)
        assert code == 0
        code, text = invoke("cache", "stats", "--cache-dir", cache,
                            "--emit", "json")
        assert code == 0
        assert json.loads(text)["entries"] == 0


class TestCacheSubcommand:
    def seed(self, tmp_path, prog):
        cache = str(tmp_path / "cache")
        code, _ = invoke("--cache-dir", cache, "opt", prog)
        assert code == 0
        return cache

    def test_stats_text_and_json(self, prog, tmp_path):
        cache = self.seed(tmp_path, prog)
        code, text = invoke("cache", "stats", "--cache-dir", cache)
        assert code == 0
        assert cache in text and "code version" in text

        code, text = invoke("cache", "stats", "--cache-dir", cache,
                            "--emit", "json")
        assert code == 0
        data = json.loads(text)
        assert data["entries"] > 0 and data["stale_entries"] == 0

    def test_gc_and_clear(self, prog, tmp_path):
        cache = self.seed(tmp_path, prog)
        code, text = invoke("cache", "gc", "--cache-dir", cache)
        assert code == 0
        assert "removed 0" in text  # nothing stale yet

        code, text = invoke("cache", "clear", "--cache-dir", cache)
        assert code == 0
        code, text = invoke("cache", "stats", "--cache-dir", cache,
                            "--emit", "json")
        assert json.loads(text)["entries"] == 0

    def test_requires_cache_dir(self):
        code, _ = invoke("cache", "stats")
        assert code == 2


class TestHelpers:
    def test_parse_bindings(self):
        assert _parse_bindings(["a=1", "b = -2"]) == {"a": 1, "b": -2}

    def test_parse_bindings_rejects_garbage(self):
        with pytest.raises(CliError):
            _parse_bindings(["a=x"])

    def test_load_program_missing_file(self):
        with pytest.raises(CliError, match="cannot read"):
            load_program("/no/such/file.mini")


class TestCacheBudget:
    def seed(self, tmp_path, prog):
        cache = str(tmp_path / "cache")
        code, _ = invoke("--cache-dir", cache, "opt", prog)
        assert code == 0
        return cache

    def test_gc_max_bytes_evicts_to_budget(self, prog, tmp_path):
        cache = self.seed(tmp_path, prog)
        code, text = invoke(
            "cache", "gc", "--cache-dir", cache, "--max-bytes", "0"
        )
        assert code == 0
        assert "evicted" in text and "0-byte budget" in text
        code, text = invoke(
            "cache", "stats", "--cache-dir", cache, "--emit", "json"
        )
        data = json.loads(text)
        assert data["entries"] == 0
        assert data["evicted_entries"] > 0

    def test_stats_text_reports_evictions(self, prog, tmp_path):
        cache = self.seed(tmp_path, prog)
        code, text = invoke("cache", "stats", "--cache-dir", cache)
        assert code == 0
        assert "evictions" in text

    def test_plain_gc_never_evicts(self, prog, tmp_path):
        cache = self.seed(tmp_path, prog)
        code, text = invoke("cache", "gc", "--cache-dir", cache)
        assert code == 0
        assert "evicted" not in text
        code, text = invoke(
            "cache", "stats", "--cache-dir", cache, "--emit", "json"
        )
        assert json.loads(text)["entries"] > 0


class TestServeCommand:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.jobs == 2
        assert args.queue_limit == 8
        assert args.response_cache == 256
        assert args.recycle_after is None
        assert not args.allow_call

    def test_unwaitable_timeout_is_cli_error(self, capsys):
        code = main(["serve", "--jobs", "1", "--timeout", "inf"],
                    out=io.StringIO())
        assert code == 2
        assert "error: timeout must be a finite number" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flags, message", [
        (["--timeout", "-1"], "timeout must be a finite number"),
        (["--jobs", "0", "--queue-limit", "0"], "jobs must be at least 1"),
        (["--recycle-after", "0"], "max_tasks_per_worker must be at least 1"),
    ], ids=["timeout-negative", "jobs-0", "recycle-after-0"])
    def test_out_of_range_flag_is_cli_error(self, capsys, flags, message):
        # Refused before the daemon binds a socket or spawns a worker.
        code, text = invoke("serve", *flags)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_serve_end_to_end_over_the_cli(self):
        import threading
        import time

        from repro.service import ServeClient
        from repro.service.protocol import decode

        out = io.StringIO()
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(["serve", "--jobs", "1"], out=out)
            )
        )
        thread.start()
        try:
            deadline = time.monotonic() + 10.0
            while "\n" not in out.getvalue():
                assert time.monotonic() < deadline, "no readiness line"
                time.sleep(0.02)
            ready = decode(
                out.getvalue().splitlines()[0].encode("utf-8")
            )
            assert ready["type"] == "listening"
            with ServeClient(ready["host"], ready["port"], 30) as client:
                cold = client.optimize("x = a + b; y = a + b;")
                warm = client.optimize("x = a + b; y = a + b;")
                assert cold["status"] == warm["status"] == "ok"
                assert warm["cached"] is True
                client.shutdown()
        finally:
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert codes == [0]
