"""Tests for the parallel corpus driver: isolation, determinism, merging.

The fault-injection items use the driver's ``call`` work-item kind:
module-level functions in *this* file are resolved by name inside the
worker (the pool forks, so ``tests.test_batch`` is already imported
there) and deliberately crash, hang or flake.
"""

import os
from pathlib import Path

import pytest

from tests.helpers import diamond, do_while_invariant

from repro.batch import (
    BatchConfig,
    WorkItem,
    items_from_cfgs,
    items_from_dir,
    run_batch,
)
from repro.batch.driver import MAX_TIMEOUT_S
from repro.interp.machine import run
from repro.interp.random_inputs import random_envs
from repro.ir.serialize import cfg_from_json
from repro.lang import compile_program
from repro.service import ServeConfig

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
MAX_STEPS = 2_000_000


# -- injection payloads (resolved by name inside workers) -------------------

def _ok_program():
    return diamond()


def _crash():
    raise RuntimeError("injected crash")


def _hang():
    while True:
        pass


_FLAKY_STATE = {"calls": 0}


def _flaky():
    _FLAKY_STATE["calls"] += 1
    if _FLAKY_STATE["calls"] == 1:
        raise RuntimeError("transient failure, succeeds on retry")
    return diamond()


def _call_item(name, fn_name):
    return WorkItem(name, "call", f"tests.test_batch:{fn_name}")


# -- building items ---------------------------------------------------------

class TestItems:
    def test_directory_scan_is_sorted_and_deterministic(self):
        items = items_from_dir(str(CORPUS_DIR))
        names = [item.name for item in items]
        assert names == sorted(names)
        assert len(items) >= 5
        assert items == items_from_dir(str(CORPUS_DIR))

    def test_missing_directory_rejected(self):
        with pytest.raises(ValueError, match="not a directory"):
            items_from_dir(str(CORPUS_DIR / "nope"))

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no .*files"):
            items_from_dir(str(tmp_path))

    def test_in_memory_cfgs(self):
        items = items_from_cfgs([diamond(), do_while_invariant()], ["d", "w"])
        assert [item.name for item in items] == ["d", "w"]
        assert all(item.kind == "json" for item in items)

    def test_items_carry_cost_predictions(self):
        # In-memory items: blocks × static computations; corpus files:
        # file size.  Both feed the pooled driver's LPT scheduling.
        items = items_from_cfgs([diamond(), do_while_invariant()])
        assert all(item.cost > 0 for item in items)
        for item, cfg in zip(items, [diamond(), do_while_invariant()]):
            assert item.cost == len(cfg) * max(1, cfg.static_computation_count())
        for item in items_from_dir(str(CORPUS_DIR)):
            assert item.cost == Path(item.payload).stat().st_size


# -- the serial path --------------------------------------------------------

class TestSerial:
    def test_corpus_all_ok_in_input_order(self):
        items = items_from_dir(str(CORPUS_DIR))
        report = run_batch(items, BatchConfig(jobs=1))
        assert report.ok
        assert [item.name for item in report.items] == [i.name for i in items]
        assert [item.index for item in report.items] == list(range(len(items)))
        for item in report.items:
            assert item.fingerprint
            assert item.static_after <= item.static_before

    def test_report_json_schema(self):
        items = items_from_dir(str(CORPUS_DIR))[:3]
        report = run_batch(items, BatchConfig(jobs=1))
        payload = report.to_dict()
        assert payload["format"] == "repro-batch-report"
        assert payload["version"] == 3
        assert payload["items_total"] == 3
        assert payload["tally"] == {"ok": 3}
        assert 0.0 <= payload["cache"]["hit_rate"] <= 1.0
        assert payload["wall_time_s"] > 0
        assert len(payload["items"]) == 3

    def test_error_item_is_isolated(self):
        items = [
            _call_item("good", "_ok_program"),
            _call_item("bad", "_crash"),
            WorkItem("broken-src", "source", "x = ;"),
        ]
        report = run_batch(items, BatchConfig(jobs=1))
        assert not report.ok
        good, bad, broken = report.items
        assert good.status == "ok"
        assert bad.status == "error"
        assert "injected crash" in bad.message
        assert "RuntimeError" in bad.traceback
        assert broken.status == "error"  # parse errors are records too
        assert report.tally == {"ok": 1, "error": 2}

    def test_serial_timeout_interrupts_hang(self):
        items = [_call_item("spin", "_hang"), _call_item("fine", "_ok_program")]
        report = run_batch(items, BatchConfig(jobs=1, timeout=0.3))
        spin, fine = report.items
        assert spin.status == "timeout"
        assert "0.3" in spin.message
        assert fine.status == "ok"

    def test_bounded_retry_recovers_transient_failure(self):
        _FLAKY_STATE["calls"] = 0
        items = [_call_item("flaky", "_flaky")]
        report = run_batch(items, BatchConfig(jobs=1, retries=1))
        assert report.ok
        assert report.items[0].attempts == 2

    def test_retry_budget_is_bounded(self):
        items = [_call_item("bad", "_crash")]
        report = run_batch(items, BatchConfig(jobs=1, retries=2))
        assert report.items[0].status == "error"
        assert report.items[0].attempts == 3

    def test_warm_manager_hits_across_identical_items(self):
        # Two items with identical content: the second solves nothing.
        items = items_from_cfgs([diamond(), diamond()], ["first", "second"])
        report = run_batch(items, BatchConfig(jobs=1))
        assert report.ok
        assert report.items[1].cache["hits"] > 0
        assert report.cache_stats()["hits"] > 0

    def test_merged_observability(self):
        items = items_from_dir(str(CORPUS_DIR))[:4]
        report = run_batch(items, BatchConfig(jobs=1))
        merged = report.merged_summary()
        fused_keys = [k for k in merged if k.startswith("lcm.fused")]
        assert fused_keys, merged.keys()
        per_item = sum(
            entry["count"]
            for item in report.items
            for key, entry in item.summary.items()
            if key.startswith("lcm.fused")
        )
        assert sum(merged[k]["count"] for k in fused_keys) == per_item


# -- the process pool -------------------------------------------------------

class TestParallel:
    def test_parallel_ir_is_bit_identical_to_serial(self):
        items = items_from_dir(str(CORPUS_DIR))
        serial = run_batch(items, BatchConfig(jobs=1, keep_ir=True))
        pooled = run_batch(items, BatchConfig(jobs=2, keep_ir=True))
        assert serial.ok and pooled.ok
        assert [i.name for i in pooled.items] == [i.name for i in serial.items]
        assert [i.ir for i in pooled.items] == [i.ir for i in serial.items]
        assert [i.fingerprint for i in pooled.items] == [
            i.fingerprint for i in serial.items
        ]

    def test_crash_and_hang_isolated_while_rest_completes(self):
        items = [
            _call_item("ok-one", "_ok_program"),
            _call_item("crash", "_crash"),
            _call_item("spin", "_hang"),
            _call_item("ok-two", "_ok_program"),
        ]
        report = run_batch(items, BatchConfig(jobs=2, timeout=0.75))
        assert len(report.items) == 4  # complete despite failures
        by_name = {item.name: item for item in report.items}
        assert by_name["ok-one"].status == "ok"
        assert by_name["ok-two"].status == "ok"
        assert by_name["crash"].status == "error"
        assert "injected crash" in by_name["crash"].message
        assert by_name["spin"].status == "timeout"
        assert not report.ok
        assert report.error_count == 2
        # Input order survives out-of-order completion.
        assert [i.name for i in report.items] == [i.name for i in items]

    def test_lost_worker_is_attributed_to_the_single_running_item(self):
        # A worker killed outright (SIGKILL — what a segfault or the
        # OOM killer looks like) must cost exactly the item that was
        # running on it; every other item transparently lands on the
        # respawned worker instead of inheriting the error (the old
        # ProcessPoolExecutor driver error'd every in-flight item).
        items = [
            _call_item("ok-one", "_ok_program"),
            WorkItem("killer", "call", "repro.batch.testing:kill_self"),
            _call_item("ok-two", "_ok_program"),
            _call_item("ok-three", "_ok_program"),
            _call_item("ok-four", "_ok_program"),
        ]
        report = run_batch(items, BatchConfig(jobs=2))
        by_name = {item.name: item for item in report.items}
        assert by_name["killer"].status == "error"
        assert "worker lost" in by_name["killer"].message
        for name in ("ok-one", "ok-two", "ok-three", "ok-four"):
            assert by_name[name].status == "ok", by_name[name].message
        assert report.tally == {"ok": 4, "error": 1}
        assert report.supervisor["batch.worker.respawn"] >= 1

    def test_lost_worker_error_is_retried_on_a_fresh_worker(self):
        # Worker loss is a failure like any other: with a retry budget
        # the item re-runs on the respawned worker (and, when the
        # payload is deterministic death, fails again with attempts
        # exhausted).
        items = [WorkItem("killer", "call", "repro.batch.testing:kill_self"),
                 _call_item("fine", "_ok_program")]
        report = run_batch(items, BatchConfig(jobs=2, retries=1))
        killer, fine = report.items
        assert killer.status == "error"
        assert killer.attempts == 2
        assert fine.status == "ok"

    def test_pool_spreads_work(self):
        items = items_from_dir(str(CORPUS_DIR))
        report = run_batch(items, BatchConfig(jobs=2))
        assert report.ok
        assert all(item.pid is not None for item in report.items)

    def test_lpt_scheduling_preserves_report_order(self):
        # Costs deliberately ascending, so LPT dispatches in reverse
        # submission order — the report must still come back in input
        # order with every item ok.
        items = [
            WorkItem(f"p{i}", "call", "tests.test_batch:_ok_program", cost=float(i))
            for i in range(6)
        ]
        report = run_batch(items, BatchConfig(jobs=3))
        assert report.ok
        assert [item.name for item in report.items] == [i.name for i in items]
        assert [item.index for item in report.items] == list(range(len(items)))


class TestConfig:
    # The worker pool waits on worker pipes with Connection.poll, which
    # overflows past ~24.8 days, and a negative budget breaks setitimer
    # or kills every item at once: such budgets must be refused up front.
    @pytest.mark.parametrize(
        "value", [float("inf"), float("nan"), 3e6, -1.0]
    )
    @pytest.mark.parametrize("field", ["timeout", "grace", "deadline_s"])
    def test_unwaitable_time_budgets_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            BatchConfig(jobs=2, **{field: value})

    def test_largest_budget_accepted(self):
        config = BatchConfig(jobs=2, timeout=MAX_TIMEOUT_S, deadline_s=0.0)
        assert config.timeout == MAX_TIMEOUT_S

    # Zero is refused for a timeout only: setitimer reads it as "off".
    @pytest.mark.parametrize("config_cls", [BatchConfig, ServeConfig])
    def test_zero_timeout_rejected(self, config_cls):
        with pytest.raises(ValueError, match="timeout must be a finite"):
            config_cls(jobs=2, timeout=0.0)

    @pytest.mark.parametrize("field", ["timeout", "grace"])
    def test_negative_serve_budgets_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            ServeConfig(**{field: -1.0})

    # A count of 0 has no meaning here: refuse it rather than read it
    # as 1, as "never" or as "after the first record".
    @pytest.mark.parametrize("field", [
        "stop_after_failures", "max_tasks_per_worker",
    ])
    def test_zero_batch_counts_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            BatchConfig(jobs=2, **{field: 0})

    @pytest.mark.parametrize("field", ["jobs", "max_tasks_per_worker"])
    def test_zero_serve_counts_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            ServeConfig(**{field: 0})

    def test_zero_jobs_still_means_serial(self):
        items = [_call_item("one", "_ok_program"),
                 _call_item("two", "_ok_program")]
        report = run_batch(items, BatchConfig(jobs=0))
        assert report.ok and report.jobs == 1
        assert {item.pid for item in report.items} == {os.getpid()}


# -- differential property: optimization preserves semantics ----------------

class TestDifferential:
    def test_batch_optimized_programs_match_originals(self):
        # Every batch-optimized corpus program must compute the same
        # final environment as its unoptimized original on random
        # inputs (restricted to the original's variables — the
        # optimizer introduces fresh temporaries).
        paths = sorted(CORPUS_DIR.glob("*.mini"))
        items = items_from_dir(str(CORPUS_DIR), suffixes=(".mini",))
        report = run_batch(items, BatchConfig(jobs=2, keep_ir=True))
        assert report.ok
        for path, item in zip(paths, report.items):
            original = compile_program(path.read_text())
            optimized = cfg_from_json(item.ir)
            variables = sorted(original.variables())
            for env in random_envs(original, count=5, seed=11):
                before = run(original, env, max_steps=MAX_STEPS)
                after = run(optimized, env, max_steps=MAX_STEPS)
                assert before.reached_exit and after.reached_exit, item.name
                assert {v: before.env.get(v, 0) for v in variables} == {
                    v: after.env.get(v, 0) for v in variables
                }, (item.name, env)
