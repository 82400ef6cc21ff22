"""Tests for the supervised streaming driver: `iter_batch`, hard
deadlines, early exit, worker recycling.

Fault payloads come from :mod:`repro.batch.testing` (package-shipped,
also used by the CI kill-resilience smoke) and from
``tests.test_batch`` (resolved by name inside forked workers).
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tests.helpers import diamond

from repro.batch import (
    BatchConfig,
    WorkItem,
    items_from_cfgs,
    items_from_dir,
    iter_batch,
    run_batch,
)
from repro.obs.trace import Tracer, tracing

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _call_item(name, ref, cost=0.0):
    return WorkItem(name, "call", ref, cost=cost)


def _ok_items(count):
    # Distinct names, same tiny program: cheap and deterministic.
    return items_from_cfgs([diamond()] * count,
                           [f"ok{i}" for i in range(count)])


def _no_worker_children():
    # Give freshly killed/stopped processes a beat to be reaped.
    for _ in range(50):
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return not multiprocessing.active_children()


# -- streaming basics --------------------------------------------------------

class TestStreaming:
    def test_every_index_yielded_exactly_once(self):
        items = items_from_dir(str(CORPUS_DIR))
        records = list(iter_batch(items, BatchConfig(jobs=2)))
        assert sorted(record.index for record in records) == list(
            range(len(items))
        )
        assert all(record.ok for record in records)

    def test_indices_reassemble_input_order(self):
        items = items_from_dir(str(CORPUS_DIR))
        records = sorted(
            iter_batch(items, BatchConfig(jobs=2)),
            key=lambda record: record.index,
        )
        assert [record.name for record in records] == [
            item.name for item in items
        ]

    def test_serial_stream_matches_input_order(self):
        items = items_from_dir(str(CORPUS_DIR))[:4]
        records = list(iter_batch(items, BatchConfig(jobs=1)))
        assert [record.index for record in records] == list(range(4))

    def test_iter_batch_and_run_batch_report_parity(self):
        items = items_from_dir(str(CORPUS_DIR))
        config = BatchConfig(jobs=2, keep_ir=True)
        streamed = sorted(
            iter_batch(items, config), key=lambda record: record.index
        )
        collected = run_batch(items, config)
        assert [r.name for r in streamed] == [
            i.name for i in collected.items
        ]
        assert [r.status for r in streamed] == [
            i.status for i in collected.items
        ]
        assert [r.fingerprint for r in streamed] == [
            i.fingerprint for i in collected.items
        ]
        assert [r.ir for r in streamed] == [i.ir for i in collected.items]

    def test_abandoning_the_stream_leaves_no_workers(self):
        items = _ok_items(8)
        iterator = iter_batch(items, BatchConfig(jobs=2))
        next(iterator)
        iterator.close()  # consumer walks away mid-batch
        assert _no_worker_children()


# -- the one runtime: lanes over one worker pool ----------------------------

def _completed_batch():
    assert run_batch(_ok_items(4), BatchConfig(jobs=2)).ok


def _early_exit():
    items = [_call_item("boom", "tests.test_batch:_crash", cost=100.0)]
    items += [_call_item(f"ok{i}", "tests.test_batch:_ok_program")
              for i in range(4)]
    report = run_batch(items, BatchConfig(jobs=2, stop_after_failures=1))
    assert report.items[0].status == "error"


def _abandoned_stream():
    iterator = iter_batch(_ok_items(8), BatchConfig(jobs=2))
    next(iterator)
    iterator.close()


class TestOneRuntime:
    @pytest.mark.parametrize(
        "scenario", [_completed_batch, _early_exit, _abandoned_stream],
        ids=["completed", "early-exit", "abandoned"],
    )
    def test_no_lane_or_worker_outlives_the_batch(self, scenario):
        before = set(threading.enumerate())
        scenario()
        # Lanes are joined before the batch returns: no polling here.
        assert set(threading.enumerate()) <= before
        assert _no_worker_children()

    def test_abandoning_mid_c_hang_releases_the_lane(self):
        # No per-item timeout, so the lane running the C-call hang
        # blocks in conn.poll with no deadline; only the pool's close()
        # (SIGKILL of the busy worker) can release it.
        items = [
            WorkItem("spin-c", "call", "repro.batch.testing:busy_loop_c",
                     cost=100.0),
            _call_item("fine", "tests.test_batch:_ok_program"),
        ]
        before = set(threading.enumerate())
        iterator = iter_batch(items, BatchConfig(jobs=2))
        assert next(iterator).name == "fine"
        time.sleep(0.2)  # spin-c is surely in flight by now
        start = time.monotonic()
        iterator.close()
        assert time.monotonic() - start < 5.0
        assert set(threading.enumerate()) <= before
        assert _no_worker_children()

    def test_counters_survive_concurrent_lanes(self):
        # More lanes than cores and a tiny switch interval; recycling
        # after every item makes every lane count twice per item, so a
        # lost update in a shared counter shows as a shortfall.
        items = _ok_items(16)
        tracer = Tracer()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        start = time.monotonic()
        try:
            with tracing(tracer):
                report = run_batch(
                    items, BatchConfig(jobs=4, max_tasks_per_worker=1)
                )
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - start < 60.0
        assert report.ok
        for name in ("batch.worker.recycled", "batch.worker.respawn"):
            assert report.supervisor[name] == len(items)
            assert tracer.counters[name] == len(items)
        assert _no_worker_children()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_budget_is_bounded(self, jobs):
        # The retry step is shared by both modes; two items so that
        # jobs=2 really runs pooled (one item always runs inline).
        items = [
            _call_item("bad", "tests.test_batch:_crash"),
            _call_item("fine", "tests.test_batch:_ok_program"),
        ]
        report = run_batch(items, BatchConfig(jobs=jobs, retries=2))
        bad, fine = report.items
        assert bad.status == "error"
        assert bad.attempts == 3
        assert fine.status == "ok" and fine.attempts == 1


# -- early exit --------------------------------------------------------------

class TestEarlyExit:
    def test_stop_after_failures_serial_skips_the_rest(self):
        items = [
            _call_item("boom", "tests.test_batch:_crash"),
            _call_item("never-one", "tests.test_batch:_ok_program"),
            _call_item("never-two", "tests.test_batch:_ok_program"),
        ]
        config = BatchConfig(jobs=1, stop_after_failures=1)
        records = list(iter_batch(items, config))
        assert [record.status for record in records] == [
            "error", "skipped", "skipped",
        ]
        assert all("stopped after 1 failed" in record.message
                   for record in records[1:])

    def test_stop_after_failures_pooled_cancels_pending(self):
        # The crash is predicted-heaviest, so LPT dispatches it first;
        # once it fails the queue tail must come back skipped, every
        # index exactly once.
        items = [_call_item("boom", "tests.test_batch:_crash", cost=100.0)]
        items += [
            _call_item(f"ok{i}", "tests.test_batch:_ok_program", cost=1.0)
            for i in range(6)
        ]
        config = BatchConfig(jobs=2, stop_after_failures=1)
        records = list(iter_batch(items, config))
        assert sorted(record.index for record in records) == list(
            range(len(items))
        )
        statuses = {record.name: record.status for record in records}
        assert statuses["boom"] == "error"
        assert "skipped" in statuses.values()
        assert set(statuses.values()) <= {"ok", "error", "skipped"}
        assert _no_worker_children()

    def test_skipped_items_count_in_report(self):
        items = [_call_item("boom", "tests.test_batch:_crash", cost=100.0)]
        items += [
            _call_item(f"ok{i}", "tests.test_batch:_ok_program", cost=1.0)
            for i in range(4)
        ]
        report = run_batch(items, BatchConfig(jobs=2, stop_after_failures=1))
        assert not report.ok
        assert len(report.items) == 5
        assert report.tally.get("skipped", 0) >= 1
        assert report.supervisor["batch.item.skipped"] == report.tally[
            "skipped"
        ]

    def test_batch_deadline_serial(self):
        items = _ok_items(3)
        config = BatchConfig(jobs=1, deadline_s=0.0)
        records = list(iter_batch(items, config))
        assert [record.status for record in records] == ["skipped"] * 3
        assert all("deadline" in record.message for record in records)

    def test_batch_deadline_kills_inflight_pooled_items(self):
        # No per-item timeout at all: only the batch deadline ends the
        # two Python-level spins, which come back skipped, not hung.
        items = [
            _call_item("spin-one", "tests.test_batch:_hang"),
            _call_item("spin-two", "tests.test_batch:_hang"),
        ]
        config = BatchConfig(jobs=2, deadline_s=0.4)
        start = time.monotonic()
        records = list(iter_batch(items, config))
        assert time.monotonic() - start < 10.0
        assert [record.status for record in records] == ["skipped"] * 2
        assert _no_worker_children()


# -- hard deadlines (the kill path) -----------------------------------------

class TestHardDeadline:
    def test_c_hang_is_killed_and_rest_completes(self):
        # busy_loop_c blocks inside one C call, so the worker's SIGALRM
        # can never fire; the supervisor must SIGKILL the worker within
        # timeout + grace, record a clean timeout, respawn, and every
        # other item must still complete ok.
        items = [
            WorkItem("spin-c", "call", "repro.batch.testing:busy_loop_c",
                     cost=100.0),
        ]
        items += [
            _call_item(f"ok{i}", "tests.test_batch:_ok_program", cost=1.0)
            for i in range(4)
        ]
        config = BatchConfig(jobs=2, timeout=0.4, grace=0.4)
        tracer = Tracer()
        start = time.monotonic()
        with tracing(tracer):
            report = run_batch(items, config)
        elapsed = time.monotonic() - start
        by_name = {item.name: item for item in report.items}
        assert by_name["spin-c"].status == "timeout"
        assert "killed" in by_name["spin-c"].message
        assert "0.4" in by_name["spin-c"].message
        for i in range(4):
            assert by_name[f"ok{i}"].status == "ok"
        # Killed well before a runaway would show (item budget is 0.8s
        # hard; the whole batch finishing fast proves the kill).
        assert elapsed < 15.0
        assert report.supervisor["batch.item.killed"] == 1
        assert report.supervisor["batch.worker.respawn"] >= 1
        # The same events are visible as trace counters in the parent.
        assert tracer.counters["batch.item.killed"] == 1
        assert tracer.counters["batch.worker.respawn"] >= 1
        assert _no_worker_children()

    def test_one_item_batch_at_two_jobs_is_killed(self):
        # One item at jobs=2 must still run on the pool: inline, a
        # C-level hang ignores the soft SIGALRM and never returns.  The
        # batch runs in a child session under a hard limit, so a
        # regression fails here instead of hanging the suite.
        script = (
            "import json, time\n"
            "from repro.batch import BatchConfig, WorkItem, run_batch\n"
            "items = [WorkItem('spin-c', 'call',"
            " 'repro.batch.testing:busy_loop_c')]\n"
            "start = time.monotonic()\n"
            "report = run_batch(items,"
            " BatchConfig(jobs=2, timeout=1.0, grace=1.0))\n"
            "print(json.dumps({'elapsed': time.monotonic() - start,"
            " 'statuses': [item.status for item in report.items]}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("a one-item batch at jobs=2 was not killed")
        assert child.returncode == 0, err[-2000:]
        result = json.loads(out.splitlines()[-1])
        assert result["statuses"] == ["timeout"]
        # timeout + grace, plus a few seconds for pool start-up.
        assert result["elapsed"] < 1.0 + 1.0 + 5.0, result

    def test_py_hang_still_uses_soft_timeout_and_worker_survives(self):
        # A bytecode-level spin is SIGALRM-interruptible: no kill, no
        # respawn — the warm worker handles the next item.
        items = [
            _call_item("spin-py", "tests.test_batch:_hang", cost=100.0),
            _call_item("fine", "tests.test_batch:_ok_program", cost=1.0),
        ]
        report = run_batch(items, BatchConfig(jobs=2, timeout=0.4, grace=5.0))
        by_name = {item.name: item for item in report.items}
        assert by_name["spin-py"].status == "timeout"
        assert "exceeded 0.4s budget" in by_name["spin-py"].message
        assert by_name["fine"].status == "ok"
        assert (report.supervisor or {}).get("batch.item.killed", 0) == 0

    def test_killed_item_respects_retry_budget(self):
        items = [
            WorkItem("spin-c", "call", "repro.batch.testing:busy_loop_c"),
            _call_item("fine", "tests.test_batch:_ok_program"),
        ]
        config = BatchConfig(jobs=2, timeout=0.3, grace=0.3, retries=1)
        report = run_batch(items, config)
        by_name = {item.name: item for item in report.items}
        assert by_name["spin-c"].status == "timeout"
        assert by_name["spin-c"].attempts == 2
        assert by_name["fine"].status == "ok"
        assert report.supervisor["batch.item.killed"] == 2


# -- worker recycling --------------------------------------------------------

class TestRecycling:
    def test_recycle_after_n_items_respawns_workers(self):
        items = _ok_items(6)
        config = BatchConfig(jobs=2, max_tasks_per_worker=2)
        tracer = Tracer()
        with tracing(tracer):
            report = run_batch(items, config)
        assert report.ok
        assert report.supervisor["batch.worker.recycled"] >= 1
        assert report.supervisor["batch.worker.respawn"] >= 1
        assert tracer.counters["batch.worker.respawn"] >= 1
        # Recycling is visible in the pids too: more distinct worker
        # processes served the batch than the pool is wide.
        pids = {item.pid for item in report.items}
        assert len(pids) > 2
        assert _no_worker_children()

    def test_no_recycling_without_the_knob(self):
        items = _ok_items(6)
        report = run_batch(items, BatchConfig(jobs=2))
        assert report.ok
        assert report.supervisor is None
        assert len({item.pid for item in report.items}) <= 2
