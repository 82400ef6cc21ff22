"""Benchmark-suite plumbing: session tracing + end-of-run report tables.

Each benchmark module regenerates one table/figure/claim of the paper
(see DESIGN.md's experiment index) and records the rendered rows via
:func:`repro.bench.harness.record_report`; the terminal-summary hook
prints them after pytest's own output so they survive capturing.

The whole session additionally runs under an installed
:class:`repro.obs.trace.Tracer`, and the collected trace (per-analysis
wall time, sweep counts, bit-vector op tallies) is persisted as
``BENCH_TRACE.json`` in the invocation directory — CI asserts that the
file exists and is valid JSON.  The file is not committed (the root
``.gitignore`` lists it), so that check sees this session's trace.
"""

import os

from repro.bench.harness import drain_reports, write_trace_summary
from repro.obs.trace import Tracer, activate, deactivate

TRACE_FILENAME = "BENCH_TRACE.json"


def pytest_sessionstart(session):
    activate(Tracer())


def pytest_sessionfinish(session, exitstatus):
    tracer = deactivate()
    if tracer is None or not tracer.events:
        return
    path = os.path.join(str(session.config.invocation_params.dir),
                        TRACE_FILENAME)
    try:
        write_trace_summary(path, tracer, extra={"exitstatus": int(exitstatus)})
    except OSError:
        pass  # read-only invocation dir: the trace is best-effort


def pytest_terminal_summary(terminalreporter):
    reports = drain_reports()
    if not reports:
        return
    terminalreporter.write_sep("=", "paper reproduction reports")
    for report in reports:
        terminalreporter.write_line("")
        for line in report.splitlines():
            terminalreporter.write_line(line)
