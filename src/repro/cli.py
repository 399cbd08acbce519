"""Command-line interface: run registered experiments from the shell.

Usage::

    python -m repro list                      # show registered experiments
    python -m repro run fig1 --scale ci       # run one, print the report
    python -m repro run all --scale ci        # run everything
    python -m repro run all --jobs 4          # ... on a 4-process pool
    python -m repro run all --cache --stats   # cached + engine metrics
    python -m repro run all --stats --json    # machine-readable stats
    python -m repro run all --faults lossy --seed 7   # fault injection
    python -m repro run fig3 --trace out.json # record spans + sim events
    python -m repro trace summarize out.json  # inspect a recorded trace
    python -m repro run all --journal run.jnl # crash-safe write-ahead log
    python -m repro run all --resume run.jnl  # restore + finish the rest
    python -m repro journal show run.jnl      # inspect a journal
    python -m repro journal verify run.jnl    # checksum/torn-tail check
    python -m repro run fig4 --guard observe  # numerical sentinels on
    python -m repro run fig4 --guard repair --guard-inject overflow16
    python -m repro guard report guard.json   # inspect a guard report
    python -m repro faults --seed 42          # fault-severity drift sweep
    python -m repro faults --list-presets     # built-in fault presets
    python -m repro campaign list             # built-in scenario packs
    python -m repro campaign run mixed-chaos  # chaos campaign + scoreboard
    python -m repro campaign autopilot --seed 7 --budget 20 \
        --freeze-dir tests/golden/scenarios   # search + freeze regressions
    python -m repro campaign replay           # frozen scenarios still bite?
    python -m repro claims fig5               # show the checked claims
    python -m repro cache clear               # drop cached outcomes
    python -m repro chaos crashpoints --seed 7  # storage-chaos sweep
    python -m repro chaos replay              # frozen crashpoints safe?

Every ``run`` goes through the execution engine in :mod:`repro.exec`;
with the defaults (``--jobs 1``, no cache, ``--faults off``) its output
is byte-identical to the original serial path.  Exit status is non-zero
if any claim fails, so the CLI doubles as a reproduction gate in CI.
``--faults SPEC --seed N`` injects a deterministic fault plan (degraded
links, message loss, stragglers, rank failure) into every simulated MPI
world; ``--task-timeout``/``--retries`` bound and retry sweep-point
tasks so one bad point degrades its experiment instead of killing the
run.  ``--trace FILE`` records an observability trace (wall spans,
virtual-clock simulator events, metrics) without touching stdout — the
file opens in ``chrome://tracing`` (or, with a ``.jsonl`` suffix, greps
cleanly) and ``repro trace summarize`` renders it as text.

Numerical guardrails: ``--guard observe|strict|repair`` turns on the
:mod:`repro.guard` subsystem — vectorised NaN/Inf/overflow/subnormal
sentinels inside ShallowWaters stepping, roofline contracts on modelled
BLAS GFLOP/s, virtual-clock monotonicity and reduction-payload checks
in the MPI simulator.  ``observe`` records without changing a byte of
output; ``strict`` fails a task on the first violation (a structured
numerical error, distinct from a crash); ``repair`` rescues failing
ShallowWaters points through the paper's scale → compensated → promote
ladder and annotates the result as ``degraded`` with the full
remediation chain.  ``--guard-inject overflow16`` plants a synthetic
Float16 overflow to exercise the machinery; ``--guard-out FILE`` writes
the guard report as JSON and ``repro guard report`` renders it (or
digs the same data out of a ``--journal`` file).

Robustness: ``--journal FILE`` appends an fsync'd, checksummed record
of every task dispatch/completion, so a SIGKILL/OOM mid-run loses no
finished work; ``--resume FILE`` restores the completed sweep points
and only dispatches the remainder (figures byte-identical to an
uninterrupted run).  SIGINT/SIGTERM trigger a graceful drain — stop
dispatching, give in-flight tasks ``--grace`` seconds, flush
journal/trace — and exit with the resumable status 75 (``EX_TEMPFAIL``)
instead of a traceback; a second signal force-quits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from typing import List, Optional

from .core.experiments import REGISTRY
from .exec import (
    DEFAULT_CACHE_DIR,
    GUARD_INJECTIONS,
    RESUMABLE_EXIT_CODE,
    Engine,
    JournalError,
    JournalWriter,
    ResultCache,
    RunSpec,
    RunSpecError,
    guard_summary,
    journal_summary,
    load_journal,
    verify_journal,
)
from .exec.runspec import RUN_SCALES
from .chaos.workloads import WORKLOADS as CHAOS_WORKLOADS
from .guard import GUARD_MODES

__all__ = ["main", "build_parser"]


class _GracefulShutdown:
    """SIGINT/SIGTERM → drain instead of dying.

    The first signal sets :attr:`event` (which the scheduler polls to
    stop dispatching and drain in-flight tasks); a second signal raises
    :class:`KeyboardInterrupt` to force-quit.  Handlers are restored on
    exit; outside the main thread (no signal access) the event still
    works as a manual cancel hook.
    """

    def __init__(self) -> None:
        self.event = threading.Event()
        self._old: dict = {}

    def _handle(self, signum, frame) -> None:
        if self.event.is_set():
            raise KeyboardInterrupt  # second signal: force-quit
        self.event.set()
        print(
            "interrupt: draining (in-flight tasks get a grace period; "
            "signal again to force-quit)",
            file=sys.stderr,
        )

    def __enter__(self) -> "_GracefulShutdown":
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old[sig] = signal.signal(sig, self._handle)
            except ValueError:  # not the main thread
                break
        return self

    def __exit__(self, *exc) -> None:
        for sig, old in self._old.items():
            signal.signal(sig, old)
        self._old.clear()


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one per CPU), got {jobs}"
        )
    return jobs


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser."""
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Productivity meets Performance: Julia on "
        "A64FX' (CLUSTER 2022)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run an experiment and check claims")
    run_p.add_argument("key", help="experiment key (fig1..fig5, lst1) or 'all'")
    run_p.add_argument(
        "--scale", default="ci", choices=RUN_SCALES,
        help="problem scale (default: ci)",
    )
    run_p.add_argument(
        "--quiet", action="store_true", help="suppress the rendered report"
    )
    run_p.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="worker processes for sweep-point tasks "
        "(default: 1 = in-process; 0 = one per CPU)",
    )
    run_p.add_argument(
        "--cache", action="store_true",
        help=f"reuse/store outcomes under {DEFAULT_CACHE_DIR}/ "
        "(invalidated when parameters or repro sources change)",
    )
    run_p.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help="cache directory (implies --cache when given)",
    )
    run_p.add_argument(
        "--stats", action="store_true",
        help="print per-task timings and cache hit/miss statistics",
    )
    run_p.add_argument(
        "--json", action="store_true", dest="json_stats",
        help="emit run statistics as JSON on stdout (suppresses reports)",
    )
    run_p.add_argument(
        "--faults", default="off", metavar="SPEC",
        help="fault-injection spec: off, a preset "
        "(degraded, lossy, straggler, failstop) with optional "
        "':severity' multiplier, or 'key=value,...' overrides "
        "(default: off)",
    )
    run_p.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="fault-plan seed; same seed + spec => identical injected "
        "faults, regardless of --jobs (default: 0)",
    )
    run_p.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="per-task wall-clock bound in seconds (pool mode); an "
        "expired task degrades its experiment instead of hanging",
    )
    run_p.add_argument(
        "--retries", type=int, default=1, metavar="K",
        help="fresh-pool retries after a worker crash (default: 1)",
    )
    run_p.add_argument(
        "--trace", default=None, metavar="FILE", dest="trace_path",
        help="record an observability trace to FILE (Chrome trace JSON; "
        "a .jsonl suffix selects flat JSONL); stdout is unchanged",
    )
    journal_group = run_p.add_mutually_exclusive_group()
    journal_group.add_argument(
        "--journal", default=None, metavar="FILE", dest="journal_path",
        help="append a crash-safe write-ahead log of every task "
        "dispatch/completion to FILE (fsync'd, checksummed JSONL)",
    )
    journal_group.add_argument(
        "--resume", default=None, metavar="FILE", dest="resume_path",
        help="resume an interrupted run from its journal: completed "
        "sweep points are restored, the rest executed, and new "
        "records appended to the same FILE",
    )
    run_p.add_argument(
        "--guard", default="off", choices=list(GUARD_MODES),
        help="numerical guardrails: observe records sentinel/contract "
        "events without changing anything, strict fails a task on the "
        "first violation, repair additionally rescues ShallowWaters "
        "points through the scale/compensated/promote ladder "
        "(default: off)",
    )
    run_p.add_argument(
        "--guard-cadence", type=int, default=16, metavar="N",
        help="simulation steps between guard sentinel probes "
        "(default: 16)",
    )
    run_p.add_argument(
        "--guard-inject", default=None, choices=list(GUARD_INJECTIONS),
        help="inject a synthetic numerical fault (overflow16: run the "
        "Fig. 4 Float16 point with an overflowing scaling) to exercise "
        "the guard end to end",
    )
    run_p.add_argument(
        "--guard-out", default=None, metavar="FILE",
        help="write the run's guard report (events, violations, "
        "remediation chains) to FILE as JSON; requires --guard",
    )
    run_p.add_argument(
        "--grace", type=float, default=5.0, metavar="S",
        help="seconds to let in-flight tasks finish after SIGINT/SIGTERM "
        "before the pool is terminated (default: 5)",
    )
    run_p.add_argument(
        "--watchdog", type=float, default=None, metavar="S",
        help="kill the pool and journal in-flight tasks as interrupted "
        "if no worker heartbeat lands for S seconds (pool mode only)",
    )
    run_p.add_argument(
        "--profile", type=int, default=None, metavar="N", dest="profile_top",
        help="profile the run under cProfile and print the top N "
        "functions by cumulative time to stderr (in-process tasks "
        "only; pool workers are not profiled)",
    )
    run_p.add_argument(
        "--metrics-dir", default=None, metavar="DIR", dest="metrics_dir",
        help="snapshot this run into a per-run metric document in DIR "
        "(see 'repro bench trend')",
    )

    journal_p = sub.add_parser(
        "journal", help="inspect or verify crash-safe run journals"
    )
    journal_sub = journal_p.add_subparsers(dest="journal_command",
                                           required=True)
    show_p = journal_sub.add_parser(
        "show", help="run metadata and per-task status from a journal"
    )
    show_p.add_argument("file", help="journal file written by --journal")
    show_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the journal summary as JSON on stdout",
    )
    verify_p = journal_sub.add_parser(
        "verify",
        help="integrity-check a journal (checksums, torn tail); exit 0 "
        "when clean, 1 when corrupt records were skipped",
    )
    verify_p.add_argument("file", help="journal file written by --journal")
    verify_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the verification document as JSON on stdout",
    )

    guard_p = sub.add_parser(
        "guard", help="inspect numerical-guard reports"
    )
    guard_sub = guard_p.add_subparsers(dest="guard_command", required=True)
    greport_p = guard_sub.add_parser(
        "report",
        help="render the guard events/remediation chains from a "
        "--guard-out JSON file or a --journal run journal",
    )
    greport_p.add_argument(
        "file", help="guard report (--guard-out) or journal (--journal) file"
    )
    greport_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the guard report as JSON on stdout",
    )

    faults_p = sub.add_parser(
        "faults",
        help="sweep fault severities and report drift from the "
        "fault-free baseline",
    )
    faults_p.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="fault-plan seed (default: 0)",
    )
    faults_p.add_argument(
        "--severities", default="off,degraded,lossy,straggler,failstop",
        metavar="LIST", help="comma-separated fault specs to sweep "
        "(default: off,degraded,lossy,straggler,failstop)",
    )
    faults_p.add_argument(
        "--nranks", type=int, default=16, metavar="N",
        help="simulated MPI world size (default: 16)",
    )
    faults_p.add_argument(
        "--repetitions", type=int, default=2, metavar="N",
        help="benchmark repetitions per point (default: 2)",
    )
    faults_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the drift report as JSON on stdout",
    )
    faults_p.add_argument(
        "--trace", default=None, metavar="FILE", dest="trace_path",
        help="record the sweep's observability trace to FILE "
        "(Chrome trace JSON, or JSONL with a .jsonl suffix)",
    )
    faults_p.add_argument(
        "--list-presets", action="store_true", dest="list_presets",
        help="list the built-in fault presets (knobs, severity knob, "
        "summary) and exit without running a sweep",
    )
    faults_p.add_argument(
        "--metrics-dir", default=None, metavar="DIR", dest="metrics_dir",
        help="snapshot the sweep into a per-run metric document in DIR "
        "(see 'repro bench trend')",
    )

    campaign_p = sub.add_parser(
        "campaign",
        help="run declarative chaos-scenario packs and the coverage "
        "autopilot",
    )
    campaign_sub = campaign_p.add_subparsers(dest="campaign_command",
                                             required=True)
    campaign_sub.add_parser(
        "list", help="list built-in scenario packs and their scenarios"
    ).add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the pack catalogue as JSON on stdout",
    )
    crun_p = campaign_sub.add_parser(
        "run",
        help="run a scenario pack (or a scenario spec file) and print "
        "the drift/remediation scoreboard",
    )
    crun_p.add_argument(
        "selector",
        help="pack name (see 'repro campaign list') or a path to a "
        "JSON/YAML scenario document",
    )
    crun_p.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="cap the campaign at N scenario runs, baselines included "
        "(default: no cap)",
    )
    crun_p.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="worker processes for scenario runs (default: 1; the "
        "scoreboard is identical at any value)",
    )
    cjournal_group = crun_p.add_mutually_exclusive_group()
    cjournal_group.add_argument(
        "--journal", default=None, metavar="FILE", dest="journal_path",
        help="crash-safe write-ahead log of every scenario run",
    )
    cjournal_group.add_argument(
        "--resume", default=None, metavar="FILE", dest="resume_path",
        help="resume an interrupted campaign from its journal "
        "(completed scenarios restored byte-identically)",
    )
    crun_p.add_argument(
        "--out", default=None, metavar="FILE", dest="out_path",
        help="write the campaign document to FILE as JSON (atomic)",
    )
    crun_p.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="per-scenario wall-clock bound in seconds (pool mode)",
    )
    crun_p.add_argument(
        "--grace", type=float, default=2.0, metavar="S",
        help="drain grace period after SIGINT/SIGTERM (default: 2)",
    )
    crun_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the campaign document as JSON on stdout",
    )
    crun_p.add_argument(
        "--metrics-dir", default=None, metavar="DIR", dest="metrics_dir",
        help="snapshot the campaign scoreboard into a per-run metric "
        "document in DIR (see 'repro bench trend')",
    )
    auto_p = campaign_sub.add_parser(
        "autopilot",
        help="seeded mutation search for worst-drift scenarios; freezes "
        "the top offenders as replayable regressions",
    )
    auto_p.add_argument(
        "--pack", default="mixed-chaos", metavar="NAME",
        help="seed population pack (default: mixed-chaos)",
    )
    auto_p.add_argument(
        "--budget", type=int, default=20, metavar="N",
        help="total scenario-evaluation budget, baselines included "
        "(default: 20)",
    )
    auto_p.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="search seed; same seed + budget + pack => identical "
        "scoreboard and frozen files at any --jobs (default: 0)",
    )
    auto_p.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="worker processes per evaluation batch (default: 1)",
    )
    auto_p.add_argument(
        "--freeze", type=int, default=1, metavar="K",
        help="freeze the K worst scenarios as regressions (default: 1)",
    )
    auto_p.add_argument(
        "--freeze-dir", default=None, metavar="DIR", dest="freeze_dir",
        help="directory for frozen regression files (e.g. "
        "tests/golden/scenarios); omitted = report only, write nothing",
    )
    auto_p.add_argument(
        "--out", default=None, metavar="FILE", dest="out_path",
        help="write the autopilot document to FILE as JSON (atomic)",
    )
    auto_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the autopilot document as JSON on stdout",
    )
    auto_p.add_argument(
        "--metrics-dir", default=None, metavar="DIR", dest="metrics_dir",
        help="snapshot the autopilot scoreboard into a per-run metric "
        "document in DIR (see 'repro bench trend')",
    )
    replay_p = campaign_sub.add_parser(
        "replay",
        help="re-run frozen scenario regressions and check result "
        "digests; exit 1 on any drift",
    )
    replay_p.add_argument(
        "target", nargs="?", default="tests/golden/scenarios",
        help="frozen scenario file or directory "
        "(default: tests/golden/scenarios)",
    )
    replay_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit replay results as JSON on stdout",
    )

    trace_p = sub.add_parser(
        "trace", help="inspect recorded observability traces"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    summ_p = trace_sub.add_parser(
        "summarize", help="summarize a trace file written by --trace"
    )
    summ_p.add_argument("file", help="trace file (.json or .jsonl)")
    summ_p.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="slowest spans to show (default: 10)",
    )
    summ_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the summary as JSON on stdout",
    )

    bench_p = sub.add_parser(
        "bench",
        help="inspect the per-run metric-document store and gate on "
        "performance trends",
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    trend_p = bench_sub.add_parser(
        "trend",
        help="compare the newest metric document of each kind against "
        "its predecessors; exit 1 when a metric regresses beyond "
        "tolerance",
    )
    trend_p.add_argument(
        "--store", default=None, metavar="DIR",
        help="metric-document store (default: $REPRO_METRICS_DIR or "
        ".repro-metrics)",
    )
    trend_p.add_argument(
        "--last", type=int, default=10, metavar="N",
        help="trend window: newest N documents (default: 10)",
    )
    trend_p.add_argument(
        "--kind", default=None,
        choices=["run", "faults", "campaign", "autopilot", "bench"],
        help="restrict the window to one document kind",
    )
    trend_p.add_argument(
        "--tolerance", type=float, default=None, metavar="T",
        help="relative tolerance for higher/lower-is-better metrics "
        "(default: 0.10, the paper's ~10%% bar; per-metric tolerances "
        "in documents win)",
    )
    trend_p.add_argument(
        "--since", default=None, metavar="SHA",
        help="window the history on the recorded git sha: drop documents "
        "older than the first one whose meta.git_sha matches this "
        "(prefix) sha",
    )
    trend_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the machine-readable verdict as JSON on stdout",
    )
    blist_p = bench_sub.add_parser(
        "list", help="list the documents in a metric store"
    )
    blist_p.add_argument(
        "--store", default=None, metavar="DIR",
        help="metric-document store (default: $REPRO_METRICS_DIR or "
        ".repro-metrics)",
    )
    blist_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the document listing as JSON on stdout",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run (or talk to) the crash-tolerant sweep daemon with a "
        "durable job queue and HTTP API",
    )
    serve_sub = serve_p.add_subparsers(dest="serve_command", required=True)
    sstart_p = serve_sub.add_parser(
        "start",
        help="start the daemon on a state directory (restarting on an "
        "existing one resumes every unfinished job)",
    )
    sstart_p.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="durable state directory (job log, per-job journals, "
        "results, metric store)",
    )
    sstart_p.add_argument(
        "--host", default="127.0.0.1", help="HTTP bind host",
    )
    sstart_p.add_argument(
        "--port", type=int, default=8750, help="HTTP port (0 = ephemeral)",
    )
    sstart_p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent job leases (default: 2)",
    )
    sstart_p.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="S",
        help="seconds without a heartbeat before a lease expires and "
        "the job is re-dispatched (default: 30)",
    )
    sstart_p.add_argument(
        "--heartbeat", type=float, default=1.0, metavar="S",
        help="worker heartbeat interval (default: 1.0)",
    )
    sstart_p.add_argument(
        "--poll", type=float, default=0.5, metavar="S",
        help="daemon control-loop interval (default: 0.5)",
    )
    sstart_p.add_argument(
        "--max-attempts", type=int, default=3, metavar="K",
        help="expired leases before a job fails terminally (default: 3)",
    )
    sstart_p.add_argument(
        "--grace", type=float, default=5.0, metavar="S",
        help="drain grace period for in-flight workers (default: 5)",
    )
    ssubmit_p = serve_sub.add_parser(
        "submit", help="submit a job to a running daemon",
    )
    ssubmit_p.add_argument(
        "kind", choices=["run", "faults", "campaign", "autopilot"],
        help="what to run",
    )
    ssubmit_p.add_argument(
        "--url", default=None, metavar="URL",
        help="daemon address (default: $REPRO_SERVE_URL or "
        "http://127.0.0.1:8750)",
    )
    ssubmit_p.add_argument(
        "--key", default=None, help="experiment key for run jobs",
    )
    ssubmit_p.add_argument(
        "--scale", default=None, choices=RUN_SCALES,
        help="sweep scale for run jobs",
    )
    ssubmit_p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault spec for run jobs",
    )
    ssubmit_p.add_argument(
        "--seed", type=int, default=None, help="fault/sweep seed",
    )
    ssubmit_p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="in-job parallelism (the engine's --jobs)",
    )
    ssubmit_p.add_argument(
        "--selector", default=None, metavar="PACK",
        help="scenario selector for campaign jobs",
    )
    ssubmit_p.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="scenario budget for campaign/autopilot jobs",
    )
    ssubmit_p.add_argument(
        "--pack", default=None, metavar="PACK",
        help="scenario pack for autopilot jobs",
    )
    ssubmit_p.add_argument(
        "--spec", default=None, metavar="FILE",
        help="JSON file with the full job spec (merged under the flags)",
    )
    ssubmit_p.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state",
    )
    ssubmit_p.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="give up waiting after S seconds (with --wait)",
    )
    ssubmit_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the job document as JSON on stdout",
    )
    sstatus_p = serve_sub.add_parser(
        "status", help="show one job's status (and journal tail)",
    )
    sstatus_p.add_argument("job_id")
    sstatus_p.add_argument("--url", default=None, metavar="URL")
    sstatus_p.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="also print the last N lines of the job's run journal",
    )
    sstatus_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the status document as JSON on stdout",
    )
    sjobs_p = serve_sub.add_parser(
        "jobs", help="list all jobs the daemon knows about",
    )
    sjobs_p.add_argument("--url", default=None, metavar="URL")
    sjobs_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the listing as JSON on stdout",
    )
    scancel_p = serve_sub.add_parser(
        "cancel", help="cancel a queued or running job",
    )
    scancel_p.add_argument("job_id")
    scancel_p.add_argument("--url", default=None, metavar="URL")
    sdrain_p = serve_sub.add_parser(
        "drain",
        help="ask the daemon to drain: stop leasing, checkpoint "
        "in-flight jobs, exit 75",
    )
    sdrain_p.add_argument("--url", default=None, metavar="URL")

    claims_p = sub.add_parser("claims", help="show an experiment's claims")
    claims_p.add_argument("key")

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=["info", "clear"])
    cache_p.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help="cache directory",
    )

    chaos_p = sub.add_parser(
        "chaos",
        help="deterministic storage-chaos harness: crashpoint sweeps "
        "and injected I/O faults across every durable store",
    )
    chaos_sub = chaos_p.add_subparsers(dest="chaos_command", required=True)
    ccrash_p = chaos_sub.add_parser(
        "crashpoints",
        help="enumerate every durability point of each workload, crash "
        "at each point in the budget, and assert recovery converges",
    )
    ccrash_p.add_argument(
        "--seed", type=int, default=0,
        help="chaos plan seed (default: 0)",
    )
    ccrash_p.add_argument(
        "--budget", type=int, default=16, metavar="N",
        help="crashpoints per workload; a seeded subset is selected "
        "when a workload has more points (default: 16)",
    )
    ccrash_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="crashpoints to run in parallel worker processes "
        "(default: 1; the verdict is identical at any value)",
    )
    ccrash_p.add_argument(
        "--workloads", default=None, metavar="W1,W2",
        help="comma-separated workload subset "
        f"(default: all of {','.join(CHAOS_WORKLOADS)})",
    )
    ccrash_p.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the verdict document to FILE as JSON",
    )
    ccrash_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the verdict document as JSON on stdout",
    )
    creplay_p = chaos_sub.add_parser(
        "replay",
        help="re-run frozen crashpoint regressions (files written by "
        "repro.chaos.freeze_crashpoint); exit 1 if any bites again",
    )
    creplay_p.add_argument(
        "paths", nargs="*", default=None, metavar="FILE",
        help="frozen crashpoint files or directories "
        "(default: tests/golden/chaos)",
    )
    creplay_p.add_argument(
        "--json", action="store_true", dest="json_doc",
        help="emit the replay verdicts as JSON on stdout",
    )

    return ap


def _cmd_list() -> int:
    width = max(len(k) for k in REGISTRY)
    for key, exp in REGISTRY.items():
        print(f"{key:<{width}}  {exp.artefact:<16} {exp.description}")
    return 0


def _cmd_claims(key: str) -> int:
    try:
        exp = REGISTRY[key]
    except KeyError:
        print(f"unknown experiment {key!r}; valid names: "
              + ", ".join(sorted(REGISTRY)), file=sys.stderr)
        return 2
    for c in exp.claims:
        print(f"- {c.text}")
    return 0


def _cmd_cache(action: str, cache_dir: str) -> int:
    cache = ResultCache(cache_dir)
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached outcome(s) from {cache.directory}")
    else:
        print(f"{cache.directory}: {len(cache)} cached outcome(s)")
        corrupt = cache.corrupt_entries()
        if corrupt:
            print(f"{len(corrupt)} quarantined corrupt entr"
                  f"{'y' if len(corrupt) == 1 else 'ies'}:")
            for path in corrupt:
                print(f"  {path}")
    return 0


def _probe_output_path(path: str, what: str = "trace",
                       must_exist: bool = False) -> int:
    """Fail fast on a bad output destination: 0 if the file can be
    opened for appending (and, with ``must_exist``, already exists), 2
    (usage error) otherwise — checked *before* any experiment work so a
    typo'd ``--trace``/``--journal``/``--resume`` path costs nothing.

    Probing with ``"a"`` never truncates an existing file, so it is
    safe to point at a journal that will be resumed from."""
    try:
        if must_exist:
            with open(path, "r"):
                pass
        with open(path, "a"):
            pass
    except OSError as exc:
        verb = "read" if must_exist else "write"
        print(f"cannot {verb} {what} at {path!r}: {exc}", file=sys.stderr)
        return 2
    return 0


def _write_trace_file(recorder, path: str) -> int:
    """Write a recorder to ``path``; 0 on success, 2 on an unwritable
    path (usage error, reported on stderr — stdout is never touched)."""
    from .obs import write_trace

    try:
        write_trace(recorder, path)
    except OSError as exc:
        print(f"cannot write trace to {path!r}: {exc}", file=sys.stderr)
        return 2
    print(f"trace written to {path}", file=sys.stderr)
    return 0


def _resolve_store_dir(arg: Optional[str]) -> str:
    """Metric-store directory: explicit flag beats $REPRO_METRICS_DIR
    beats the default ``.repro-metrics``."""
    from .obs.collector import DEFAULT_STORE_DIR

    return arg or os.environ.get("REPRO_METRICS_DIR") or DEFAULT_STORE_DIR


def _probe_metrics_dir(metrics_dir: str) -> int:
    """Fail fast (2) when the metric store cannot be created — checked
    before any experiment work, like every other output destination."""
    from .obs.collector import MetricsStore

    try:
        MetricsStore(metrics_dir)
    except OSError as exc:
        print(f"cannot open metric store at {metrics_dir!r}: {exc}",
              file=sys.stderr)
        return 2
    return 0


def _write_metric_document(metrics_dir: str, doc: dict) -> int:
    """Persist one metric document; 0 on success, 2 on an unwritable
    store (stderr only — stdout is never touched)."""
    from .obs.collector import MetricsStore

    try:
        path = MetricsStore(metrics_dir).write(doc)
    except OSError as exc:
        print(
            f"cannot write metric document to {metrics_dir!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    print(f"metric document written to {path}", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .core.report import render_bench_trend, render_metric_store
    from .obs.collector import DEFAULT_TOLERANCE, MetricsStore, bench_trend

    store_dir = _resolve_store_dir(args.store)
    if not os.path.isdir(store_dir):
        print(
            f"no metric store at {store_dir!r}; runs write documents "
            "with --metrics-dir (or set REPRO_METRICS_DIR)",
            file=sys.stderr,
        )
        return 2
    store = MetricsStore(store_dir)
    if len(store) == 0:
        print(f"metric store {store_dir!r} has no documents",
              file=sys.stderr)
        return 2

    if args.bench_command == "list":
        docs = store.load_last()
        listing = {
            "store": store_dir,
            "corrupt_documents": len(store.corrupt_documents()),
            "documents": [
                {
                    "file": path.name,
                    "kind": doc["kind"],
                    "metrics": len(doc.get("metrics", {})),
                    "digest": doc.get("digest"),
                    "git_sha": doc.get("meta", {}).get("git_sha"),
                }
                for path, doc in docs
            ],
        }
        if args.json_doc:
            print(json.dumps(listing, indent=2, sort_keys=True))
        else:
            print(render_metric_store(listing))
        return 0

    # bench trend
    if args.last < 1:
        print("--last must be >= 1", file=sys.stderr)
        return 2
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    if tolerance < 0:
        print("--tolerance must be >= 0", file=sys.stderr)
        return 2
    try:
        verdict = bench_trend(
            store, last=args.last, kind=args.kind, tolerance=tolerance,
            since=args.since,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json_doc:
        print(json.dumps(verdict, indent=2, sort_keys=True))
    else:
        print(render_bench_trend(verdict))
    return 0 if verdict["ok"] else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from .core.report import render_fault_sweep, render_table
    from .mpi.faults import (
        fault_drift_report,
        list_presets,
        parse_fault_spec,
    )

    if args.list_presets:
        presets = list_presets()
        if args.json_doc:
            print(json.dumps(presets, indent=2, sort_keys=True))
            return 0
        rows = [
            [name, entry["severity_knob"] or "-", entry["summary"]]
            for name, entry in presets.items()
        ]
        print(render_table(["preset", "severity knob", "summary"], rows))
        print(
            "\nuse with: repro run KEY --faults PRESET[:severity]"
            "[,knob=value,...] --seed N"
        )
        return 0

    severities = [s.strip() for s in args.severities.split(",") if s.strip()]
    try:
        for spec in severities:
            parse_fault_spec(spec, seed=args.seed)
    except ValueError as exc:  # FaultSpecError: "bad fault spec ..."
        print(exc, file=sys.stderr)
        return 2
    if args.metrics_dir is not None:
        status = _probe_metrics_dir(args.metrics_dir)
        if status:
            return status
    recorder = None
    with _GracefulShutdown() as shutdown:
        if args.trace_path is not None:
            from .obs import TraceRecorder, recording, trace_span

            status = _probe_output_path(args.trace_path)
            if status:
                return status
            recorder = TraceRecorder()
            with recording(recorder):
                with trace_span(
                    "fault_sweep", category="sweep",
                    seed=args.seed, severities=",".join(severities),
                ):
                    doc = fault_drift_report(
                        seed=args.seed,
                        severities=severities,
                        nranks=args.nranks,
                        repetitions=args.repetitions,
                        cancel=shutdown.event.is_set,
                    )
        else:
            doc = fault_drift_report(
                seed=args.seed,
                severities=severities,
                nranks=args.nranks,
                repetitions=args.repetitions,
                cancel=shutdown.event.is_set,
            )
    if args.json_doc:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_fault_sweep(doc))
    if recorder is not None:
        status = _write_trace_file(recorder, args.trace_path)
        if status:
            return status
    if args.metrics_dir is not None and not doc.get("interrupted"):
        from .obs.collector import collect_faults

        status = _write_metric_document(args.metrics_dir,
                                        collect_faults(doc))
        if status:
            return status
    if doc.get("interrupted"):
        print(
            "fault sweep interrupted: partial results above "
            f"({len(doc['severities'])}/{len(severities)} severities)",
            file=sys.stderr,
        )
        return RESUMABLE_EXIT_CODE
    errors = sum(
        1 for entry in doc["severities"].values() if entry.get("error")
    )
    return 1 if errors == len(severities) else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .core.report import (
        render_autopilot,
        render_campaign,
        render_replay,
        render_scenario_packs,
    )
    from .scenarios import ScenarioError, list_packs
    from .scenarios.campaign import (
        CampaignError,
        plan_campaign,
        replay_frozen,
        replay_paths,
        resolve_selector,
        run_campaign,
    )

    if args.campaign_command == "list":
        doc = list_packs()
        if args.json_doc:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(render_scenario_packs(doc))
        return 0

    if args.campaign_command == "replay":
        try:
            paths = replay_paths(args.target)
        except CampaignError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        rows = []
        with _GracefulShutdown() as shutdown:
            for path in paths:
                if shutdown.event.is_set():
                    break
                try:
                    rows.append(replay_frozen(path))
                except (CampaignError, ScenarioError) as exc:
                    print(str(exc), file=sys.stderr)
                    return 2
        interrupted = len(rows) < len(paths)
        if args.json_doc:
            print(json.dumps(
                {"replays": rows, "interrupted": interrupted},
                indent=2, sort_keys=True,
            ))
        elif rows:
            print(render_replay(rows))
        if interrupted:
            print(f"replay interrupted: {len(rows)}/{len(paths)} checked",
                  file=sys.stderr)
            return RESUMABLE_EXIT_CODE
        return 1 if any(not r["ok"] for r in rows) else 0

    if args.campaign_command == "autopilot":
        from .scenarios.autopilot import run_autopilot

        if args.out_path is not None:
            status = _probe_output_path(args.out_path, "autopilot document")
            if status:
                return status
        if args.metrics_dir is not None:
            status = _probe_metrics_dir(args.metrics_dir)
            if status:
                return status
        try:
            with _GracefulShutdown() as shutdown:
                doc = run_autopilot(
                    pack=args.pack,
                    budget=args.budget,
                    seed=args.seed,
                    jobs=args.jobs,
                    freeze=args.freeze,
                    freeze_dir=args.freeze_dir,
                    out_path=args.out_path,
                    cancel=shutdown.event,
                    on_progress=lambda msg: print(msg, file=sys.stderr),
                )
        except (ScenarioError, CampaignError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.json_doc:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(render_autopilot(doc))
        if args.metrics_dir is not None and not doc["interrupted"]:
            from .obs.collector import collect_autopilot

            status = _write_metric_document(args.metrics_dir,
                                            collect_autopilot(doc))
            if status:
                return status
        return RESUMABLE_EXIT_CODE if doc["interrupted"] else 0

    # campaign run
    if args.budget is not None and args.budget < 1:
        print("--budget must be >= 1", file=sys.stderr)
        return 2
    try:
        name, specs = resolve_selector(args.selector)
        plan = plan_campaign(name, specs, budget=args.budget)
    except (ScenarioError, CampaignError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.journal_path is not None:
        status = _probe_output_path(args.journal_path, "journal")
        if status:
            return status
    if args.resume_path is not None:
        status = _probe_output_path(args.resume_path, "journal",
                                    must_exist=True)
        if status:
            return status
    if args.out_path is not None:
        status = _probe_output_path(args.out_path, "campaign document")
        if status:
            return status
    if args.metrics_dir is not None:
        status = _probe_metrics_dir(args.metrics_dir)
        if status:
            return status
    try:
        with _GracefulShutdown() as shutdown:
            doc = run_campaign(
                plan,
                jobs=args.jobs,
                journal_path=args.journal_path,
                resume_path=args.resume_path,
                cancel=shutdown.event,
                grace=args.grace,
                task_timeout=args.task_timeout,
                out_path=args.out_path,
                on_progress=lambda msg: print(msg, file=sys.stderr),
            )
    except (CampaignError, JournalError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json_doc:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_campaign(doc))
    if args.metrics_dir is not None and not doc["interrupted"]:
        from .obs.collector import collect_campaign

        status = _write_metric_document(args.metrics_dir,
                                        collect_campaign(doc))
        if status:
            return status
    if doc["interrupted"]:
        if args.journal_path or args.resume_path:
            journal = args.journal_path or args.resume_path
            print(
                f"campaign interrupted; resume with: repro campaign run "
                f"{args.selector} --resume {journal}",
                file=sys.stderr,
            )
        return RESUMABLE_EXIT_CODE
    errors = sum(1 for e in doc["scenarios"] if e.get("status") == "error")
    return 1 if errors else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core.report import render_trace_summary
    from .obs import load_trace, summarize_trace

    with _GracefulShutdown() as shutdown:
        try:
            doc = load_trace(args.file)
            interrupted = shutdown.event.is_set()
            summary = (
                {"interrupted": True} if interrupted
                else summarize_trace(doc, top=args.top)
            )
        except OSError as exc:
            print(f"cannot read trace {args.file!r}: {exc}", file=sys.stderr)
            return 2
        except (ValueError, KeyError) as exc:
            print(f"not a trace file {args.file!r}: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            # Force-quit (second signal) mid-load/summarize: still exit
            # with a marker document instead of a traceback.
            interrupted, summary = True, {"interrupted": True}
    if args.json_doc:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        if interrupted:
            print("trace summary interrupted: no results")
        else:
            print(render_trace_summary(summary))
    return RESUMABLE_EXIT_CODE if interrupted else 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = RunSpec.from_args(args)
    except RunSpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    keys = spec.keys

    # Probe every output destination before any experiment work runs, so
    # a typo'd --trace/--journal/--resume path costs nothing.
    recorder = None
    if args.trace_path is not None:
        from .obs import TraceRecorder

        status = _probe_output_path(args.trace_path)
        if status:
            return status
        recorder = TraceRecorder()
    if args.journal_path is not None:
        status = _probe_output_path(args.journal_path, "journal")
        if status:
            return status
    if args.resume_path is not None:
        status = _probe_output_path(args.resume_path, "journal",
                                    must_exist=True)
        if status:
            return status
    if args.guard_out is not None:
        if spec.guard is None:
            print(
                "--guard-out needs an active guard; add "
                "--guard observe|strict|repair",
                file=sys.stderr,
            )
            return 2
        status = _probe_output_path(args.guard_out, "guard report")
        if status:
            return status
    if args.metrics_dir is not None:
        status = _probe_metrics_dir(args.metrics_dir)
        if status:
            return status

    resume_state = None
    journal_path = args.journal_path
    if args.resume_path is not None:
        try:
            resume_state = load_journal(args.resume_path)
        except JournalError as exc:
            print(f"cannot resume from {args.resume_path!r}: {exc}",
                  file=sys.stderr)
            return 2
        # Resuming under other settings would splice incompatible sweep
        # points into one figure: the journalled run must be this run.
        why = None
        try:
            journalled = RunSpec.from_journal(resume_state.meta or {})
            field = journalled.first_difference(spec)
            if field is not None:
                why = (f"journal {field}={getattr(journalled, field)!r}, "
                       f"requested {field}={getattr(spec, field)!r}; rerun "
                       f"with the journal's {field.split('_')[0]} settings")
        except RunSpecError as exc:
            why = str(exc)
        if why:
            print(f"journal {args.resume_path!r} does not match this run: "
                  f"{why}", file=sys.stderr)
            return 2
        # A resumed run keeps appending to the same write-ahead log, so
        # a second crash resumes from the union of both segments.
        journal_path = args.resume_path

    if args.profile_top is not None and args.profile_top < 1:
        print("--profile needs a positive top-N count", file=sys.stderr)
        return 2

    use_cache = args.cache or args.cache_dir != DEFAULT_CACHE_DIR
    shutdown = _GracefulShutdown()
    try:
        engine = Engine(
            jobs=args.jobs,
            cache=ResultCache(args.cache_dir) if use_cache else None,
            task_timeout=args.task_timeout,
            retries=args.retries,
            spec=spec,
            recorder=recorder,
            resume_state=resume_state,
            cancel_event=shutdown.event,
            grace=args.grace,
            heartbeat_timeout=args.watchdog,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    writer = None
    if journal_path is not None:
        try:
            writer = JournalWriter(journal_path)
        except OSError as exc:
            print(f"cannot write journal at {journal_path!r}: {exc}",
                  file=sys.stderr)
            return 2
        engine.journal = writer

    profiler = None
    if args.profile_top is not None:
        import cProfile

        profiler = cProfile.Profile()
    try:
        with shutdown:
            if profiler is not None:
                profiler.enable()
            try:
                outcomes = engine.run_many()
            finally:
                if profiler is not None:
                    profiler.disable()
    except KeyboardInterrupt:
        # Second signal (force-quit) escaped the scheduler's drain:
        # still exit with the resumable status, not a traceback — the
        # journal already holds every fsync'd completion.
        outcomes = {}
        engine.stats.interrupted = True
    finally:
        if writer is not None:
            writer.close()
    interrupted = engine.stats.interrupted

    if recorder is not None:
        engine.stats.publish_metrics(recorder.metrics)
        status = _write_trace_file(recorder, args.trace_path)
        if status:
            return status
    if args.guard_out is not None:
        report = engine.stats.guard_report() or {"mode": spec.guard}
        try:
            with open(args.guard_out, "w") as f:
                json.dump(report, f, indent=2, sort_keys=True)
                f.write("\n")
        except OSError as exc:
            print(f"cannot write guard report to {args.guard_out!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"guard report written to {args.guard_out}", file=sys.stderr)

    if profiler is not None:
        from .core.report import render_profile

        print(render_profile(profiler, args.profile_top), file=sys.stderr)

    if args.metrics_dir is not None and not interrupted:
        from .obs.collector import collect_run

        status = _write_metric_document(
            args.metrics_dir,
            collect_run(engine.stats, outcomes, keys=keys,
                        scale=spec.scale),
        )
        if status:
            return status

    if engine.stats.resume is not None:
        r = engine.stats.resume
        note = (
            f"resumed from {args.resume_path}: {r['restored']} task(s) "
            f"restored, {r['executed']} executed"
        )
        if r["stale"]:
            note += f", {r['stale']} stale (source changed)"
        print(note, file=sys.stderr)
    if interrupted:
        if journal_path is not None:
            hint = (f"; resume with: repro run {spec.key} "
                    f"--resume {journal_path}")
        else:
            hint = " (no --journal: completed work was not saved)"
        print(
            f"run interrupted: {engine.stats.interrupted_tasks} task(s) "
            f"unfinished{hint}",
            file=sys.stderr,
        )

    if args.json_stats:
        doc = engine.stats.as_dict()
        doc["scale"] = spec.scale
        for entry in doc["experiments"]:
            outcome = outcomes.get(entry["key"])
            if outcome is not None:
                entry["claims"] = [
                    {"text": text, "ok": ok}
                    for text, ok in outcome.claim_results
                ]
        print(json.dumps(doc, indent=2, sort_keys=True))
        if interrupted:
            return RESUMABLE_EXIT_CODE
        return 1 if any(not o.passed for o in outcomes.values()) else 0

    failures = 0
    for k in keys:
        outcome = outcomes.get(k)
        if outcome is None:  # cut short by the shutdown: no verdict
            print(f"[....] {k} ({REGISTRY[k].artefact}) — interrupted")
            continue
        status = "PASS" if outcome.passed else "FAIL"
        print(f"[{status}] {k} ({REGISTRY[k].artefact})")
        for text, ok in outcome.claim_results:
            print(f"    {'ok  ' if ok else 'FAIL'} {text}")
        if not args.quiet:
            print()
            print(outcome.report)
            print()
        if not outcome.passed:
            failures += 1
    if args.stats:
        print(engine.stats.render())
    if interrupted:
        return RESUMABLE_EXIT_CODE
    return 1 if failures else 0


def _cmd_guard(args: argparse.Namespace) -> int:
    from .core.report import render_guard_report

    # A --guard-out file is one JSON object with a top-level "mode";
    # anything else is read as a run journal.
    try:
        with open(args.file) as f:
            text = f.read()
    except OSError as exc:
        print(f"cannot read guard report at {args.file!r}: {exc}",
              file=sys.stderr)
        return 2
    doc = None
    try:
        parsed = json.loads(text)
        if isinstance(parsed, dict) and "mode" in parsed:
            doc = parsed
    except ValueError:
        pass
    if doc is None:
        try:
            doc = guard_summary(args.file)
        except JournalError as exc:
            print(
                f"not a guard report or journal {args.file!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    if args.json_doc:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_guard_report(doc))
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    from .core.report import render_journal

    reader = (
        journal_summary if args.journal_command == "show" else verify_journal
    )
    try:
        doc = reader(args.file)
    except OSError as exc:
        print(f"cannot read journal at {args.file!r}: {exc}",
              file=sys.stderr)
        return 2
    except JournalError as exc:
        print(f"not a journal {args.file!r}: {exc}", file=sys.stderr)
        return 2
    if args.json_doc:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_journal(doc))
    if args.journal_command == "verify":
        return 0 if doc["ok"] else 1
    return 0


def _serve_url(arg: Optional[str]) -> str:
    """Daemon address: explicit flag beats $REPRO_SERVE_URL beats the
    default localhost port."""
    from .serve.client import DEFAULT_URL

    return arg or os.environ.get("REPRO_SERVE_URL") or DEFAULT_URL


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import client as serve_client
    from .serve.client import ServeClientError

    if args.serve_command == "start":
        from .serve.api import start_api
        from .serve.daemon import DaemonConfig, ServeDaemon

        config = DaemonConfig(
            state_dir=args.state_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            lease_timeout=args.lease_timeout,
            heartbeat=args.heartbeat,
            poll=args.poll,
            max_attempts=args.max_attempts,
            grace=args.grace,
        )
        try:
            daemon = ServeDaemon(config)
        except (ValueError, OSError) as exc:
            print(f"cannot start serve daemon: {exc}", file=sys.stderr)
            return 2
        with _GracefulShutdown() as shutdown:
            try:
                server = start_api(daemon, shutdown.event)
            except OSError as exc:
                print(
                    f"cannot bind {args.host}:{args.port}: {exc}",
                    file=sys.stderr,
                )
                return 2
            host, port = server.server_address[:2]
            print(
                f"serve daemon on http://{host}:{port} "
                f"(state: {daemon.store.state_dir})",
                file=sys.stderr,
            )
            try:
                status = daemon.run_forever(shutdown.event)
            except KeyboardInterrupt:
                # Second signal (force-quit): leases stay in the log;
                # the next start on this state dir recovers them.
                status = RESUMABLE_EXIT_CODE
            finally:
                server.shutdown()
                server.server_close()  # joins in-flight request threads
        return status

    url = _serve_url(args.url)
    try:
        if args.serve_command == "submit":
            spec: dict = {}
            if args.spec is not None:
                try:
                    with open(args.spec) as f:
                        loaded = json.load(f)
                except (OSError, ValueError) as exc:
                    print(f"cannot read spec {args.spec!r}: {exc}",
                          file=sys.stderr)
                    return 2
                if not isinstance(loaded, dict):
                    print(f"spec {args.spec!r} must be a JSON object",
                          file=sys.stderr)
                    return 2
                spec.update(loaded)
            for flag in ("key", "scale", "faults", "seed", "jobs",
                         "selector", "budget", "pack"):
                value = getattr(args, flag)
                if value is not None:
                    spec[flag] = value
            doc = serve_client.submit_job(args.kind, spec, url=url)
            job_id = doc["job_id"]
            if not args.wait:
                if args.json_doc:
                    print(json.dumps(doc, indent=2, sort_keys=True))
                else:
                    print(f"submitted {job_id} ({args.kind})")
                return 0
            print(f"submitted {job_id} ({args.kind}); waiting...",
                  file=sys.stderr)
            final = serve_client.wait_for_job(
                job_id, url=url, timeout=args.timeout,
            )
            if args.json_doc:
                print(json.dumps(final, indent=2, sort_keys=True))
            else:
                from .core.report import render_serve_status

                print(render_serve_status(final))
            return 0 if final.get("status") == "done" else 1

        if args.serve_command == "status":
            doc = serve_client.get_job(args.job_id, url=url)
            if args.tail is not None:
                doc["journal_tail"] = serve_client.job_journal(
                    args.job_id, tail=args.tail, url=url,
                )["lines"]
            if args.json_doc:
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                from .core.report import render_serve_status

                print(render_serve_status(doc))
            return 0

        if args.serve_command == "jobs":
            doc = serve_client.list_jobs(url=url)
            if args.json_doc:
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                from .core.report import render_serve_jobs

                print(render_serve_jobs(doc))
            return 0

        if args.serve_command == "cancel":
            doc = serve_client.cancel_job(args.job_id, url=url)
            print(f"{doc['job_id']} cancelled")
            return 0

        # drain
        serve_client.drain(url=url)
        print("daemon draining (it exits 75 once in-flight jobs "
              "checkpoint)")
        return 0
    except ServeClientError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .chaos import replay_crashpoint, run_crashpoints
    from .core.atomicio import atomic_write_text
    from .core.report import render_chaos_replay, render_chaos_verdict

    if args.chaos_command == "crashpoints":
        if args.budget < 0:
            print("--budget must be >= 0", file=sys.stderr)
            return 2
        if args.jobs < 1:
            print("--jobs must be >= 1", file=sys.stderr)
            return 2
        workloads = None
        if args.workloads:
            workloads = [w.strip() for w in args.workloads.split(",")
                         if w.strip()]
            unknown = [w for w in workloads if w not in CHAOS_WORKLOADS]
            if unknown:
                print(
                    f"unknown workload(s): {', '.join(unknown)} "
                    f"(choose from {', '.join(CHAOS_WORKLOADS)})",
                    file=sys.stderr,
                )
                return 2
        doc = run_crashpoints(
            workloads=workloads, seed=args.seed, budget=args.budget,
            jobs=args.jobs,
        )
        if args.out:
            atomic_write_text(
                Path(args.out),
                json.dumps(doc, indent=2, sort_keys=True) + "\n",
                durable=False,
            )
        if args.json_doc:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(render_chaos_verdict(doc))
        return 0 if doc["ok"] else 1

    # chaos replay
    paths: List[Path] = []
    for raw in args.paths or ["tests/golden/chaos"]:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        else:
            paths.append(p)
    if not paths:
        print("no frozen crashpoints found (freeze some with "
              "repro.chaos.freeze_crashpoint)", file=sys.stderr)
        return 2
    verdicts = []
    for p in paths:
        try:
            verdicts.append(replay_crashpoint(p))
        except (OSError, ValueError) as exc:
            print(f"cannot replay {p}: {exc}", file=sys.stderr)
            return 2
    ok = all(v["ok"] for v in verdicts)
    if args.json_doc:
        print(json.dumps(
            {"verdicts": verdicts, "ok": ok}, indent=2, sort_keys=True,
        ))
    else:
        print(render_chaos_replay(verdicts))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "claims":
            return _cmd_claims(args.key)
        if args.command == "cache":
            return _cmd_cache(args.action, args.cache_dir)
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "journal":
            return _cmd_journal(args)
        if args.command == "guard":
            return _cmd_guard(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "run":
            return _cmd_run(args)
    except BrokenPipeError:
        # `repro journal show run.jsonl | head` closes stdout early;
        # die quietly like POSIX tools do instead of tracebacking.
        # Point the fd at devnull so interpreter shutdown doesn't trip
        # over the same broken pipe while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except KeyboardInterrupt:
        # Ctrl-C outside a drain scope (startup, teardown, or a second
        # force-quit signal): no traceback, conventional 130.
        print("interrupted", file=sys.stderr)
        return 128 + signal.SIGINT
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
