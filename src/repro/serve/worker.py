"""The per-job worker subprocess: ``python -m repro.serve.worker``.

The daemon leases a job, appends ``job_leased``, and spawns one of
these per job, handing it the job's kind and spec on the command line
so the worker never replays the job log.  The worker's lifecycle is
deliberately *independent* of the daemon's: it talks to the world only
through the shared state directory (heartbeats into ``jobs.log``,
checkpoints into its per-job run journal, the final document into
``results/``), so a daemon that dies mid-job leaves an orphan worker
that keeps making durable progress — the restarted daemon sees its
fresh heartbeats and leaves the lease alone.

Execution per kind mirrors the CLI command byte-for-byte (same engine
wiring, same collector) so a job's metric-document ``digest`` is
identical to ``repro run/faults/campaign/autopilot`` at any job count:

* ``run``       → :class:`repro.exec.Engine` built from the spec's
  :class:`~repro.exec.runspec.RunSpec`, with the per-job journal
  (resumed when a previous attempt left one) → ``collect_run``;
* ``faults``    → ``fault_drift_report`` → ``collect_faults``;
* ``campaign``  → ``resolve_selector``/``plan_campaign``/
  ``run_campaign`` with the per-job journal → ``collect_campaign``;
* ``autopilot`` → ``run_autopilot`` → ``collect_autopilot``.

Exit contract: 0 = job_done appended; 1 = job_failed appended (typed
terminal error); 75 = drained on SIGTERM with the journal checkpointed
(the daemon requeues the job without burning an attempt).  A SIGKILL'd
worker appends nothing — its lease goes stale and the daemon
re-dispatches with backoff.

Spec keys starting with ``_`` are test levers, stripped before
execution (they never reach the engine, so they cannot perturb
digests).  ``_wedge_attempts: K`` makes attempts ``<= K`` wedge —
stop heartbeating and hang until killed — which is how the test suite
produces a deterministic lease expiry.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..core.atomicio import atomic_write_text, canonical_json
from ..exec.journal import (RESUMABLE_EXIT_CODE, JournalError,
                            JournalState, load_journal)
from ..exec.runspec import RunSpec
from .store import JobStore, validate_job_spec

__all__ = ["execute_job", "finalize_job", "main"]

#: Default seconds between worker heartbeats into the job log.
DEFAULT_HEARTBEAT_S = 1.0


class _Heartbeat:
    """Background thread appending ``job_heartbeat`` records until
    stopped; the lease-freshness signal the daemon watches."""

    def __init__(self, store: JobStore, job_id: str, interval: float) -> None:
        self._store = store
        self._job_id = job_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._store.job_heartbeat(self._job_id, os.getpid())
            except OSError:  # pragma: no cover - state dir vanished
                return
            self._stop.wait(self._interval)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()


def _job_summary(kind: str, doc: Dict[str, Any]) -> Dict[str, Any]:
    """The small status payload recorded in ``job_done`` (the full
    document lives in ``results/``)."""
    summary: Dict[str, Any] = {"kind": kind}
    if kind == "run":
        summary["experiments"] = doc.get("meta", {}).get("keys")
    elif kind == "campaign":
        summary["scenarios"] = len(doc.get("scenarios") or [])
    elif kind == "autopilot":
        summary["scenarios"] = len(doc.get("scenarios") or [])
    elif kind == "faults":
        summary["metrics"] = len(doc.get("metrics") or {})
    return summary


def _prior_journal(path: Path) -> Optional[JournalState]:
    """The journal an earlier attempt left at ``path``, if usable."""
    try:
        return load_journal(path) if path.exists() else None
    except JournalError:
        return None  # unusable first-attempt tail: start over


def _execute_run(
    run: RunSpec,
    spec: Dict[str, Any],
    store: JobStore,
    job_id: str,
    cancel: threading.Event,
) -> Tuple[Dict[str, Any], bool]:
    """One engine run with the per-job WAL; returns
    ``(metric document, interrupted)``."""
    from ..exec import Engine, JournalWriter
    from ..obs.collector import collect_run

    journal_path = store.journal_path(job_id)
    engine = Engine(
        jobs=int(spec.get("jobs", 1)),
        spec=run,
        resume_state=_prior_journal(journal_path),
        cancel_event=cancel,
        grace=float(spec.get("grace", 5.0)),
    )
    with JournalWriter(journal_path) as writer:
        engine.journal = writer
        outcomes = engine.run_many()
    if engine.stats.interrupted:
        return {}, True
    doc = collect_run(engine.stats, outcomes, keys=run.keys, scale=run.scale)
    return doc, False


def _execute_faults(
    spec: Dict[str, Any], cancel: threading.Event
) -> Tuple[Dict[str, Any], bool]:
    from ..mpi.faults import fault_drift_report
    from ..obs.collector import collect_faults

    kwargs: Dict[str, Any] = {
        "seed": int(spec.get("seed", 0)),
        "cancel": cancel.is_set,
    }
    if spec.get("severities"):
        kwargs["severities"] = [
            s.strip() for s in str(spec["severities"]).split(",") if s.strip()
        ]
    if spec.get("nranks"):
        kwargs["nranks"] = int(spec["nranks"])
    if spec.get("repetitions"):
        kwargs["repetitions"] = int(spec["repetitions"])
    doc = fault_drift_report(**kwargs)
    if doc.get("interrupted"):
        return {}, True
    return collect_faults(doc), False


def _execute_campaign(
    spec: Dict[str, Any],
    store: JobStore,
    job_id: str,
    cancel: threading.Event,
) -> Tuple[Dict[str, Any], bool]:
    from ..obs.collector import collect_campaign
    from ..scenarios.campaign import (
        plan_campaign,
        resolve_selector,
        run_campaign,
    )

    name, specs = resolve_selector(spec.get("selector", "mixed-chaos"))
    plan = plan_campaign(name, specs, budget=spec.get("budget"))
    journal_path = store.journal_path(job_id)
    resume = str(journal_path) if _prior_journal(journal_path) else None
    doc = run_campaign(
        plan,
        jobs=int(spec.get("jobs", 1)),
        journal_path=None if resume else str(journal_path),
        resume_path=resume,
        cancel=cancel,
        grace=float(spec.get("grace", 2.0)),
    )
    if doc["interrupted"]:
        return {}, True
    return collect_campaign(doc), False


def _execute_autopilot(
    spec: Dict[str, Any], cancel: threading.Event
) -> Tuple[Dict[str, Any], bool]:
    from ..obs.collector import collect_autopilot
    from ..scenarios.autopilot import run_autopilot

    doc = run_autopilot(
        pack=spec.get("pack", "mixed-chaos"),
        budget=int(spec.get("budget", 20)),
        seed=int(spec.get("seed", 0)),
        jobs=int(spec.get("jobs", 1)),
        cancel=cancel,
    )
    if doc["interrupted"]:
        return {}, True
    return collect_autopilot(doc), False


def execute_job(
    store: JobStore,
    job_id: str,
    kind: str,
    spec: Dict[str, Any],
    cancel: threading.Event,
) -> Tuple[Optional[Dict[str, Any]], bool]:
    """Run one job to its metric document.

    Returns ``(document, interrupted)`` — ``interrupted=True`` means a
    graceful drain checkpointed the job instead of finishing it.
    """
    # Submit refuses a bad spec; this also refuses one logged before.
    run = validate_job_spec(kind, spec)
    spec = {k: v for k, v in spec.items() if not k.startswith("_")}
    if run is not None:
        return _execute_run(run, spec, store, job_id, cancel)
    if kind == "faults":
        return _execute_faults(spec, cancel)
    if kind == "campaign":
        return _execute_campaign(spec, store, job_id, cancel)
    return _execute_autopilot(spec, cancel)


def finalize_job(
    store: JobStore, job_id: str, kind: str, doc: Dict[str, Any]
) -> str:
    """Persist a finished job's document — metric store, ``results/``,
    ``job_done`` — and return the metric-document digest.  Shared by
    the worker and the chaos serve workload so both finalize jobs with
    byte-identical artifacts."""
    from ..obs.collector import MetricsStore, document_digest

    digest = document_digest(doc)
    MetricsStore(store.metrics_dir).write(doc)
    summary = _job_summary(kind, doc)
    atomic_write_text(
        store.result_path(job_id),
        canonical_json({
            "job_id": job_id,
            "kind": kind,
            "digest": digest,
            "document": doc,
        }) + "\n",
    )
    store.job_done(job_id, {kind: digest}, result=summary)
    return digest


def _wedge() -> None:  # pragma: no cover - killed, never returns
    """Test lever: simulate a worker whose process lives but whose
    progress (and heartbeat) stopped — the lease-expiry trigger."""
    while True:
        time.sleep(3600)


def main(argv: Optional[list] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.worker",
        description="execute one leased serve job (daemon-internal)",
    )
    parser.add_argument("state_dir")
    parser.add_argument("job_id")
    parser.add_argument("--attempt", type=int, default=1)
    parser.add_argument("--heartbeat", type=float,
                        default=DEFAULT_HEARTBEAT_S)
    parser.add_argument("--kind", help="the job's kind, as leased (with "
                        "--spec, spares replaying the job log)")
    parser.add_argument("--spec", type=json.loads,
                        help="the job's spec as a JSON object")
    args = parser.parse_args(argv)

    store = JobStore(args.state_dir)
    if args.kind is None or args.spec is None:
        job = store.get(args.job_id)
        kind, spec = job.kind, job.spec
    else:
        kind, spec = args.kind, args.spec

    cancel = threading.Event()

    def _on_term(signum: int, frame: Any) -> None:
        cancel.set()

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)

    wedge_until = int(spec.get("_wedge_attempts", 0))
    if args.attempt <= wedge_until:
        # Deliberately no heartbeat: the daemon must observe a stale
        # lease and re-dispatch.  (Test-only path.)
        _wedge()

    heartbeat = _Heartbeat(store, args.job_id, args.heartbeat)
    heartbeat.start()
    try:
        doc, interrupted = execute_job(
            store, args.job_id, kind, spec, cancel
        )
    except Exception as exc:  # typed terminal state, not a wedged queue
        heartbeat.stop()
        store.job_failed(args.job_id, f"{type(exc).__name__}: {exc}")
        print(f"{args.job_id} failed: {exc}", file=sys.stderr)
        return 1
    heartbeat.stop()
    if interrupted:
        # Drained on SIGTERM: the per-job journal holds every fsync'd
        # completion; the daemon requeues without burning an attempt.
        print(f"{args.job_id} drained (checkpointed)", file=sys.stderr)
        return RESUMABLE_EXIT_CODE

    try:
        finalize_job(store, args.job_id, kind, doc)
    except OSError as exc:
        # A result write that hits a full/sick disk must degrade to a
        # typed terminal record, not an unexplained traceback that
        # leaves the lease to expire (found by the chaos sweep).
        store.job_failed(
            args.job_id, f"ResultWriteError: {type(exc).__name__}: {exc}"
        )
        print(f"{args.job_id} failed writing result: {exc}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
