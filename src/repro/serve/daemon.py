"""The serve daemon: lease, supervise, requeue, drain.

The control loop is a single idempotent :meth:`ServeDaemon.tick` —
poll workers, replay the job log, reap the finished ones, expire
stale leases, lease what's leasable — run repeatedly by
:meth:`run_forever`.  All state lives in the log, none in the
process, so the loop is trivially crash-tolerant: a daemon killed
between any two ticks restarts into exactly the state the log
describes.

Supervision rules (the job lifecycle state machine, see
``docs/SERVE.md``):

* a worker that *exits 75* drained on SIGTERM — its job is requeued
  at the **same** attempt with no backoff (a drain is the operator's
  doing, not the job's fault), as is one that dies of SIGTERM mid-drain;
* a worker that *dies* (crash, SIGKILL) leaves its job leased; the
  daemon requeues it at ``attempt+1`` after the deterministic backoff
  :func:`~repro.serve.store.job_backoff` — the same happens when an
  orphan worker's *heartbeat goes stale* (lease expiry);
* a job whose leases expire ``max_attempts`` times degrades to the
  typed terminal ``failed`` state ("LeaseExpired: ...") instead of
  wedging the queue;
* a *cancelled* job's worker is terminated; the cancel record is
  sticky, so even a racing ``job_done`` cannot revive the job.

Workers are orphan-tolerant by design: a daemon SIGKILL'd mid-job
leaves its workers running; on restart the daemon sees their fresh
heartbeats and leaves the leases alone — re-leasing would double-run
the job.  Only a *stale* lease (no heartbeat inside the lease
timeout) is ever re-dispatched.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Set, Union

from ..core.atomicio import canonical_json
from ..exec.journal import RESUMABLE_EXIT_CODE
from .store import JobRecord, JobStore, ServeState, job_backoff

__all__ = ["DaemonConfig", "ServeDaemon"]


@dataclass
class DaemonConfig:
    """Everything `repro serve start` can tune."""

    state_dir: Union[str, os.PathLike]
    host: str = "127.0.0.1"
    port: int = 8750
    workers: int = 2
    lease_timeout: float = 30.0
    heartbeat: float = 1.0
    poll: float = 0.5
    max_attempts: int = 3
    grace: float = 5.0

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.lease_timeout <= 0:
            raise ValueError("lease timeout must be positive")
        if self.heartbeat <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.max_attempts < 1:
            raise ValueError("max attempts must be >= 1")


#: Largest job spec (canonical JSON characters) handed to a worker on
#: its command line; a larger one is read back from the job log.  Well
#: inside Linux's 128 KiB limit on one argument.
MAX_ARGV_SPEC = 64 * 1024


def _worker_env() -> Dict[str, str]:
    """Subprocess env with this repro checkout importable."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env


class ServeDaemon:
    """The lease/requeue/backoff supervisor over one state directory."""

    def __init__(self, config: DaemonConfig) -> None:
        config.validate()
        self.config = config
        self.store = JobStore(config.state_dir)
        self.draining = False
        #: This daemon instance's identity, stamped (digest-neutrally)
        #: onto every lease record it writes.  Unique across restarts
        #: even under pid reuse — the arbitration hook multi-daemon
        #: state-dir sharing builds on.
        self.daemon_id = f"d-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        #: Worker processes this daemon spawned, by job id.
        self._procs: Dict[str, subprocess.Popen] = {}
        #: Jobs leased by *this* process — distinguishes a lease we
        #: watched die (``lease-expired``) from one inherited from a
        #: predecessor daemon (``daemon-restart``).
        self._mine: Set[str] = set()
        self._log = lambda msg: print(msg, file=sys.stderr, flush=True)
        # A predecessor may have died between temp-write and rename;
        # its orphaned temp files are dead weight, sweep them now.
        swept = self.store.sweep_orphans()
        if swept:
            self._log(f"swept {len(swept)} orphaned temp file(s)")

    # -- helpers -----------------------------------------------------------
    def _spawn(self, job: JobRecord, attempt: int) -> subprocess.Popen:
        argv = [
            sys.executable, "-m", "repro.serve.worker",
            str(self.store.state_dir), job.job_id,
            "--attempt", str(attempt),
            "--heartbeat", str(self.config.heartbeat),
        ]
        spec = canonical_json(job.spec)
        if len(spec) <= MAX_ARGV_SPEC:
            # The worker need not replay the log to find its job.
            argv += ["--kind", job.kind, "--spec", spec]
        return subprocess.Popen(
            argv,
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # orphan-tolerant: survives daemon death
        )

    def _requeue(self, job_id: str, attempt: int, reason: str,
                 code: Optional[int] = None) -> None:
        """Requeue or, past the attempt budget, fail terminally; ``code``
        is the reaped worker's exit code, logged with the outcome."""
        exited = "" if code is None else f" (worker exit {code})"
        if reason == "drain":
            # Operator-initiated: same attempt, immediately leasable.
            self.store.job_requeued(job_id, attempt, "drain", 0.0)
            self._log(f"{job_id}: handed back on drain{exited}")
            return
        if attempt >= self.config.max_attempts:
            self.store.job_failed(
                job_id,
                f"LeaseExpired: no heartbeat within "
                f"{self.config.lease_timeout:g}s on attempt {attempt}; "
                f"{self.config.max_attempts} attempt(s) exhausted",
            )
            self._log(f"{job_id}: failed after {attempt} expired "
                      f"lease(s){exited}")
            return
        # The record carries the attempt that just failed; the next
        # lease is attempt+1.  Delay is the pure (job_id, attempt)
        # backoff.
        delay = job_backoff(job_id, attempt)
        self.store.job_requeued(job_id, attempt, reason, delay)
        self._log(
            f"{job_id}: requeued ({reason}), attempt {attempt + 1} "
            f"in {delay:.2f}s{exited}"
        )

    @staticmethod
    def _pid_alive(pid: Optional[int]) -> bool:
        if not pid:
            return False
        try:
            os.kill(pid, 0)
        except (OSError, ProcessLookupError):
            return False
        return True

    # -- the control loop --------------------------------------------------
    def tick(self, now: Optional[float] = None) -> ServeState:
        """One supervision pass; returns the replayed state it acted on."""
        now = time.time() if now is None else now

        # 1. Reap workers this daemon owns.  Poll before reading the
        # log: a worker appends its outcome before it exits, so a state
        # read after the exit was seen always holds that outcome.
        exited: Dict[str, int] = {}
        for job_id, proc in list(self._procs.items()):
            code = proc.poll()
            if code is not None:
                exited[job_id] = code
                del self._procs[job_id]
        state = self.store.load()
        reaped = False
        for job_id, code in exited.items():
            job = state.jobs.get(job_id)
            if job is None or job.status != "leased":
                continue  # worker recorded its own outcome (or cancel won)
            # Exit 75 is a drain, and so is a SIGTERM death mid-drain
            # (drain() can signal a worker still importing, before its
            # handler is installed).  Any other death without a terminal
            # record kills the lease at once: no timeout to wait out.
            drained = code == RESUMABLE_EXIT_CODE or (
                self.draining and code == -signal.SIGTERM)
            self._requeue(job_id, job.attempt,
                          "drain" if drained else "lease-expired", code)
            reaped = True
        if reaped:
            state = self.store.load()

        # 2. Kill workers of cancelled jobs (no checkpoint courtesy —
        # the cancel record is sticky, the work is unwanted).
        for job_id, proc in list(self._procs.items()):
            job = state.jobs.get(job_id)
            if job is not None and job.status == "cancelled":
                proc.kill()
                proc.wait()
                del self._procs[job_id]

        # 3. Expire stale leases: a worker (ours or an orphan's) whose
        # heartbeat stopped inside the lease timeout.  The worker is
        # killed before the requeue so two workers never run one job.
        requeued = False
        for job in list(state.jobs.values()):
            if not job.lease_stale(now):
                continue
            proc = self._procs.pop(job.job_id, None)
            if proc is not None:
                proc.kill()
                proc.wait()
            elif self._pid_alive(job.worker_pid):
                try:
                    os.kill(job.worker_pid, signal.SIGKILL)  # type: ignore[arg-type]
                except OSError:  # pragma: no cover - raced its exit
                    pass
            # The lease record's daemon stamp is the durable arbiter
            # of whose lease this was; ``_mine`` covers logs written
            # before the stamp existed.
            reason = (
                "lease-expired"
                if job.daemon_id == self.daemon_id
                or job.job_id in self._mine
                else "daemon-restart"
            )
            self._requeue(job.job_id, job.attempt, reason)
            requeued = True
        if requeued:
            state = self.store.load()

        # 4. Lease queued jobs into free worker slots (oldest first).
        if not self.draining:
            busy = sum(1 for j in state.jobs.values() if j.status == "leased")
            leased_any = False
            for job in sorted(
                (j for j in state.jobs.values() if j.leasable(now)),
                key=lambda j: j.job_id,
            ):
                if busy >= self.config.workers:
                    break
                attempt = job.attempt + 1
                proc = self._spawn(job, attempt)
                self.store.job_leased(
                    job.job_id, attempt, proc.pid,
                    self.config.lease_timeout, daemon_id=self.daemon_id,
                )
                self._procs[job.job_id] = proc
                self._mine.add(job.job_id)
                busy += 1
                leased_any = True
                self._log(
                    f"{job.job_id}: leased to pid {proc.pid} "
                    f"(attempt {attempt})"
                )
            if leased_any:
                state = self.store.load()
        return state

    # -- lifecycle ---------------------------------------------------------
    def run_forever(
        self, shutdown: Optional[threading.Event] = None
    ) -> int:
        """Tick until ``shutdown`` fires, then drain.  Returns the
        process exit status (75 when unfinished jobs remain — the
        resumable contract)."""
        shutdown = shutdown or threading.Event()
        while not shutdown.is_set():
            self.tick()
            shutdown.wait(self.config.poll)
        return self.drain()

    def drain(self) -> int:
        """Graceful shutdown: stop leasing, SIGTERM workers so they
        checkpoint, requeue what they hand back, report 75 if work
        remains."""
        self.draining = True
        for proc in self._procs.values():
            proc.terminate()
        deadline = time.monotonic() + self.config.grace
        for proc in list(self._procs.values()):
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        # Final reap pass records drain requeues for handed-back jobs.
        state = self.tick()
        unfinished = state.unfinished()
        if unfinished:
            self._log(
                f"drained with {len(unfinished)} unfinished job(s); "
                f"resume with: repro serve start --state-dir "
                f"{self.store.state_dir}"
            )
            return RESUMABLE_EXIT_CODE
        self._log("drained clean: no unfinished jobs")
        return 0
