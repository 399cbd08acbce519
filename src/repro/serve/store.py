"""The serve daemon's durable job database.

One append-only, fsync'd, checksummed JSONL file (``jobs.log``) is the
single source of truth for the queue.  It reuses the exact record
discipline of :mod:`repro.exec.journal` — each line is
``encode_record``-framed (canonical JSON + sha256[:16] ``check``), a
torn final line is dropped silently, a corrupt interior line is
skipped and counted — so the recovery guarantees proven for run
journals carry over to the job queue verbatim.

State-dir layout::

    STATE_DIR/
      serve.lock          advisory FileLock serialising appends + ids
      jobs.log            the job WAL (this module)
      journals/JOB.jsonl  per-job run journal (repro.exec.journal)
      results/JOB.json    final result document (atomic_write_text)
      metrics/            MetricsStore of per-job metric documents

Record vocabulary (``type`` field):

* ``job_submitted`` — id, kind (run/faults/campaign/autopilot), spec
* ``job_leased``    — id, attempt, worker pid, lease timeout, and the
  leasing daemon's ``daemon_id`` (digest-neutral scheduling metadata:
  the arbitration hook multi-daemon sharing of one state dir needs)
* ``job_heartbeat`` — id, worker pid (refreshes lease freshness)
* ``job_requeued``  — id, next attempt, reason
  (``lease-expired`` / ``drain`` / ``daemon-restart``), backoff delay
* ``job_done``      — id, metric-document digest(s), result summary
* ``job_failed``    — id, typed terminal error
* ``job_cancelled`` — id (sticky: wins over a racing ``job_done``)

Replay is last-record-wins per job, with one exception: a cancel is
*sticky-terminal* — once a job is cancelled, no later record revives
it, so a worker that finishes after the cancel cannot resurrect the
job.  Every record carries a wall-clock ``t``; time drives *lease
expiry and backoff gating only*, never results or digests, so the
queue's outputs stay deterministic while its scheduling is temporal.

Replay follows the log's tail: a :class:`JobStore` keeps the state
folded so far with the byte offset of the last complete line it
consumed, and each later :meth:`JobStore.load` decodes only the bytes
appended since.  A log that shrank, was replaced (new inode) or no
longer shows the consumed bytes' last edge at that offset is replayed
from byte 0 instead.
"""

from __future__ import annotations

import copy
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.atomicio import (
    FileLock,
    durable_append,
    fsync_dir,
    orphan_tmp_files,
    repair_torn_tail,
)
from ..exec.backoff import backoff_delay
from ..exec.journal import encode_record, replay_records
from ..exec.runspec import RUN_SPEC_FIELDS, RunSpec, RunSpecError

__all__ = [
    "JOB_KINDS",
    "JOB_SPEC_KEYS",
    "JOB_TERMINAL_STATUSES",
    "JobRecord",
    "JobStore",
    "ServeState",
    "ServeStoreError",
    "job_backoff",
    "validate_job_spec",
]

#: Spec keys each job kind accepts: what its worker reads.  Keys
#: starting with ``_`` are test levers and always pass; any other key
#: is refused at submit, never ignored.
JOB_SPEC_KEYS: Dict[str, Tuple[str, ...]] = {
    "run": RUN_SPEC_FIELDS + ("jobs", "grace"),
    "faults": ("seed", "severities", "nranks", "repetitions"),
    "campaign": ("selector", "budget", "jobs", "grace"),
    "autopilot": ("pack", "budget", "seed", "jobs"),
}

#: Job kinds a worker knows how to execute.
JOB_KINDS = tuple(JOB_SPEC_KEYS)

#: Statuses from which a job never leaves.
JOB_TERMINAL_STATUSES = ("done", "failed", "cancelled")

#: Backoff knobs for lease re-dispatch (shared helper with the
#: scheduler's fresh-pool retries; see :mod:`repro.exec.backoff`).
REDISPATCH_BASE_S = 0.25
REDISPATCH_CAP_S = 30.0


class ServeStoreError(ValueError):
    """A job-store operation that cannot be honoured (unknown job,
    unknown kind, malformed state dir)."""


def validate_job_spec(kind: str, spec: Any) -> Optional[RunSpec]:
    """Refuse an unknown kind, a non-object spec, a key the kind does
    not read, or (``run``) values that make no valid
    :class:`~repro.exec.runspec.RunSpec`; returns a run job's RunSpec."""
    if kind not in JOB_KINDS:
        raise ServeStoreError(
            f"unknown job kind {kind!r} (expected one of "
            f"{', '.join(JOB_KINDS)})"
        )
    if not isinstance(spec, dict):
        raise ServeStoreError("job spec must be a JSON object")
    accepted = JOB_SPEC_KEYS[kind]
    unknown = sorted(k for k in spec if k[:1] != "_" and k not in accepted)
    if unknown:
        raise ServeStoreError(
            f"unknown {kind} spec key(s) " + ", ".join(map(repr, unknown))
            + "; accepted: " + ", ".join(accepted)
        )
    if kind != "run":
        return None
    try:
        return RunSpec.from_dict(
            {k: spec[k] for k in RUN_SPEC_FIELDS if k in spec})
    except RunSpecError as exc:
        raise ServeStoreError(f"bad run spec: {exc}") from None


def job_backoff(job_id: str, attempt: int) -> float:
    """Seconds a re-dispatched job waits before becoming leasable —
    the pure deterministic function of ``(job_id, attempt)`` the
    acceptance contract demands."""
    return backoff_delay(
        job_id, attempt, base=REDISPATCH_BASE_S, cap=REDISPATCH_CAP_S
    )


@dataclass
class JobRecord:
    """One job's replayed view: the fold of its log records."""

    job_id: str
    kind: str
    spec: Dict[str, Any]
    submitted_at: float
    status: str = "queued"  # queued | leased | done | failed | cancelled
    attempt: int = 0  # completed lease attempts (0 = never leased)
    worker_pid: Optional[int] = None
    daemon_id: Optional[str] = None  # daemon that took the live lease
    lease_timeout: Optional[float] = None
    leased_at: Optional[float] = None
    heartbeat_at: Optional[float] = None
    not_before: float = 0.0  # backoff gate: leasable once now >= this
    requeues: int = 0
    last_requeue_reason: Optional[str] = None
    error: Optional[str] = None
    digests: Dict[str, str] = field(default_factory=dict)
    result_summary: Optional[Dict[str, Any]] = None
    finished_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.status in JOB_TERMINAL_STATUSES

    def leasable(self, now: float) -> bool:
        return self.status == "queued" and now >= self.not_before

    def lease_stale(self, now: float) -> bool:
        """True when the job is leased but its worker has gone silent
        longer than the lease timeout — the re-dispatch trigger."""
        if self.status != "leased" or self.lease_timeout is None:
            return False
        freshest = max(self.heartbeat_at or 0.0, self.leased_at or 0.0)
        return now - freshest > self.lease_timeout

    def as_dict(self) -> Dict[str, Any]:
        """The status document the API and CLI render."""
        doc: Dict[str, Any] = {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "attempt": self.attempt,
            "requeues": self.requeues,
            "submitted_at": self.submitted_at,
            "spec": self.spec,
        }
        if self.worker_pid is not None and self.status == "leased":
            doc["worker_pid"] = self.worker_pid
        if self.daemon_id is not None and self.status == "leased":
            doc["daemon_id"] = self.daemon_id
        if self.last_requeue_reason:
            doc["last_requeue_reason"] = self.last_requeue_reason
        if self.error is not None:
            doc["error"] = self.error
        if self.digests:
            doc["digests"] = dict(self.digests)
        if self.result_summary is not None:
            doc["result"] = self.result_summary
        if self.finished_at is not None:
            doc["finished_at"] = self.finished_at
        return doc


@dataclass
class ServeState:
    """The whole queue, replayed from ``jobs.log``.

    A state :meth:`JobStore.load` returned is a snapshot shared with
    the store's replay cache: later loads never mutate it, and callers
    must not either.
    """

    jobs: Dict[str, JobRecord] = field(default_factory=dict)
    records: int = 0
    corrupt_records: int = 0
    torn_tail: bool = False

    def get(self, job_id: str) -> JobRecord:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeStoreError(f"unknown job {job_id!r}")
        return job

    def by_status(self) -> Dict[str, int]:
        depths = {s: 0 for s in
                  ("queued", "leased", "done", "failed", "cancelled")}
        for job in self.jobs.values():
            depths[job.status] = depths.get(job.status, 0) + 1
        return depths

    def unfinished(self) -> List[JobRecord]:
        return [j for j in self.jobs.values() if not j.terminal]


def _apply(state: ServeState, rec: Dict[str, Any]) -> None:
    """Fold one decoded record into the replayed state."""
    kind = rec.get("type")
    t = float(rec.get("t", 0.0))
    if kind == "job_submitted":
        state.jobs[rec["job"]] = JobRecord(
            job_id=rec["job"],
            kind=rec["kind"],
            spec=rec.get("spec") or {},
            submitted_at=t,
            not_before=t,
        )
        return
    job = state.jobs.get(rec.get("job", ""))
    if job is None:
        return  # orphan record (its submit was corrupt): ignore
    if job.status == "cancelled":
        return  # sticky-terminal: nothing revives a cancelled job
    if kind == "job_leased":
        job.status = "leased"
        job.attempt = int(rec.get("attempt", job.attempt + 1))
        job.worker_pid = rec.get("pid")
        job.daemon_id = rec.get("daemon")
        job.lease_timeout = rec.get("timeout")
        job.leased_at = t
        job.heartbeat_at = t
    elif kind == "job_heartbeat":
        if job.status == "leased":
            job.heartbeat_at = t
    elif kind == "job_requeued":
        job.status = "queued"
        job.attempt = int(rec.get("attempt", job.attempt))
        job.worker_pid = None
        job.daemon_id = None
        job.requeues += 1
        job.last_requeue_reason = rec.get("reason")
        job.not_before = t + float(rec.get("delay", 0.0))
    elif kind == "job_done":
        job.status = "done"
        job.digests = dict(rec.get("digests") or {})
        job.result_summary = rec.get("result")
        job.error = None
        job.daemon_id = None  # the lease (and its daemon) is over
        job.finished_at = t
    elif kind == "job_failed":
        job.status = "failed"
        job.error = rec.get("error")
        job.daemon_id = None
        job.finished_at = t
    elif kind == "job_cancelled":
        job.status = "cancelled"
        job.worker_pid = None
        job.daemon_id = None
        job.finished_at = t
    # unknown record types are ignored (forward compatibility)


def _fold(base: ServeState, chunk: bytes) -> Tuple[ServeState, int]:
    """Replay the log bytes ``chunk`` on top of ``base`` with the WAL
    recovery rules of :func:`~repro.exec.journal.replay_records`;
    returns the new state and the number of lines decoded.

    ``base`` is never mutated: the new state gets its own job table,
    and each job a record touches is copied before the first change.
    Lines split exactly as a text-mode read of the whole file would, so
    folding a log chunk by chunk from line boundaries equals folding
    it in one pass.
    """
    state = ServeState(
        jobs=dict(base.jobs),
        records=base.records,
        corrupt_records=base.corrupt_records,
    )
    owned: set = set()  # jobs already copied for this fold
    # errors="replace": on-disk byte rot degrades to one corrupt
    # record, never an undecodable store.
    for rec in replay_records(chunk.decode("utf-8", errors="replace"),
                              state):
        job_id = rec.get("job", "")
        if job_id not in owned:
            owned.add(job_id)
            if job_id in state.jobs:
                state.jobs[job_id] = copy.copy(state.jobs[job_id])
        _apply(state, rec)
    # Every line is a record, a corrupt record or the torn tail.
    decoded = (state.records - base.records
               + state.corrupt_records - base.corrupt_records
               + state.torn_tail)
    return state, decoded


class JobStore:
    """Filesystem handle on one serve state directory.

    All appends and id assignment happen under the ``serve.lock``
    FileLock so the daemon, its workers, and any CLI client can share
    the log safely; reads replay the log without the file lock (the
    WAL framing makes a mid-append read safe — the unfinished line
    fails its checksum and is dropped as a torn tail).

    Reads follow the log's tail (see :meth:`load`).  One instance may
    be shared across threads: the replay cache has its own lock.
    """

    LOCK_NAME = "serve.lock"
    LOG_NAME = "jobs.log"
    #: Bytes before the consumed offset that must still read the same
    #: for a tail-only load; anything else means the file was
    #: rewritten under the cache.
    EDGE_BYTES = 64

    def __init__(self, state_dir: Union[str, os.PathLike]) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = self.state_dir / self.LOG_NAME
        self.journals_dir = self.state_dir / "journals"
        self.results_dir = self.state_dir / "results"
        self.metrics_dir = self.state_dir / "metrics"
        # The replay cache: the state folded from the log's first
        # ``_offset`` bytes (always a line boundary), the file it came
        # from, and the last EDGE_BYTES of those bytes.
        self._replay_lock = threading.Lock()
        self._state = ServeState()
        self._offset = 0
        self._file_id: Optional[Tuple[int, int]] = None
        self._edge = b""
        #: Lines decoded by the most recent :meth:`load`.
        self.replayed_records = 0
        #: Loads that replayed the log from byte 0 since this store
        #: was opened (the first load of an existing log included).
        self.full_replays = 0

    def _lock(self) -> FileLock:
        return FileLock(self.state_dir / self.LOCK_NAME)

    # -- append side -------------------------------------------------------
    def _append_locked(self, doc: Dict[str, Any]) -> None:
        """One durable record append; caller holds ``serve.lock``.

        Repairs a torn tail (a previous writer crashed mid-append)
        before appending — otherwise the new record would fuse onto the
        partial line and both would be lost as one corrupt record.
        """
        existed = self.log_path.exists()
        if existed:
            repair_torn_tail(self.log_path)
        with open(self.log_path, "a") as f:
            durable_append(f, encode_record(doc))
        if not existed:
            fsync_dir(self.state_dir)

    def append(self, doc: Dict[str, Any], t: Optional[float] = None) -> None:
        """Durably append one record (lock → repair → write → fsync →
        unlock)."""
        doc = {**doc, "t": time.time() if t is None else t}
        with self._lock():
            self._append_locked(doc)

    def submit(self, kind: str, spec: Dict[str, Any]) -> str:
        """Validate the job (:func:`validate_job_spec`), assign the next
        ``job-NNNNNN`` id and journal the submit."""
        validate_job_spec(kind, spec)
        with self._lock():
            state = self.load()
            seq = 1 + max(
                (int(j.split("-")[-1]) for j in state.jobs
                 if j.startswith("job-")), default=0,
            )
            job_id = f"job-{seq:06d}"
            self._append_locked({
                "type": "job_submitted",
                "job": job_id,
                "kind": kind,
                "spec": spec,
                "t": time.time(),
            })
        return job_id

    # -- record vocabulary -------------------------------------------------
    def job_leased(
        self,
        job_id: str,
        attempt: int,
        pid: int,
        timeout: float,
        daemon_id: Optional[str] = None,
    ) -> None:
        doc: Dict[str, Any] = {
            "type": "job_leased", "job": job_id, "attempt": attempt,
            "pid": pid, "timeout": timeout,
        }
        if daemon_id is not None:
            doc["daemon"] = daemon_id
        self.append(doc)

    def job_heartbeat(self, job_id: str, pid: int) -> None:
        self.append({"type": "job_heartbeat", "job": job_id, "pid": pid})

    def job_requeued(
        self, job_id: str, attempt: int, reason: str, delay: float
    ) -> None:
        self.append({
            "type": "job_requeued", "job": job_id, "attempt": attempt,
            "reason": reason, "delay": delay,
        })

    def job_done(
        self,
        job_id: str,
        digests: Dict[str, str],
        result: Optional[Dict[str, Any]] = None,
    ) -> None:
        doc: Dict[str, Any] = {
            "type": "job_done", "job": job_id, "digests": digests,
        }
        if result is not None:
            doc["result"] = result
        self.append(doc)

    def job_failed(self, job_id: str, error: str) -> None:
        self.append({"type": "job_failed", "job": job_id, "error": error})

    def job_cancelled(self, job_id: str) -> None:
        self.append({"type": "job_cancelled", "job": job_id})

    # -- read side ---------------------------------------------------------
    def load(self) -> ServeState:
        """Replay ``jobs.log`` with the WAL recovery rules: torn tail
        dropped, corrupt interior skipped and counted.

        Only the bytes appended since the previous load are read and
        decoded.  A file that shrank, was replaced, or whose bytes just
        before the consumed offset changed is replayed from byte 0.  A
        trailing line without its newline (a torn or in-flight append)
        is folded into the returned state but never into the cache, so
        the next load decodes it again once it is complete.
        """
        with self._replay_lock:
            try:
                f = open(self.log_path, "rb")
            except FileNotFoundError:
                self._restart(None)
                self.replayed_records = 0
                return self._state
            with f:
                st = os.fstat(f.fileno())
                file_id = (st.st_dev, st.st_ino)
                data = None
                if file_id == self._file_id and st.st_size >= self._offset:
                    f.seek(self._offset - len(self._edge))
                    data = f.read()
                    if data.startswith(self._edge):
                        data = data[len(self._edge):]
                    else:
                        data = None  # rewritten under the cache
                if data is None:
                    self._restart(file_id)
                    self.full_replays += 1
                    f.seek(0)
                    data = f.read()
            cut = data.rfind(b"\n") + 1
            decoded = 0
            if cut:
                done = data[:cut]
                self._state, decoded = _fold(self._state, done)
                self._offset += cut
                self._edge = (
                    self._edge + done[-self.EDGE_BYTES:]
                )[-self.EDGE_BYTES:]
            state = self._state
            if cut < len(data):
                state, n = _fold(state, data[cut:])
                decoded += n
            self.replayed_records = decoded
            return state

    def _restart(self, file_id: Optional[Tuple[int, int]]) -> None:
        """Drop the replay cache: the next fold starts at byte 0."""
        self._state = ServeState()
        self._offset = 0
        self._file_id = file_id
        self._edge = b""

    def get(self, job_id: str) -> JobRecord:
        return self.load().get(job_id)

    # -- store health ------------------------------------------------------
    def _artifact_dirs(self) -> List[Path]:
        return [self.state_dir, self.journals_dir, self.results_dir,
                self.metrics_dir]

    def health(self, state: Optional[ServeState] = None) -> Dict[str, Any]:
        """Durability health of the state dir: record counts, corrupt
        interior records, torn tail, orphaned atomic-write temp files
        across every artifact directory, and the replay cost counters
        (lines decoded by the last load, full replays since the store
        was opened).  The block ``repro serve status`` and
        ``/healthz`` surface."""
        if state is None:
            state = self.load()
        orphans = sum(
            len(orphan_tmp_files(d)) for d in self._artifact_dirs()
        )
        return {
            "records": state.records,
            "corrupt_records": state.corrupt_records,
            "torn_tail": state.torn_tail,
            "orphan_tmp": orphans,
            "replayed_records": self.replayed_records,
            "full_replays": self.full_replays,
        }

    def sweep_orphans(self, force: bool = False) -> List[Path]:
        """Remove orphaned atomic-write temp files (dead writer pid)
        from every artifact directory; returns the paths removed.  The
        daemon runs this on startup."""
        from ..core.atomicio import sweep_orphan_tmp
        removed: List[Path] = []
        for d in self._artifact_dirs():
            removed.extend(sweep_orphan_tmp(d, force=force))
        return removed

    # -- per-job artifacts -------------------------------------------------
    def journal_path(self, job_id: str) -> Path:
        self.journals_dir.mkdir(parents=True, exist_ok=True)
        return self.journals_dir / f"{job_id}.jsonl"

    def result_path(self, job_id: str) -> Path:
        self.results_dir.mkdir(parents=True, exist_ok=True)
        return self.results_dir / f"{job_id}.json"
