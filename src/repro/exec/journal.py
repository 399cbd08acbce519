"""Crash-safe run journal: an fsync'd, checksummed JSONL write-ahead log.

Long sweep campaigns die to SIGKILL, OOM and walltime limits; on real
HPC systems they survive via checkpointing.  This module gives the
engine the same property: ``repro run --journal FILE`` appends one
checksummed record per event — run metadata, every task dispatch,
every completion (with the pickled payload) — each forced to stable
storage before the run proceeds.  ``repro run --resume FILE`` replays
the journal: completed sweep points whose source fingerprint still
matches are restored without re-execution, only the remainder is
dispatched, and the merged figures are byte-identical to an
uninterrupted run at any ``--jobs``.

Record format (one JSON object per line)::

    {"check": "<sha256[:16] of the rest>", "type": "...", ...}

The checksum covers the canonical JSON of the record without ``check``,
so any torn or bit-flipped line is detected on load.  Recovery rules:

* a corrupt line in the middle of the file is *skipped* and counted
  (``corrupt_records``) — later records still load;
* an undecodable final line is a *torn tail* (the crash interrupted the
  last append); it is dropped silently and the journal is still valid —
  exactly the write-ahead-log contract.

Record types: ``run_start`` (experiment set, scale, jobs, fault spec,
source fingerprint, ``resumed`` flag), ``task_dispatch``,
``task_done`` (task key digest, payload digest + pickled payload,
timing, optional trace document), ``task_failed``,
``task_interrupted`` (graceful shutdown or watchdog), and ``run_end``
(``complete`` / ``interrupted`` / ``failed``).  A resumed run appends a
new ``run_start`` segment to the *same* file, so a second crash resumes
from the union of both segments.

``RESUMABLE_EXIT_CODE`` (75, BSD ``EX_TEMPFAIL``) is what the CLI exits
with after a graceful SIGINT/SIGTERM drain — distinct from 0 (pass),
1 (claims failed) and 2 (usage error), so schedulers can requeue.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..core.atomicio import (
    canonical_json,
    durable_append,
    fsync_dir,
    orphan_tmp_files,
    repair_torn_tail,
)
from .runspec import RunSpec
from .tasks import Task

__all__ = [
    "RESUMABLE_EXIT_CODE",
    "JOURNAL_FORMAT_VERSION",
    "JournalError",
    "JournalState",
    "JournalWriter",
    "task_key",
    "load_journal",
    "replay_records",
    "verify_journal",
    "journal_summary",
    "guard_summary",
]

#: Exit status of a gracefully-interrupted (and therefore resumable)
#: run — BSD sysexits' EX_TEMPFAIL, the conventional "try again" code.
RESUMABLE_EXIT_CODE = 75

JOURNAL_FORMAT_VERSION = 1

_CHECK_LEN = 16


class JournalError(ValueError):
    """A journal file that cannot be interpreted at all."""


# ---------------------------------------------------------------------------
# record encoding
# ---------------------------------------------------------------------------

def _checksum(doc: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:_CHECK_LEN]


def encode_record(doc: Dict[str, Any]) -> str:
    """One journal line: the record plus its ``check`` field."""
    return canonical_json({**doc, "check": _checksum(doc)}) + "\n"


def decode_record(line: str) -> Dict[str, Any]:
    """Parse and checksum-verify one journal line; raises
    :class:`JournalError` on a torn or corrupted record."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JournalError(f"undecodable record: {exc}") from None
    if not isinstance(doc, dict) or "type" not in doc:
        raise JournalError("record is not a typed object")
    check = doc.pop("check", None)
    if check != _checksum(doc):
        raise JournalError("record checksum mismatch")
    return doc


def replay_records(text: str, counts: Any) -> Iterator[Dict[str, Any]]:
    """Yield the checksum-valid records of WAL ``text`` (split into
    lines as a text-mode read splits them), tallying on ``counts`` — a
    :class:`JournalState` or the job log's ``ServeState``: ``records``
    per record, ``corrupt_records`` per undecodable line skipped, and
    ``torn_tail`` for an undecodable last line with no newline
    (dropped: an interrupted append)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    ends_clean = lines[-1] == ""
    if ends_clean:
        lines.pop()
    for i, line in enumerate(lines):
        try:
            rec = decode_record(line)
        except JournalError:
            if i == len(lines) - 1 and not ends_clean:
                counts.torn_tail = True
            else:
                counts.corrupt_records += 1
            continue
        counts.records += 1
        yield rec


def task_key(task: Task) -> str:
    """Content digest identifying one task's *payload*: everything that
    determines the result (experiment, scale, index, kind, params,
    fault plan, and the guard settings when — and only when — the mode
    can remediate the payload), nothing that doesn't (the ``trace``
    flag, observe/strict guard modes)."""
    return hashlib.sha256(canonical_json(task.identity()).encode()).hexdigest()


def _encode_payload(value: Any) -> Tuple[str, str]:
    """Pickle a task payload for the journal; returns
    ``(base64 text, sha256 digest of the pickle bytes)``."""
    blob = pickle.dumps(value, protocol=4)
    return (
        base64.b64encode(blob).decode("ascii"),
        hashlib.sha256(blob).hexdigest(),
    )


def _decode_payload(text: str, digest: Optional[str] = None) -> Any:
    blob = base64.b64decode(text.encode("ascii"))
    if digest is not None and hashlib.sha256(blob).hexdigest() != digest:
        raise JournalError("payload digest mismatch")
    return pickle.loads(blob)


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

class JournalWriter:
    """Append-only journal: every record is fsync'd before the engine
    moves on, so anything the journal claims happened, happened.

    Opening an existing journal first truncates any torn tail left by
    a crash mid-append (``repaired_bytes``).  Without that repair the
    first new record would be appended straight onto the partial line,
    fusing both into one undecodable record — the old record was
    already lost, but the *new* one would be silently lost too.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.is_dir():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        existed = self.path.exists()
        self.repaired_bytes = repair_torn_tail(self.path) if existed else 0
        self._f = open(self.path, "a")
        if not existed:
            fsync_dir(self.path.parent)  # the file's creation is durable
        self.records_written = 0

    # -- low level ---------------------------------------------------------
    def append(self, doc: Dict[str, Any]) -> None:
        durable_append(self._f, encode_record(doc))
        self.records_written += 1

    def close(self) -> None:
        if not self._f.closed:
            self._f.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- record vocabulary -------------------------------------------------
    def run_start(
        self,
        keys: List[str],
        scale: str,
        jobs: int,
        fingerprint: str,
        spec: RunSpec = RunSpec(),
        resumed: bool = False,
    ) -> None:
        """The run header; fault plan and guard block from ``spec``."""
        doc: Dict[str, Any] = {
            "type": "run_start",
            "version": JOURNAL_FORMAT_VERSION,
            "keys": list(keys),
            "scale": scale,
            "jobs": jobs,
            "fingerprint": fingerprint,
            "fault_spec": spec.faults,
            "fault_seed": spec.seed,
            "resumed": resumed,
        }
        guard = spec.guard_meta()
        if guard is not None:
            # Only present for guarded/injected runs: a guard-free
            # journal stays byte-identical to earlier versions, and
            # resume validation can demand matching guard settings.
            doc["guard"] = guard
        self.append(doc)

    def task_dispatch(self, task: Task) -> None:
        self.append({
            "type": "task_dispatch",
            "key": task_key(task),
            "experiment": task.experiment,
            "index": task.index,
            "kind": task.kind,
            "label": task.label,
        })

    def task_done(self, task: Task, result: Any) -> None:
        """Journal a completed task (``result`` is a
        :class:`~repro.exec.scheduler.TaskResult`)."""
        payload, digest = _encode_payload(result.value)
        doc: Dict[str, Any] = {
            "type": "task_done",
            "key": task_key(task),
            "experiment": task.experiment,
            "index": task.index,
            "label": task.label,
            "seconds": result.seconds,
            "worker": result.worker,
            "digest": digest,
            "payload": payload,
        }
        if result.trace is not None:
            doc["trace"] = result.trace
        if getattr(result, "guard", None) is not None:
            # The guard document (events + remediation chain) is part of
            # the durable record, so ``--resume`` replays remediation
            # decisions byte-identically instead of re-deriving them.
            doc["guard"] = result.guard
        self.append(doc)

    def task_failed(self, task: Task, result: Any) -> None:
        self.append({
            "type": "task_failed",
            "key": task_key(task),
            "experiment": task.experiment,
            "index": task.index,
            "label": task.label,
            "seconds": result.seconds,
            "worker": result.worker,
            "error": result.error,
            "attempts": result.attempts,
        })

    def task_interrupted(self, task: Task, reason: str) -> None:
        self.append({
            "type": "task_interrupted",
            "key": task_key(task),
            "experiment": task.experiment,
            "index": task.index,
            "label": task.label,
            "reason": reason,
        })

    def run_end(self, status: str) -> None:
        self.append({"type": "run_end", "status": status})


# ---------------------------------------------------------------------------
# loader
# ---------------------------------------------------------------------------

@dataclass
class JournalState:
    """Everything recoverable from a journal file.

    ``completed`` maps task-key digests to their ``task_done`` records
    (each stamped with the ``fingerprint`` of the segment that produced
    it); a task that later failed or was re-dispatched is superseded in
    record order, so the *last* word wins — the WAL replay rule.
    """

    path: Path
    meta: Optional[Dict[str, Any]] = None  # last run_start record
    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    failed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    interrupted: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    dispatched: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    records: int = 0
    corrupt_records: int = 0
    torn_tail: bool = False
    runs: int = 0
    complete: bool = False

    def restore_payload(self, key: str) -> Any:
        """Decode the journalled payload of a completed task."""
        rec = self.completed[key]
        return _decode_payload(rec["payload"], rec.get("digest"))

    def record_for(self, task: Task) -> Optional[Dict[str, Any]]:
        return self.completed.get(task_key(task))


def load_journal(path: Union[str, os.PathLike]) -> JournalState:
    """Replay a journal file into a :class:`JournalState`.

    Tolerates a torn final line (dropped, ``torn_tail`` set) and
    corrupt interior records (skipped, counted) — the recovery
    semantics a WAL reader must have.  Raises :class:`JournalError`
    only when no valid ``run_start`` record exists at all.
    """
    path = Path(path)
    state = JournalState(path=path)
    # errors="replace": a bit-flipped byte that is no longer valid
    # UTF-8 must degrade to one corrupt (checksum-failing) record, not
    # abort the whole replay with UnicodeDecodeError.
    for rec in replay_records(path.read_text(errors="replace"), state):
        kind = rec.get("type")
        if kind == "run_start":
            state.meta = rec
            state.runs += 1
            state.complete = False
        elif kind == "task_dispatch":
            state.dispatched[rec["key"]] = rec
        elif kind == "task_done":
            if state.meta is not None:
                rec.setdefault("fingerprint", state.meta.get("fingerprint"))
            state.completed[rec["key"]] = rec
            state.failed.pop(rec["key"], None)
            state.interrupted.pop(rec["key"], None)
        elif kind == "task_failed":
            state.failed[rec["key"]] = rec
            state.completed.pop(rec["key"], None)
        elif kind == "task_interrupted":
            if rec["key"] not in state.completed:
                state.interrupted[rec["key"]] = rec
        elif kind == "run_end":
            state.complete = rec.get("status") == "complete"
        else:  # forward-compatible: unknown record types are ignored
            pass
    if state.meta is None:
        raise JournalError(
            f"{path}: no valid run_start record — not a journal "
            "(or corrupted beyond recovery)"
        )
    return state


# ---------------------------------------------------------------------------
# inspection (the ``repro journal show|verify`` documents)
# ---------------------------------------------------------------------------

def verify_journal(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Integrity report: record counts, checksum failures, torn tail,
    orphaned atomic-write temp files next to the journal, completion
    status.  ``ok`` is True iff no interior corruption."""
    return _verify_doc(load_journal(path))


def _verify_doc(state: JournalState) -> Dict[str, Any]:
    """:func:`verify_journal`'s report for an already replayed journal."""
    pending = [
        k for k in state.dispatched
        if k not in state.completed and k not in state.failed
        and k not in state.interrupted
    ]
    return {
        "path": str(state.path),
        "version": (state.meta or {}).get("version"),
        "records": state.records,
        "corrupt_records": state.corrupt_records,
        "torn_tail": state.torn_tail,
        "orphan_tmp": len(orphan_tmp_files(state.path.parent)),
        "runs": state.runs,
        "complete": state.complete,
        "fingerprint": (state.meta or {}).get("fingerprint"),
        "tasks": {
            "completed": len(state.completed),
            "failed": len(state.failed),
            "interrupted": len(state.interrupted),
            "pending": len(pending),
        },
        "ok": state.corrupt_records == 0,
    }


def journal_summary(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """The ``repro journal show`` document: run metadata plus one entry
    per task in journal order (status, timing, worker)."""
    state = load_journal(path)
    doc = _verify_doc(state)
    meta = state.meta or {}
    doc["keys"] = meta.get("keys")
    doc["scale"] = meta.get("scale")
    doc["jobs"] = meta.get("jobs")
    doc["fault_spec"] = meta.get("fault_spec")
    doc["fault_seed"] = meta.get("fault_seed")
    doc["resumed"] = meta.get("resumed")
    entries: List[Dict[str, Any]] = []
    for rec in state.completed.values():
        entries.append({
            "label": rec["label"], "status": "done",
            "seconds": rec.get("seconds"), "worker": rec.get("worker"),
        })
    for rec in state.failed.values():
        entries.append({
            "label": rec["label"], "status": "failed",
            "seconds": rec.get("seconds"), "error": rec.get("error"),
        })
    for rec in state.interrupted.values():
        entries.append({
            "label": rec["label"], "status": "interrupted",
            "reason": rec.get("reason"),
        })
    doc["entries"] = entries
    return doc


def guard_summary(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """The ``repro guard report`` document for a journal file.

    Same shape as ``RunStats.guard_report()`` so one renderer serves
    both a live run's ``--guard-out`` file and a post-mortem journal.
    A guard-free journal yields ``{"mode": "off"}``.
    """
    state = load_journal(path)
    meta_guard = (state.meta or {}).get("guard") or {}
    doc: Dict[str, Any] = {"mode": meta_guard.get("mode", "off")}
    if "cadence" in meta_guard:
        doc["cadence"] = meta_guard["cadence"]
    if "inject" in meta_guard:
        doc["inject"] = meta_guard["inject"]
    tasks: List[Dict[str, Any]] = []
    events = violations = degraded = 0
    recs = sorted(
        state.completed.values(),
        key=lambda r: (r.get("experiment", ""), r.get("index", 0)),
    )
    for rec in recs:
        guard = rec.get("guard")
        if guard is None:
            continue
        events += len(guard.get("events", ()))
        violations += guard.get("violations", 0)
        is_degraded = "remediation" in guard
        degraded += is_degraded
        tasks.append({
            "experiment": rec.get("experiment"),
            "label": rec.get("label"),
            "degraded": is_degraded,
            "guard": guard,
        })
    doc.update(
        events=events, violations=violations,
        degraded_tasks=degraded, tasks=tasks,
    )
    return doc
