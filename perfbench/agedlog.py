"""Seeded synthetic history for the serve job log (``jobs.log``).

The ``serve-aged-log`` workload starts the daemon on a state directory
whose log already holds a long history of finished jobs: one worker
running back-to-back ``run`` jobs, each a submit, a lease, one
heartbeat per second of run time and a ``job_done``.  Every line is
framed by the program's own record codec (``encode_record``), so the
daemon replays the fixture exactly as it would a log it wrote itself.

The log's age is the workload's traffic dimension: every replay
(``JobStore.load``, called by each daemon tick, each API request and
each worker start) parses every record.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path
from typing import Dict, List

#: Records in the aged log: about 5.5 worker-hours of heartbeats.
AGED_RECORDS = 20_000
#: Seconds between heartbeats in the synthetic history (the daemon's
#: default worker heartbeat).
HEARTBEAT_S = 1.0
#: Start of the synthetic history (a fixed epoch well in the past).
HISTORY_T0 = 1_600_000_000.0
#: Range of one historical job's run time, in heartbeats.
JOB_HEARTBEATS = (120, 480)
#: submit + lease + done around each job's heartbeats.
RECORDS_PER_JOB = 3

HISTORY_SPEC = {"key": "fig1", "scale": "ci"}
#: Daemon stamp on the history's lease records.
HISTORY_DAEMON = "d-history"
#: History worker pids start above Linux's PID_MAX_LIMIT, so none of
#: them can name a live process.
HISTORY_PID_BASE = 1 << 22


def _job_lengths(rng: random.Random, records: int) -> List[int]:
    """Heartbeat counts per job so the records add up to ``records``."""
    lengths: List[int] = []
    left = records
    lo, hi = JOB_HEARTBEATS
    while left > 0:
        beats = rng.randint(lo, hi)
        if left - (beats + RECORDS_PER_JOB) < lo + RECORDS_PER_JOB:
            beats = left - RECORDS_PER_JOB  # last job takes the rest
        lengths.append(beats)
        left -= beats + RECORDS_PER_JOB
    return lengths


def build_history(path: Path, seed: int,
                  records: int = AGED_RECORDS) -> Dict[str, float]:
    """Write a ``jobs.log`` of exactly ``records`` records to ``path``.

    Returns the fixture's age: record count, job count and worker-hours
    of heartbeats.
    """
    from repro.exec.journal import encode_record

    rng = random.Random(seed)
    lengths = _job_lengths(rng, records)
    t = HISTORY_T0
    lines = []
    for i, beats in enumerate(lengths, start=1):
        job = f"job-{i:06d}"
        pid = HISTORY_PID_BASE + rng.randint(1000, 60000)
        lines.append(encode_record({
            "type": "job_submitted", "job": job, "kind": "run",
            "spec": HISTORY_SPEC, "t": t,
        }))
        t += rng.uniform(0.05, 0.5)
        lines.append(encode_record({
            "type": "job_leased", "job": job, "attempt": 1, "pid": pid,
            "timeout": 30.0, "daemon": f"{HISTORY_DAEMON}-{seed}", "t": t,
        }))
        for _ in range(beats):
            t += HEARTBEAT_S
            lines.append(encode_record({
                "type": "job_heartbeat", "job": job, "pid": pid, "t": t,
            }))
        t += rng.uniform(0.05, 0.5)
        lines.append(encode_record({
            "type": "job_done", "job": job,
            "digests": {"run": f"{rng.getrandbits(64):016x}"},
            "result": {"kind": "run", "experiments": ["fig1"]},
            "t": t,
        }))
    path.write_text("".join(lines))
    return {
        "records": len(lines),
        "jobs": len(lengths),
        "worker_hours": sum(lengths) * HEARTBEAT_S / 3600.0,
    }


def verify_history(state_dir: Path, expected_records: int) -> None:
    """Replay the log with the program's own ``JobStore.load`` and
    insist on the exact record count, no corrupt records and every
    historical job ``done``."""
    from repro.serve.store import JobStore

    state = JobStore(state_dir).load()
    if state.records != expected_records or state.corrupt_records:
        raise RuntimeError(
            f"aged log replays to {state.records} records "
            f"({state.corrupt_records} corrupt); expected "
            f"{expected_records}"
        )
    if state.unfinished():
        raise RuntimeError("aged log has unfinished jobs")


def build_template(template_dir: Path, seed: int,
                   records: int = AGED_RECORDS) -> Dict[str, float]:
    """Build and verify the template state directory once per run."""
    template_dir.mkdir(parents=True, exist_ok=True)
    age = build_history(template_dir / "jobs.log", seed, records)
    verify_history(template_dir, records)
    return age


def fresh_copy(template_dir: Path, state_dir: Path) -> None:
    """A fresh state directory holding a copy of the template log."""
    if state_dir.exists():
        shutil.rmtree(state_dir)
    state_dir.mkdir(parents=True)
    shutil.copyfile(template_dir / "jobs.log", state_dir / "jobs.log")
