"""Unit tests for the serve job store, the shared deterministic
backoff helper, and the FileLock timeout diagnostic.

The durability claims under test:

* the job log replays with the WAL recovery rules — last record wins,
  a torn tail is dropped silently, a corrupt interior record is
  skipped and counted, a cancel is sticky-terminal;
* re-dispatch backoff is a pure function of ``(job_id, attempt)`` —
  the acceptance criterion — bounded by the cap and decorrelated
  across jobs;
* ``FileLock.acquire(timeout=...)`` raises a :class:`FileLockTimeout`
  naming the holding pid instead of blocking forever, proven against
  a real second process;
* a long-lived store's tail-following replay decodes only appended
  lines (counted, not timed) and always equals a fresh full replay of
  the same bytes, whatever mix of appends, tears, repairs, corrupt
  appends, truncations, in-place rewrites and file replacements came
  before.
"""

import dataclasses
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomicio import FileLock, FileLockTimeout, repair_torn_tail
from repro.exec.backoff import backoff_delay, backoff_schedule
from repro.exec.journal import encode_record
from repro.serve.daemon import DaemonConfig, ServeDaemon
from repro.serve.store import (
    JobStore,
    ServeStoreError,
    job_backoff,
)


class TestBackoffDeterminism:
    def test_pure_function_of_key_and_attempt(self):
        for attempt in range(8):
            assert backoff_delay("job-000001", attempt) == \
                backoff_delay("job-000001", attempt)
        assert job_backoff("job-000042", 3) == job_backoff("job-000042", 3)

    def test_distinct_keys_decorrelate(self):
        delays = {backoff_delay(f"job-{i:06d}", 2) for i in range(20)}
        assert len(delays) == 20  # no two jobs share a retry instant

    def test_exponential_window_with_jitter_bounds(self):
        base, cap = 0.25, 30.0
        for attempt in range(12):
            window = min(cap, base * 2 ** attempt)
            d = backoff_delay("k", attempt, base=base, cap=cap)
            assert window / 2 <= d < window

    def test_cap_bounds_the_worst_case(self):
        assert backoff_delay("k", 1000, cap=5.0) < 5.0

    def test_schedule_matches_pointwise(self):
        sched = backoff_schedule("job-000007", 5)
        assert sched == [backoff_delay("job-000007", a) for a in range(5)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="attempt"):
            backoff_delay("k", -1)
        with pytest.raises(ValueError, match="base"):
            backoff_delay("k", 0, base=0.0)
        with pytest.raises(ValueError, match="cap"):
            backoff_delay("k", 0, base=1.0, cap=0.5)

    def test_seed_changes_the_schedule(self):
        assert backoff_delay("k", 3, seed=0) != backoff_delay("k", 3, seed=1)


class TestJobLogReplay:
    def test_submit_assigns_sequential_ids(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.submit("run", {"key": "lst1"}) == "job-000001"
        assert store.submit("campaign", {"selector": "smoke"}) == "job-000002"
        state = store.load()
        assert state.jobs["job-000001"].kind == "run"
        assert state.jobs["job-000002"].status == "queued"

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ServeStoreError, match="unknown job kind"):
            JobStore(tmp_path).submit("dance", {})

    def test_lease_heartbeat_done_lifecycle(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        store.job_leased(job, 1, pid=1234, timeout=30.0)
        assert store.get(job).status == "leased"
        assert store.get(job).attempt == 1
        store.job_heartbeat(job, pid=1234)
        store.job_done(job, {"run": "abcd"}, result={"kind": "run"})
        final = store.get(job)
        assert final.status == "done"
        assert final.digests == {"run": "abcd"}
        assert final.terminal

    def test_requeue_applies_backoff_gate(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        store.job_leased(job, 1, pid=1, timeout=0.1)
        store.job_requeued(job, 2, "lease-expired", delay=3600.0)
        rec = store.get(job)
        assert rec.status == "queued"
        assert rec.attempt == 2
        assert rec.requeues == 1
        assert not rec.leasable(time.time())  # still inside the backoff
        assert rec.leasable(time.time() + 3601.0)

    def test_last_record_wins(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        store.job_leased(job, 1, pid=1, timeout=30.0)
        store.job_failed(job, "BrokenThing: nope")
        assert store.get(job).status == "failed"
        assert "BrokenThing" in store.get(job).error

    def test_cancel_is_sticky_terminal(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        store.job_leased(job, 1, pid=1, timeout=30.0)
        store.job_cancelled(job)
        # A worker that finished after the cancel cannot revive the job.
        store.job_done(job, {"run": "abcd"})
        assert store.get(job).status == "cancelled"

    def test_lease_staleness_uses_heartbeat_freshness(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        now = time.time()
        store.append({"type": "job_leased", "job": job, "attempt": 1,
                      "pid": 1, "timeout": 1.0}, t=now - 10.0)
        assert store.get(job).lease_stale(now)
        store.append({"type": "job_heartbeat", "job": job, "pid": 1},
                     t=now - 0.2)
        assert not store.get(job).lease_stale(now)

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        with open(store.log_path, "a") as f:
            f.write('{"type": "job_done", "job": "' + job)  # torn append
        state = store.load()
        assert state.torn_tail
        assert state.corrupt_records == 0
        assert state.jobs[job].status == "queued"  # the tear never counted

    def test_corrupt_interior_is_skipped_and_counted(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        with open(store.log_path, "a") as f:
            f.write("garbage not json\n")
            f.write(encode_record({
                "type": "job_done", "job": job, "digests": {"run": "ff"},
                "t": time.time(),
            }))
        state = store.load()
        assert state.corrupt_records == 1
        assert state.jobs[job].status == "done"  # later records still load

    def test_unknown_record_types_are_ignored(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        store.append({"type": "job_promoted", "job": job})
        assert store.get(job).status == "queued"

    def test_queue_depths(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.submit("run", {})
        b = store.submit("run", {})
        store.submit("run", {})
        store.job_leased(a, 1, pid=1, timeout=30.0)
        store.job_cancelled(b)
        depths = store.load().by_status()
        assert depths == {"queued": 1, "leased": 1, "done": 0,
                          "failed": 0, "cancelled": 1}


def _aged_log(path, records, jobs=100):
    """A log of exactly ``records`` finished-job records: per job a
    submit, a lease, heartbeats and a done."""
    per_job = records // jobs
    lines = []
    t = 1_600_000_000.0
    for i in range(1, jobs + 1):
        job = f"job-{i:06d}"
        lines.append(encode_record({"type": "job_submitted", "job": job,
                                    "kind": "run", "spec": {}, "t": t}))
        lines.append(encode_record({"type": "job_leased", "job": job,
                                    "attempt": 1, "pid": 1,
                                    "timeout": 30.0, "t": t}))
        for _ in range(per_job - 3):
            t += 1.0
            lines.append(encode_record({"type": "job_heartbeat",
                                        "job": job, "pid": 1, "t": t}))
        lines.append(encode_record({"type": "job_done", "job": job,
                                    "digests": {"run": "ff"}, "t": t}))
    path.write_text("".join(lines))
    return len(lines)


class TestTailFollowingReplay:
    """Replay cost grows with the appended records, not the log's age:
    the counters make that a deterministic gate."""

    AGED = 20_000

    def test_loads_decode_only_the_appended_records(self, tmp_path):
        store = JobStore(tmp_path)
        assert _aged_log(store.log_path, self.AGED) == self.AGED
        first = store.load()
        assert first.records == self.AGED
        assert store.replayed_records == self.AGED
        assert store.full_replays == 1
        assert store.load().records == self.AGED
        assert store.replayed_records == 0  # nothing new: nothing decoded
        for k in (1, 7):
            before = store.load().records
            for _ in range(k):
                store.job_heartbeat("job-000100", pid=1)
            assert store.load().records == before + k
            assert store.replayed_records == k
        assert store.full_replays == 1
        # Later loads never mutate a state handed out earlier.
        assert first.records == self.AGED
        health = store.health()
        assert health["replayed_records"] == 0
        assert health["full_replays"] == 1

    def test_daemon_tick_without_new_records_decodes_nothing(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        _aged_log(state_dir / JobStore.LOG_NAME, self.AGED)
        daemon = ServeDaemon(DaemonConfig(state_dir=state_dir, workers=1))
        assert daemon.tick().records == self.AGED
        assert daemon.store.replayed_records == self.AGED
        for _ in range(3):
            daemon.tick()
            assert daemon.store.replayed_records == 0
        assert daemon.store.full_replays == 1

    def test_a_torn_tail_is_never_cached(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        line = encode_record({"type": "job_cancelled", "job": job,
                              "t": time.time()})
        with open(store.log_path, "a") as f:
            f.write(line[:-1])  # the whole record but its newline
        # An unterminated line that checks out is applied, but only to
        # this load's result.
        assert store.load().jobs[job].status == "cancelled"
        with open(store.log_path, "a") as f:
            f.write("\n")
        assert store.load().jobs[job].status == "cancelled"
        assert store.replayed_records == 1  # the completed line again
        repair_torn_tail(store.log_path)
        with open(store.log_path, "a") as f:
            f.write(line[:20])  # a tear that cannot decode
        state = store.load()
        assert state.torn_tail and state.corrupt_records == 0
        repair_torn_tail(store.log_path)
        assert not store.load().torn_tail
        assert store.full_replays == 1

    def test_shrunk_or_replaced_log_is_replayed_in_full(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.submit("run", {})
        store.submit("run", {})
        assert len(store.load().jobs) == 2
        keep = store.log_path.read_bytes().split(b"\n")[0] + b"\n"
        os.truncate(store.log_path, len(keep))
        assert list(store.load().jobs) == [a]
        assert store.full_replays == 2
        replacement = tmp_path / "jobs.log.new"
        replacement.write_bytes(keep + encode_record(
            {"type": "job_cancelled", "job": a, "t": 1.0}).encode())
        os.replace(replacement, store.log_path)
        assert store.load().jobs[a].status == "cancelled"
        assert store.full_replays == 3


_JOB_IDS = ("job-000001", "job-000002", "job-000003")
_RECORD_TYPES = ("job_submitted", "job_leased", "job_heartbeat",
                 "job_requeued", "job_done", "job_failed", "job_cancelled")


def _record_line(rtype: str, job: str, t: int) -> bytes:
    doc = {"type": rtype, "job": job, "t": float(t)}
    if rtype == "job_submitted":
        doc.update(kind="run", spec={"key": "fig1", "n": t})
    elif rtype == "job_leased":
        doc.update(attempt=1 + t % 3, pid=100 + t, timeout=30.0,
                   daemon=f"d-{t % 2}")
    elif rtype == "job_heartbeat":
        doc["pid"] = 100 + t
    elif rtype == "job_requeued":
        doc.update(attempt=1 + t % 3, reason="lease-expired", delay=0.5)
    elif rtype == "job_done":
        doc.update(digests={"run": f"{t:016x}"}, result={"kind": "run"})
    elif rtype == "job_failed":
        doc["error"] = f"Boom: {t}"
    return encode_record(doc).encode()


def _flip_bit(data: bytes, where: int, bit: int) -> bytes:
    if not data:
        return data
    i = where * len(data) // 1000
    return data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1:]


def _view(state):
    return (state.records, state.corrupt_records, state.torn_tail,
            {j: dataclasses.asdict(r) for j, r in state.jobs.items()})


_records = st.lists(
    st.tuples(st.sampled_from(_RECORD_TYPES), st.sampled_from(_JOB_IDS)),
    min_size=1, max_size=4,
)
_per_mille = st.integers(0, 999)
_steps = st.lists(st.one_of(
    st.tuples(st.just("append"), _records),
    st.tuples(st.just("torn"), _records, _per_mille),
    st.tuples(st.just("repair")),
    # A corrupt append: one bit of the new batch flipped anywhere,
    # framing newlines and non-ASCII results included.
    st.tuples(st.just("flip"), _records, _per_mille, st.integers(0, 7)),
    st.tuples(st.just("truncate"), _per_mille),
    # Shrink in place, then grow past the old end before the reload.
    st.tuples(st.just("rewrite"), _per_mille, _records),
    # A new file (new inode): the old bytes with one bit of the
    # consumed history flipped, plus a new batch.
    st.tuples(st.just("replace"), _per_mille, st.integers(0, 7),
              _records),
), min_size=1, max_size=25)


class TestIncrementalEqualsFullReplay:
    @settings(max_examples=80, deadline=None)
    @given(steps=_steps)
    def test_long_lived_store_matches_a_fresh_replay(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp)
            log = state_dir / JobStore.LOG_NAME
            live = JobStore(state_dir)
            handed_out = []
            t = 0

            def batch(records):
                nonlocal t
                out = b""
                for rtype, job in records:
                    t += 1
                    out += _record_line(rtype, job, t)
                return out

            for step in steps:
                op = step[0]
                if op in ("append", "flip", "torn"):
                    data = batch(step[1])
                    if op == "flip":
                        data = _flip_bit(data, step[2], step[3])
                    elif op == "torn":
                        data = data[:1 + step[2] * (len(data) - 2) // 1000]
                    with open(log, "ab") as f:
                        f.write(data)
                elif op == "repair":
                    repair_torn_tail(log)
                elif op in ("truncate", "rewrite") and log.exists():
                    os.truncate(log, step[1] * log.stat().st_size // 1000)
                    if op == "rewrite":
                        with open(log, "ab") as f:
                            f.write(batch(step[2]) * 3)
                elif op == "replace" and log.exists():
                    new = _flip_bit(log.read_bytes(), step[1], step[2])
                    (state_dir / "next").write_bytes(new + batch(step[3]))
                    os.replace(state_dir / "next", log)
                got = live.load()
                assert _view(got) == _view(JobStore(state_dir).load())
                handed_out.append((got, _view(got)))
            for state, view in handed_out:
                assert _view(state) == view  # never mutated afterwards


class TestFileLockTimeout:
    def test_timeout_names_the_holder(self, tmp_path):
        lock_path = tmp_path / "contended.lock"
        holder = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(f"""
                import sys, time
                sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'src')!r})
                from repro.core.atomicio import FileLock
                lock = FileLock({str(lock_path)!r})
                lock.acquire()
                print("held", flush=True)
                time.sleep(60)
            """)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "held"
            contender = FileLock(lock_path)
            with pytest.raises(FileLockTimeout) as err:
                contender.acquire(timeout=0.3)
            assert f"held by pid {holder.pid}" in str(err.value)
            assert "since" in str(err.value)
        finally:
            holder.kill()
            holder.wait()
        # The holder is dead: the lock is acquirable again.
        assert contender.acquire(timeout=5.0)
        contender.release()

    def test_zero_timeout_fails_fast_under_contention(self, tmp_path):
        first = FileLock(tmp_path / "l")
        assert first.acquire()
        second = FileLock(tmp_path / "l")
        t0 = time.monotonic()
        with pytest.raises(FileLockTimeout):
            second.acquire(timeout=0.0)
        assert time.monotonic() - t0 < 1.0
        first.release()

    def test_negative_timeout_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="timeout"):
            FileLock(tmp_path / "l").acquire(timeout=-1.0)

    def test_unbounded_and_nonblocking_paths_still_work(self, tmp_path):
        lock = FileLock(tmp_path / "l")
        assert lock.acquire()  # blocking default
        assert lock.held
        lock.release()
        assert lock.acquire(blocking=False)
        lock.release()
