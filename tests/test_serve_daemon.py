"""Daemon control-loop tests: lease expiry, re-dispatch, drain, cancel.

Driven at the :meth:`ServeDaemon.tick` level with real worker
subprocesses and aggressively small lease timeouts, so the whole
lease-expire-requeue-complete cycle runs in seconds.  The headline
assertions:

* a worker that stops heartbeating mid-job (the ``_wedge_attempts``
  test lever) gets its lease expired and the job re-dispatched with
  the deterministic backoff — and the *final metric-document digest
  is byte-identical* to an uninterrupted in-process run;
* a SIGKILL'd worker is re-dispatched the same way, without waiting
  out the lease timeout (the daemon reaps the dead process);
* a job whose leases keep expiring degrades to the typed terminal
  ``failed`` state after ``max_attempts`` instead of wedging the
  queue;
* drain stops leasing and reports 75 while work remains, 0 when done;
* cancel kills the worker and is sticky.
"""

import json
import signal
import time

import pytest

from repro.serve.daemon import DaemonConfig, ServeDaemon
from repro.serve.store import JobStore, job_backoff

pytestmark = pytest.mark.slow


def _daemon(tmp_path, **overrides):
    kwargs = dict(
        state_dir=tmp_path / "state",
        workers=2,
        lease_timeout=1.5,
        heartbeat=0.1,
        poll=0.05,
        max_attempts=3,
        grace=3.0,
    )
    kwargs.update(overrides)
    return ServeDaemon(DaemonConfig(**kwargs))


def _drive(daemon, job_id, timeout=180.0):
    """Tick until the job is terminal; returns its final record."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        state = daemon.tick()
        job = state.jobs[job_id]
        if job.terminal:
            return job
        time.sleep(0.05)
    raise AssertionError(
        f"{job_id} not terminal within {timeout}s "
        f"(status: {daemon.store.get(job_id).status})"
    )


def _expected_run_digest(key="lst1", scale="ci"):
    """The digest an uninterrupted in-process run yields — what the
    CLI's ``repro run KEY --metrics-dir`` would stamp."""
    from repro.exec import Engine
    from repro.obs.collector import collect_run, document_digest

    engine = Engine(jobs=1)
    outcomes = engine.run_many([key], scale=scale)
    return document_digest(
        collect_run(engine.stats, outcomes, keys=[key], scale=scale)
    )


class TestHappyPath:
    def test_job_runs_to_done_with_cli_identical_digest(self, tmp_path):
        daemon = _daemon(tmp_path)
        job_id = daemon.store.submit("run", {"key": "lst1", "scale": "ci"})
        job = _drive(daemon, job_id)
        assert job.status == "done"
        assert job.attempt == 1
        assert job.digests["run"] == _expected_run_digest()
        # The full result document is on disk, digest included.
        result = json.loads(
            daemon.store.result_path(job_id).read_text()
        )
        assert result["digest"] == job.digests["run"]

    def test_spec_too_long_for_argv_is_read_from_the_log(self, tmp_path):
        from repro.serve.daemon import MAX_ARGV_SPEC

        daemon = _daemon(tmp_path)
        # ``_`` keys never reach the engine, so the digest is unchanged.
        spec = {"key": "lst1", "scale": "ci", "_pad": "x" * MAX_ARGV_SPEC}
        job = _drive(daemon, daemon.store.submit("run", spec))
        assert job.status == "done"
        assert job.digests["run"] == _expected_run_digest()

    def test_workers_cap_concurrent_leases(self, tmp_path):
        daemon = _daemon(tmp_path, workers=1, lease_timeout=30.0)
        a = daemon.store.submit("run", {"key": "lst1", "_wedge_attempts": 9})
        b = daemon.store.submit("run", {"key": "lst1"})
        state = daemon.tick()
        assert state.jobs[a].status == "leased"
        assert state.jobs[b].status == "queued"  # no free slot
        daemon.drain()


class TestLeaseExpiry:
    def test_stalled_worker_is_redispatched_and_digest_matches(
        self, tmp_path,
    ):
        # Attempt 1 wedges (alive but silent); the lease expires, the
        # daemon re-dispatches, attempt 2 completes.
        daemon = _daemon(tmp_path)
        job_id = daemon.store.submit(
            "run", {"key": "lst1", "scale": "ci", "_wedge_attempts": 1},
        )
        job = _drive(daemon, job_id)
        assert job.status == "done"
        assert job.attempt == 2
        assert job.requeues == 1
        assert job.last_requeue_reason == "lease-expired"
        # The re-run is byte-identical to an uninterrupted run: the
        # test lever never reaches the engine.
        assert job.digests["run"] == _expected_run_digest()

    def test_requeue_delay_is_the_deterministic_backoff(self, tmp_path):
        daemon = _daemon(tmp_path)
        job_id = daemon.store.submit(
            "run", {"key": "lst1", "_wedge_attempts": 1},
        )
        _drive(daemon, job_id)
        requeues = [
            rec for rec in _log_records(daemon.store)
            if rec["type"] == "job_requeued"
        ]
        assert len(requeues) == 1
        assert requeues[0]["delay"] == job_backoff(job_id, 1)

    def test_sigkilled_worker_is_redispatched(self, tmp_path):
        daemon = _daemon(tmp_path, lease_timeout=60.0)
        job_id = daemon.store.submit(
            "run", {"key": "lst1", "_wedge_attempts": 1},
        )
        state = daemon.tick()
        pid = state.jobs[job_id].worker_pid
        assert pid is not None
        import os

        os.kill(pid, signal.SIGKILL)
        # The daemon notices the dead process immediately — no need to
        # wait out the 60s lease timeout.
        job = _drive(daemon, job_id, timeout=120.0)
        assert job.status == "done"
        assert job.requeues == 1

    def test_exhausted_attempts_fail_terminally(self, tmp_path):
        daemon = _daemon(tmp_path, max_attempts=2, lease_timeout=0.8)
        job_id = daemon.store.submit(
            "run", {"key": "lst1", "_wedge_attempts": 99},
        )
        job = _drive(daemon, job_id)
        assert job.status == "failed"
        assert "LeaseExpired" in job.error
        assert "2 attempt(s) exhausted" in job.error


class TestDrainAndCancel:
    def test_drain_with_queued_work_reports_resumable(self, tmp_path):
        daemon = _daemon(tmp_path)
        daemon.store.submit("run", {"key": "lst1"})
        assert daemon.drain() == 75
        # Draining daemons lease nothing.
        assert daemon.store.load().jobs["job-000001"].status == "queued"

    def test_drain_after_completion_is_clean(self, tmp_path):
        daemon = _daemon(tmp_path)
        job_id = daemon.store.submit("run", {"key": "lst1"})
        _drive(daemon, job_id)
        assert daemon.drain() == 0

    def test_cancel_kills_the_worker_and_sticks(self, tmp_path):
        daemon = _daemon(tmp_path, lease_timeout=60.0)
        job_id = daemon.store.submit(
            "run", {"key": "lst1", "_wedge_attempts": 99},
        )
        state = daemon.tick()
        assert state.jobs[job_id].status == "leased"
        daemon.store.job_cancelled(job_id)
        state = daemon.tick()
        assert state.jobs[job_id].status == "cancelled"
        # Sticky: nothing ever revives it, and drain is clean.
        assert daemon.drain() == 0


class _FinishingProc:
    """A worker stand-in whose exit is first seen by ``poll()``; it
    appends its ``job_done`` just before that, as a real worker does
    right before it exits."""

    pid = 424242

    def __init__(self, store, job_id):
        self.store, self.job_id = store, job_id
        self.returncode = None

    def poll(self):
        if self.returncode is None:
            self.store.job_done(self.job_id, {"run": "abcd"})
            self.returncode = 0
        return self.returncode


class TestReapOrder:
    def test_outcome_landing_before_the_exit_is_seen_is_not_requeued(
        self, tmp_path,
    ):
        # The job_done lands after anything the tick could have read
        # before polling, and before poll() reports the exit.  A tick
        # that judged the exit against a state read before the poll
        # would requeue a finished job as lease-expired.
        daemon = _daemon(tmp_path, lease_timeout=60.0)
        job_id = daemon.store.submit("run", {"key": "lst1"})
        daemon.store.job_leased(job_id, 1, _FinishingProc.pid, 60.0,
                                daemon_id=daemon.daemon_id)
        daemon.store.load()  # the tick's store has read the lease
        daemon._procs[job_id] = _FinishingProc(daemon.store, job_id)
        daemon._mine.add(job_id)
        job = daemon.tick().jobs[job_id]
        assert job.status == "done"
        assert job.attempt == 1
        assert job.requeues == 0
        assert not daemon._procs
        assert not [rec for rec in _log_records(daemon.store)
                    if rec["type"] == "job_requeued"]


class _SigtermedProc:
    """A worker stand-in that died of drain()'s SIGTERM before it had
    installed its handler (it was still importing)."""

    pid = 424243

    def poll(self):
        return -signal.SIGTERM

    def terminate(self):
        pass

    def wait(self, timeout=None):
        return -signal.SIGTERM


class TestDrainReap:
    def _leased(self, tmp_path):
        daemon = _daemon(tmp_path, lease_timeout=60.0)
        job_id = daemon.store.submit("run", {"key": "lst1"})
        daemon.store.job_leased(job_id, 1, _SigtermedProc.pid, 60.0,
                                daemon_id=daemon.daemon_id)
        daemon._procs[job_id] = _SigtermedProc()
        daemon._mine.add(job_id)
        return daemon, job_id

    def test_sigterm_death_during_drain_is_a_drain(self, tmp_path):
        daemon, job_id = self._leased(tmp_path)
        logged = []
        daemon._log = logged.append
        assert daemon.drain() == 75
        job = daemon.store.load().jobs[job_id]
        assert job.status == "queued"
        assert job.last_requeue_reason == "drain"
        assert job.attempt == 1  # not burned: the next lease is 1 again
        assert job.not_before <= time.time()  # no backoff
        assert any(f"worker exit {-signal.SIGTERM}" in m for m in logged)

    def test_sigterm_death_outside_a_drain_burns_an_attempt(self,
                                                              tmp_path):
        daemon, job_id = self._leased(tmp_path)
        job = daemon.tick().jobs[job_id]
        assert job.last_requeue_reason == "lease-expired"
        assert job.not_before > time.time() - 1.0


class TestServedRunMatchesCli:
    """A served ``run`` job honours every RunSpec field: its metric
    document digest is the direct ``repro run --metrics-dir`` one."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("spec, argv", [
        ({"key": "fig4", "guard": "repair", "guard_inject": "overflow16"},
         ["fig4", "--guard", "repair", "--guard-inject", "overflow16"]),
        ({"key": "fig3", "guard": "observe"},
         ["fig3", "--guard", "observe"]),
    ])
    def test_guarded_digest_is_the_cli_digest(self, tmp_path, capsys,
                                              spec, argv):
        from repro.cli import main

        metrics = tmp_path / "cli-metrics"
        assert main(["run", *argv, "--scale", "ci", "--quiet",
                     "--metrics-dir", str(metrics)]) == 0
        capsys.readouterr()
        (doc_path,) = metrics.glob("metrics-*.json")
        cli_digest = json.loads(doc_path.read_text())["digest"]

        daemon = _daemon(tmp_path)
        job = _drive(daemon, daemon.store.submit(
            "run", {**spec, "scale": "ci"}))
        assert job.status == "done", job.error
        assert job.digests["run"] == cli_digest
        assert job.digests["run"] != _expected_run_digest(spec["key"])


class TestRestartRecovery:
    def test_fresh_daemon_requeues_stale_inherited_lease(self, tmp_path):
        store = JobStore(tmp_path / "state")
        job_id = store.submit("run", {"key": "lst1"})
        # A lease from a long-dead predecessor daemon (stale heartbeat,
        # dead pid).
        store.append({"type": "job_leased", "job": job_id, "attempt": 1,
                      "pid": 999999, "timeout": 0.5},
                     t=time.time() - 60.0)
        daemon = _daemon(tmp_path)
        job = _drive(daemon, job_id)
        assert job.status == "done"
        assert job.last_requeue_reason == "daemon-restart"
        assert job.digests["run"] == _expected_run_digest()


def _log_records(store):
    from repro.exec.journal import decode_record

    return [
        decode_record(line)
        for line in store.log_path.read_text().splitlines()
    ]
