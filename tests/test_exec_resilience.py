"""Tests for exec-layer resilience: per-task error capture, timeouts,
worker-crash retries, and experiment degradation.

The contract: one bad sweep point must never abort the run.  It lands
in its TaskResult as a diagnostic, degrades only its own experiment to
``passed=False``, and the engine still reports complete statistics.

The crash/timeout executors are registered into the task registry at
import time; the pool uses the fork start method on Linux, so workers
inherit the registration.
"""

import multiprocessing
import os
import time

import pytest

from repro.core.experiments import failed_outcome
from repro.exec import Engine, ResultCache, RunSpec, Scheduler, Task
from repro.exec import tasks as tasks_mod

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _ok(value=42):
    return value


def _boom(message="kaboom", **_params):
    raise RuntimeError(message)


def _sleep(seconds=30.0):
    time.sleep(seconds)
    return "overslept"


def _die(code=3):
    os._exit(code)  # simulates an OOM-killed / segfaulted worker


tasks_mod._EXECUTORS.update(
    test_ok=_ok, test_boom=_boom, test_sleep=_sleep, test_die=_die,
)


def _task(kind, index=0, **params):
    return Task("test", "ci", index, kind, params=params)


class TestInlineIsolation:
    def test_exception_captured_not_raised(self):
        sched = Scheduler(jobs=1)
        results = sched.map(
            [_task("test_ok", 0), _task("test_boom", 1), _task("test_ok", 2)]
        )
        assert [r.failed for r in results] == [False, True, False]
        assert results[0].value == 42 and results[2].value == 42
        assert results[1].error == "RuntimeError: kaboom"
        assert results[1].value is None


@pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
class TestPoolIsolation:
    def test_task_exception_captured(self):
        sched = Scheduler(jobs=2)
        results = sched.map(
            [_task("test_ok", 0), _task("test_boom", 1), _task("test_ok", 2)]
        )
        assert sched.fallback_reason is None
        assert [r.failed for r in results] == [False, True, False]
        assert results[1].error == "RuntimeError: kaboom"
        assert all(r.worker == "pool" for r in results)

    def test_task_timeout_degrades_not_hangs(self):
        sched = Scheduler(jobs=2, task_timeout=0.5, retries=1)
        t0 = time.perf_counter()
        results = sched.map(
            [_task("test_ok", 0), _task("test_sleep", 1), _task("test_ok", 2)]
        )
        assert time.perf_counter() - t0 < 20.0  # not the 30s sleep
        assert results[0].value == 42
        assert results[1].failed
        assert "task exceeded --task-timeout 0.5s" in results[1].error
        assert results[2].value == 42  # sibling retried on a fresh pool

    def test_worker_crash_retried_then_marked_failed(self):
        sched = Scheduler(jobs=2, retries=1, backoff=0.01)
        results = sched.map(
            [_task("test_ok", 0), _task("test_die", 1), _task("test_ok", 2)]
        )
        assert results[0].value == 42 and results[2].value == 42
        assert results[1].failed
        assert "BrokenProcessPool" in results[1].error
        assert "1 retry was exhausted" in results[1].error
        assert results[1].attempts == 2
        assert "retries exhausted" in sched.fallback_reason

    def test_crash_never_rerun_inline(self):
        # A deterministic crasher must be marked failed, not executed
        # in-process where os._exit would kill the test runner — the
        # fact that this test finishes is the assertion.
        sched = Scheduler(jobs=2, retries=0, backoff=0.01)
        results = sched.map([_task("test_die", 0), _task("test_ok", 1)])
        assert results[0].failed


class TestSchedulerValidation:
    def test_bad_task_timeout_rejected(self):
        with pytest.raises(ValueError, match="task_timeout"):
            Scheduler(jobs=2, task_timeout=0.0)

    def test_bad_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            Scheduler(jobs=2, retries=-1)


class TestFailedOutcome:
    def test_degraded_outcome_carries_diagnostics(self):
        outcome = failed_outcome(
            "fig9", [("fig9[n=8]", "RuntimeError: kaboom")]
        )
        assert not outcome.passed
        assert all(not ok for _, ok in outcome.claim_results)
        assert "fig9[n=8]" in outcome.report
        assert "RuntimeError: kaboom" in outcome.report


class TestEngineDegradation:
    def test_one_bad_experiment_does_not_poison_the_run(self, monkeypatch):
        monkeypatch.setitem(
            tasks_mod._EXECUTORS, "fig5_point", _boom
        )
        engine = Engine(jobs=1)
        outcomes = engine.run_many(["fig5", "lst1"])
        assert not outcomes["fig5"].passed
        assert "degraded" in outcomes["fig5"].report
        assert "RuntimeError: kaboom" in outcomes["fig5"].report
        assert outcomes["lst1"].passed
        # Stats stay complete: both experiments accounted for, failures
        # counted, and the report renders the diagnostics.
        assert len(engine.stats.experiments) == 2
        assert engine.stats.failed_tasks > 0
        assert "task failures" in engine.stats.render()

    def test_failed_outcome_never_cached(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            tasks_mod._EXECUTORS, "fig5_point", _boom
        )
        cache = ResultCache(tmp_path, fingerprint="fp")
        engine = Engine(jobs=1, cache=cache)
        assert not engine.run("fig5").passed
        assert cache.stats.writes == 0
        assert len(cache) == 0

    def test_json_stats_carry_error_and_attempts(self, monkeypatch):
        monkeypatch.setitem(
            tasks_mod._EXECUTORS, "fig5_point", _boom
        )
        engine = Engine(jobs=1)
        engine.run("fig5")
        doc = engine.stats.as_dict()
        (entry,) = doc["experiments"]
        assert entry["failed_tasks"] == entry["ntasks"]
        assert all("RuntimeError" in t["error"] for t in entry["tasks"])

    def test_bad_fault_spec_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown fault preset"):
            Engine(spec=RunSpec(faults="bogus"))

    def test_faulted_run_keyed_separately_in_cache(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        Engine(jobs=1, cache=cache).run("lst1")
        assert cache.stats.writes == 1
        faulted = Engine(
            jobs=1, cache=ResultCache(tmp_path, fingerprint="fp"),
            spec=RunSpec(faults="lossy", seed=1),
        )
        faulted.run("lst1")
        # The fault-free entry must not be served for the faulted run.
        assert faulted.cache.stats.hits == 0
