"""The experiment engine: task graph + scheduler + cache + metrics.

``Engine`` is what ``repro run`` drives: it decomposes each requested
experiment into sweep-point tasks, schedules them (optionally on a
process pool), merges the payloads, evaluates the paper's claims, and
records per-task and per-experiment wall-clock plus cache statistics
into a :class:`RunStats` that renders through :mod:`repro.core.report`.

When several experiments run together (``repro run all``) their tasks
are flattened into a single scheduler submission, so a 4-way pool keeps
working on fig4's simulations while fig3's message-size points drain —
no per-experiment barrier.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.benchmark import WallTimer
from ..core.experiments import (
    REGISTRY,
    Outcome,
    evaluate_outcome,
    failed_outcome,
    scale_params,
)
from ..obs import MetricsRegistry, TraceRecorder
from .cache import CacheStats, ResultCache, source_fingerprint
from .journal import JournalState, JournalWriter, task_key
from .runspec import RunSpec
from .scheduler import Scheduler, TaskResult
from .tasks import Task, decompose, merge_results

__all__ = [
    "Engine",
    "ExperimentStats",
    "RunStats",
    "TaskMetric",
]


@dataclass
class TaskMetric:
    """Timing (and, on failure, diagnostic) of one executed task."""

    experiment: str
    label: str
    seconds: float
    worker: str  # "inline" or "pool"
    error: Optional[str] = None
    attempts: int = 1
    #: guard document (events + remediation chain) for guarded tasks
    #: whose monitor saw anything; None otherwise, keeping unguarded
    #: stats output byte-identical.
    guard: Optional[Dict[str, Any]] = None

    @property
    def degraded(self) -> bool:
        """True when the task only completed via the remediation chain."""
        return bool(self.guard and self.guard.get("remediation"))

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "experiment": self.experiment,
            "label": self.label,
            "seconds": self.seconds,
            "worker": self.worker,
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.attempts != 1:
            doc["attempts"] = self.attempts
        if self.guard is not None:
            doc["guard"] = self.guard
        if self.degraded:
            doc["degraded"] = True
        return doc


@dataclass
class ExperimentStats:
    """Per-experiment execution record for one engine run."""

    key: str
    scale: str
    cached: bool
    passed: bool
    seconds: float  # summed task work time (0.0 on a cache hit)
    tasks: List[TaskMetric] = field(default_factory=list)
    failed_tasks: int = 0
    #: tasks drained by a graceful shutdown / watchdog — resumable,
    #: so the experiment has no outcome rather than a failed one.
    interrupted_tasks: int = 0

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "key": self.key,
            "scale": self.scale,
            "cached": self.cached,
            "passed": self.passed,
            "seconds": self.seconds,
            "ntasks": len(self.tasks),
            "failed_tasks": self.failed_tasks,
            "tasks": [t.as_dict() for t in self.tasks],
        }
        if self.interrupted_tasks:
            doc["interrupted_tasks"] = self.interrupted_tasks
        return doc


@dataclass
class RunStats:
    """Everything ``--stats`` / ``--json`` reports about an engine run."""

    jobs: int
    experiments: List[ExperimentStats] = field(default_factory=list)
    cache: Optional[CacheStats] = None
    total_seconds: float = 0.0
    fallback_reason: Optional[str] = None
    fault_spec: Optional[str] = None
    fault_seed: int = 0
    #: restored/executed/stale task counts when the run resumed from a
    #: journal (reported by ``--stats`` and ``repro journal show`` —
    #: deliberately *not* by ``--json``, whose output must stay
    #: byte-identical to an uninterrupted run).
    resume: Optional[Dict[str, int]] = None
    #: True after a graceful shutdown or watchdog trip — the run is
    #: incomplete but resumable from its journal.
    interrupted: bool = False
    #: active ``--guard`` mode (None keeps every output byte-identical
    #: to a guard-free run), its sentinel cadence, and any synthetic
    #: numerical-fault injection.
    guard_mode: Optional[str] = None
    guard_cadence: int = 16
    guard_inject: Optional[str] = None

    @property
    def failed_tasks(self) -> int:
        return sum(e.failed_tasks for e in self.experiments)

    @property
    def interrupted_tasks(self) -> int:
        return sum(e.interrupted_tasks for e in self.experiments)

    def _guarded_metrics(self) -> List[TaskMetric]:
        return [
            t for e in self.experiments for t in e.tasks if t.guard is not None
        ]

    @property
    def degraded_tasks(self) -> int:
        return sum(1 for t in self._guarded_metrics() if t.degraded)

    @property
    def guard_events(self) -> int:
        return sum(
            len(t.guard.get("events", ())) for t in self._guarded_metrics()
        )

    @property
    def guard_violations(self) -> int:
        return sum(
            int(t.guard.get("violations", 0)) for t in self._guarded_metrics()
        )

    def guard_report(self) -> Optional[Dict[str, Any]]:
        """Aggregate guard document (``--guard-out`` / ``repro guard
        report``): run-level summary plus every task's guard record."""
        if self.guard_mode is None:
            return None
        doc: Dict[str, Any] = {
            "mode": self.guard_mode,
            "cadence": self.guard_cadence,
            "events": self.guard_events,
            "violations": self.guard_violations,
            "degraded_tasks": self.degraded_tasks,
            "tasks": [
                {
                    "experiment": t.experiment,
                    "label": t.label,
                    "degraded": t.degraded,
                    "guard": t.guard,
                }
                for t in self._guarded_metrics()
            ],
        }
        if self.guard_inject is not None:
            doc["inject"] = self.guard_inject
        return doc

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "jobs": self.jobs,
            "total_seconds": self.total_seconds,
            "failed_tasks": self.failed_tasks,
            "experiments": [e.as_dict() for e in self.experiments],
        }
        if self.cache is not None:
            doc["cache"] = self.cache.as_dict()
        if self.fallback_reason is not None:
            doc["fallback_reason"] = self.fallback_reason
        if self.fault_spec is not None:
            doc["faults"] = {"spec": self.fault_spec, "seed": self.fault_seed}
        if self.interrupted:
            doc["interrupted"] = True
        if self.guard_mode is not None:
            guard: Dict[str, Any] = {
                "mode": self.guard_mode,
                "cadence": self.guard_cadence,
                "events": self.guard_events,
                "violations": self.guard_violations,
                "degraded_tasks": self.degraded_tasks,
            }
            if self.guard_inject is not None:
                guard["inject"] = self.guard_inject
            doc["guard"] = guard
        return doc

    def render(self) -> str:
        from ..core.report import render_run_stats

        return render_run_stats(self)

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Absorb these counters into a :class:`MetricsRegistry` —
        the one API the ad-hoc stats bags feed when tracing is on."""
        registry.gauge("exec.jobs").set(self.jobs)
        registry.counter("exec.experiments").inc(len(self.experiments))
        registry.counter("exec.experiments.cached").inc(
            sum(1 for e in self.experiments if e.cached)
        )
        registry.counter("exec.experiments.failed").inc(
            sum(1 for e in self.experiments if not e.passed)
        )
        registry.counter("exec.tasks").inc(
            sum(len(e.tasks) for e in self.experiments)
        )
        registry.counter("exec.tasks.failed").inc(self.failed_tasks)
        for e in self.experiments:
            for t in e.tasks:
                registry.histogram("exec.task_seconds").observe(t.seconds)
        if self.cache is not None:
            for name, value in self.cache.as_dict().items():
                registry.counter(f"cache.{name}").inc(value)
        if self.resume is not None:
            for name, value in self.resume.items():
                registry.counter(f"exec.resume.{name}").inc(value)
        if self.interrupted:
            registry.counter("exec.interrupted").inc(1)
            registry.counter("exec.tasks.interrupted").inc(
                self.interrupted_tasks
            )
        if self.guard_mode is not None:
            registry.counter("guard.run.events").inc(self.guard_events)
            registry.counter("guard.run.violations").inc(
                self.guard_violations
            )
            registry.counter("guard.run.degraded_tasks").inc(
                self.degraded_tasks
            )


class Engine:
    """Schedule, cache and account for experiment runs.

    Parameters
    ----------
    jobs:
        Worker processes; 1 (default) runs everything in-process,
        0/None means one per CPU.
    cache:
        A :class:`ResultCache` to consult/fill, or None to always
        recompute.
    task_timeout:
        Per-task wall-clock bound in seconds (enforced in pool mode);
        an expired task degrades its experiment instead of hanging the
        run.
    retries:
        Fresh-pool retries (with exponential backoff) after a worker
        crash breaks the pool.
    spec:
        The run's :class:`~repro.exec.runspec.RunSpec`: its fault plan
        and guard settings reach every task, and :meth:`run_many`
        defaults to its experiments and scale.
    recorder:
        A :class:`~repro.obs.TraceRecorder` to collect spans (one per
        task, one per experiment, cache hit/miss annotated), the MPI
        simulator's virtual-clock event track, and metrics; ``None``
        (default) keeps tracing off and the run byte-identical to the
        untraced path.
    journal:
        A :class:`~repro.exec.journal.JournalWriter`: every dispatch
        and completion is appended (fsync'd) before the run proceeds,
        so a crash at any point leaves a resumable record.
    resume_state:
        A loaded :class:`~repro.exec.journal.JournalState`: completed
        sweep points whose source fingerprint still matches are
        restored without re-execution (stale ones re-run), and the
        merged figures are byte-identical to an uninterrupted run.
    cancel_event / grace / heartbeat_timeout:
        Graceful-shutdown plumbing, threaded to the scheduler — see
        :class:`~repro.exec.scheduler.Scheduler`.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        task_timeout: Optional[float] = None,
        retries: int = 1,
        spec: RunSpec = RunSpec(),
        recorder: Optional[TraceRecorder] = None,
        journal: Optional[JournalWriter] = None,
        resume_state: Optional[JournalState] = None,
        cancel_event: Optional[threading.Event] = None,
        grace: float = 5.0,
        heartbeat_timeout: Optional[float] = None,
    ) -> None:
        self.scheduler = Scheduler(
            jobs=jobs, task_timeout=task_timeout, retries=retries,
            cancel_event=cancel_event, grace=grace,
            heartbeat_timeout=heartbeat_timeout,
        )
        self.cache = cache
        self.recorder = recorder
        self.journal = journal
        self.resume_state = resume_state
        self.spec = spec
        self.stats = RunStats(
            jobs=self.scheduler.jobs,
            cache=cache.stats if cache is not None else None,
            fault_spec=self.spec.faults,
            fault_seed=self.spec.seed,
            guard_mode=self.spec.guard,
            guard_cadence=self.spec.guard_cadence,
            guard_inject=self.spec.guard_inject,
        )

    # -- single experiment ------------------------------------------------
    def run(
        self,
        key: str,
        scale: Optional[str] = None,
        extra_params: Optional[Dict[str, Any]] = None,
    ) -> Outcome:
        """Run (or fetch) one experiment; equivalent to the serial
        :func:`repro.core.experiments.run_experiment`."""
        return self.run_many([key], scale=scale, extra_params=extra_params)[key]

    # -- many experiments, one scheduler submission -----------------------
    def run_many(
        self,
        keys: Optional[Sequence[str]] = None,
        scale: Optional[str] = None,
        extra_params: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Outcome]:
        """Run several experiments (default: the spec's), flattening
        their tasks into one scheduler submission.  Returns outcomes
        keyed like ``keys``."""
        keys = self.spec.keys if keys is None else keys
        scale = self.spec.scale if scale is None else scale
        with WallTimer() as wall:
            outcomes: Dict[str, Outcome] = {}
            pending: List[tuple] = []
            for key in keys:
                if key not in REGISTRY:
                    raise KeyError(
                        f"unknown experiment {key!r}; have {sorted(REGISTRY)}"
                    )
                cached = self._cache_get(key, scale, extra_params)
                if cached is not None:
                    outcomes[key] = cached
                    with self._span(
                        f"experiment:{key}", category="experiment",
                        key=key, scale=scale, cache="hit",
                        passed=cached.passed,
                    ):
                        pass  # zero-work span: the outcome came cached
                    self.stats.experiments.append(
                        ExperimentStats(
                            key=key, scale=scale, cached=True,
                            passed=cached.passed, seconds=0.0,
                        )
                    )
                else:
                    pending.append((
                        key,
                        decompose(
                            key, scale, self.spec,
                            trace=self.recorder is not None,
                        ),
                    ))

            # -- resume: restore journalled sweep points ------------------
            restored: Dict[Tuple[str, int], TaskResult] = {}
            n_stale = 0
            fingerprint = source_fingerprint()
            if self.resume_state is not None:
                restored, n_stale = self._restore(pending, fingerprint)

            to_run: List[Task] = [
                t for key, ts in pending for t in ts
                if (key, t.index) not in restored
            ]

            # -- write-ahead: the journal knows the plan before any work --
            if self.journal is not None:
                self.journal.run_start(
                    list(keys), scale, self.scheduler.jobs, fingerprint,
                    spec=self.spec, resumed=self.resume_state is not None,
                )
                for t in to_run:
                    self.journal.task_dispatch(t)

            # Journal each result the moment the scheduler knows it
            # (streaming, fsync'd) — a SIGKILL mid-run then loses only
            # the in-flight tasks, never the finished ones.
            if self.journal is not None:
                self.scheduler.on_result = self._journal_result
            try:
                with self._span(
                    "schedule", category="engine",
                    ntasks=len(to_run), jobs=self.scheduler.jobs,
                ) as sched_attrs:
                    results_run = self.scheduler.map(to_run)
                    if self.scheduler.fallback_reason is not None:
                        sched_attrs["fallback"] = (
                            self.scheduler.fallback_reason
                        )
            finally:
                self.scheduler.on_result = None
            self.stats.fallback_reason = self.scheduler.fallback_reason

            it = iter(results_run)
            for key, tasks in pending:
                chunk = [
                    restored[(key, t.index)]
                    if (key, t.index) in restored else next(it)
                    for t in tasks
                ]
                if any(r.interrupted for r in chunk):
                    self._finish_interrupted(key, scale, chunk)
                else:
                    outcomes[key] = self._finish(
                        key, scale, chunk, extra_params
                    )

            if self.resume_state is not None:
                self.stats.resume = {
                    "restored": len(restored),
                    "executed": len(to_run),
                    "stale": n_stale,
                }
            self.stats.interrupted = (
                self.stats.interrupted or self.scheduler.interrupted
            )
            if self.journal is not None:
                self.journal.run_end(
                    "interrupted" if self.stats.interrupted else "complete"
                )
        self.stats.total_seconds += wall.seconds
        return outcomes

    # -- internals --------------------------------------------------------
    def _journal_result(self, r: TaskResult) -> None:
        """Scheduler ``on_result`` hook: append one fsync'd completion
        record per task, in completion order."""
        if r.interrupted:
            self.journal.task_interrupted(r.task, r.error or "interrupted")
        elif r.failed:
            self.journal.task_failed(r.task, r)
        else:
            self.journal.task_done(r.task, r)

    def _span(self, name: str, category: str = "engine", **attrs: Any):
        """Span on this engine's recorder, or a no-op context."""
        if self.recorder is None:
            return nullcontext(attrs)
        return self.recorder.span(name, category=category, **attrs)

    def _restore(
        self, pending: Sequence[tuple], fingerprint: str
    ) -> Tuple[Dict[Tuple[str, int], TaskResult], int]:
        """Rebuild :class:`TaskResult`\\ s for every journalled sweep
        point that is still valid: same task key *and* same source
        fingerprint.  A stale or undecodable record forces
        re-execution — the journal can degrade work, never results."""
        restored: Dict[Tuple[str, int], TaskResult] = {}
        n_stale = 0
        for key, tasks in pending:
            for t in tasks:
                rec = self.resume_state.record_for(t)
                if rec is None:
                    continue
                if rec.get("fingerprint") != fingerprint:
                    n_stale += 1
                    continue
                try:
                    value = self.resume_state.restore_payload(task_key(t))
                except Exception:
                    n_stale += 1  # torn/corrupt payload: recompute
                    continue
                restored[(key, t.index)] = TaskResult(
                    t, value, rec.get("seconds", 0.0),
                    worker=rec.get("worker", "journal"),
                    trace=rec.get("trace"),
                    guard=rec.get("guard"),
                )
        with self._span(
            "journal:restore", category="journal",
            restored=len(restored), stale=n_stale,
        ):
            pass
        return restored, n_stale

    def _finish_interrupted(
        self, key: str, scale: str, results: Sequence[TaskResult]
    ) -> None:
        """Account for an experiment cut short by a shutdown: no
        outcome, nothing cached — just honest statistics, so the
        journal + stats agree on what remains to resume."""
        self.stats.interrupted = True
        metrics = [
            TaskMetric(
                experiment=key, label=r.task.label, seconds=r.seconds,
                worker=r.worker, error=r.error, attempts=r.attempts,
                guard=r.guard,
            )
            for r in results
        ]
        with self._span(
            f"experiment:{key}", category="experiment",
            key=key, scale=scale, interrupted=True,
        ):
            pass
        self.stats.experiments.append(
            ExperimentStats(
                key=key,
                scale=scale,
                cached=False,
                passed=False,
                seconds=sum(m.seconds for m in metrics),
                tasks=metrics,
                failed_tasks=sum(1 for r in results if r.failed),
                interrupted_tasks=sum(1 for r in results if r.interrupted),
            )
        )

    def _cache_key_params(
        self, key: str, scale: str, extra_params: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        params = scale_params(key, scale)
        if extra_params:
            params.update(extra_params)
        spec = self.spec
        if spec.faults is not None:
            # Faulted outcomes must never shadow (or be shadowed by)
            # fault-free ones: the plan is part of the content address.
            params["__faults__"] = {"spec": spec.faults, "seed": spec.seed}
        if spec.guard == "repair" or spec.guard_inject is not None:
            # Repair can change payloads (remediation) and an injection
            # always does — both are part of the content address.
            # observe/strict never alter a successful result, so their
            # cache keys stay identical to an unguarded run.
            params["__guard__"] = spec.guard_meta()
        return params

    def _cache_get(
        self, key: str, scale: str, extra_params: Optional[Dict[str, Any]]
    ) -> Optional[Outcome]:
        if self.cache is None:
            return None
        return self.cache.get(
            key, scale, self._cache_key_params(key, scale, extra_params)
        )

    def _finish(
        self,
        key: str,
        scale: str,
        results: Sequence[TaskResult],
        extra_params: Optional[Dict[str, Any]],
    ) -> Outcome:
        if self.recorder is not None:
            # Fold each task's recorder document in deterministic task
            # order — completion order played no part, so the virtual
            # event track is identical for any --jobs value.
            for r in results:
                self.recorder.merge(r.trace)
        failures = [(r.task.label, r.error) for r in results if r.failed]
        with self._span(
            f"experiment:{key}", category="experiment",
            key=key, scale=scale,
            cache="miss" if self.cache is not None else "off",
        ) as exp_attrs:
            if failures:
                # Failure isolation: a crashed/timed-out sweep point
                # degrades this experiment to a diagnostic outcome; other
                # experiments in the run are untouched, and the bad result
                # never reaches the cache.
                outcome = failed_outcome(key, failures)
            else:
                result = merge_results(key, scale, [r.value for r in results])
                outcome = evaluate_outcome(key, result)
                if self.cache is not None:
                    self.cache.put(
                        key, scale, outcome,
                        self._cache_key_params(key, scale, extra_params),
                    )
            exp_attrs["passed"] = outcome.passed
            exp_attrs["failed_tasks"] = len(failures)
        metrics = [
            TaskMetric(
                experiment=key,
                label=r.task.label,
                seconds=r.seconds,
                worker=r.worker,
                error=r.error,
                attempts=r.attempts,
                guard=r.guard,
            )
            for r in results
        ]
        self.stats.experiments.append(
            ExperimentStats(
                key=key,
                scale=scale,
                cached=False,
                passed=outcome.passed,
                seconds=sum(m.seconds for m in metrics),
                tasks=metrics,
                failed_tasks=len(failures),
            )
        )
        return outcome

