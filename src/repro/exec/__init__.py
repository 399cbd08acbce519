"""Execution engine: scheduled, cached, observable experiment runs.

The experiment layer's answer to "runs as fast as the hardware allows":

* :mod:`repro.exec.runspec` — :class:`RunSpec`, the one validated
  description of a run that every entry point builds;
* :mod:`repro.exec.tasks` — every registered experiment decomposed into
  independent sweep-point tasks (the task graph);
* :mod:`repro.exec.scheduler` — process-pool fan-out with deterministic
  result ordering and a graceful in-process fallback;
* :mod:`repro.exec.cache` — content-addressed on-disk outcome cache
  keyed by experiment + scale + parameters + a fingerprint of the
  ``repro`` sources;
* :mod:`repro.exec.engine` — ties the three together and records
  per-task timings and cache statistics (:class:`RunStats`);
* :mod:`repro.exec.journal` — crash-safe write-ahead log of every
  dispatch/completion; ``--journal`` records, ``--resume`` restores
  completed sweep points and re-runs only the remainder.

Usage::

    from repro.exec import Engine, ResultCache, RunSpec

    engine = Engine(jobs=4, cache=ResultCache(), spec=RunSpec("fig4"))
    outcomes = engine.run_many()
    print(engine.stats.render())
"""

from .runspec import GUARD_INJECTIONS, RunSpec, RunSpecError
from .tasks import Task, decompose, execute_task, merge_results
from .backoff import backoff_delay, backoff_schedule
from .scheduler import Scheduler, TaskResult, effective_jobs
from .cache import (
    DEFAULT_CACHE_DIR,
    CacheStats,
    ResultCache,
    source_fingerprint,
)
from .journal import (
    RESUMABLE_EXIT_CODE,
    JournalError,
    JournalState,
    JournalWriter,
    guard_summary,
    journal_summary,
    load_journal,
    task_key,
    verify_journal,
)
from .engine import (
    Engine,
    ExperimentStats,
    RunStats,
    TaskMetric,
)

__all__ = [
    "RESUMABLE_EXIT_CODE",
    "JournalError",
    "JournalState",
    "JournalWriter",
    "guard_summary",
    "journal_summary",
    "load_journal",
    "task_key",
    "verify_journal",
    "GUARD_INJECTIONS",
    "RunSpec",
    "RunSpecError",
    "Task",
    "decompose",
    "execute_task",
    "merge_results",
    "Scheduler",
    "TaskResult",
    "backoff_delay",
    "backoff_schedule",
    "effective_jobs",
    "CacheStats",
    "ResultCache",
    "source_fingerprint",
    "DEFAULT_CACHE_DIR",
    "Engine",
    "ExperimentStats",
    "RunStats",
    "TaskMetric",
]
