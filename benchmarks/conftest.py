"""Shared configuration for the figure-regeneration benchmarks.

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark regenerates one paper artefact (figure panel or ablation)
and asserts its qualitative claims; the timed quantity is the
regeneration itself, and the interesting numbers are attached to
``benchmark.extra_info`` so they appear in the report.

The event-engine comparison (``test_bench_simcore.py``) additionally
consolidates its measurements into ``BENCH_simcore.json`` in the current
directory — events/sec and wall-clock per figure with the engine's wave
commits on (``batched_*``) vs forced off (``scalar_*``), plus
ShallowWaters steps/sec for the fused vs reference kernels.  CI uploads that file as an artifact and gates on the
recorded speedups.

Each session also snapshots the same measurements into a per-run metric
document in the ``$REPRO_METRICS_DIR`` store (default ``.repro-metrics``;
set it to the empty string to disable), which is what ``repro bench
trend`` and the CI ``bench-trend`` job diff across sessions.  Timings are
recorded as :class:`repro.core.benchmark.Timing` dicts so the measurement
protocol (repeat/warmup/min_time/iters) stays recoverable from the
document; bare-float timings from older ``BENCH_*.json`` files are still
readable via ``Timing.from_value``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

#: measurements accumulated by the simcore benchmarks, keyed by section
#: ("figures" / "points" / "stepping") then entry name.
_SIMCORE_RESULTS: dict = {}

SIMCORE_JSON = Path("BENCH_simcore.json")


def pytest_configure(config):
    config.addinivalue_line("markers", "figure: regenerates a paper figure")


@pytest.fixture(scope="session")
def simcore_record():
    """Recorder for the waves-on vs waves-off measurements.

    Call ``simcore_record(section, name, **fields)``; everything lands
    in ``BENCH_simcore.json`` when the session ends.
    """

    def record(section: str, name: str, **fields):
        _SIMCORE_RESULTS.setdefault(section, {})[name] = fields

    return record


def pytest_sessionfinish(session, exitstatus):
    if not _SIMCORE_RESULTS:
        return
    doc = {"python": sys.version.split()[0]}
    doc.update(_SIMCORE_RESULTS)
    SIMCORE_JSON.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nsimcore benchmark results written to {SIMCORE_JSON}")
    store_dir = os.environ.get("REPRO_METRICS_DIR", ".repro-metrics")
    if not store_dir:
        return
    try:
        from repro.obs.collector import MetricsStore, collect_bench

        path = MetricsStore(store_dir).write(
            collect_bench(_SIMCORE_RESULTS, python=doc["python"])
        )
    except Exception as exc:  # never fail a bench session on bookkeeping
        print(f"metric document not written ({store_dir}): {exc}")
        return
    print(f"metric document written to {path}")
