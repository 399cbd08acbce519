"""Trace determinism: the virtual track is a pure function of config.

The acceptance bar for the observability layer:

* the virtual-clock track is byte-identical between ``--jobs 1`` and
  ``--jobs 4`` and across repeated runs at a fixed seed — completion
  order, pool scheduling and wall-clock jitter must never leak in;
* with tracing disabled, CLI stdout is byte-identical to a run that
  never mentions ``--trace`` (spans/metrics cost nothing when off);
* the exported Chrome trace is valid JSON whose every event carries the
  required ``ph``/``ts``/``pid``/``tid`` keys.
"""

import json

import pytest

from repro.cli import main
from repro.exec import Engine, RunSpec
from repro.obs import TraceRecorder, virtual_track

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _virtual_bytes(jobs, key="fig2", fault_spec=None, seed=0):
    rec = TraceRecorder()
    engine = Engine(
        jobs=jobs, recorder=rec, spec=RunSpec(faults=fault_spec, seed=seed)
    )
    outcomes = engine.run_many([key])
    assert all(o.passed or fault_spec for o in outcomes.values())
    return json.dumps(rec.events, sort_keys=True)


class TestVirtualTrackDeterminism:
    def test_jobs_1_vs_4_byte_identical(self):
        assert _virtual_bytes(jobs=1) == _virtual_bytes(jobs=4)

    def test_repeated_runs_byte_identical(self):
        assert _virtual_bytes(jobs=1) == _virtual_bytes(jobs=1)

    def test_faulted_track_deterministic_across_jobs(self):
        a = _virtual_bytes(jobs=1, fault_spec="lossy", seed=3)
        b = _virtual_bytes(jobs=4, fault_spec="lossy", seed=3)
        assert a == b

    def test_track_nonempty_and_wall_free(self):
        rec = TraceRecorder()
        Engine(jobs=1, recorder=rec).run_many(["fig2"])
        assert rec.events
        for e in rec.events:
            # Virtual events carry only simulation data: any wall-clock
            # or process-local field would break cross-jobs identity.
            assert set(e) == {"name", "rank", "t", "attrs"}

    def test_metrics_deterministic_across_jobs(self):
        def counters(jobs):
            rec = TraceRecorder()
            Engine(jobs=jobs, recorder=rec).run_many(["fig2"])
            return rec.metrics.as_dict()["counters"]

        assert counters(1) == counters(4)


class TestTracingOffIsByteIdentical:
    def test_run_stdout_unchanged_by_trace_flag(self, tmp_path, capsys):
        assert main(["run", "fig5", "--quiet"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "fig5", "--quiet", "--trace",
                     str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out
        assert traced == plain

    def test_run_all_json_deterministic_without_tracing(self, capsys):
        """`repro run all --json` output is stable modulo wall timings —
        the byte-identity gate for the tracing-off path."""
        def normalized():
            assert main(["run", "all", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            doc["total_seconds"] = 0.0
            for e in doc["experiments"]:
                e["seconds"] = 0.0
                for t in e["tasks"]:
                    t["seconds"] = 0.0
            return json.dumps(doc, sort_keys=True)

        assert normalized() == normalized()

    def test_faults_stdout_unchanged_by_trace_flag(self, tmp_path, capsys):
        argv = ["faults", "--nranks", "4", "--repetitions", "1",
                "--severities", "off,straggler"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr().out
        assert traced == plain


class TestChromeExportValidity:
    def test_cli_trace_file_is_valid_chrome_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["run", "fig2", "--quiet", "--trace", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        for e in events:
            for key in ("ph", "ts", "pid", "tid"):
                assert key in e, f"event missing {key}: {e}"
        # Both clocks present: wall spans and the virtual track.
        track = virtual_track(doc)
        assert track
        assert any(e["ph"] == "X" and e["pid"] == 1 for e in events)

    def test_cli_virtual_track_identical_across_jobs(self, tmp_path, capsys):
        tracks = []
        for jobs, name in (("1", "a.json"), ("4", "b.json")):
            path = tmp_path / name
            assert main(["run", "fig2", "--quiet", "--jobs", jobs,
                         "--trace", str(path)]) == 0
            capsys.readouterr()
            track = virtual_track(json.loads(path.read_text()))
            tracks.append(json.dumps(track, sort_keys=True))
        assert tracks[0] == tracks[1]

    def test_traced_outcome_matches_untraced(self, capsys):
        """Tracing observes; it must never change experiment results."""
        assert main(["run", "fig2", "--quiet"]) == 0
        plain = capsys.readouterr().out
        rec = TraceRecorder()
        outcomes = Engine(jobs=1, recorder=rec).run_many(["fig2"])
        assert outcomes["fig2"].passed
        assert "[PASS] fig2" in plain
