"""`repro bench trend` gate tests: the fixture-store proofs.

The acceptance contract for the perf-regression gate, asserted through
the CLI exactly as CI invokes it:

* a seeded fake regression (fig3 events/sec −30%) makes the gate exit
  non-zero **and name the offending metric**;
* a within-tolerance wobble (±5% against the 10% default) passes;
* an improvement passes (and is labelled, not gated);
* the ``--json`` verdict is machine-readable and byte-identical across
  invocations (what the CI ``bench-trend`` job consumes);
* an empty or missing store is a usage error (2), never a silent pass.
"""

import json

import pytest

from repro.cli import main
from repro.obs.collector import SCHEMA_VERSION, MetricsStore, metric


def _run(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _bench_doc(events_per_sec, seconds, speedup, sha="cafe"):
    """A bench document shaped like the simcore suite's fig3 entry."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench",
        "meta": {"git_sha": sha, "suite": "simcore"},
        "metrics": {
            "bench.figures.fig3_collectives.batched_events_per_sec":
                metric(events_per_sec, "higher"),
            "bench.figures.fig3_collectives.batched_seconds":
                metric(seconds, "lower", unit="s",
                       timing={"repeat": 1, "warmup": 0, "min_time": 0.0,
                               "iters": 1}),
            "bench.figures.fig3_collectives.speedup":
                metric(speedup, "higher"),
            "bench.figures.fig3_collectives.identical":
                metric(True, "exact"),
        },
    }


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "metrics")


def _seed_store(store_dir, *docs):
    store = MetricsStore(store_dir)
    for doc in docs:
        store.write(doc)
    return store


class TestGateFires:
    def test_seeded_regression_exits_nonzero_naming_the_metric(
        self, capsys, store_dir,
    ):
        _seed_store(
            store_dir,
            _bench_doc(1_000_000, 4.0, 2.4),
            _bench_doc(1_010_000, 3.9, 2.4),
            _bench_doc(700_000, 4.0, 2.4),  # events/sec −30%
        )
        status, out, _ = _run(capsys, ["bench", "trend", "--store",
                                       store_dir])
        assert status == 1
        assert "REGRESSED" in out
        assert "bench.figures.fig3_collectives.batched_events_per_sec" in out

    def test_within_tolerance_wobble_passes(self, capsys, store_dir):
        _seed_store(
            store_dir,
            _bench_doc(1_000_000, 4.0, 2.4),
            _bench_doc(950_000, 4.15, 2.35),  # −5%: inside the 10% bar
        )
        status, out, _ = _run(capsys, ["bench", "trend", "--store",
                                       store_dir])
        assert status == 0
        assert "OK: no regression beyond tolerance" in out

    def test_improvement_passes_and_is_labelled(self, capsys, store_dir):
        _seed_store(
            store_dir,
            _bench_doc(1_000_000, 4.0, 2.4),
            _bench_doc(1_500_000, 2.6, 3.6),
        )
        status, out, _ = _run(capsys, ["bench", "trend", "--store",
                                       store_dir])
        assert status == 0
        assert "improved" in out

    def test_exact_metric_change_regresses(self, capsys, store_dir):
        broken = _bench_doc(1_000_000, 4.0, 2.4)
        broken["metrics"]["bench.figures.fig3_collectives.identical"] = \
            metric(False, "exact")
        _seed_store(store_dir, _bench_doc(1_000_000, 4.0, 2.4), broken)
        status, out, _ = _run(capsys, ["bench", "trend", "--store",
                                       store_dir])
        assert status == 1
        assert "bench.figures.fig3_collectives.identical" in out

    def test_tighter_tolerance_catches_the_wobble(self, capsys, store_dir):
        _seed_store(
            store_dir,
            _bench_doc(1_000_000, 4.0, 2.4),
            _bench_doc(950_000, 4.0, 2.4),
        )
        status, _, _ = _run(capsys, ["bench", "trend", "--store", store_dir,
                                     "--tolerance", "0.02"])
        assert status == 1


class TestJsonVerdict:
    def test_json_verdict_is_machine_readable(self, capsys, store_dir):
        _seed_store(
            store_dir,
            _bench_doc(1_000_000, 4.0, 2.4),
            _bench_doc(700_000, 4.0, 2.4),
        )
        status, out, _ = _run(capsys, ["bench", "trend", "--store",
                                       store_dir, "--json"])
        assert status == 1
        verdict = json.loads(out)
        assert verdict["ok"] is False
        assert verdict["regressions"] == [
            "bench.figures.fig3_collectives.batched_events_per_sec"
        ]
        entry = verdict["metrics"][
            "bench.figures.fig3_collectives.batched_events_per_sec"
        ]
        assert entry["status"] == "regression"
        assert entry["delta"] == pytest.approx(-0.3)
        assert entry["tolerance"] == 0.10
        # Document references are basenames, never absolute paths, so
        # the verdict is portable across checkouts.
        assert all("/" not in d["file"] for d in verdict["documents"])

    def test_verdict_is_byte_identical_across_invocations(
        self, capsys, store_dir,
    ):
        _seed_store(
            store_dir,
            _bench_doc(1_000_000, 4.0, 2.4),
            _bench_doc(990_000, 4.01, 2.39),
        )
        argv = ["bench", "trend", "--store", store_dir, "--json"]
        s1, out1, _ = _run(capsys, argv)
        s2, out2, _ = _run(capsys, argv)
        assert s1 == s2 == 0
        assert out1 == out2

    def test_stdout_stays_pure_json(self, capsys, store_dir):
        _seed_store(store_dir, _bench_doc(1_000_000, 4.0, 2.4))
        _, out, _ = _run(capsys, ["bench", "trend", "--store", store_dir,
                                  "--json"])
        json.loads(out)  # nothing but the verdict on stdout


class TestUsageErrors:
    def test_missing_store_is_usage_error(self, capsys, tmp_path):
        status, out, err = _run(capsys, ["bench", "trend", "--store",
                                         str(tmp_path / "nope")])
        assert status == 2
        assert out == ""
        assert "no metric store" in err

    def test_empty_store_is_usage_error(self, capsys, store_dir):
        MetricsStore(store_dir)  # exists, holds nothing
        status, _, err = _run(capsys, ["bench", "trend", "--store",
                                       store_dir])
        assert status == 2
        assert "no documents" in err

    def test_bad_last_and_tolerance(self, capsys, store_dir):
        _seed_store(store_dir, _bench_doc(1.0, 1.0, 1.0))
        s1, _, err1 = _run(capsys, ["bench", "trend", "--store", store_dir,
                                    "--last", "0"])
        s2, _, err2 = _run(capsys, ["bench", "trend", "--store", store_dir,
                                    "--tolerance", "-1"])
        assert (s1, s2) == (2, 2)
        assert "--last" in err1 and "--tolerance" in err2

    def test_env_var_names_the_store(self, capsys, store_dir, monkeypatch):
        _seed_store(store_dir, _bench_doc(1_000_000, 4.0, 2.4))
        monkeypatch.setenv("REPRO_METRICS_DIR", store_dir)
        status, out, _ = _run(capsys, ["bench", "trend"])
        assert status == 0
        assert "bench trend:" in out


class TestSinceWindow:
    """``--since SHA`` re-baselines the gate at a recorded commit, so
    an old (already-acknowledged) regression stops tripping it."""

    def _seed_rebaselined_history(self, store_dir):
        # Two fast runs at the old commit, then an intentional slowdown
        # shipped at commit bbbb2222 — the new, accepted baseline.
        _seed_store(
            store_dir,
            _bench_doc(1_000_000, 4.0, 2.4, sha="aaaa1111"),
            _bench_doc(1_010_000, 4.0, 2.4, sha="aaaa1111"),
            _bench_doc(700_000, 4.0, 2.4, sha="bbbb2222"),
            _bench_doc(705_000, 4.0, 2.4, sha="bbbb2222"),
        )

    def test_old_regression_trips_the_unwindowed_gate(
        self, capsys, store_dir,
    ):
        self._seed_rebaselined_history(store_dir)
        status, out, _ = _run(capsys, ["bench", "trend", "--store",
                                       store_dir])
        assert status == 1
        assert "REGRESSED" in out

    def test_since_rebaseline_stops_the_gate_tripping(
        self, capsys, store_dir,
    ):
        self._seed_rebaselined_history(store_dir)
        status, out, _ = _run(capsys, ["bench", "trend", "--store",
                                       store_dir, "--since", "bbbb2222"])
        assert status == 0
        assert "OK: no regression beyond tolerance" in out
        assert "since bbbb2222" in out

    def test_since_accepts_a_sha_prefix(self, capsys, store_dir):
        self._seed_rebaselined_history(store_dir)
        status, _, _ = _run(capsys, ["bench", "trend", "--store",
                                     store_dir, "--since", "bbbb"])
        assert status == 0

    def test_since_window_composes_with_last(self, capsys, store_dir):
        self._seed_rebaselined_history(store_dir)
        # --last 1 inside the since-window: a single document, trivially
        # no regression.
        status, out, _ = _run(capsys, ["bench", "trend", "--store",
                                       store_dir, "--since", "aaaa1111",
                                       "--last", "1"])
        assert status == 0

    def test_since_verdict_is_recorded_in_json(self, capsys, store_dir):
        self._seed_rebaselined_history(store_dir)
        status, out, _ = _run(capsys, ["bench", "trend", "--store",
                                       store_dir, "--since", "bbbb2222",
                                       "--json"])
        assert status == 0
        verdict = json.loads(out)
        assert verdict["ok"] is True
        assert verdict["since"] == "bbbb2222"
        assert len(verdict["documents"]) == 2

    def test_unknown_sha_is_a_usage_error(self, capsys, store_dir):
        self._seed_rebaselined_history(store_dir)
        status, out, err = _run(capsys, ["bench", "trend", "--store",
                                         store_dir, "--since", "deadbeef"])
        assert status == 2
        assert out == ""
        assert "deadbeef" in err
        assert "no document" in err


class TestBenchList:
    def test_lists_documents_in_sequence_order(self, capsys, store_dir):
        _seed_store(
            store_dir,
            _bench_doc(1_000_000, 4.0, 2.4),
            _bench_doc(990_000, 4.0, 2.4),
        )
        status, out, _ = _run(capsys, ["bench", "list", "--store",
                                       store_dir])
        assert status == 0
        assert out.index("metrics-000001-bench.json") < out.index(
            "metrics-000002-bench.json"
        )

    def test_json_listing(self, capsys, store_dir):
        _seed_store(store_dir, _bench_doc(1.0, 1.0, 1.0))
        status, out, _ = _run(capsys, ["bench", "list", "--store",
                                       store_dir, "--json"])
        assert status == 0
        listing = json.loads(out)
        assert [d["kind"] for d in listing["documents"]] == ["bench"]
