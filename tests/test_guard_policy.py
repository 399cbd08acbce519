"""Tests for the remediation policy engine and its exec-layer wiring:
the escalate ladder, degraded annotations, strict-vs-repair semantics,
journal/resume round-trips, and the guard CLI surface."""

import json

import pytest

from repro.exec import Engine, RunSpec, decompose, task_key
from repro.exec.tasks import GUARD_INJECTIONS
from repro.guard import (
    GuardConfig,
    GuardMonitor,
    GuardViolation,
    RESCUE_SCALING,
    REMEDIATION_ORDER,
    escalate,
    remediate_params,
)

BASE16 = {"dtype": "float16", "scaling": 16384.0, "integration": "standard"}


def _monitor(mode="repair") -> GuardMonitor:
    return GuardMonitor(GuardConfig(mode=mode))


class TestRemediateParams:
    def test_scale_resets_to_rescue_scaling(self):
        out = remediate_params("scale", dict(BASE16))
        assert out["scaling"] == RESCUE_SCALING
        # No-op when already at the rescue scaling.
        assert remediate_params("scale", out) is None

    def test_compensated(self):
        out = remediate_params("compensated", dict(BASE16))
        assert out["integration"] == "compensated"
        assert remediate_params("compensated", out) is None

    def test_promote(self):
        out = remediate_params("promote", dict(BASE16))
        assert out["dtype"] == "float32"
        assert out["scaling"] == 1.0
        assert remediate_params("promote", out) is None

    def test_unknown_step(self):
        with pytest.raises(ValueError):
            remediate_params("pray", dict(BASE16))


class TestEscalate:
    def test_success_needs_no_remediation(self):
        m = _monitor()
        value = escalate("t", dict(BASE16), lambda p: "ok", m)
        assert value == "ok"
        assert m.remediation is None

    def test_rescue_records_chain(self):
        m = _monitor()

        def call(params):
            if params["scaling"] != RESCUE_SCALING:
                raise FloatingPointError("overflow")
            return "rescued"

        value = escalate("t", dict(BASE16), call, m)
        assert value == "rescued"
        r = m.remediation
        assert r["degraded"] is True
        assert r["error"] == "FloatingPointError: overflow"
        applied = [e["step"] for e in r["chain"] if e["applied"]]
        assert applied == ["scale"]
        assert r["final_overrides"] == {"scaling": RESCUE_SCALING}

    def test_full_ladder_then_promote(self):
        m = _monitor()

        def call(params):
            if params["dtype"] == "float16":
                raise FloatingPointError("still dying")
            return "promoted"

        value = escalate("t", dict(BASE16), call, m)
        assert value == "promoted"
        applied = [
            e["step"] for e in m.remediation["chain"] if e["applied"]
        ]
        assert applied == list(REMEDIATION_ORDER)
        # Failed rungs carry their own error strings.
        errors = [e.get("error") for e in m.remediation["chain"]]
        assert errors[:2] == [
            "FloatingPointError: still dying",
            "FloatingPointError: still dying",
        ]

    def test_exhaustion_raises_guard_violation(self):
        m = _monitor()

        def call(params):
            raise FloatingPointError("hopeless")

        with pytest.raises(GuardViolation) as err:
            escalate("t", dict(BASE16), call, m)
        assert "remediation exhausted" in str(err.value)
        assert m.remediation["exhausted"] is True

    def test_non_numerical_errors_pass_through(self):
        m = _monitor()

        def call(params):
            raise RuntimeError("a crash, not a numerical failure")

        with pytest.raises(RuntimeError):
            escalate("t", dict(BASE16), call, m)
        assert m.remediation is None


class TestTaskIdentity:
    def test_observe_strict_match_unguarded(self):
        base = [task_key(t) for t in decompose("fig4")]
        for mode in ("observe", "strict"):
            assert [
                task_key(t)
                for t in decompose("fig4", spec=RunSpec(guard=mode))
            ] == base

    def test_repair_and_injection_differ(self):
        base = [task_key(t) for t in decompose("fig4")]
        repair = [
            task_key(t)
            for t in decompose("fig4", spec=RunSpec(guard="repair"))
        ]
        injected = [
            task_key(t)
            for t in decompose("fig4", spec=RunSpec(guard_inject="overflow16"))
        ]
        assert repair != base
        assert injected != base

    def test_unknown_injection_rejected(self):
        with pytest.raises(ValueError):
            decompose("fig4", spec=RunSpec(guard_inject="meteor_strike"))
        assert "overflow16" in GUARD_INJECTIONS


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEngineRepair:
    def test_injected_overflow_is_rescued(self):
        engine = Engine(
            jobs=1, spec=RunSpec(guard="repair", guard_inject="overflow16")
        )
        outcome = engine.run("fig4")
        assert outcome.passed  # the rescued Float16 still tracks Float64
        stats = engine.stats
        assert stats.degraded_tasks == 1
        assert stats.guard_violations >= 1
        (degraded,) = [
            t for e in stats.experiments for t in e.tasks if t.degraded
        ]
        chain = degraded.guard["remediation"]["chain"]
        assert [e["step"] for e in chain if e["applied"]] == ["scale"]

    def test_strict_fails_with_structured_error(self):
        engine = Engine(
            jobs=1, spec=RunSpec(guard="strict", guard_inject="overflow16")
        )
        outcome = engine.run("fig4")
        assert not outcome.passed
        errors = [
            t.error
            for e in engine.stats.experiments
            for t in e.tasks
            if t.error
        ]
        assert len(errors) == 1
        # A guard failure is distinguishable from a crash: typed, and
        # naming the site that tripped.
        assert errors[0].startswith("GuardViolation:")
        assert "shallowwaters.step" in errors[0]

    def test_remediation_deterministic_across_jobs(self):
        docs = []
        for jobs in (1, 2):
            engine = Engine(
                jobs=jobs,
                spec=RunSpec(guard="repair", guard_inject="overflow16"),
            )
            engine.run("fig4")
            docs.append(
                json.dumps(engine.stats.guard_report(), sort_keys=True)
            )
        assert docs[0] == docs[1]

    def test_guard_report_shape(self):
        engine = Engine(
            jobs=1, spec=RunSpec(guard="repair", guard_inject="overflow16")
        )
        engine.run("fig4")
        doc = engine.stats.guard_report()
        assert doc["mode"] == "repair"
        assert doc["inject"] == "overflow16"
        assert doc["degraded_tasks"] == 1
        assert any(t["degraded"] for t in doc["tasks"])
        # Guard-off stats carry no guard block at all.
        plain = Engine(jobs=1)
        plain.run("lst1")
        assert plain.stats.guard_report() is None
        assert "guard" not in plain.stats.as_dict()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestJournalRoundTrip:
    def test_journal_preserves_remediation(self, tmp_path):
        from repro.exec import JournalWriter, guard_summary, load_journal

        path = tmp_path / "run.jnl"
        engine = Engine(
            jobs=1, spec=RunSpec(guard="repair", guard_inject="overflow16")
        )
        engine.journal = JournalWriter(path)
        engine.run("fig4")
        engine.journal.close()

        state = load_journal(path)
        assert state.meta["guard"] == {
            "mode": "repair", "cadence": 16, "inject": "overflow16",
        }
        guarded = [
            r for r in state.completed.values() if r.get("guard")
        ]
        assert len(guarded) == 1
        chain = guarded[0]["guard"]["remediation"]["chain"]
        assert [e["step"] for e in chain if e["applied"]] == ["scale"]

        doc = guard_summary(path)
        assert doc["mode"] == "repair"
        assert doc["degraded_tasks"] == 1

    def test_resume_restores_guard_annotations(self, tmp_path):
        from repro.exec import JournalWriter, load_journal

        path = tmp_path / "run.jnl"
        first = Engine(
            jobs=1, spec=RunSpec(guard="repair", guard_inject="overflow16")
        )
        first.journal = JournalWriter(path)
        first.run("fig4")
        first.journal.close()
        first_doc = json.dumps(
            first.stats.guard_report(), sort_keys=True
        )

        second = Engine(
            jobs=1, spec=RunSpec(guard="repair", guard_inject="overflow16"),
            resume_state=load_journal(path),
        )
        second.run("fig4")
        assert second.stats.resume["restored"] == 3
        assert second.stats.resume["executed"] == 0
        # The remediation chain is replayed from the journal, not
        # re-derived: byte-identical guard report.
        assert json.dumps(
            second.stats.guard_report(), sort_keys=True
        ) == first_doc

    def test_guardfree_journal_has_no_guard_keys(self, tmp_path):
        from repro.exec import JournalWriter, guard_summary, load_journal

        path = tmp_path / "plain.jnl"
        engine = Engine(jobs=1)
        engine.journal = JournalWriter(path)
        engine.run("lst1")
        engine.journal.close()
        state = load_journal(path)
        assert "guard" not in state.meta
        assert all(
            "guard" not in r for r in state.completed.values()
        )
        assert guard_summary(path)["mode"] == "off"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestGuardCLI:
    def test_run_guard_out_and_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "guard.json"
        status = main([
            "run", "fig4", "--quiet", "--guard", "repair",
            "--guard-inject", "overflow16", "--guard-out", str(out),
        ])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "repair"
        assert doc["degraded_tasks"] == 1
        capsys.readouterr()

        assert main(["guard", "report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "degraded via scale" in text
        assert "mode=repair" in text

    def test_guard_out_requires_guard(self, tmp_path, capsys):
        from repro.cli import main

        status = main([
            "run", "lst1", "--guard-out", str(tmp_path / "g.json"),
        ])
        assert status == 2
        assert "--guard-out needs" in capsys.readouterr().err

    def test_resume_guard_mismatch_rejected(self, tmp_path, capsys):
        from repro.cli import main

        jnl = tmp_path / "run.jnl"
        assert main([
            "run", "lst1", "--quiet", "--journal", str(jnl),
        ]) == 0
        capsys.readouterr()
        status = main([
            "run", "lst1", "--quiet", "--guard", "observe",
            "--resume", str(jnl),
        ])
        assert status == 2
        assert "guard settings" in capsys.readouterr().err

    def test_guard_report_on_journal(self, tmp_path, capsys):
        from repro.cli import main

        jnl = tmp_path / "run.jnl"
        assert main([
            "run", "fig4", "--quiet", "--guard", "repair",
            "--guard-inject", "overflow16", "--journal", str(jnl),
        ]) == 0
        capsys.readouterr()
        assert main(["guard", "report", str(jnl), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "repair"
        assert doc["degraded_tasks"] == 1

    def test_guard_report_rejects_noise(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "noise.txt"
        bad.write_text("not json, not a journal\n")
        assert main(["guard", "report", str(bad)]) == 2
        assert "not a guard report" in capsys.readouterr().err
