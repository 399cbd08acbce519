"""Tests for RunSpec: the one validated description of a ``repro run``.

The contract under test: a request maps to the same RunSpec whether it
arrives as argv or as JSON; every malformed field is refused with a
typed error naming it; the journal header written from a spec is the
record earlier versions wrote, and reads back as the same spec; and a
``--resume`` under any other identity field exits 2 naming that field.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.experiments import REGISTRY
from repro.exec import JournalWriter, RunSpec, RunSpecError, load_journal
from repro.exec.journal import encode_record
from repro.exec.runspec import RUN_SPEC_FIELDS


def _from_argv(*argv):
    return RunSpec.from_args(build_parser().parse_args(["run", *argv]))


class TestValidation:
    def test_defaults(self):
        spec = RunSpec()
        assert spec.key == "all" and spec.keys == list(REGISTRY)
        assert spec.scale == "ci" and spec.faults is None
        assert spec.guard is None and spec.guard_meta() is None

    def test_off_normalises_to_none(self):
        assert RunSpec(faults="off", guard="off") == RunSpec()

    def test_cadence_without_a_guard_is_not_identity(self):
        # Never consulted and never journalled without a guard or an
        # injection, so it cannot tell two runs apart.
        assert RunSpec(guard_cadence=4) == RunSpec()
        assert RunSpec(guard="observe", guard_cadence=4) != RunSpec(
            guard="observe"
        )

    @pytest.mark.parametrize("field, value, words", [
        ("key", "fig42", "unknown experiment"),
        ("scale", "huge", "unknown scale"),
        ("faults", "bogus", "bad fault spec"),
        ("seed", "3", "seed must be an int"),
        ("guard", "paranoid", "unknown guard mode"),
        ("guard_cadence", 0, "guard_cadence must be an int >= 1"),
        ("guard_inject", "meteor", "unknown guard injection"),
    ])
    def test_bad_value_is_refused_by_name(self, field, value, words):
        with pytest.raises(RunSpecError, match=words):
            RunSpec(**{field: value})

    def test_from_dict_refuses_unknown_keys_by_name(self):
        with pytest.raises(RunSpecError, match="'kye'"):
            RunSpec.from_dict({"kye": "fig3"})
        with pytest.raises(RunSpecError, match="'sim_core'"):
            RunSpec.from_dict({"key": "fig3", "sim_core": "object"})

    def test_hashable(self):
        assert len({RunSpec("fig3"), RunSpec("fig3"), RunSpec("fig4")}) == 2


class TestArgvEqualsJson:
    @pytest.mark.parametrize("argv, doc", [
        (["all"], {}),
        (["fig4", "--guard", "repair", "--guard-inject", "overflow16"],
         {"key": "fig4", "guard": "repair", "guard_inject": "overflow16"}),
        (["fig3", "--guard", "observe", "--guard-cadence", "8"],
         {"key": "fig3", "guard": "observe", "guard_cadence": 8}),
        (["fig2", "--scale", "paper", "--faults", "lossy:0.1",
          "--seed", "7"],
         {"key": "fig2", "scale": "paper", "faults": "lossy:0.1",
          "seed": 7}),
        (["fig5", "--faults", "off", "--guard", "off"], {"key": "fig5"}),
    ])
    def test_same_mapping_same_spec(self, argv, doc):
        assert _from_argv(*argv) == RunSpec.from_dict(json.loads(
            json.dumps(doc)
        ))

    def test_run_refuses_bad_cadence_with_exit_2(self, capsys):
        assert main(["run", "lst1", "--guard", "observe",
                     "--guard-cadence", "0"]) == 2
        assert "guard_cadence" in capsys.readouterr().err

    def test_run_refuses_unknown_key_with_exit_2(self, capsys):
        assert main(["run", "fig42"]) == 2
        assert "unknown experiment 'fig42'" in capsys.readouterr().err


class TestJournalHeader:
    def test_run_start_bytes_unchanged(self, tmp_path):
        # The header exactly as earlier versions wrote it field by field.
        legacy = {
            "type": "run_start", "version": 1, "keys": ["fig4"],
            "scale": "ci", "jobs": 2, "fingerprint": "fp",
            "fault_spec": "lossy", "fault_seed": 3, "resumed": False,
            "guard": {"mode": "repair", "cadence": 16,
                      "inject": "overflow16"},
        }
        spec = RunSpec("fig4", faults="lossy", seed=3, guard="repair",
                       guard_inject="overflow16")
        path = tmp_path / "run.jnl"
        with JournalWriter(path) as w:
            w.run_start(spec.keys, spec.scale, 2, "fp", spec=spec)
        assert path.read_text() == encode_record(legacy)
        assert RunSpec.from_journal(load_journal(path).meta) == spec

    def test_guard_free_header_has_no_guard_block(self, tmp_path):
        path = tmp_path / "run.jnl"
        with JournalWriter(path) as w:
            w.run_start(["lst1"], "ci", 1, "fp", spec=RunSpec("lst1"))
        meta = load_journal(path).meta
        assert "guard" not in meta
        assert RunSpec.from_journal(meta) == RunSpec("lst1")

    def test_all_reads_back_as_all(self, tmp_path):
        path = tmp_path / "run.jnl"
        with JournalWriter(path) as w:
            w.run_start(list(REGISTRY), "ci", 1, "fp")
        assert RunSpec.from_journal(load_journal(path).meta) == RunSpec()


class TestResumeMismatch:
    """``--resume`` under any other identity field exits 2 and names
    the field; the journalled run never starts."""

    BASE = ["lst1", "--guard", "observe", "--guard-cadence", "4"]

    @pytest.mark.parametrize("field, resume_argv", [
        ("key", ["fig5", "--guard", "observe", "--guard-cadence", "4"]),
        ("scale", BASE + ["--scale", "paper"]),
        ("faults", BASE + ["--faults", "lossy"]),
        ("seed", BASE + ["--seed", "3"]),
        ("guard", ["lst1", "--guard", "strict", "--guard-cadence", "4"]),
        ("guard_cadence", ["lst1", "--guard", "observe"]),
        ("guard_inject", BASE + ["--guard-inject", "overflow16"]),
    ])
    def test_each_field_is_named(self, tmp_path, capsys, field,
                                 resume_argv):
        jnl = tmp_path / "run.jnl"
        assert main(["run", *self.BASE, "--quiet",
                     "--journal", str(jnl)]) == 0
        capsys.readouterr()
        before = jnl.read_bytes()
        assert main(["run", *resume_argv, "--quiet",
                     "--resume", str(jnl)]) == 2
        err = capsys.readouterr().err
        assert "does not match this run" in err
        assert f"journal {field}=" in err
        assert jnl.read_bytes() == before  # nothing appended

    def test_fields_cover_the_spec(self):
        assert set(RUN_SPEC_FIELDS) == {
            "key", "scale", "faults", "seed", "guard", "guard_cadence",
            "guard_inject",
        }

    def test_matching_resume_still_restores(self, tmp_path, capsys):
        jnl = tmp_path / "run.jnl"
        assert main(["run", *self.BASE, "--quiet",
                     "--journal", str(jnl)]) == 0
        capsys.readouterr()
        assert main(["run", *self.BASE, "--quiet",
                     "--resume", str(jnl)]) == 0
        assert "restored" in capsys.readouterr().err
