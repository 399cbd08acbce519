"""Differential equivalence for the event engine: waves on, waves off,
and the frozen answers of the retired object core.

The engine's wave commits reorder *execution* — drained deliveries,
vectorised lockstep rounds — but must never reorder *observable
behaviour*: every rank's virtual times, returned values and the run's
traffic statistics have to match the plain scalar path bit for bit.
These tests pin that contract:

* ``tests/golden/simcore/`` holds the answers (per-rank values, final
  clocks as ``float.hex``, the :class:`EngineStats` document) that the
  closure-per-event object core gave for the pinned ordering
  regressions and a seeded corpus of composed programs; the default
  engine and the waves-off engine must both reproduce them exactly;
* figure-level equality on the real Fig. 2/3 workloads (reduced size),
  waves on vs off, and guarded (scalar path) vs unguarded;
* CLI-level equality across ``--jobs``, ``--faults`` and ``--guard
  observe``;
* a hypothesis property test over randomly composed rank programs —
  mixed SendRecv rings, collectives, compute, odd topologies and
  per-rank bindings — which is the backstop for event-order tie
  handling at the vector/scalar boundary;
* the dense hop matrix against the scalar dimension-ordered router.

Waves are forced off on the test side only (:func:`waves_off`), so the
engine carries no switch for it.  Regenerating the goldens after an
*intentional* timing-model change::

    PYTHONPATH=src python -m pytest tests/test_sim_core_equivalence.py \\
        --update-golden
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import operator
import random
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import figures
from repro.core.atomicio import atomic_write_text
from repro.guard.monitor import GuardConfig, GuardMonitor, guarding
from repro.mpi import Comm, MPIWorld
from repro.mpi.bindings import IMB_C, MPI_JL
from repro.mpi.faults import parse_fault_spec
from repro.mpi.simulator import Engine
from repro.mpi.topology import TofuDTopology

GOLDEN_DIR = Path(__file__).parent / "golden" / "simcore"
PINNED_PATH = GOLDEN_DIR / "pinned.json"
CORPUS_PATH = GOLDEN_DIR / "corpus.json"

#: seeds of the frozen random-program corpus (see :func:`draw_case`).
CORPUS_SEEDS = range(200)


def _no_wave(self: Engine) -> bool:
    # Park wave attempts for the rest of the run: the event loop then
    # never calls back here and every event takes the scalar path.
    self._wave_cooldown = sys.maxsize
    return False


@contextlib.contextmanager
def waves_off():
    """Run every engine built in the block on the scalar path only."""
    with mock.patch.object(Engine, "_wave", _no_wave):
        yield


def _canon(result: Any) -> str:
    return json.dumps(result, sort_keys=True, default=repr)


# ---------------------------------------------------------------------------
# Composed rank programs
# ---------------------------------------------------------------------------
PHASE = st.one_of(
    st.tuples(st.just("barrier")),
    st.tuples(st.just("allreduce"),
              st.sampled_from([8, 256, 4096, 70000])),
    st.tuples(st.just("gatherv"),
              st.sampled_from([16, 2048, 70000]),
              st.integers(0, 3)),
    st.tuples(st.just("bcast"), st.sampled_from([64, 70000])),
    st.tuples(st.just("ring"), st.sampled_from([32, 70000]),
              st.integers(1, 3)),
    st.tuples(st.just("compute"), st.integers(0, 5)),
)


def _composed(phases):
    def program(comm: Comm):
        acc = comm.rank
        for phase in phases:
            kind = phase[0]
            if kind == "barrier":
                yield from comm.barrier()
            elif kind == "allreduce":
                acc = yield from comm.allreduce(
                    acc, op=operator.add, nbytes=phase[1]
                )
            elif kind == "gatherv":
                root = phase[2] % comm.size
                got = yield from comm.gatherv(acc, root=root,
                                              nbytes=phase[1])
                if got is not None:
                    acc = sum(got) % 100003
            elif kind == "bcast":
                acc = yield from comm.bcast(acc, root=0, nbytes=phase[1])
            elif kind == "ring":
                shift = phase[2] % comm.size or 1
                dest = (comm.rank + shift) % comm.size
                src = (comm.rank - shift) % comm.size
                acc = yield comm.sendrecv(
                    dest, phase[1], src, send_payload=acc
                )
            elif kind == "compute":
                yield comm.compute(phase[1] * (comm.rank % 3 + 1) * 1e-7)
        t = yield comm.now()
        return (acc, t)

    return program


def _draw_phase(rng: random.Random) -> list:
    """One phase from the same grammar as :data:`PHASE`."""
    kind = rng.choice(
        ["barrier", "allreduce", "gatherv", "bcast", "ring", "compute"]
    )
    if kind == "barrier":
        return [kind]
    if kind == "allreduce":
        return [kind, rng.choice([8, 256, 4096, 70000])]
    if kind == "gatherv":
        return [kind, rng.choice([16, 2048, 70000]), rng.randint(0, 3)]
    if kind == "bcast":
        return [kind, rng.choice([64, 70000])]
    if kind == "ring":
        return [kind, rng.choice([32, 70000]), rng.randint(1, 3)]
    return [kind, rng.randint(0, 5)]


def draw_case(seed: int) -> Dict[str, Any]:
    """A seeded random program, drawn in the property test's order
    (nranks, rpn, phases, binding mix)."""
    rng = random.Random(seed)
    nranks = rng.randint(2, 16)
    rpn = rng.choice([1, 2, 4])
    phases = [_draw_phase(rng) for _ in range(rng.randint(1, 6))]
    binding = rng.choice(["imb", "jl", "mixed"])
    return {"nranks": nranks, "rpn": rpn, "binding": binding,
            "phases": phases}


def _world(case: Dict[str, Any]) -> MPIWorld:
    nranks = case["nranks"]
    kwargs: Dict[str, Any] = {"binding": IMB_C}
    if case["binding"] == "jl":
        kwargs["binding"] = MPI_JL
    elif case["binding"] == "mixed":
        kwargs["bindings_by_rank"] = {
            r: MPI_JL for r in range(0, nranks, 2)
        }
    faults = case.get("faults")
    if faults is not None:
        kwargs["faults"] = parse_fault_spec(faults["spec"],
                                            seed=faults["seed"])
    return MPIWorld(nranks=nranks, ranks_per_node=case["rpn"], **kwargs)


def _answer(case: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``case`` and return its golden-shaped answer: per-rank
    values, bit-exact final clocks and the traffic statistics."""
    world = _world(case)
    out = world.run(_composed([tuple(p) for p in case["phases"]]))
    values: List[Any] = []
    clocks: List[Optional[str]] = []
    for r in out:
        values.append(None if r is None else r[0])
        clocks.append(None if r is None else r[1].hex())
    doc = {
        "case": case,
        "values": values,
        "clocks": clocks,
        "stats": dataclasses.asdict(world.last_stats),
    }
    return json.loads(json.dumps(doc))  # int dict keys -> str, as stored


#: ordering regressions the differential tests have found, plus the
#: faulted world that pins the fault layer's scalar path.
PINNED: Dict[str, Dict[str, Any]] = {
    # the second (small) gatherv message overtakes the first (large)
    # one on the shm wire; the earlier arrival must win the match.
    "same-tag-overtaking": {
        "nranks": 2, "rpn": 2, "binding": "imb",
        "phases": [["gatherv", 2048, 0], ["gatherv", 16, 0]],
    },
    # message loss and retransmits charged to the clock.
    "lossy-seed3": {
        "nranks": 12, "rpn": 2, "binding": "imb",
        "phases": [["barrier"], ["allreduce", 256], ["ring", 32, 1]],
        "faults": {"spec": "lossy", "seed": 3},
    },
    # a drained delivery's resume tied in time with a resume scheduled
    # by an earlier wave member; ranks 4 and 6 used to swap clocks.
    "drain-tie-9ranks": {
        "nranks": 9, "rpn": 1, "binding": "imb",
        "phases": [["allreduce", 70000], ["gatherv", 70000, 0]],
    },
    # the same drain tie, found by the seeded corpus generator.
    "seed-86": draw_case(86),
    "seed-291": draw_case(291),
}


def _write_lines(path: Path, entries: Dict[str, Any]) -> None:
    """One compact JSON entry per line, so a drift diffs per case."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    body = ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in entries.items()
    )
    atomic_write_text(path, "{\n" + body + "\n}\n")


def _load(path: Path) -> Dict[str, Any]:
    assert path.exists(), (
        f"missing golden {path}; generate it with `pytest {__file__} "
        f"--update-golden` and commit the result"
    )
    return json.loads(path.read_text())


def _mismatches(golden: Dict[str, Any],
                cases: Dict[str, Dict[str, Any]]) -> List[str]:
    bad = []
    for name, case in cases.items():
        got = _answer(case)
        if got != golden.get(name):
            bad.append(name)
    return bad


# ---------------------------------------------------------------------------
# Frozen object-core answers
# ---------------------------------------------------------------------------
def _corpus_cases() -> Dict[str, Dict[str, Any]]:
    return {str(seed): draw_case(seed) for seed in CORPUS_SEEDS}


@pytest.mark.parametrize("cases_of,path", [
    (lambda: PINNED, PINNED_PATH),
    (_corpus_cases, CORPUS_PATH),
], ids=["pinned", "corpus"])
def test_golden_answers(cases_of, path, request):
    cases = cases_of()
    if request.config.getoption("--update-golden"):
        _write_lines(path, {n: _answer(c) for n, c in cases.items()})
        pytest.skip(f"regenerated {path}")
    golden = _load(path)
    assert sorted(golden) == sorted(cases)
    bad = _mismatches(golden, cases)
    assert not bad, f"engine drifted from {path.name} on: {bad}"


@pytest.mark.parametrize("path", [PINNED_PATH, CORPUS_PATH],
                         ids=["pinned", "corpus"])
def test_golden_answers_waves_off(path):
    golden = _load(path)
    cases = {name: entry["case"] for name, entry in golden.items()}
    with waves_off():
        bad = _mismatches(golden, cases)
    assert not bad, f"scalar path drifted from {path.name} on: {bad}"


def _assert_pinned(name: str) -> None:
    want = _load(PINNED_PATH)[name]
    assert _answer(PINNED[name]) == want
    with waves_off():
        assert _answer(PINNED[name]) == want


def test_same_tag_overtaking_matches_object_core():
    """Regression: two back-to-back gathervs where the second (small)
    message physically overtakes the first (large) one on the shm wire.
    The earlier-arriving message must match first; the deliver-drain
    must not commit the pending large delivery while the source still
    has an earlier scheduled event (found by the property test below:
    nranks=2, phases gatherv 2048 then 16)."""
    _assert_pinned("same-tag-overtaking")


def test_faulted_world_equivalent():
    """With a fault plan the engine runs its scalar path only — the
    answers (including lost-message effects) are the object core's."""
    _assert_pinned("lossy-seed3")


def test_drain_tie_matches_object_core():
    """Regression: a delivery drained ahead of a wave must hand its
    rank's resume a seq where the delivery would have popped, so a
    time tie with a resume scheduled by an earlier wave member breaks
    the same way as on the scalar path (ranks 4 and 6 used to end with
    their clocks swapped)."""
    _assert_pinned("drain-tie-9ranks")


def test_pinned_cases_are_the_stored_ones():
    """The golden records the program it answers: editing a pinned
    case (or the corpus generator) without regenerating is caught."""
    golden = _load(PINNED_PATH)
    assert {n: e["case"] for n, e in golden.items()} == json.loads(
        json.dumps(PINNED)
    )


# ---------------------------------------------------------------------------
# Figure-level equality
# ---------------------------------------------------------------------------
def _fig3_reduced():
    return figures.fig3_collectives(
        sizes=[4, 1024, 262144], nranks=96, repetitions=2
    )


class TestFigureEquality:
    def test_fig2_identical(self):
        with waves_off():
            ref = figures.fig2_pingpong()
        assert _canon(figures.fig2_pingpong()) == _canon(ref)

    def test_fig3_reduced_identical(self):
        with waves_off():
            ref = _fig3_reduced()
        assert _canon(_fig3_reduced()) == _canon(ref)

    def test_fig3_guarded_matches_unguarded(self):
        """A guard turns wave commits off; observing the run must not
        change what it computes."""
        with guarding(GuardMonitor(GuardConfig(mode="observe"))) as mon:
            guarded = _fig3_reduced()
        assert mon.violations == 0
        assert _canon(guarded) == _canon(_fig3_reduced())


# ---------------------------------------------------------------------------
# CLI-level equality (exec-engine modes)
# ---------------------------------------------------------------------------
def _cli(capsys, *argv: str) -> str:
    from repro.cli import main

    code = main(list(argv))
    out = capsys.readouterr().out
    assert code in (0, 1), f"repro {' '.join(argv)} exited {code}"
    return out


class TestCLIEquality:
    def test_plain_and_jobs(self, capsys):
        base = _cli(capsys, "run", "fig2", "--quiet")
        assert _cli(capsys, "run", "fig2", "--quiet", "--jobs", "2") == base
        with waves_off():
            assert _cli(capsys, "run", "fig2", "--quiet") == base

    def test_faults_and_guard_observe(self, capsys):
        """Faulted and guarded runs take the scalar path only, so the
        wave layer must be invisible to them; a guard must not change
        what the run reports either."""
        outs = {}
        for mode in (["--faults", "lossy", "--seed", "1"],
                     ["--guard", "observe"]):
            got = _cli(capsys, "run", "fig2", "--quiet", *mode)
            with waves_off():
                ref = _cli(capsys, "run", "fig2", "--quiet", *mode)
            assert got == ref, f"fig2 output drifted under {mode}"
            outs[mode[0]] = got
        assert outs["--guard"] == _cli(capsys, "run", "fig2", "--quiet")


# ---------------------------------------------------------------------------
# Property-based equivalence over composed programs
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    nranks=st.integers(2, 16),
    rpn=st.sampled_from([1, 2, 4]),
    phases=st.lists(PHASE, min_size=1, max_size=6),
    binding_mix=st.sampled_from(["imb", "jl", "mixed"]),
)
@example(nranks=9, rpn=1, binding_mix="imb",
         phases=[("allreduce", 70000), ("gatherv", 70000, 0)])
def test_random_programs_equivalent(nranks, rpn, phases, binding_mix):
    case = {"nranks": nranks, "rpn": rpn, "binding": binding_mix,
            "phases": [list(p) for p in phases]}
    with waves_off():
        ref = _answer(case)
    assert _answer(case) == ref


# ---------------------------------------------------------------------------
# Dense hop matrix vs the scalar router
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "topo",
    [
        TofuDTopology(global_shape=(4, 6, 16), ranks_per_node=4),
        TofuDTopology(global_shape=(3, 2, 5), ranks_per_node=2),
        TofuDTopology(global_shape=(2, 3, 2), ranks_per_node=1,
                      use_local_axes=True),
    ],
    ids=["paper-4x6x16", "odd-3x2x5", "local-axes"],
)
def test_hops_matrix_matches_scalar(topo):
    mat = topo.hops_matrix()
    assert mat is not None and mat.shape == (topo.nodes, topo.nodes)
    step = max(1, topo.nodes // 48)
    sample = list(range(0, topo.nodes, step)) + [topo.nodes - 1]
    rpn = topo.ranks_per_node
    for na in sample:
        for nb in sample:
            if na == nb:
                continue
            assert int(mat[na, nb]) == topo.hops(na * rpn, nb * rpn), (
                na, nb
            )


def test_hops_matrix_cap():
    big = TofuDTopology(global_shape=(20, 20, 20), ranks_per_node=1)
    assert big.hops_matrix() is None  # above the dense-matrix cap
