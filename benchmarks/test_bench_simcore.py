"""Wave commits on vs off: the event engine's recorded perf baseline.

Times the same figure workloads with the engine's wave commits on (the
default) and forced off (every event on the scalar path — forced from
this side only, the engine has no switch for it), asserts the results
are byte-identical, and records wall-clock, speedup, and events/sec
into ``BENCH_simcore.json`` (see ``conftest.py``).  The
ShallowWaters stepping comparison (fused out-parameter kernels vs the
reference functional RHS) rides along as steps/sec.

These are the numbers CI's ``perf-smoke`` job gates on, so the asserts
here stay loose (identity is hard, speedup just has to be real); the
json carries the honest measurement.
"""

import contextlib
import json
import sys
import time
from unittest import mock

import numpy as np
import pytest

from repro.core import figures
from repro.core.benchmark import Timing
from repro.mpi.bindings import IMB_C
from repro.mpi.comm import MPIWorld
from repro.mpi.simulator import Engine
from repro.shallowwaters.integration import RK4Integrator
from repro.shallowwaters.model import ShallowWaterParams

#: reduced Fig. 3 sweep: one size per protocol regime (eager small,
#: eager mid, rendezvous), full 1536-rank worlds.
FIG3_SIZES = [4, 1024, 262144]


def _no_wave(self):
    # Park wave attempts for the rest of the run: the event loop then
    # never calls back here and every event takes the scalar path.
    self._wave_cooldown = sys.maxsize
    return False


def _timed(waves, fn):
    ctx = (contextlib.nullcontext() if waves
           else mock.patch.object(Engine, "_wave", _no_wave))
    with ctx:
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out


def _canon(result):
    return json.dumps(result, sort_keys=True, default=repr)


def _timing(seconds, **protocol):
    """A timing with its measurement protocol, as recorded in the json
    (see :class:`repro.core.benchmark.Timing`)."""
    return Timing(seconds=round(seconds, 4), **protocol).as_dict()


@pytest.mark.figure
def test_fig2_pingpong_cores(simcore_record):
    to, ro = _timed(False, figures.fig2_pingpong)
    tb, rb = _timed(True, figures.fig2_pingpong)
    assert _canon(ro) == _canon(rb), "waves on/off disagree on Fig. 2"
    simcore_record(
        "figures", "fig2_pingpong",
        scalar_seconds=_timing(to), batched_seconds=_timing(tb),
        speedup=round(to / tb, 3), identical=True,
    )


@pytest.mark.figure
def test_fig3_collectives_cores(simcore_record):
    run = lambda: figures.fig3_collectives(sizes=FIG3_SIZES, nranks=1536,
                                           repetitions=2)
    to, ro = _timed(False, run)
    tb, rb = _timed(True, run)
    assert _canon(ro) == _canon(rb), "waves on/off disagree on Fig. 3"
    assert tb < to, "wave commits slower than the scalar path on Fig. 3"
    simcore_record(
        "figures", "fig3_collectives",
        scalar_seconds=_timing(to), batched_seconds=_timing(tb),
        speedup=round(to / tb, 3), identical=True,
        sizes=FIG3_SIZES, nranks=1536,
    )


def test_allreduce_events_per_sec(simcore_record):
    """Steady-state event throughput on one Allreduce point."""
    from repro.mpi.benchsuite import AllreduceBench

    bench = AllreduceBench()
    entry = {}
    results = {}
    for core, waves in (("scalar", False), ("batched", True)):
        def run():
            world = MPIWorld(nranks=1536, ranks_per_node=4,
                             shape=(4, 6, 16), binding=IMB_C)
            out = world.run(bench._program, 1024, 5)
            return world, out
        wall, (world, out) = _timed(waves, run)
        # One heap event per message send + delivery, plus a resume per
        # yield; messages/sec is the stable cross-mode throughput unit.
        msgs = world.last_stats.messages
        entry[core] = dict(seconds=wall, messages=msgs,
                           events_per_sec=round(msgs / wall))
        results[core] = out
    assert results["scalar"] == results["batched"]
    simcore_record(
        "points", "allreduce_1024B_1536r_reps5",
        scalar_seconds=_timing(entry["scalar"]["seconds"]),
        batched_seconds=_timing(entry["batched"]["seconds"]),
        speedup=round(entry["scalar"]["seconds"]
                      / entry["batched"]["seconds"], 3),
        messages=entry["scalar"]["messages"],
        scalar_events_per_sec=entry["scalar"]["events_per_sec"],
        batched_events_per_sec=entry["batched"]["events_per_sec"],
    )


def test_shallowwaters_steps_per_sec(simcore_record):
    """Fused out-parameter RK4 vs the reference functional stepper."""
    steps = 100
    entry = {}
    finals = {}
    for fused in (False, True):
        p = ShallowWaterParams(nx=128, ny=64).with_dtype(
            "float16", scaling=1024.0
        )
        from repro.shallowwaters.model import ShallowWaterModel

        integ = RK4Integrator(p, fused=fused)
        integ.bind(ShallowWaterModel(p).initial_state("turbulence"))
        integ.step()  # warm allocation pools outside the timed region
        t0 = time.perf_counter()
        for _ in range(steps):
            integ.step()
        wall = time.perf_counter() - t0
        key = "fused" if fused else "reference"
        entry[key] = dict(seconds=wall, steps_per_sec=round(steps / wall, 2))
        s = integ.current_state()
        finals[key] = (np.asarray(s.u, np.float64).sum(),
                       np.asarray(s.eta, np.float64).sum())
    assert finals["fused"] == finals["reference"], (
        "fused stepping drifted from the reference kernels"
    )
    assert entry["fused"]["seconds"] < entry["reference"]["seconds"]
    simcore_record(
        "stepping", "sw_float16_128x64_100steps",
        reference_seconds=_timing(entry["reference"]["seconds"],
                                  warmup=1, iters=steps),
        fused_seconds=_timing(entry["fused"]["seconds"],
                              warmup=1, iters=steps),
        speedup=round(entry["reference"]["seconds"]
                      / entry["fused"]["seconds"], 3),
        reference_steps_per_sec=entry["reference"]["steps_per_sec"],
        fused_steps_per_sec=entry["fused"]["steps_per_sec"],
    )
