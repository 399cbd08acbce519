#!/usr/bin/env python
"""A Float16 run that overflows — and the guard that rescues it.

The paper's §III-B result hinges on *scaling* the shallow-water state
so Float16 arithmetic neither overflows nor drowns in subnormals.
Pick the scaling badly (s = 16384 instead of 1024) and the velocity
fields blow through ``floatmax(Float16) = 65504`` within a few steps:
the run returns a field of Infs and NaNs.

This script runs that doomed configuration three ways through the
``repro.guard`` subsystem:

1. ``--guard strict``  — the overflow sentinel trips and the run fails
   *loudly* with a typed :class:`GuardViolation` naming the site,
   instead of silently returning NaN soup;
2. ``--guard repair``  — the remediation ladder (re-scale, then
   compensated summation, then promote to Float32) rescues the task.
   Here the first rung suffices: re-scaling to s = 1024 completes the
   run with a ``degraded`` annotation recording the chain;
3. the rescued Float16 vorticity is compared against the Float64
   reference — the paper's "qualitatively indistinguishable"
   correlation claim survives the rescue.

Run:  python examples/rescued_float16.py
"""

import numpy as np

from repro.exec import RunSpec
from repro.exec.tasks import decompose, execute_task, merge_results
from repro.guard import (
    GuardConfig,
    GuardMonitor,
    GuardViolation,
    RESCUE_SCALING,
    guarding,
)


def main() -> None:
    # 'overflow16' rewrites fig4's Float16 task to the doomed
    # s = 16384 configuration — same injection as `repro run fig4
    # --guard repair --guard-inject overflow16`.
    tasks = decompose("fig4", spec=RunSpec(guard_inject="overflow16"))
    doomed = next(t for t in tasks if t.params.get("dtype") == "float16")
    print("=== the doomed configuration ===")
    print(f"task: {doomed.label}")
    print(f"scaling: {doomed.params['scaling']:g} "
          f"(floatmax(Float16) = 65504 is ~4 binades away)")

    # ------------------------------------------------------------------
    print("\n=== 1. strict mode: fail loudly ===")
    with np.errstate(all="ignore"):
        try:
            with guarding(GuardMonitor(GuardConfig(mode="strict"))):
                execute_task(doomed)
        except GuardViolation as err:
            print(f"GuardViolation: {err}")

    # ------------------------------------------------------------------
    print("\n=== 2. repair mode: escalate until healthy ===")
    payloads = []
    rescue = None
    with np.errstate(all="ignore"):
        for t in tasks:
            monitor = GuardMonitor(GuardConfig(mode="repair"))
            with guarding(monitor):
                payloads.append(execute_task(t))
            if monitor.remediation is not None:
                rescue = monitor.remediation

    assert rescue is not None, "injected overflow was not remediated?"
    print(f"first failure: {rescue['error']}")
    print("remediation chain:")
    for entry in rescue["chain"]:
        status = "applied" if entry["applied"] else "skipped"
        detail = ", ".join(
            f"{k}={v!r}" for k, v in entry.get("overrides", {}).items()
        )
        print(f"  {entry['step']:>12}: {status}"
              + (f" ({detail})" if detail else ""))
    print(f"final overrides: {rescue['final_overrides']} "
          f"(rescue scaling s = {RESCUE_SCALING:g})")

    # ------------------------------------------------------------------
    print("\n=== 3. the rescued field still tracks Float64 ===")
    result = merge_results("fig4", "ci", payloads)
    finite = bool(np.isfinite(result.vorticity_f16).all())
    print(f"rescued Float16 vorticity all finite: {finite}")
    print(f"correlation vs Float64: {result.correlation:.6f} "
          f"(paper: 'qualitatively indistinguishable', > 0.98)")
    verdict = "rescued" if finite and result.correlation > 0.98 else "LOST"
    print(f"\nverdict: {verdict} — a run that silently returned NaNs "
          f"now completes,\nannotated `degraded` with the exact "
          f"remediation that saved it.")


if __name__ == "__main__":
    main()
