"""Does a busy workload move the host pace the benchmark divides by?

Run from the root of a checkout::

    python3 perfbench/pacecheck.py --workload paper-jobs2-durable --rounds 3

Alternates idle phases (the pace sampler alone) with loaded phases (the
sampler while one repetition of a run workload keeps the CPUs busy),
starting and ending idle.  Each loaded pace is compared with the mean
of the idle paces just before and just after it, so host drift slower
than a phase cancels.  A loaded / idle ratio near 1 means the workload
does not feed back into its own divisor.  Prints one line per phase,
then one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.measure import PaceSampler, Tree, repro_argv  # noqa: E402
from perfbench.workloads import RUN_ARGS  # noqa: E402

IDLE_S = 8.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/pacecheck.py")
    ap.add_argument("--workload", choices=RUN_ARGS,
                    default="paper-jobs2-durable")
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    work = ROOT / ".perfbench-work" / "pacecheck"
    shutil.rmtree(work, ignore_errors=True)
    phases = []
    try:
        for i in range(2 * args.rounds + 1):
            loaded = i % 2 == 1
            with PaceSampler() as pacer:
                if loaded:
                    rep = work / f"rep{i}"
                    rep.mkdir(parents=True)
                    tree = Tree(repro_argv(*RUN_ARGS[args.workload]), ROOT,
                                rep)
                    result = tree.wait(time.monotonic() + 150)
                    seconds = result.wall_s
                else:
                    time.sleep(IDLE_S)
                    seconds = IDLE_S
            phases.append({"loaded": loaded, "seconds": seconds,
                           "pace": pacer.pace(),
                           "calls": sum(len(c) for c in pacer.calls.values())})
            print(f"{'loaded' if loaded else 'idle  '} {seconds:6.2f} s  "
                  f"pace {phases[-1]['pace']:.4f}  "
                  f"({phases[-1]['calls']} calls)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ratios = [phases[i]["pace"]
              / statistics.mean([phases[i - 1]["pace"],
                                 phases[i + 1]["pace"]])
              for i in range(1, len(phases), 2)]
    print(json.dumps({"workload": args.workload, "phases": phases,
                      "loaded_over_idle": ratios}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
