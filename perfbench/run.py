"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-serial --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics; ``--trace 1`` hosts pairs of untraced and traced repetitions
in this process and reports the per-layer metrics.  A readable summary
goes to stdout, then one JSON line with the raw readings behind it, and
the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files live under
``.perfbench-work/`` (removed at exit); traced runs leave their spans
and host record under ``.perfbench-out/``.  The exit status is 2, with
no result line, when the checkout holds no ``repro`` sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

#: Past this many seconds every process still running is killed and
#: its operation fails, so a run ends well inside 180 s.
RUN_LIMIT_S = 150.0

#: Metric names and units, declared once in ``BENCHMARK.json``.
SPEC = ROOT / "BENCHMARK.json"


def declared_units(trace: int):
    spec = json.loads(SPEC.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _print_summary(args, sample, metrics, units, extra):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {sample.attempted}")
    for key in sorted(metrics):
        print(f"  {key:30s} {metrics[key]:14.6g} {units[key]}")
    ratio = sample.failed / sample.attempted if sample.attempted else 0.0
    print(f"  {'failed_ratio':30s} {ratio:14.6g} ratio "
          f"({sample.failed} failed of {sample.attempted} attempted)")
    for key, value in sorted(extra.items()):
        print(f"  {key}: {value}")
    for note in sample.notes:
        print(f"  note: {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import traced, workloads

    deadline = time.monotonic() + RUN_LIMIT_S
    reference = workloads.load_reference()[args.workload]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, sample, extra = traced.run(
                ROOT, work, ROOT / ".perfbench-out", args.workload,
                args.seed, reference, deadline,
            )
        else:
            sample = workloads.measure(ROOT, work, args.workload, args.seed,
                                       args.seconds, reference, deadline)
            metrics, extra = sample.metrics()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(set(metrics) ^ set(units))} differ "
            f"from those {SPEC.name} declares")
    _print_summary(args, sample, metrics, units, extra)
    # The result line carries only the declared metrics; the line before
    # it keeps the raw readings and the host pace they were divided by.
    print(json.dumps({"detail": extra}, sort_keys=True))
    print(json.dumps({
        "correct": sample.wrong == 0,
        "attempted": sample.attempted,
        "failed": sample.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
