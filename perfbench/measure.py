"""Measurement helpers shared by the untraced and traced runs."""

from __future__ import annotations

import hashlib
import itertools
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10

#: The stats table ``repro run --stats`` prints after the reports.
STATS_HEADER = "experiment engine: jobs="


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it, by nearest rank: ``(value, percentile, samples beyond)``.

    Below ``2 * TAIL_BEYOND`` samples that percentile would sit at or
    under the median (or not exist, below ``TAIL_BEYOND + 1``), so the
    median is returned as percentile 50: the value is always defined,
    and the recorded percentile and count say how little it means.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0, 0
    pct = (100 * (n - TAIL_BEYOND)) // n
    if pct <= 50:
        return median(xs), 50, n // 2
    rank = -(-pct * n // 100)  # nearest rank: ceil(pct * n / 100)
    return float(xs[rank - 1]), pct, n - rank


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def split_report(stdout: str) -> Tuple[str, Optional[float]]:
    """``repro run --stats`` output -> (rendered report, engine wall).

    The report is everything before the stats table; the engine wall is
    the ``wall=`` the table header reports (None when it is missing).
    """
    head, sep, stats = stdout.partition(STATS_HEADER)
    if not sep:
        return stdout, None
    wall = stats.split("wall=", 1)[1].split("s", 1)[0] if "wall=" in stats \
        else None
    return head, float(wall) if wall is not None else None


def src_env(root: Path) -> Dict[str, str]:
    """Environment for a child that imports ``repro`` from the checkout."""
    env = dict(os.environ)
    src = str(root / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not old else f"{src}{os.pathsep}{old}"
    return env


@dataclass
class TreeResult:
    """One child process tree, launch to exit."""

    returncode: int
    wall_s: float
    cpu_s: float  # user + sys of the child and every descendant it reaped
    peak_rss_mb: float  # largest max-RSS of any process in the tree


class Tree:
    """A child process, in a process group of its own, whose whole tree
    is accounted at exit.

    ``os.wait4`` returns the child's resource usage including every
    descendant it waited for, and the largest max-RSS among them.
    """

    def __init__(self, argv: List[str], root: Path, cwd: Path,
                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=src_env(root), stdout=stdout, stderr=stderr,
            start_new_session=True,
        )

    def wait(self, deadline: float) -> TreeResult:
        """Wait for the child until the monotonic ``deadline``, then kill
        its process group; stragglers left in the group are killed
        either way."""
        pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
        while not pid and time.monotonic() < deadline:
            time.sleep(0.005)
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
        if not pid:
            self._kill_group()
            pid, status, ru = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._kill_group()
        return TreeResult(
            returncode=self.proc.returncode,
            wall_s=wall,
            cpu_s=ru.ru_utime + ru.ru_stime,
            peak_rss_mb=ru.ru_maxrss / 1024.0,
        )

    def kill(self) -> None:
        """Kill and reap the child's process group if still running."""
        if self.proc.returncode is None:
            self.wait(deadline=0.0)

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


# ---------------------------------------------------------------------------
# host pace
# ---------------------------------------------------------------------------
#: Seconds one calibration call took on the host this benchmark was
#: built on, a 2-core x86 KVM guest (Xeon, 2.1 GHz).
CALIBRATION_REF_S = 0.5e-3
#: Seconds between calibration calls.
PACE_INTERVAL_S = 0.2


def _calibration_call(field) -> None:
    """A fixed mix of interpreter work (dict reads and writes) and
    small-array NumPy work, the two kinds of work the workloads spend
    their time in.  Host slowdowns hit the interpreter part hardest:
    timed against ``fig3-guarded`` repetitions while the host drifted,
    this mix slowed with them almost one for one, where an integer
    loop in place of the dict work moved only half as much.  The call
    is kept under a millisecond: short enough that a woken thread runs
    it to the end before the scheduler hands its CPU back to a busy
    workload."""
    import numpy as np

    table = {}
    acc = 0
    for i in range(1500):
        table[i & 255] = acc
        acc += table.get((i * 7) & 255, 0) & 0xFFFF
    for _ in range(5):
        field = np.sqrt(np.abs(field * 1.0001 + 0.5))


class PaceSampler:
    """Reads the host's pace in a background thread while a run
    measures.

    Co-tenants on a shared host slow each vCPU by up to a third, for
    seconds to minutes at a time and independently per vCPU.  Every
    ``PACE_INTERVAL_S`` the sampler times one calibration call on the
    next CPU in turn (under 1% of one CPU).  :meth:`pace` is the median
    call time on each CPU, averaged over the CPUs and divided by
    ``CALIBRATION_REF_S``: 1.3 while the host runs 30% slower than when
    the reference was taken.  Dividing a run's times by it removes the
    drift that the run and the calibration both saw.
    """

    def __init__(self) -> None:
        self._cpus = sorted(os.sched_getaffinity(0))
        self.calls: Dict[int, List[float]] = {c: [] for c in self._cpus}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        import numpy as np

        field = np.random.default_rng(0).standard_normal((96, 192))
        _calibration_call(field)  # untimed: first-call costs
        for i in itertools.count():
            cpu = self._cpus[i % len(self._cpus)]
            os.sched_setaffinity(0, {cpu})  # this thread only
            t0 = time.perf_counter()
            _calibration_call(field)
            self.calls[cpu].append(time.perf_counter() - t0)
            if self._stop.wait(PACE_INTERVAL_S):
                return

    def __enter__(self) -> "PaceSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def pace(self) -> float:
        per_cpu = [statistics.median(c) for c in self.calls.values() if c]
        return statistics.mean(per_cpu) / CALIBRATION_REF_S


def idle_pace(seconds: float = 1.0) -> float:
    """The host's pace read while this process does nothing else.  A
    busy Python thread in this process would hold the interpreter lock
    and inflate the calibration calls."""
    with PaceSampler() as pacer:
        time.sleep(seconds)
    return pacer.pace()
