"""The four workloads, run untraced: each repro process is a child tree
launched, timed and accounted from outside.

Run workloads (``paper-serial``, ``paper-jobs2-durable``,
``fig3-guarded``) repeat one ``repro run`` invocation, each in a fresh
directory, while the run's time allows; one invocation is one
operation.  ``serve-aged-log`` starts the daemon on a fresh copy of
the aged log a few times to time its set-up, then runs one closed loop
of small jobs through one daemon for the rest of the run and drains
it; one job is one operation.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import agedlog
from .measure import (
    PaceSampler,
    Tree,
    TreeResult,
    digest_text,
    median,
    repro_argv,
    split_report,
    tail,
)

#: ``repro run`` argument lists; ``--stats`` adds the engine wall the
#: run reports after its rendered report, which setup_s subtracts.
RUN_ARGS = {
    "paper-serial": ["run", "all", "--scale", "paper", "--stats"],
    "paper-jobs2-durable": [
        "run", "all", "--scale", "paper", "--jobs", "2", "--cache",
        "--journal", "run.journal", "--stats",
    ],
    "fig3-guarded": [
        "run", "fig3", "--scale", "paper", "--guard", "observe", "--stats",
    ],
}
WORKLOADS = (*RUN_ARGS, "serve-aged-log")

#: The job the serve client submits.
SERVE_JOB = {"kind": "run", "spec": {"key": "fig1", "scale": "ci"}}
#: The same run through the CLI: every job's ``digests.run`` must equal
#: this run's metric-document digest.
DIRECT_ARGS = ["run", "fig1", "--scale", "ci", "--metrics-dir", "metrics",
               "--stats"]
#: Daemon starts per run (start, first 200 from /healthz, drain) whose
#: median is setup_s; the last of them also runs the closed loop.
SERVE_STARTS = 3
#: Lease attempts the daemon grants a job (``--max-attempts``).  The
#: daemon's tick can miss a worker's ``job_done`` written while it
#: replays the log, and then runs the job again; a miss is a toss per
#: attempt, so under the default of 3 a random few jobs in a run end
#: ``failed`` and no two runs fail the same number.  With 20 attempts
#: the misses cost time and CPU, which the metrics see, instead of a
#: failure count that does not repeat; the detail line counts the jobs
#: that the default budget would have failed.
SERVE_MAX_ATTEMPTS = 20
#: ``repro serve start``'s own ``--max-attempts`` default.
DEFAULT_MAX_ATTEMPTS = 3
#: Seconds the client sleeps between status polls, as
#: ``repro serve submit --wait`` does.
CLIENT_POLL_S = 0.5
#: Longest wait for a daemon to announce itself and answer /healthz.
DAEMON_START_S = 30.0
JOB_TERMINAL = ("done", "failed", "cancelled")

#: Digests of the rendered reports (not the metric documents, which
#: cover only claim counts and meta) taken at the parent commit.
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_reference() -> Dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text())["digests"]


@dataclass
class Sample:
    """What one workload run measured."""

    trees: List[TreeResult] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    #: serve jobs done per second of closed loop, one entry per loop
    rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: operations whose output differed from the reference (a subset
    #: of ``failed``)
    wrong: int = 0
    notes: List[str] = field(default_factory=list)
    #: serve jobs the daemon ran again after missing their finish, and
    #: those of them it would have failed under ``DEFAULT_MAX_ATTEMPTS``
    requeues: int = 0
    past_default_attempts: int = 0
    #: the host's pace over the run (see ``PaceSampler``)
    host_pace: float = 1.0
    #: what the run's times other than setup_s are divided by:
    #: ``host_pace`` for the CPU-bound run workloads, 1 for serve, whose
    #: loop is mostly timer waits that do not follow the host's speed
    pace: float = 1.0

    def fail(self, why: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self.notes.append(why)

    def raw_metrics(self) -> Dict[str, float]:
        """End-to-end metrics as the clock read them."""
        return {
            "wall_s": median([t.wall_s for t in self.trees]),
            "setup_s": median(self.setups),
            "cpu_s": median([t.cpu_s for t in self.trees]),
            "peak_rss_mb": median([t.peak_rss_mb for t in self.trees]),
        }

    def metrics(self) -> Tuple[Dict[str, float], Dict[str, Any]]:
        """End-to-end metrics in reference-host time: setup_s divided by
        the host pace (start-up is CPU work on every workload), wall_s
        and cpu_s by ``pace``.  Also returns the raw readings, the host
        pace and the job metrics that are not bounded: the latency
        median and tail, and the serve throughput."""
        raw = self.raw_metrics()
        out = {
            "wall_s": raw["wall_s"] / self.pace,
            "setup_s": raw["setup_s"] / self.host_pace,
            "cpu_s": raw["cpu_s"] / self.pace,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        value, pct, beyond = tail(self.latencies)
        return out, {
            "host_pace": self.host_pace,
            "divided_by": self.pace,
            "raw": raw,
            "job_latency_p50_s": median(self.latencies) / self.pace,
            "job_latency_tail_s": value / self.pace,
            "jobs_per_s": median(self.rates),
            "tail_percentile": pct, "tail_beyond": beyond,
            "requeues": self.requeues,
            "past_default_attempts": self.past_default_attempts,
            "latencies_s": [round(x, 3) for x in self.latencies],
            "setups_s": [round(x, 3) for x in self.setups],
        }


def keep_going(start: float, seconds: float, durations: List[float]
               ) -> bool:
    """Another repetition while its expected length still fits."""
    if not durations:
        return True
    expected = sum(durations) / len(durations)
    return time.perf_counter() - start + expected <= seconds


# ---------------------------------------------------------------------------
# run workloads
# ---------------------------------------------------------------------------
def check_run(returncode: int, stdout: str, reference: str
              ) -> Tuple[Optional[str], bool, Optional[float]]:
    """Judge one ``repro run --stats``: ``(why it failed or None,
    whether its output was wrong, the engine wall it reports)``."""
    report, engine_wall = split_report(stdout)
    if "[FAIL]" in report:
        return "a claim FAILed", True, engine_wall
    if returncode != 0:
        return f"exit status {returncode}", False, engine_wall
    if engine_wall is None:
        return "no engine wall in the --stats table", False, None
    digest = digest_text(report)
    if digest != reference:
        return f"report digest {digest} != reference {reference}", True, \
            engine_wall
    return None, False, engine_wall


def run_once(root: Path, rep_dir: Path, args: List[str], reference: str,
             sample: Sample, deadline: float) -> TreeResult:
    """One ``repro run`` in a fresh directory, judged into ``sample``;
    killed (and failed) if it is still running at ``deadline``."""
    rep_dir.mkdir(parents=True)
    with open(rep_dir / "stdout.txt", "wb") as out, \
            open(rep_dir / "stderr.txt", "wb") as err:
        tree = Tree(repro_argv(*args), root, rep_dir, stdout=out, stderr=err)
        result = tree.wait(deadline)
    stdout = (rep_dir / "stdout.txt").read_text(errors="replace")
    why, wrong, engine_wall = check_run(result.returncode, stdout, reference)
    sample.attempted += 1
    if why is not None:
        sample.fail(f"{rep_dir.name}: {why}", wrong)
    if engine_wall is not None:
        sample.setups.append(result.wall_s - engine_wall)
    return result


def measure_run_workload(root: Path, work: Path, name: str, seconds: float,
                         reference: str, deadline: float) -> Sample:
    sample = Sample()
    start = time.perf_counter()
    while keep_going(start, seconds, sample.latencies):
        tree = run_once(root, work / f"rep{len(sample.trees)}",
                        RUN_ARGS[name], reference, sample, deadline)
        sample.trees.append(tree)
        sample.latencies.append(tree.wall_s)
    return sample


# ---------------------------------------------------------------------------
# serve-aged-log
# ---------------------------------------------------------------------------
def http(url: str, path: str, body: Optional[Dict[str, Any]] = None,
         timeout: float = 30.0) -> Dict[str, Any]:
    """One JSON request to the serve API."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        url + path, data=data, method="GET" if body is None else "POST",
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def wait_url(err_path: Path, deadline: float) -> str:
    """The address the daemon announces on stderr."""
    while time.monotonic() < deadline:
        m = re.search(r"http://[0-9.]+:\d+", err_path.read_text())
        if m:
            return m.group(0)
        time.sleep(0.005)
    raise TimeoutError("serve daemon announced no address")


def wait_healthy(url: str, deadline: float) -> None:
    """Poll until ``/healthz`` answers 200."""
    while True:
        try:
            http(url, "/healthz")
            return
        except (urllib.error.URLError, ConnectionError):
            if time.monotonic() > deadline:
                raise TimeoutError("serve daemon never answered /healthz")
            time.sleep(0.005)


def judge_job(doc: Dict[str, Any], reference: Optional[str],
              sample: Sample) -> None:
    """A job fails unless it ends ``done`` with the direct CLI digest."""
    sample.attempted += 1
    job_id = doc.get("job_id")
    got = (doc.get("digests") or {}).get("run")
    if doc.get("status") != "done":
        sample.fail(f"{job_id}: {doc.get('status')} at attempt "
                    f"{doc.get('attempt')} ({doc.get('error', '')})")
    elif got != reference:
        sample.fail(f"{job_id}: digest {got} != reference {reference}",
                    wrong=True)


def client_loop(url: str, reference: Optional[str], sample: Sample,
                deadline: float,
                more: Callable[[List[float]], bool] = lambda done: True,
                until: float = math.inf) -> float:
    """Closed loop of one client: submit a job, poll until it is
    terminal, repeat while ``more(latencies so far)`` holds and the
    ``perf_counter`` clock is before ``until``.  A job still running at
    ``until`` is abandoned: it is neither judged nor counted, and the
    drain that follows hands it back to the queue.  A job still running
    at ``deadline`` is judged as it stands (failed) and ends the loop.
    Returns the loop's makespan."""
    t0 = time.perf_counter()
    mine: List[float] = []
    while more(mine) and time.perf_counter() < until:
        sent = time.perf_counter()
        job_id = http(url, "/api/jobs", body=SERVE_JOB)["job_id"]
        doc = http(url, f"/api/jobs/{job_id}")
        while doc.get("status") not in JOB_TERMINAL \
                and time.monotonic() < deadline \
                and time.perf_counter() < until:
            time.sleep(CLIENT_POLL_S)
            doc = http(url, f"/api/jobs/{job_id}")
        if doc.get("status") not in JOB_TERMINAL \
                and time.monotonic() < deadline:
            sample.notes.append(f"{job_id}: {doc.get('status')} when the "
                                "loop's window closed; not counted")
            break
        mine.append(time.perf_counter() - sent)
        judge_job(doc, reference, sample)
        if doc.get("status") not in JOB_TERMINAL:
            break
    sample.latencies.extend(mine)
    return time.perf_counter() - t0


def n_jobs(n: int) -> Callable[[List[float]], bool]:
    """A closed loop of exactly ``n`` jobs."""
    return lambda done: len(done) < n


def prepare_serve(root: Path, work: Path, seed: int, reference: str,
                  sample: Sample, deadline: float
                  ) -> Tuple[Path, Optional[str]]:
    """Build the aged-log template and take the digest every job must
    reproduce; neither counts toward any metric.

    The digest comes from running the job's command directly in this
    checkout (the document's meta carries the checkout's git sha), and
    that run's rendered report is checked against the stored reference.
    """
    direct = Sample()
    run_once(root, work / "direct", DIRECT_ARGS, reference, direct, deadline)
    job_digest = None
    if direct.failed:
        sample.notes.append(f"direct fig1 run: {direct.notes[0]}; "
                            "every job fails")
    else:
        doc = json.loads(
            next((work / "direct" / "metrics").glob("*.json")).read_text())
        job_digest = doc["digest"]
    template = work / "template"
    age = agedlog.build_template(template, seed)
    sample.notes.append(
        f"aged log: {age['records']} records, {age['jobs']} jobs, "
        f"{age['worker_hours']:.2f} worker-hours of 1 s heartbeats"
    )
    return template, job_digest


def kill_workers(state: Path) -> None:
    """SIGKILL every worker leased in this state directory outside the
    synthetic history.  Workers run in sessions of their own, so a
    daemon killed before its drain leaves them behind."""
    from repro.exec.journal import JournalError, decode_record

    for line in (state / "jobs.log").read_text().splitlines():
        try:
            rec = decode_record(line)
        except JournalError:
            continue
        if rec["type"] == "job_leased" and not str(
                rec.get("daemon", "")).startswith(agedlog.HISTORY_DAEMON):
            try:
                os.kill(int(rec["pid"]), signal.SIGKILL)
            except OSError:
                pass


def count_requeues(daemon_log: str) -> Tuple[int, int]:
    """Requeues the daemon logged, and how many of them sent a job past
    ``DEFAULT_MAX_ATTEMPTS`` (each such job the default would have
    failed)."""
    attempts = [int(n) for n in re.findall(
        r"requeued \([a-z-]+\), attempt (\d+) in", daemon_log)]
    return len(attempts), attempts.count(DEFAULT_MAX_ATTEMPTS + 1)


def serve_cycle(root: Path, cycle_dir: Path, template: Path,
                job_digest: Optional[str], sample: Sample, deadline: float,
                more: Optional[Callable[[List[float]], bool]] = None,
                window: Optional[float] = None
                ) -> Tuple[TreeResult, float]:
    """Daemon start on a fresh copy of the aged log, a closed loop of
    jobs and a drain to exit.  The loop runs while ``more`` holds, or
    for ``window`` seconds; with neither, there is no loop.  Returns the
    daemon's tree and the closed loop's makespan."""
    state = cycle_dir / "state"
    agedlog.fresh_copy(template, state)
    err_path = cycle_dir / "daemon.err"
    makespan = 0.0
    with open(err_path, "wb") as err:
        tree = Tree(
            repro_argv("serve", "start", "--state-dir", str(state),
                       "--port", "0", "--workers", "1",
                       "--max-attempts", str(SERVE_MAX_ATTEMPTS)),
            root, cycle_dir, stderr=err,
        )
        try:
            started = min(deadline, time.monotonic() + DAEMON_START_S)
            url = wait_url(err_path, started)
            wait_healthy(url, started)
            sample.setups.append(time.perf_counter() - tree.t0)
            if more is not None or window is not None:
                attempted, failed = sample.attempted, sample.failed
                makespan = client_loop(
                    url, job_digest, sample, deadline,
                    more or (lambda done: True),
                    math.inf if window is None
                    else time.perf_counter() + window)
                done = sample.attempted - attempted - (sample.failed - failed)
                sample.rates.append(done / makespan)
            http(url, "/api/drain", body={})
            result = tree.wait(deadline)
        except BaseException:
            tree.kill()
            kill_workers(state)
            raise
    if result.returncode != 0:
        kill_workers(state)
        sample.notes.append(f"{cycle_dir.name}: daemon exited "
                            f"{result.returncode}")
    requeues, past_default = count_requeues(
        err_path.read_text(errors="replace"))
    sample.requeues += requeues
    sample.past_default_attempts += past_default
    if requeues:
        sample.notes.append(f"{cycle_dir.name}: {requeues} job(s) "
                            "requeued by the daemon")
    return result, makespan


def measure_serve(root: Path, work: Path, seed: int, seconds: float,
                  reference: str, deadline: float) -> Sample:
    """``SERVE_STARTS`` daemon starts on fresh copies of the aged log;
    the last one runs the closed loop for a window of ``seconds``.
    setup_s is the median over the starts; every other metric comes
    from the closed loop and its daemon."""
    sample = Sample()
    template, job_digest = prepare_serve(root, work, seed, reference, sample,
                                         deadline)
    for i in range(SERVE_STARTS - 1):
        serve_cycle(root, work / f"start{i}", template, job_digest, sample,
                    deadline)
    tree, _ = serve_cycle(root, work / "loop", template, job_digest, sample,
                          deadline, window=seconds)
    sample.trees.append(tree)
    return sample


def measure(root: Path, work: Path, name: str, seed: int, seconds: float,
            reference: str, deadline: float) -> Sample:
    """One untraced run of workload ``name``, with the host's pace read
    alongside it."""
    with PaceSampler() as pacer:
        if name == "serve-aged-log":
            sample = measure_serve(root, work, seed, seconds, reference,
                                   deadline)
        else:
            sample = measure_run_workload(root, work, name, seconds,
                                          reference, deadline)
    sample.host_pace = pacer.pace()
    if name in RUN_ARGS:
        sample.pace = sample.host_pace
    return sample
