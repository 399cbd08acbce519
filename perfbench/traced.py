"""The traced run: repetitions of a workload hosted in this process,
in pairs of an untraced base and a traced repetition with spans around
calls into each layer's public functions.

Nothing under ``src/`` changes: the tracer swaps a wrapper in for each
public method ``install`` names, for the duration of the run and puts
the original back afterwards.  Spans (name, start, end, parent span,
workload-run id) stay in memory and are written out when the run ends,
each with its self time.  ``repro run --trace`` and ``--profile`` are
not used: both move the event engine off its wave path.

Pool workers (``--jobs 2``) and serve workers run in other processes,
so their work is read from the run's own records: the engine's per-task
stats, and the per-job journals and result documents under the serve
state directory.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple

from . import agedlog
from .measure import Tree, idle_pace, median, tail
from .workloads import (
    DAEMON_START_S,
    RUN_ARGS,
    SERVE_MAX_ATTEMPTS,
    Sample,
    keep_going,
    check_run,
    client_loop,
    http,
    kill_workers,
    n_jobs,
    prepare_serve,
    wait_healthy,
)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class Tracer:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        # No lock: forked pool workers inherit the wrappers, and a lock
        # held by another thread at fork time would never be released.
        self._ids = itertools.count()
        self._restore: List[Tuple[type, str, Any]] = []
        #: name -> [calls, seconds] of layers too hot for one span per call
        self.tallies: Dict[str, List[float]] = {}

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {"id": next(self._ids), "name": name, "run": self.run_id,
               "parent": stack[-1]["id"] if stack else None,
               "start": time.perf_counter(), "end": None,
               "tallied": 0.0, "attrs": attrs}
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, owner: type, attr: str, name: str,
             after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per
        call; ``after(span, self_arg, args, kwargs)`` adds attributes."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(obj, *args, **kwargs):
            with tracer.span(name) as rec:
                out = original(obj, *args, **kwargs)
                if after is not None:
                    after(rec, obj, args, kwargs)
                return out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def tally(self, owner: type, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a method called too often for a span
        each: count the calls and their time, and charge the time to
        the enclosing span so its self time excludes it."""
        original = owner.__dict__[attr]
        tracer = self
        total = self.tallies.setdefault(name, [0, 0.0])

        @functools.wraps(original)
        def tallied(obj, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(obj, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                total[0] += 1
                total[1] += dt
                stack = tracer._local.__dict__.get("stack")
                if stack:
                    stack[-1]["tallied"] += dt

        setattr(owner, attr, tallied)
        self._restore.append((owner, attr, original))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name
                and s["end"] is not None]

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.named(name)]

    def finished(self) -> List[Dict[str, Any]]:
        """Every closed span with its duration and self time: the span
        minus the union of its children's intervals and minus the
        tallied calls made directly inside it."""
        kids: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            if s["end"] is None:
                continue
            covered, reach = 0.0, s["start"]
            for a, b in sorted(kids.get(s["id"], [])):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            dur = s["end"] - s["start"]
            out.append({**s, "duration": dur,
                        "self": dur - covered - s["tallied"]})
        return out

    def write_to(self, f: TextIO) -> None:
        """Every finished span, then every tally, one JSON line each."""
        for s in self.finished():
            f.write(json.dumps(s, sort_keys=True, default=str) + "\n")
        for name, (calls, secs) in sorted(self.tallies.items()):
            f.write(json.dumps({"tally": name, "run": self.run_id,
                                "calls": calls, "seconds": secs}) + "\n")


def _mpi_stats(rec, world, args, kwargs) -> None:
    stats = getattr(world, "last_stats", None)
    rec["attrs"]["messages"] = int(getattr(stats, "messages", 0))
    rec["attrs"]["bytes_sent"] = int(getattr(stats, "bytes_sent", 0))


def _sw_steps(rec, model, args, kwargs) -> None:
    rec["attrs"]["dtype"] = str(model.params.dtype)
    rec["attrs"]["nsteps"] = int(args[0] if args else kwargs["nsteps"])


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """The public callables each layer is measured at, wrapped by
    ``tracer`` for the duration of the block."""
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.unwrap()


def install(tracer: Tracer) -> None:
    """Wrap the public callables each layer is measured at."""
    from repro.exec.cache import ResultCache
    from repro.exec.engine import Engine
    from repro.exec.journal import JournalWriter
    from repro.guard.monitor import GuardMonitor
    from repro.mpi.comm import MPIWorld
    from repro.serve.daemon import ServeDaemon
    from repro.serve.store import JobStore
    from repro.shallowwaters.model import ShallowWaterModel

    def keep_stats(rec, engine, args, kwargs) -> None:
        rec["attrs"]["stats"] = engine.stats

    tracer.wrap(Engine, "run_many", "exec.run_many", keep_stats)
    tracer.wrap(JournalWriter, "append", "exec.journal.append")
    tracer.wrap(ResultCache, "put", "exec.cache.put")
    tracer.wrap(MPIWorld, "run", "mpi.run", _mpi_stats)
    tracer.tally(GuardMonitor, "check", "guard.check")
    tracer.tally(GuardMonitor, "sentinel", "guard.sentinel")
    tracer.wrap(ShallowWaterModel, "run", "sw.run", _sw_steps)
    tracer.wrap(ServeDaemon, "tick", "serve.tick")
    tracer.wrap(JobStore, "load", "serve.load")
    tracer.wrap(JobStore, "append", "serve.append")


# ---------------------------------------------------------------------------
# host and layer probes (every traced run)
# ---------------------------------------------------------------------------
#: Fallback last-level cache size when the host does not report one.
DEFAULT_LLC_BYTES = 32 << 20
STREAM_LLC_MULTIPLE = 4


def llc_bytes() -> int:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                             capture_output=True, text=True, timeout=10)
        value = int(out.stdout.strip() or 0)
    except (OSError, ValueError, subprocess.SubprocessError):
        value = 0
    return value or DEFAULT_LLC_BYTES


def stream_probe() -> Dict[str, float]:
    """STREAM triad over three float64 arrays whose total footprint is
    at least ``STREAM_LLC_MULTIPLE`` times the last-level cache."""
    import numpy as np
    from repro.blas.stream import StreamBenchmark

    llc = llc_bytes()
    n = -(-STREAM_LLC_MULTIPLE * llc // (3 * 8))
    bench = StreamBenchmark(n=n, dtype=np.float64)
    gbs = bench.run_kernel("triad", repeat=3).measured_gbps
    del bench
    return {"host.stream_gbs": gbs, "host.llc_mb": llc / 2**20,
            "host.stream_mb": 3 * 8 * n / 2**20}


def cli_import_probe(root: Path, pairs: int = 3) -> float:
    """Fresh-interpreter ``import repro.cli`` minus a bare interpreter
    start, medians of alternating pairs."""
    bare, full = [], []
    for _ in range(pairs):
        for argv, into in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import repro.cli"],
                            full)):
            tree = Tree(argv, root, root)
            into.append(tree.wait(time.monotonic() + 60).wall_s)
    return median(full) - median(bare)


#: Shape of the seeded field the Float16 rounder probe rounds.
ROUND16_SHAPE = (96, 192)
ROUND16_CALLS = 400


def round16_probe(seed: int) -> float:
    """ns per element of the public ``kernels.round16_`` on a fresh
    copy of a seeded float32 field (dirty-flag branch, own scratch)."""
    import numpy as np
    from repro.shallowwaters.kernels import round16_

    src = np.random.default_rng(seed).standard_normal(
        ROUND16_SHAPE).astype(np.float32)
    x = np.empty_like(src)
    per_call = []
    for _ in range(ROUND16_CALLS):
        np.copyto(x, src)
        t0 = time.perf_counter_ns()
        round16_(x)
        per_call.append(time.perf_counter_ns() - t0)
    return median(per_call) / src.size


# ---------------------------------------------------------------------------
# layer metrics from spans and the run's own records
# ---------------------------------------------------------------------------
def _ms(values: List[float]) -> List[float]:
    return [1000.0 * v for v in values]


def exec_metrics(tasks: List[Tuple[str, float]], jobs: int,
                 engine_wall: float, journal_appends: int) -> Dict[str, float]:
    busy = sum(s for _, s in tasks)
    return {
        "exec.tasks": len(tasks),
        "exec.task_busy_s": busy,
        "exec.critical_task_s": max((s for _, s in tasks), default=0.0),
        "exec.parallel_efficiency": (
            busy / (jobs * engine_wall) if engine_wall else 0.0),
        "exec.overhead_s": engine_wall - busy / max(jobs, 1),
        "exec.journal.appends": journal_appends,
    }


def span_metrics(tracer: Tracer,
                 fig4_tasks: List[Tuple[str, float]]) -> Dict[str, float]:
    """Per-layer numbers read from the spans; the ShallowWaters rates
    fall back to fig4's task stats when its tasks ran in the pool."""
    out: Dict[str, float] = {}
    appends = tracer.durations("exec.journal.append")
    value, _, _ = tail(_ms(appends))
    out["exec.journal.append_ms_p50"] = median(_ms(appends))
    out["exec.journal.append_ms_tail"] = value
    puts = tracer.durations("exec.cache.put")
    out["exec.cache.puts"] = len(puts)
    out["exec.cache.put_ms_p50"] = median(_ms(puts))

    worlds = tracer.named("mpi.run")
    run_s = sum(s["end"] - s["start"] for s in worlds)
    messages = sum(s["attrs"]["messages"] for s in worlds)
    out["mpi.worlds"] = len(worlds)
    out["mpi.messages"] = messages
    out["mpi.bytes_sent"] = sum(s["attrs"]["bytes_sent"] for s in worlds)
    out["mpi.run_s"] = run_s
    out["mpi.msgs_per_s"] = messages / run_s if run_s else 0.0

    guard = [tracer.tallies.get(n, [0, 0.0])
             for n in ("guard.check", "guard.sentinel")]
    out["guard.checks"] = sum(calls for calls, _ in guard)
    out["guard.check_s"] = sum(secs for _, secs in guard)

    for dtype in ("float16", "float64"):
        runs = [s for s in tracer.named("sw.run")
                if s["attrs"]["dtype"] == dtype]
        if runs:
            steps = sum(s["attrs"]["nsteps"] for s in runs)
            secs = sum(s["end"] - s["start"] for s in runs)
        else:
            pool = [(label, s) for label, s in fig4_tasks
                    if f"dtype={dtype}" in label]
            steps = sum(int(label.split("nsteps=")[1].split(",")[0])
                        for label, _ in pool)
            secs = sum(s for _, s in pool)
        out[f"sw.{dtype}.steps_per_s"] = steps / secs if secs else 0.0
        if dtype == "float16":
            out["sw.float16.run_s"] = secs
    return out


#: Jobs in every in-process serve cycle (untraced base and traced), so
#: the overhead ratio compares equal work.
TRACE_SERVE_JOBS = 3
#: Pairs of untraced and traced repetitions in a traced run.
TRACE_PAIRS = 2

#: Serve-layer metrics of the run workloads, where that layer does no
#: work at all.
SERVE_ZERO = ("serve.tick_ms_p50", "serve.tick_ms_tail", "serve.loads",
              "serve.load_ms_p50", "serve.append_ms_p50", "serve.records",
              "serve.extra_leases_per_job", "serve.queue_wait_s_p50",
              "serve.exec_s_p50", "serve.daemon_cpu_s", "serve.jobs_per_s")


# ---------------------------------------------------------------------------
# repetitions hosted in this process
# ---------------------------------------------------------------------------
def host_run(rep_dir: Path, args: List[str], reference: Optional[str],
             sample: Optional[Sample]) -> Optional[float]:
    """One ``repro run`` through ``repro.cli.main`` in this process,
    judged into ``sample`` (not judged when it is None).  Returns the
    engine wall the run reports, or None when it reports none: a run
    that raises or exits before its stats table is a failed operation,
    not a crash of the benchmark."""
    import repro.cli

    rep_dir.mkdir(parents=True)
    buf = io.StringIO()
    here = os.getcwd()
    os.chdir(rep_dir)
    try:
        with contextlib.redirect_stdout(buf):
            code = repro.cli.main(list(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - the program's own failure
        code = None
        why: Optional[str] = f"raised {exc!r}"
        wrong, engine_wall = False, None
    finally:
        os.chdir(here)
    if code is not None:
        why, wrong, engine_wall = check_run(code, buf.getvalue(), reference)
    if sample is not None:
        sample.attempted += 1
        if why is not None:
            sample.fail(f"{rep_dir.name}: {why}", wrong)
    return engine_wall


def run_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced ``repro run``: exec from the
    engine's own stats, the rest from the spans.  A run that never got
    to ``Engine.run_many`` reports zeros."""
    spans = tracer.named("exec.run_many")
    stats = spans[-1]["attrs"].pop("stats") if spans else None
    for s in spans[:-1]:
        s["attrs"].pop("stats", None)
    tasks = [] if stats is None else [
        (f"{t.label}", t.seconds) for e in stats.experiments for t in e.tasks]
    metrics = exec_metrics(
        tasks, stats.jobs if stats else 1,
        stats.total_seconds if stats else 0.0,
        len(tracer.named("exec.journal.append")),
    )
    metrics.update(span_metrics(
        tracer, [(lbl, s) for lbl, s in tasks if lbl.startswith("fig4[")]))
    metrics.update({k: 0.0 for k in SERVE_ZERO})
    return metrics


@dataclass
class HostedServe:
    """One in-process serve cycle, as ``host_serve`` left it."""

    state: Path
    first_new: int
    makespan: float
    done: int
    daemon_cpu_s: float


def host_serve(cycle_dir: Path, template: Path, job_digest: Optional[str],
               sample: Sample, deadline: float) -> HostedServe:
    """One serve cycle with ``ServeDaemon`` and ``start_api`` hosted in
    this process and a closed loop of ``TRACE_SERVE_JOBS`` jobs; the
    workers stay subprocesses."""
    from repro.serve.api import start_api
    from repro.serve.daemon import DaemonConfig, ServeDaemon
    from repro.serve.store import JobStore

    state = cycle_dir / "state"
    agedlog.fresh_copy(template, state)
    first_new = len(JobStore(state).load().jobs) + 1
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    client0 = time.thread_time()
    t0 = time.perf_counter()
    daemon = ServeDaemon(DaemonConfig(state_dir=state, port=0, workers=1,
                                      max_attempts=SERVE_MAX_ATTEMPTS))
    shutdown = threading.Event()
    server = start_api(daemon, shutdown)
    status: List[int] = []
    loop = threading.Thread(
        target=lambda: status.append(daemon.run_forever(shutdown)))
    loop.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        wait_healthy(url, min(deadline, time.monotonic() + DAEMON_START_S))
        sample.setups.append(time.perf_counter() - t0)
        attempted, failed = sample.attempted, sample.failed
        makespan = client_loop(url, job_digest, sample, deadline,
                               n_jobs(TRACE_SERVE_JOBS))
        done = sample.attempted - attempted - (sample.failed - failed)
        http(url, "/api/drain", body={})
    finally:
        shutdown.set()
        loop.join(max(0.0, deadline - time.monotonic()))
        server.shutdown()
        server.server_close()
        if loop.is_alive():
            kill_workers(state)
    if status != [0]:
        sample.notes.append(f"{cycle_dir.name}: in-process daemon drained "
                            f"with status {status}")
    client_cpu = time.thread_time() - client0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    daemon_cpu = (ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime
                  - client_cpu)
    return HostedServe(state, first_new, makespan, done, daemon_cpu)


def serve_layer_metrics(tracer: Tracer, hosted: HostedServe
                        ) -> Dict[str, float]:
    """Per-layer metrics of one traced serve cycle."""
    from repro.serve.store import JobStore

    ticks = _ms(tracer.durations("serve.tick"))
    tick_tail, _, _ = tail(ticks)
    metrics = _serve_exec_metrics(hosted.state)
    metrics.update(span_metrics(tracer, []))
    metrics.update({
        "serve.tick_ms_p50": median(ticks),
        "serve.tick_ms_tail": tick_tail,
        "serve.loads": len(tracer.named("serve.load")),
        "serve.load_ms_p50": median(_ms(tracer.durations("serve.load"))),
        "serve.append_ms_p50": median(
            _ms(tracer.durations("serve.append"))),
        "serve.records": JobStore(hosted.state).load().records,
        "serve.daemon_cpu_s": hosted.daemon_cpu_s,
        "serve.jobs_per_s": hosted.done / hosted.makespan,
    })
    metrics.update(_serve_log_metrics(hosted.state, hosted.first_new))
    return metrics


def _serve_log_metrics(state: Path, first_new: int) -> Dict[str, float]:
    """Queue wait, execution time and extra leases of the jobs this
    cycle submitted, from the log's own ``t`` stamps."""
    from repro.exec.journal import JournalError, decode_record

    jobs: Dict[str, Dict[str, Any]] = {}
    for line in (state / "jobs.log").read_text().splitlines():
        try:
            rec = decode_record(line)
        except JournalError:
            continue
        job = rec.get("job", "")
        if not job.startswith("job-") or int(job[4:]) < first_new:
            continue
        j = jobs.setdefault(job, {"leases": []})
        if rec["type"] == "job_submitted":
            j["submitted"] = rec["t"]
        elif rec["type"] == "job_leased":
            j["leases"].append(rec["t"])
        elif rec["type"] in ("job_done", "job_failed", "job_cancelled"):
            j["end"] = rec["t"]
    waits = [j["leases"][0] - j["submitted"] for j in jobs.values()
             if j["leases"] and "submitted" in j]
    execs = [j["end"] - j["leases"][-1] for j in jobs.values()
             if j["leases"] and "end" in j]
    extra = sum(max(0, len(j["leases"]) - 1) for j in jobs.values())
    return {
        "serve.queue_wait_s_p50": median(waits),
        "serve.exec_s_p50": median(execs),
        "serve.extra_leases_per_job": extra / len(jobs) if jobs else 0.0,
    }


def _serve_exec_metrics(state: Path) -> Dict[str, float]:
    """The engine runs inside each job's worker: its task times come
    from the per-job journals, its wall from the result documents."""
    from repro.exec.journal import JournalError, decode_record

    tasks: List[Tuple[str, float]] = []
    appends = 0
    for path in sorted((state / "journals").glob("*.jsonl")):
        for line in path.read_text().splitlines():
            appends += 1
            try:
                rec = decode_record(line)
            except JournalError:
                continue
            if rec["type"] == "task_done":
                tasks.append(("", float(rec["seconds"])))
    walls = [json.loads(p.read_text())["document"]["volatile"]
             ["total_seconds"] for p in (state / "results").glob("*.json")]
    return exec_metrics(tasks, 1, sum(walls), appends)


def warm_up(work: Path, name: str) -> None:
    """The workload's command at CI scale, in this process and unjudged,
    so that imports and first-call costs land in neither the base nor
    the traced repetition."""
    args = ["ci" if a == "paper" else a for a in RUN_ARGS[name]]
    host_run(work / "warm", args, None, None)


def run(root: Path, work: Path, out_dir: Path, name: str, seed: int,
        reference: str, deadline: float
        ) -> Tuple[Dict[str, float], Sample, Dict[str, Any]]:
    """Probes, then ``TRACE_PAIRS`` pairs of repetitions hosted in this
    process, each an untraced base and a traced repetition that differ
    only in the wrappers.  The layer metrics come from the first traced
    repetition.  Spans and the host record (also returned) go to
    ``out_dir``.

    ``trace.overhead_ratio`` is the median over the pairs of traced /
    base wall: the engine wall for run workloads, the closed loop's
    makespan for serve.  The pairs run in opposite orders (base first,
    then traced first), so a host that speeds up or slows down steadily
    over the run biases the two ratios in opposite directions."""
    host = stream_probe()
    host["cli.import_s"] = cli_import_probe(root)
    host["sw.round16.ns_per_elem"] = round16_probe(seed)
    run_id = f"{name}-seed{seed}-pid{os.getpid()}"
    sample = Sample()
    if name == "serve-aged-log":
        template, job_digest = prepare_serve(root, work, seed, reference,
                                             sample, deadline)

        def base(i: int) -> Optional[float]:
            return host_serve(work / f"base{i}", template, job_digest,
                              sample, deadline).makespan

        def traced(i: int, tracer: Tracer):
            with tracing(tracer):
                hosted = host_serve(work / f"traced{i}", template,
                                    job_digest, sample, deadline)
            return serve_layer_metrics(tracer, hosted), hosted.makespan
    else:
        warm_up(work, name)

        def base(i: int) -> Optional[float]:
            return host_run(work / f"base{i}", RUN_ARGS[name], reference,
                            sample)

        def traced(i: int, tracer: Tracer):
            with tracing(tracer):
                wall = host_run(work / f"traced{i}", RUN_ARGS[name],
                                reference, sample)
            return run_layer_metrics(tracer), wall

    host["host.pace"] = idle_pace(2.0)
    ratios: List[float] = []
    tracers: List[Tracer] = []
    metrics: Dict[str, float] = {}
    for i in range(TRACE_PAIRS):
        tracer = Tracer(run_id=f"{run_id}-rep{i}")
        tracers.append(tracer)
        if i % 2:
            layer, traced_wall = traced(i, tracer)
            base_wall = base(i)
        else:
            base_wall = base(i)
            layer, traced_wall = traced(i, tracer)
        metrics = metrics or layer
        if base_wall and traced_wall:
            ratios.append(traced_wall / base_wall)
    metrics["trace.overhead_ratio"] = median(ratios)
    metrics.update(host)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"spans-{run_id}.jsonl", "w") as f:
        for tracer in tracers:
            tracer.write_to(f)
    record = {**host, "trace.overhead_ratios": ratios}
    (out_dir / f"host-{run_id}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return metrics, sample, record
