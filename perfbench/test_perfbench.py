"""Self-tests of the benchmark's own logic.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from perfbench import agedlog, workloads  # noqa: E402
from perfbench.measure import tail  # noqa: E402
from perfbench.traced import Tracer  # noqa: E402


def deadline() -> float:
    return time.monotonic() + 60


def test_tail_with_fewer_than_eleven_samples_is_the_median():
    assert tail([]) == (0.0, 0, 0)
    assert tail([3.0]) == (3.0, 50, 0)
    assert tail([5.0, 1.0, 3.0, 2.0, 4.0]) == (3.0, 50, 2)
    assert tail([float(x) for x in range(10)]) == (4.5, 50, 5)


def test_tail_never_falls_below_the_median():
    assert tail([float(x) for x in range(11)]) == (5.0, 50, 5)
    assert tail([float(x) for x in range(1, 21)]) == (10.5, 50, 10)
    assert tail([float(x) for x in range(1, 22)]) == (11.0, 52, 10)


def test_tail_leaves_ten_samples_beyond():
    assert tail([float(x) for x in range(1, 101)]) == (90.0, 90, 10)
    for n in range(21, 200):
        value, pct, beyond = tail([float(x) for x in range(n)])
        assert beyond >= 10 and pct > 50
        assert sum(1 for x in range(n) if x > value) == beyond


def test_perturbed_reference_fails_every_run(tmp_path):
    reference = workloads.load_reference()["serve-aged-log"]
    sample = workloads.Sample()
    workloads.run_once(ROOT, tmp_path / "ok", workloads.DIRECT_ARGS,
                       reference, sample, deadline())
    assert (sample.attempted, sample.failed) == (1, 0)
    perturbed = ("0" if reference[0] != "0" else "1") + reference[1:]
    sample = workloads.Sample()
    for i in range(2):
        workloads.run_once(ROOT, tmp_path / f"bad{i}", workloads.DIRECT_ARGS,
                           perturbed, sample, deadline())
    assert sample.failed / sample.attempted == 1
    assert sample.wrong == 2


def test_check_run_judges_exit_claims_and_digest():
    from perfbench.measure import digest_text

    report = "[PASS] fig1 (Fig. 1)\n    ok   a claim\n"
    stdout = report + "experiment engine: jobs=1, wall=1.250s\n"
    assert workloads.check_run(0, stdout, digest_text(report)) == \
        (None, False, 1.25)
    why, wrong, _ = workloads.check_run(1, stdout, digest_text(report))
    assert why == "exit status 1" and not wrong
    why, wrong, _ = workloads.check_run(
        1, stdout.replace("[PASS]", "[FAIL]"), digest_text(report))
    assert why == "a claim FAILed" and wrong
    why, wrong, _ = workloads.check_run(0, report, digest_text(report))
    assert why.startswith("no engine wall") and not wrong


@pytest.mark.parametrize("seed", [1, 7])
def test_aged_log_replays_to_its_exact_record_count(tmp_path, seed):
    age = agedlog.build_template(tmp_path / "t", seed)
    assert age["records"] == agedlog.AGED_RECORDS
    assert 5.0 < age["worker_hours"] < 6.0
    from repro.serve.store import JobStore

    state = JobStore(tmp_path / "t").load()
    assert state.records == agedlog.AGED_RECORDS
    assert state.corrupt_records == 0 and not state.torn_tail
    assert all(job.status == "done" for job in state.jobs.values())


def test_aged_log_is_a_function_of_the_seed(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        agedlog.build_history(tmp_path / name, seed, records=500)
    a, b, c = ((tmp_path / n).read_bytes() for n in "abc")
    assert a == b and a != c
    assert a.count(b"\n") == 500


def test_failed_jobs_stay_in_latency_and_failed_ratio():
    sample = workloads.Sample()
    workloads.judge_job({"job_id": "job-1", "status": "failed",
                         "digests": {"run": "x"}}, "x", sample)
    workloads.judge_job({"job_id": "job-2", "status": "done",
                         "digests": {"run": "y"}}, "x", sample)
    workloads.judge_job({"job_id": "job-3", "status": "done",
                         "digests": {"run": "x"}}, "x", sample)
    assert (sample.attempted, sample.failed, sample.wrong) == (3, 2, 1)


def test_requeues_past_the_default_budget_are_counted():
    log = ("job-000065: requeued (lease-expired), attempt 2 in 0.31s\n"
           "job-000065: requeued (lease-expired), attempt 3 in 0.70s\n"
           "job-000065: requeued (lease-expired), attempt 4 in 1.52s\n"
           "job-000066: requeued (daemon-restart), attempt 2 in 0.40s\n")
    assert workloads.count_requeues(log) == (4, 1)
    assert workloads.count_requeues("") == (0, 0)


def test_serve_cycle_counts_mismatched_jobs(tmp_path):
    """A real daemon on a short log: jobs whose digest misses the
    reference are failed operations that keep their latency sample."""
    template = tmp_path / "template"
    template.mkdir()
    agedlog.build_history(template / "jobs.log", seed=1, records=300)
    sample = workloads.Sample()
    tree, makespan = workloads.serve_cycle(
        ROOT, tmp_path / "start", template, "0" * 16, sample, deadline())
    assert (tree.returncode, makespan, sample.attempted) == (0, 0.0, 0)
    assert len(sample.setups) == 1 and not sample.rates
    n = 2
    tree, makespan = workloads.serve_cycle(
        ROOT, tmp_path / "cycle", template, "0" * 16, sample, deadline(),
        more=workloads.n_jobs(n))
    sample.trees.append(tree)
    assert makespan >= sum(sample.latencies) > 0
    assert len(sample.latencies) == n
    assert (sample.attempted, sample.failed, sample.wrong) == (n, n, n)
    assert sample.trees[0].returncode == 0 and len(sample.setups) == 2
    _, extra = sample.metrics()
    assert extra["jobs_per_s"] == 0.0
    assert extra["job_latency_p50_s"] > 0


def test_hosted_run_that_raises_is_a_failed_operation(tmp_path,
                                                      monkeypatch):
    import repro.cli

    from perfbench import traced

    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(repro.cli, "main", broken)
    sample = workloads.Sample()
    tracer = Tracer("t")
    with traced.tracing(tracer):
        wall = traced.host_run(tmp_path / "rep", ["run", "fig1"], "x",
                               sample)
    assert wall is None
    assert (sample.attempted, sample.failed, sample.wrong) == (1, 1, 0)
    assert "boom" in sample.notes[0]
    metrics = traced.run_layer_metrics(tracer)
    assert metrics["exec.tasks"] == 0 and metrics["mpi.worlds"] == 0
    monkeypatch.setattr(repro.cli, "main", lambda argv: 0)
    assert traced.host_run(tmp_path / "rep2", ["run", "fig1"], "x",
                           sample) is None
    assert sample.failed == 2 and "no engine wall" in sample.notes[1]


def test_self_time_excludes_children_and_tallies():
    tracer = Tracer("t")

    class Layer:
        def hot(self):
            return 1

    tracer.tally(Layer, "hot", "layer.hot")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        Layer().hot()
    tracer.unwrap()
    spans = {s["name"]: s for s in tracer.finished()}
    outer, inner = spans["outer"], spans["inner"]
    assert inner["parent"] == outer["id"]
    assert outer["self"] == pytest.approx(
        outer["duration"] - inner["duration"] - outer["tallied"])
    assert tracer.tallies["layer.hot"][0] == 1
    assert Layer.__dict__["hot"].__name__ == "hot"


def test_tree_kills_its_whole_group_at_the_deadline(tmp_path):
    from perfbench.measure import Tree

    pid_file = tmp_path / "grandchild.pid"
    script = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
        "time.sleep(60)\n"
    )
    tree = Tree([sys.executable, "-c", script], ROOT, tmp_path)
    result = tree.wait(time.monotonic() + 2.0)
    assert result.returncode == -9 and result.wall_s < 10
    grandchild = int(pid_file.read_text())
    for _ in range(200):  # reaped by init once killed
        try:
            os.kill(grandchild, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    else:
        raise AssertionError("grandchild outlived its group")


def test_pace_sampler_reads_every_cpu_and_restores_nothing_else():
    from perfbench.measure import PaceSampler

    before = os.sched_getaffinity(0)
    with PaceSampler() as pacer:
        time.sleep(0.2 * (len(before) + 1))
    assert all(pacer.calls[cpu] for cpu in before)
    assert pacer.pace() > 0
    assert os.sched_getaffinity(0) == before
