"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from quivercount import bruteforce, hall, quiver  # noqa: E402
from quivercount.localring import ORing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def reduced_pass(workload, tmp_path, tracer=None):
    jobs = workloads.make_jobs(workload, 7, reduced=True)
    workloads.write_inputs(jobs, tmp_path / workload)
    results, errors, _, _ = worker.run_pass(jobs, tracer)
    return jobs, {"results": results, "errors": errors}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_run_emits_every_metric(workload, trace):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--reduced"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    meta = json.loads(meta_line)["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["failed_frac"] == 0 and meta["failures"] == {}
    for key in ("nproc", "python", "numpy", "commit", "seed", "job_counts", "loc"):
        assert key in meta
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_same_seed_same_jobs_and_seeds_differ():
    def signature(jobs):
        return [(j.kind, sorted(j.args.items()), j.quiver) for j in jobs]
    for workload in workloads.WORKLOADS:
        first = workloads.make_jobs(workload, 11)
        assert signature(first) == signature(workloads.make_jobs(workload, 11))
        assert signature(first) != signature(workloads.make_jobs(workload, 12))
        other = workloads.make_jobs(workload, 12)
        assert workloads.job_counts(first) == workloads.job_counts(other)
        assert len(first) >= 100
        # Hall jobs share caches, so they keep one order whatever the seed
        assert ([(j.kind, j.args) for j in first if j.kind in ("hall-assoc", "hall-coproduct")]
                == [(j.kind, j.args) for j in other if j.kind in ("hall-assoc", "hall-coproduct")])


def test_wrong_oracle_value_is_a_failure(tmp_path, monkeypatch):
    jobs, report = reduced_pass("orbits", tmp_path)
    attempted, failed, failures = run.check_passes(jobs, [report])
    assert (attempted, failed, failures) == (len(jobs), 0, {})

    # an oracle that is off by one fails every job that consults it
    toric = workloads.Oracles.toric
    monkeypatch.setattr(workloads.Oracles, "toric",
                        lambda self, Q, alpha, q: toric(self, Q, alpha, q) + 1)
    _, failed, failures = run.check_passes(jobs, [report])
    consulted = sum(job.kind in ("census", "orbits-rank1") for job in jobs)
    assert failed == consulted > 0
    assert all("census" in key or "orbits-rank1" in key for key in failures)
    monkeypatch.undo()

    # a wrong result, and a result that changes between passes
    idx = next(i for i, job in enumerate(jobs) if job.kind == "census")
    wrong = {"results": list(report["results"]), "errors": report["errors"]}
    wrong["results"][idx] += 1
    _, failed, failures = run.check_passes(jobs, [wrong])
    assert failed == 1 and f"{idx}:census" in failures
    _, failed, failures = run.check_passes(jobs, [report, wrong])
    assert failed == 1 and "differs" in failures[f"{idx}:census"]


def test_raised_job_is_a_failure(tmp_path):
    job = workloads.Job("fiber-zero", {"family": "loop", "n": 2, "rank": (2,), "alpha": 2,
                                       "q": 7, "jobs": 1}, quiver.loop_quiver(2))
    workloads.write_inputs([job], tmp_path)
    results, errors, _, _ = worker.run_pass([job])
    assert results == [None] and "exit code 3" in errors[0]
    _, failed, _ = run.check_passes([job], [{"results": results, "errors": errors}])
    assert failed == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_results_identical(workload, tmp_path):
    before = {name: dict(vars(module)) for name, module in sys.modules.items()
              if name.startswith("quivercount")}
    classes = {cls: dict(vars(cls)) for cls in (hall.HallFunction,)}
    jobs, plain = reduced_pass(workload, tmp_path / "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced = reduced_pass(workload, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(error is None for error in plain["errors"])
    assert tracer.stats and tracer.stats["cli.main"][0] == sum(bool(j.argv) for j in jobs)
    after = {name: dict(vars(module)) for name, module in sys.modules.items()
             if name.startswith("quivercount")}
    assert after == before
    assert {cls: dict(vars(cls)) for cls in classes} == classes


def test_tracer_patches_imported_names_and_counts_self_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ring_module = sys.modules["quivercount.localring"]
        assert bruteforce.kernel_size_exponent is ring_module.kernel_size_exponent
        assert hasattr(bruteforce.kernel_size_exponent, "__wrapped__")
        Q = quiver.a2_quiver()
        with tracer.job():
            bruteforce.moment_fiber_count(Q, 1, (1, 1), 3)
        bruteforce.moment_fiber_count(Q, 1, (1, 1), 3)  # outside a job: not recorded
    finally:
        tracer.uninstall()
    calls, self_s = tracer.stats["bruteforce.moment_fiber_count"]
    assert calls == 1 and self_s >= 0
    assert tracer.stats["localring.smith_invariants"][0] == 2  # one per valuation pattern
    assert tracer.counts["localring.smith_invariants.entries"] == 2 * 2 * 1
    metrics = tracing.layer_metrics(tracer.stats, tracer.counts)
    assert metrics["bruteforce.moment_matrix.calls"] == 2
    assert not hasattr(bruteforce.kernel_size_exponent, "__wrapped__")


def test_cache_hits_are_counted_by_key():
    tracer = tracing.Tracer()
    e1 = hall.HallFunction.indicator((1, 0), 1, (0,))
    e2 = hall.HallFunction.indicator((0, 1), 1, (0,))
    tracer.install()
    try:
        with tracer.job():
            hall.hall_product(e1, e2, 5)
            hall.hall_product(e1, e2, 5)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.stats, tracer.counts)
    assert metrics["hall.hall_product.calls"] == 2
    assert metrics["hall.flag_table.hit_ratio"] == 0.5


@pytest.mark.parametrize("n,k,q,alpha", [(2, 1, 2, 1), (2, 1, 3, 2), (2, 2, 2, 2), (3, 1, 2, 2)])
def test_free_summand_count_matches_enumeration(n, k, q, alpha):
    ring = ORing(q, alpha)
    assert workloads.free_summand_count(n, k, q, alpha) == len(hall.free_summands(ring, n, k))


@pytest.mark.parametrize("rank,alpha,q", [((1, 2), 1, 3), ((2, 1), 2, 2), ((1, 3), 1, 2)])
def test_a2_zero_fiber_matches_enumeration(rank, alpha, q):
    count = bruteforce.moment_fiber_count(quiver.a2_quiver(), alpha, rank, q)
    assert workloads._a2_zero_fiber(max(rank), alpha, q) == count


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "brute", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
