"""Benchmark of quivercount: whole jobs end to end, and each layer traced.

    python3 bench/run.py --workload brute|symbolic|orbits --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Each pass is a fresh process (worker.py) that acts as a
single closed-loop client: it sets up, then issues the workload's jobs one at
a time, back to back.  Passes repeat for about ``--seconds``: another pass
starts only when the run then ends nearer to ``--seconds`` than it would by
stopping.  With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics come from the traced ones.

Every job result is checked against an independent oracle after the passes
end.  The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
metadata.  See README.md for the metrics, workloads and oracles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# set-up samples per run: the passes' own, topped up with set-up-only runs
MIN_SETUP_SAMPLES = 5
# a run that is not done by then is stopped, with its workers
RUN_LIMIT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
              "peak_rss_mb": "MiB", "ok_frac": "ratio"}
LOC_MODULES = ("localring", "bruteforce", "qpolynomial", "series", "kacpoly", "hall",
               "quiver", "closedforms", "cli", "verify", "errors", "__init__")


class WorkerError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith(".loc"):
        return "lines"
    return "count"


def run_worker(args, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON report.

    A worker still running at the deadline (a perf_counter value) is killed
    with its whole process group, pool workers included."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker {' '.join(args)} still running after {RUN_LIMIT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def line_counts() -> dict:
    counts = {}
    for module in LOC_MODULES:
        path = SRC / "quivercount" / f"{module}.py"
        counts[f"{module.strip('_')}.loc"] = (len(path.read_text().splitlines())
                                              if path.is_file() else 0)
    counts["src.loc"] = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return counts


def check_passes(jobs, passes):
    """Check every job result of every pass against its oracle and against
    the first pass.  Returns (attempted, failed, failures), failures mapping
    'index:kind' to the first reason seen."""
    import workloads
    oracles = workloads.Oracles()
    reference = passes[0]["results"]
    verdicts = {}
    attempted = 0
    failures = {}
    failed = 0
    for p in passes:
        for idx, (job, result, error) in enumerate(zip(jobs, p["results"], p["errors"])):
            attempted += 1
            if error:
                reason = error
            elif result != reference[idx]:
                reason = "result differs from the first pass"
            else:
                if idx not in verdicts:
                    try:
                        verdicts[idx] = oracles.check(job, result)
                    except Exception as exc:  # a malformed result fails its job
                        verdicts[idx] = f"oracle raised {type(exc).__name__}: {exc}"
                reason = verdicts[idx]
            if reason:
                failed += 1
                failures.setdefault(f"{idx}:{job.kind}", reason)
    return attempted, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reduced", action="store_true",
                        help="one job per light stratum (for the benchmark's tests)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "quivercount" / "__init__.py").is_file():
        print(f"bench: no quivercount sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import quivercount
    import tracing
    import workloads
    if Path(quivercount.__file__).resolve().parent != (SRC / "quivercount").resolve():
        print(f"bench: imported quivercount from {quivercount.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    jobs = workloads.make_jobs(args.workload, args.seed, args.reduced)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.reduced:
        base.append("--reduced")
    modes = [False, True] if args.trace else [False]
    passes = []
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    try:
        rounds = 0
        while True:
            for traced in modes:
                report = run_worker(base + (["--trace"] if traced else []), deadline)
                report["traced"] = traced
                passes.append(report)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds / 2 >= args.seconds:
                break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_worker(base + ["--setup-only"], deadline)["setup_s"])
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    for p in passes:
        if len(p["results"]) != len(jobs):
            print("bench: a worker ran a different job list", file=sys.stderr)
            return 1

    attempted, failed, failures = check_passes(jobs, passes)
    plain = [p for p in passes if not p["traced"]]
    # a shared machine's speed drifts from pass to pass, so times are taken
    # over every pass of the run (wall_s a mean, latency percentiles over all
    # job runs), which averages the drift over the whole run
    latencies = [x for p in plain for x in p["latencies"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [tracing.layer_metrics(p["stats"], p["counts"]) for p in traced]
        # counts repeat exactly from pass to pass; times take the mean
        values = {name: (statistics.median_low if layer_unit(name) == "count"
                         else statistics.fmean)(m[name] for m in per_pass)
                  for name in per_pass[0]}
        values["trace.overhead_s"] = (statistics.fmean(p["wall_s"] for p in traced)
                                      - statistics.fmean(p["wall_s"] for p in plain))
        values.update(line_counts())
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(p["wall_s"] for p in plain),
            "job_p50_ms": statistics.median(latencies) * 1000,
            "job_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "ok_frac": 1 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "reduced": args.reduced,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(ROOT),
        "jobs_per_pass": len(jobs), "job_counts": workloads.job_counts(jobs),
        "passes": len(plain), "traced_passes": len(passes) - len(plain),
        "latency_samples": len(latencies), "setup_samples": len(setups),
        "failed_frac": failed / attempted, "failures": failures,
        "loc": line_counts(),
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
