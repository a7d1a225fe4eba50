"""One benchmark pass in a fresh process: set up, run the job list, report.

Usage (started by run.py, one process per pass):
    python3 bench/worker.py --workload W --seed N [--trace] [--setup-only] [--reduced]

Set-up is the time from the start of this script to the end of input
generation: importing quivercount, building the job list from the seed
and writing the input files.  The pass then runs the jobs back to back, one
at a time, and prints one JSON report on stdout.  Results are checked by
the parent, not here, so checking costs no job time.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident set size of this process and of its reaped pool
    workers, whichever is larger (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def run_pass(jobs, tracer=None):
    """Run every job once; returns (results, errors, latencies, wall)."""
    results, errors, latencies = [], [], []
    clock = time.perf_counter
    wall_start = clock()
    for job in jobs:
        start = clock()
        try:
            if tracer is None:
                result = workloads.run_job(job)
            else:
                with tracer.job():
                    result = workloads.run_job(job)
            error = None
        except (Exception, SystemExit) as exc:  # a failed job is a result, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        results.append(result)
        errors.append(error)
    return results, errors, latencies, clock() - wall_start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, args.reduced)
        workloads.write_inputs(jobs, workdir)
        setup_s = time.perf_counter() - START
        report = {"setup_s": setup_s}
        if not args.setup_only:
            tracer = None
            if args.trace:
                from tracing import Tracer
                tracer = Tracer()
                tracer.install()
            try:
                results, errors, latencies, wall = run_pass(jobs, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            report.update(results=results, errors=errors, latencies=latencies, wall_s=wall,
                          peak_rss_mb=_peak_rss_mb())
            if tracer is not None:
                report.update(stats=tracer.stats, counts=tracer.counts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
