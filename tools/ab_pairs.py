"""Time one benchmark job on this checkout and on another, in alternating
fresh CLI processes, and report both sides and their paired ratio.

    python3 tools/ab_pairs.py <other checkout or git revision> <workload> <job> [--pairs N] [--seed S] [--tiny]

The other side is a checkout's directory or a git revision of this
repository, exported as tools/same_bytes.py does.  The job is the one named
<job> (such as ``verify-k2-N5-r1``) among those bench/workloads.make_jobs
writes for the workload at the seed (1 by default; --tiny for its
smoke-test sizes), written once into a temporary directory and read by both
checkouts.  Each pair runs the job once on each side, this checkout first in
odd pairs and second in even ones, so that a drift of the host's speed
falls on both alike.  Each run is a fresh ``ovfree`` CLI process with
same_bytes' environment (PYTHONPATH set to that checkout's src only, no
bytecode written, one BLAS/OpenMP thread), its stdout discarded; the tool
pins itself, and so every run, to one CPU.  A run's wall time is taken
around the process and its CPU time (user plus system) from os.wait4.

One line per pair gives both runs; then, for each side, the median and the
quartiles of wall_s and cpu_s; then, for each, the median of the paired
ratios this/other and the number of pairs in which this checkout took less.
The exit code is 0 when every run exits 0, and 1 otherwise.  Linux only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

import same_bytes

FIGURES = ("wall_s", "cpu_s")


def timed(checkout: str, job: same_bytes.Job, workdir: str) -> dict:
    """The exit code, wall and CPU seconds of one run of job on checkout."""
    with open(os.path.join(workdir, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(same_bytes.job_argv(job), env=same_bytes.child_env(checkout), cwd=workdir,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait for it again
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime}


def _run_text(row: dict) -> str:
    return f"exit {row['exit']} " + " ".join(f"{key} {row[key]:.4f}" for key in FIGURES)


def _spread(values: list) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {median:.4f} q1 {q1:.4f} q3 {q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other", help="the checkout or git revision to compare with, such as the parent commit")
    parser.add_argument("workload", choices=same_bytes.WORKLOADS)
    parser.add_argument("job", help="the job's name, as bench/run.py prints it")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10, at least 2)")
    parser.add_argument("--seed", type=int, default=1, help="the workload's seed (default 1)")
    parser.add_argument("--tiny", action="store_true", help="the workload's smoke-test sizes")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as workdir:
        try:
            other = same_bytes.resolve(args.other, workdir)
        except ValueError as exc:
            parser.error(str(exc))
        jobs = {job.name: job for job in same_bytes.make_jobs(args.workload, args.seed, workdir, tiny=args.tiny)}
        if args.job not in jobs:
            parser.error(f"{args.workload} at seed {args.seed} has no job {args.job}; its jobs: {', '.join(jobs)}")
        job, label = jobs[args.job], f"{args.workload} seed {args.seed} {args.job}"
        rows = {"this": [], "other": []}
        for i in range(args.pairs):
            sides = [("this", same_bytes.ROOT), ("other", other)]
            for side, checkout in sides[:: -1 if i % 2 else 1]:
                rows[side].append(timed(checkout, job, workdir))
            print(f"{label} pair {i + 1}: this {_run_text(rows['this'][-1])} | other {_run_text(rows['other'][-1])}",
                  flush=True)
    for side, own in rows.items():
        print(f"{side}: " + " | ".join(f"{key} {_spread([row[key] for row in own])}" for key in FIGURES))
    paired = []
    for key in FIGURES:
        ratios = [mine[key] / theirs[key] for mine, theirs in zip(rows["this"], rows["other"])]
        won = sum(ratio < 1 for ratio in ratios)
        paired.append(f"{key} median ratio {statistics.median(ratios):.4f}, won {won} of {args.pairs}")
    print("this/other: " + " | ".join(paired))
    return 1 if any(row["exit"] for own in rows.values() for row in own) else 0


if __name__ == "__main__":
    sys.exit(main())
