"""Run ovfree CLI jobs, each in a wrapper process, and print that process's
own peak RSS, CPU time, system time and minor page faults.

    python3 tools/job_peak.py [--checkout DIR] [--baseline DIR] [--runs N] [--] <ovfree CLI arguments...>
    python3 tools/job_peak.py [--checkout DIR] [--baseline DIR] [--runs N] --workload NAME [--seed S]

The first form runs one command line, such as ``convolve-power --in x.json``;
a leading ``--`` is dropped, so ``-- --help`` times ovfree's own --help.  The
second runs every job that bench/workloads.make_jobs writes for the workload
at the seed (1 by default), written once into a temporary directory.  Each
run is a fresh Python process with PYTHONPATH set to the checkout's src only
(this one by default) and one BLAS/OpenMP thread.  It calls ovfree.cli.main
with stdout sent to /dev/null and, once main returns or exits (argparse's
--help and usage errors raise SystemExit, whose code is reported), reads its
own VmHWM from /proc/self/status and, from getrusage, its user plus system
CPU time, its system time alone and its minor page faults (getrusage counts
microseconds where os.times() counts 10 ms ticks).
These are the job's own figures: a benchmark that reads a child's ru_maxrss
also counts the high-water RSS the child inherited from its parent at exec.  Each run prints one line; with more than one run, a
last line per job gives the medians.

With --baseline, each run is a pair: one run in the checkout and one in the
baseline, in alternating order, so that a drift of the host's speed falls on
both alike.  The last line per job then gives both medians and the number
of pairs in which the checkout used less CPU time.  Linux only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FIGURES = {"vmhwm_mb": ".1f", "cpu_s": ".3f", "stime_s": ".3f", "minflt": ".0f", "wall_s": ".3f"}  # each with its format
WRAPPER = """\
import json, os, resource, sys, time
wall = time.perf_counter()
from ovfree.cli import main
stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
wall = time.perf_counter() - wall
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
usage = resource.getrusage(resource.RUSAGE_SELF)
stdout.write(json.dumps({"exit": code, "vmhwm_mb": hwm / 1024, "cpu_s": usage.ru_utime + usage.ru_stime,
                         "stime_s": usage.ru_stime, "minflt": usage.ru_minflt, "wall_s": wall}))
"""


def measure(checkout: str, argv: list) -> dict:
    """The wrapper's exit code, VmHWM in MB, CPU and system CPU seconds, minor page faults and wall seconds for
    one run of argv."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    proc = subprocess.run([sys.executable, "-c", WRAPPER, *argv], env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout:
        raise SystemExit(f"wrapper failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _figures(row: dict) -> str:
    """The figures of a run, or their medians, as "name value" pairs."""
    return " ".join(f"{key} {row[key]:{form}}" for key, form in FIGURES.items())


def report(label: str, checkouts: list, argv: list, runs: int) -> None:
    """Run argv runs times in each checkout, the checkout first and then the
    baseline if there is one, the order swapped in every other pair."""
    names = [label, f"{label} baseline"][: len(checkouts)]
    rows = [[] for _ in checkouts]
    for i in range(runs):
        for j in sorted(range(len(checkouts)), reverse=i % 2 == 1):
            row = measure(checkouts[j], argv)
            rows[j].append(row)
            print(f"{names[j]} run {i + 1}: exit {row['exit']} {_figures(row)}", flush=True)
    if runs == 1 and len(checkouts) == 1:
        return
    medians = []
    for name, own in zip(["", "baseline "], rows):
        medians.append(name + _figures({key: statistics.median(row[key] for row in own) for key in FIGURES}))
    if len(checkouts) > 1:
        won = sum(mine["cpu_s"] < theirs["cpu_s"] for mine, theirs in zip(*rows))
        medians.append(f"won {won} of {runs} on cpu_s")
    print(f"{label} median of {runs}: " + " | ".join(medians), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--checkout", default=ROOT, help="the checkout whose src is run (default: this one)")
    parser.add_argument("--baseline", help="a second checkout, run in alternation with the first")
    parser.add_argument("--runs", type=int, default=1, help="runs per job (default 1)")
    parser.add_argument("--workload", help="run every bench job of this workload instead of a command line")
    parser.add_argument("--seed", type=int, default=1, help="the workload's seed (default 1)")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="ovfree CLI arguments")
    args = parser.parse_args(argv)
    if args.cli[:1] == ["--"]:
        del args.cli[0]
    checkouts = [os.path.abspath(path) for path in (args.checkout, args.baseline) if path is not None]
    for checkout in checkouts:
        if not os.path.isdir(os.path.join(checkout, "src", "ovfree")):
            parser.error(f"{checkout} has no src/ovfree")
    if (args.workload is None) == (not args.cli):
        parser.error("give either ovfree CLI arguments or --workload")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.cli:
        report(" ".join(args.cli[:1]), checkouts, args.cli, args.runs)
        return 0
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import WORKLOADS, make_jobs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    with tempfile.TemporaryDirectory() as workdir:
        for job in make_jobs(args.workload, args.seed, workdir):
            report(f"{args.workload} seed {args.seed} {job.name}", checkouts, [job.command, "--in", job.infile, *job.args], args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
