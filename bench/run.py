"""ovfree benchmark: seeded CLI workloads, a correctness gate and a traced run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: transform, freeness, dichotomy, bulk-io (bench/README.md gives
their sizes, why each was chosen and which layer each one stresses).

The benchmark is a closed loop with one client.  It writes the workload's
seeded JSON inputs under .bench_work/ and runs the job list in whole passes,
each job a fresh ``ovfree`` CLI process (interpreter start, import, JSON in and
out all count), one at a time, pinned to one CPU with one BLAS/OpenMP thread.
A run makes at least one pass and starts another while less than --seconds
have passed, so every job runs equally often.  Every output goes through
bench/gate.py; a failed job counts in ``failed`` and makes the run exit 1.

--trace 0 reports the end-to-end metrics.  Their times are calibrated to a
reference CPU speed: while a job runs, a probe thread pinned to the job's CPU
times a fixed unit of interpreter work every PROBE_PERIOD_S, and the job's
wall time, less the probe's own time, is scaled by PROBE_NOMINAL_S / (median
probe time).  This cancels most of the drift in the speed of a shared
machine's CPU; the raw wall times are printed as well.  --trace 1 runs each
job once plainly and once under bench/trace_child.py in every pass, and
reports per-pass layer self times and counters and the tracing overhead
(uncalibrated).  The last stdout line is one JSON object: {"correct",
"attempted", "failed", "metrics"}.

The benchmark's own tests: python3 -m pytest -q bench/tests/check_bench.py
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import gate
from workloads import WORKLOADS, Job, make_jobs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CLI = "import sys; from ovfree.cli import main; sys.exit(main())"
LAYERS = ("cli", "serialize", "ovdist", "multimap", "ncpart", "cpmaps", "fock", "freeprod", "converse", "algebra")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
DEADLINE_S = 150.0  # a run ends within 180 s: no job outlives this deadline
PROBE_PERIOD_S = 0.01
PROBE_NOMINAL_S = 300e-6  # the probe unit's time at the reference CPU speed


@dataclass
class Result:
    job: Job
    wall: float
    cal: float  # wall time at the reference CPU speed
    rss_mb: float
    fails: List[str]
    traced: bool = False
    out_bytes: int = 0
    trace: Optional[Dict] = field(default=None, repr=False)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class SpeedProbe(threading.Thread):
    """Times a fixed unit of interpreter work every PROBE_PERIOD_S, on the CPU
    the creating thread is pinned to, until stopped; ``with SpeedProbe() as p``."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: List[float] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            s = 0
            for i in range(5000):
                s += i * i
            self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop_event.set()
        self.join()

    def calibrate(self, wall: float) -> float:
        """wall, less the probe's own CPU time, at the reference CPU speed."""
        if not self.samples:
            return wall
        return (wall - sum(self.samples)) * PROBE_NOMINAL_S / statistics.median(self.samples)


def run_process(argv: List[str], env, stdout_path: str, stderr_path: str,
                timeout: float) -> Tuple[int, float, float]:
    """Run argv to completion; return (exit code, wall seconds, max RSS in MB).

    A process still running after timeout is killed (exit code < 0)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(workdir: str, env) -> Tuple[List[float], List[float]]:
    """Raw and calibrated wall times of cold ``ovfree --help`` processes."""
    raw, cal = [], []
    out, err = os.path.join(workdir, "help.out"), os.path.join(workdir, "help.err")
    for _ in range(SETUP_PROBES):
        with SpeedProbe() as probe:
            code, wall, _ = run_process([sys.executable, "-c", CLI, "--help"], env, out, err, DEADLINE_S)
        if code != 0 or os.path.getsize(out) == 0:
            raise RuntimeError(f"ovfree --help failed with exit code {code}")
        raw.append(wall)
        cal.append(probe.calibrate(wall))
    return raw, cal


def run_job(job: Job, tag: str, workdir: str, env, traced: bool, rng, timeout: float = DEADLINE_S) -> Result:
    out, err = os.path.join(workdir, f"{tag}.out"), os.path.join(workdir, f"{tag}.err")
    cli_args = [job.command, "--in", job.infile, *job.args]
    if traced:
        trace_path = os.path.join(workdir, f"{tag}.trace.json")
        argv = [sys.executable, os.path.join(BENCH, "trace_child.py"), trace_path, tag, *cli_args]
    else:
        argv = [sys.executable, "-c", CLI, *cli_args]
    with SpeedProbe() as probe:
        code, wall, rss = run_process(argv, env, out, err, timeout)
    with open(out, "rb") as fh:
        stdout = fh.read()
    with open(err, "rb") as fh:
        stderr = fh.read()
    fails = gate.check(job, code, stdout, stderr, rng)
    if code < 0:
        fails.append(f"killed after {wall:.0f} s")
    result = Result(job, wall, probe.calibrate(wall), rss, fails, traced, len(stdout))
    if traced and not fails:
        with open(trace_path, encoding="utf-8") as fh:
            result.trace = json.load(fh)
    return result


def run_passes(jobs: List[Job], seconds: float, deadline: float, workdir: str, env, traced: bool, rng,
               log) -> Tuple[List[Result], int]:
    """Whole passes over the job list until seconds have passed; with traced,
    each job runs plainly and then traced.  Jobs still running at the
    deadline (a perf_counter value) are killed and the run stops."""
    results: List[Result] = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        p = passes
        for i, job in enumerate(jobs):
            for mode in ((False, True) if traced else (False,)):
                if time.perf_counter() >= deadline:
                    return results, max(passes, 1)
                tag = f"p{p}-j{i}{'-t' if mode else ''}"
                r = run_job(job, tag, workdir, env, mode, rng, deadline - time.perf_counter())
                results.append(r)
                status = "ok" if not r.fails else "FAIL " + "; ".join(r.fails)
                log(f"job {tag} {job.command} {job.name} wall={r.wall:.4f}s calibrated={r.cal:.4f}s "
                    f"rss={r.rss_mb:.1f}MB {status}")
        passes += 1
    return results, passes


# -- statistics ----------------------------------------------------------------


def tail(samples: List[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; with fewer
    than 20 samples that percentile would lie below the median, so the
    maximum (p100) is reported instead."""
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], f"p100 of n={n}"
    return s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}"


def end_to_end(results: List[Result], setup_raw: List[float], setup: List[float],
               log) -> Dict[str, Tuple[float, str]]:
    """The gated end-to-end metrics, calibrated; the rest is printed."""
    raw = [r.wall for r in results]
    walls = [r.cal for r in results]
    passed = sum(1 for r in results if not r.fails)
    log(f"raw setup_s {statistics.median(setup_raw):.4f} s, jobs_per_s {passed / sum(raw):.4f} 1/s, "
        f"job.p50_s {statistics.median(raw):.4f} s (uncalibrated wall clock)")
    log(f"metric failed_frac {(len(results) - passed) / len(results):.4f} (of {len(results)} jobs)")
    for command, cw in [("job", walls)] + [
        (c, [r.cal for r in results if r.job.command == c]) for c in sorted({r.job.command for r in results})
    ]:
        value, label = tail(cw)
        log(f"metric {command}.p50_s {statistics.median(cw):.4f} s (n={len(cw)})")
        log(f"metric {command}.tail_s {value:.4f} s ({label})")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (passed / sum(walls), "1/s"),
        "job.p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
    }


def span_self_times(trace: Dict) -> Dict[str, float]:
    """Self time per layer: each span minus the spans nested directly in it."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: Dict[str, float] = {}
    for i, (_, layer, start, end, _, _) in enumerate(spans):
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def src_lines() -> Dict[str, int]:
    counts = {}
    for path in sorted(glob.glob(os.path.join(SRC, "ovfree", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)[:-3]] = sum(1 for _ in fh)
    return counts


PEAK_COUNTS = ("ovdist.psd_dim_max", "multimap.tensor_entries_max", "algebra.psd_dim_max", "fock.D", "fock.nnz")


def per_layer(results: List[Result], passes: int, log) -> Dict[str, Tuple[float, str]]:
    """Per-pass layer self times and counters of the traced jobs."""
    traced = [r for r in results if r.traced and r.trace is not None]
    plain = [r for r in results if not r.traced]
    self_s = {layer: 0.0 for layer in LAYERS}
    counts: Dict[str, float] = {}
    for r in traced:
        for layer, value in span_self_times(r.trace).items():
            self_s[layer] += value
        for key, value in r.trace["counts"].items():
            if key in PEAK_COUNTS:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value / passes

    def layer(name: str, *keys: str) -> Dict[str, Tuple[float, str]]:
        out = {f"{name}.calls": (counts.get(f"{name}.calls", 0), "count"),
               f"{name}.self_s": (self_s[name] / passes, "s")}
        out.update({key: (counts.get(key, 0), "count") for key in keys})
        return out

    m: Dict[str, Tuple[float, str]] = {
        "cli.import_s": (sum(r.trace["import_s"] for r in traced) / passes, "s"),
        "cli.self_s": (self_s["cli"] / passes, "s"),
    }
    m.update(layer("serialize"))
    m["serialize.bytes_in"] = (sum(os.path.getsize(r.job.infile) for r in traced) / passes, "B")
    m["serialize.bytes_out"] = (sum(r.out_bytes for r in traced) / passes, "B")
    m.update(layer("ovdist", "ovdist.psd_dim_max"))
    m.update(layer("multimap", "multimap.tensor_entries_max"))
    m.update(layer("ncpart", "ncpart.partitions"))
    m.update(layer("cpmaps"))
    m.update(layer("fock", "fock.D", "fock.nnz"))
    m.update(layer("freeprod"))
    m.update(layer("converse"))
    m["algebra.psd_calls"] = (counts.get("algebra.calls", 0), "count")
    m["algebra.psd_self_s"] = (self_s["algebra"] / passes, "s")
    m["algebra.psd_dim_max"] = (counts.get("algebra.psd_dim_max", 0), "count")
    m["trace.overhead_s"] = ((sum(r.wall for r in traced) - sum(r.wall for r in plain)) / passes, "s")
    lines = src_lines()
    m["src_lines.total"] = (sum(lines.values()), "count")
    for module, n in lines.items():
        m[f"src_lines.{module}"] = (n, "count")

    wall = sum(r.wall for r in traced) / passes
    shares = {"cli.import": m["cli.import_s"][0]}
    shares.update({name: self_s[name] / passes for name in LAYERS})
    shares["outside spans (interpreter start and exit)"] = wall - sum(shares.values())
    log(f"info traced wall per pass {wall:.4f} s; self-time shares:")
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        log(f"share {name} {value:.4f} s {100.0 * value / wall:.1f}%")
    return m


def environment() -> Dict:
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "job_cpus": 1,
        "job_threads": {var: child_env()[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ovfree", "cli.py")):
        print(f"bench: no ovfree sources under {SRC}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)  # unwinds: the running job is killed, .bench_work cleaned

    signal.signal(signal.SIGTERM, terminate)
    deadline = time.perf_counter() + DEADLINE_S
    log(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    log("env " + json.dumps(environment(), sort_keys=True))
    cpus = os.sched_getaffinity(0)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # jobs inherit the pin; the speed probes share the jobs' CPU
        os.sched_setaffinity(0, {min(cpus)})
        env = child_env()
        t0 = time.perf_counter()
        jobs = make_jobs(args.workload, args.seed, workdir, tiny=args.tiny)
        log(f"info {len(jobs)} jobs per pass; inputs written in {time.perf_counter() - t0:.2f} s")
        setup_raw, setup = measure_setup(workdir, env)
        rng = np.random.default_rng([args.seed, 1])
        results, passes = run_passes(jobs, args.seconds, deadline, workdir, env, bool(args.trace), rng, log)
        if not results:
            raise RuntimeError("no job ran before the deadline")
        log(f"info {passes} passes")
        if args.trace:
            metrics = per_layer(results, passes, log)
        else:
            metrics = end_to_end(results, setup_raw, setup, log)
        for name, (value, unit) in metrics.items():
            log(f"metric {name} {value} {unit}")
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in results if r.fails)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
