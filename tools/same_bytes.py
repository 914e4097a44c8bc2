"""Run every benchmark job on this checkout and on another one, and report
each job whose stdout, stderr or exit code differ between the two.

    python3 tools/same_bytes.py <other checkout or git revision> [seed ...]

The other side is a checkout's directory, or a git revision of this
repository (``HEAD``, a commit, a branch), which is exported with
``git archive`` into the temporary directory.  Against the last commit:

    python3 tools/same_bytes.py HEAD 1 7

The jobs are those bench/workloads.make_jobs writes for every workload at
each seed (1 and 7 by default), written once into a temporary directory and
read by both checkouts.  Each job is a fresh ``ovfree`` CLI process per
checkout, with PYTHONPATH set to that checkout's src only and one
BLAS/OpenMP thread.  Where stdout differs, the line names the first place:
the path and both values (this checkout's first) when both sides are JSON
that differ in a value, else the first differing byte offset.  The last line
counts the jobs and the differences; the exit code is 0 when every job
agrees and 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import WORKLOADS, Job, make_jobs  # noqa: E402

CLI = "import sys; from ovfree.cli import main; sys.exit(main())"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FIELDS = ("stdout", "stderr", "exit code")
_MISSING = object()


def job_argv(job: Job) -> list:
    """The command line of job as a fresh ovfree CLI process."""
    return [sys.executable, "-c", CLI, job.command, "--in", job.infile, *job.args]


def child_env(checkout: str) -> dict:
    """The environment of a job run on the ovfree under checkout/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run(checkout: str, job: Job, cwd: str) -> tuple:
    """(stdout, stderr, exit code) of job on the ovfree under checkout/src."""
    proc = subprocess.run(job_argv(job), env=child_env(checkout), cwd=cwd, capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def export(revision: str, dest: str) -> str:
    """dest, holding the files of revision of this repository as git archive
    writes them; ValueError if git cannot read the revision."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", revision], capture_output=True)
    except OSError as exc:
        raise ValueError(f"cannot run git: {exc}") from None
    if proc.returncode:
        raise ValueError(f"git archive {revision}: {proc.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def resolve(other: str, workdir: str) -> str:
    """The checkout other names: its directory, or the export of the
    revision other into workdir; ValueError if it is neither or holds no
    src/ovfree."""
    checkout = os.path.abspath(other)
    if not os.path.isdir(checkout):
        try:
            checkout = export(other, os.path.join(workdir, "other"))
        except ValueError as exc:
            raise ValueError(f"{other} is neither a directory nor a revision: {exc}") from None
    if not os.path.isdir(os.path.join(checkout, "src", "ovfree")):
        raise ValueError(f"{checkout} has no src/ovfree")
    return checkout


def _text(value) -> str:
    return "(missing)" if value is _MISSING else json.dumps(value)


def _first_json_difference(ours, theirs, path: str):
    """(path, ours, theirs) at the first leaf whose JSON text differs, in
    document order, or None; a key or element only one side has is
    _MISSING on the other."""
    if isinstance(ours, dict) and isinstance(theirs, dict):
        keys = [*ours, *(key for key in theirs if key not in ours)]
        pairs = ((f"{path}.{key}" if path else key, ours.get(key, _MISSING), theirs.get(key, _MISSING)) for key in keys)
    elif isinstance(ours, list) and isinstance(theirs, list):
        pairs = ((f"{path}[{i}]", ours[i] if i < len(ours) else _MISSING, theirs[i] if i < len(theirs) else _MISSING)
                 for i in range(max(len(ours), len(theirs))))
    else:
        return None if _text(ours) == _text(theirs) else (path, ours, theirs)
    for inner, a, b in pairs:
        found = _first_json_difference(a, b, inner)
        if found:
            return found
    return None


def first_difference(ours: bytes, theirs: bytes) -> str:
    """Where two outputs first differ: "at <path>: <ours> vs <theirs>" when
    both parse as JSON and differ in a value, else "at byte <offset>"."""
    try:
        found = _first_json_difference(json.loads(ours), json.loads(theirs), "")
    except ValueError:
        found = None
    if found:
        path, a, b = found
        return f"at {path or 'the top level'}: {_text(a)} vs {_text(b)}"
    offset = next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), min(len(ours), len(theirs)))
    return f"at byte {offset}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other", help="the checkout or git revision to compare with, such as the parent commit")
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 7])
    args = parser.parse_args(argv)
    count = differ = 0
    with tempfile.TemporaryDirectory() as workdir:
        try:
            other = resolve(args.other, workdir)
        except ValueError as exc:
            parser.error(str(exc))
        for seed in args.seeds:
            for workload in WORKLOADS:
                jobdir = os.path.join(workdir, f"{workload}-s{seed}")
                os.mkdir(jobdir)
                for job in make_jobs(workload, seed, jobdir):
                    ours, theirs = run(ROOT, job, workdir), run(other, job, workdir)
                    fields = [f"{name} {first_difference(a, b)}" if name == "stdout" else name
                              for name, a, b in zip(FIELDS, ours, theirs) if a != b]
                    count += 1
                    differ += bool(fields)
                    verdict = "differs in " + ", ".join(fields) if fields else "same"
                    print(f"{workload} seed {seed} {job.name} (exit {ours[2]}): {verdict}", flush=True)
    print(f"{count} jobs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
