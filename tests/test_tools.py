"""The measuring tools under tools/ run and report what they promise."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_job_peak_reports_each_run_and_the_medians():
    # one check-cp job, twice: a line per run with the wrapper's own VmHWM,
    # CPU time, system time and minor page faults, then their medians
    argv = [sys.executable, str(ROOT / "tools" / "job_peak.py"), "--runs", "2",
            "check-cp", "--in", str(ROOT / "tests" / "golden" / "map.json")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["check-cp run 1", "check-cp run 2", "check-cp median of 2"]
    fields = lines[0].split()
    assert fields[3:5] == ["exit", "0"] and fields[5:13:2] == ["vmhwm_mb", "cpu_s", "stime_s", "minflt"]
    assert 1 < float(fields[6]) < 4096 and float(fields[8]) >= float(fields[10]) >= 0 and int(fields[12]) > 0
    assert lines[2].split(": ", 1)[1].split()[::2] == ["vmhwm_mb", "cpu_s", "stime_s", "minflt", "wall_s"]


def test_job_peak_times_help_after_a_double_dash():
    # "--" hands --help to ovfree, whose SystemExit(0) the wrapper reports
    argv = [sys.executable, str(ROOT / "tools" / "job_peak.py"), "--", "--help"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("--help run 1: exit 0 vmhwm_mb ") and proc.stdout.count("\n") == 1


def test_job_peak_alternates_with_a_baseline():
    # the tree against itself: a line per run of each, in alternating order,
    # then both medians and the pairs the checkout won on CPU time
    argv = [sys.executable, str(ROOT / "tools" / "job_peak.py"), "--runs", "2", "--baseline", str(ROOT),
            "check-cp", "--in", str(ROOT / "tests" / "golden" / "map.json")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "check-cp run 1", "check-cp baseline run 1", "check-cp baseline run 2", "check-cp run 2", "check-cp median of 2"]
    assert all(line.split()[-12:-10] == ["exit", "0"] for line in lines[:4])
    mine, theirs, won = lines[-1].split(": ", 1)[1].split(" | ")
    assert mine.startswith("vmhwm_mb ") and theirs.startswith("baseline vmhwm_mb ")
    assert won in {f"won {n} of 2 on cpu_s" for n in range(3)}


def test_ab_pairs_alternates_one_job_against_a_revision():
    # two pairs of a tiny freeness job against HEAD: a line per pair, both
    # sides' medians and quartiles, then the paired ratios and the wins
    if not shutil.which("git") or subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                                 capture_output=True).returncode:
        pytest.skip("not a git checkout")
    argv = [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), "HEAD", "freeness", "verify-k2-N3-r1",
            "--pairs", "2", "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "freeness seed 1 verify-k2-N3-r1 pair 1", "freeness seed 1 verify-k2-N3-r1 pair 2", "this", "other", "this/other"]
    this, other = lines[0].split(": ", 1)[1].split(" | ")
    assert this.split()[:3:2] == ["this", "0"] and other.split()[1:6:2] == ["exit", "wall_s", "cpu_s"]
    assert all(0 < float(x) < 60 for x in this.split()[4::2])
    for side, line in zip(["this:", "other:"], lines[2:4]):
        words = [w for w in line.split() if not w[0].isdigit()]
        assert words == [side, "wall_s", "median", "q1", "q3", "|", "cpu_s", "median", "q1", "q3"]
    wall, cpu = lines[4].split(": ", 1)[1].split(" | ")
    assert wall.startswith("wall_s median ratio ") and cpu.startswith("cpu_s median ratio ")
    assert wall.endswith((", won 0 of 2", ", won 1 of 2", ", won 2 of 2"))


def _same_bytes(monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path])  # same_bytes puts bench/ on it
    spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
    same_bytes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bytes)
    return same_bytes


def test_same_bytes_names_the_first_difference(monkeypatch):
    # a JSON stdout names the path and both values; anything else, the byte offset
    same_bytes = _same_bytes(monkeypatch)
    ours = b'{"lam": 0.5, "nonpositivity": {"level": 3, "witness_vector": [[1.0, 0.5], [0.0, 2.0]]}}'
    theirs = b'{"lam": 0.5, "nonpositivity": {"level": 3, "witness_vector": [[1.0, 0.5], [-1.11022302463e-16, 2.0]]}}'
    assert same_bytes.first_difference(ours, theirs) == "at nonpositivity.witness_vector[1][0]: 0.0 vs -1.11022302463e-16"
    assert same_bytes.first_difference(b"usage: ovfree check-cp\n", b"usage: ovfree positivity\n") == "at byte 14"


def test_same_bytes_exports_a_git_revision(monkeypatch, tmp_path):
    # HEAD's files as git holds them, without running a job; a bad revision is a ValueError
    git = shutil.which("git")
    listed = git and subprocess.run([git, "-C", str(ROOT), "ls-tree", "-r", "--name-only", "HEAD"],
                                    capture_output=True, text=True)
    if not listed or listed.returncode:
        pytest.skip("not a git checkout")
    same_bytes = _same_bytes(monkeypatch)
    dest = Path(same_bytes.export("HEAD", str(tmp_path / "head")))
    assert sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file()) == sorted(listed.stdout.splitlines())
    shown = subprocess.run([git, "-C", str(ROOT), "show", "HEAD:tools/same_bytes.py"], capture_output=True, check=True)
    assert (dest / "tools" / "same_bytes.py").read_bytes() == shown.stdout
    with pytest.raises(ValueError, match="git archive no-such-revision"):
        same_bytes.export("no-such-revision", str(tmp_path / "none"))
