"""The measuring tools under tools/ run and report what they promise."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_job_peak_reports_each_run_and_the_medians():
    # one check-cp job, twice: a line per run with the wrapper's own VmHWM
    # and CPU time, then their medians
    argv = [sys.executable, str(ROOT / "tools" / "job_peak.py"), "--runs", "2",
            "check-cp", "--in", str(ROOT / "tests" / "golden" / "map.json")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["check-cp run 1", "check-cp run 2", "check-cp median of 2"]
    fields = lines[0].split()
    assert fields[3:5] == ["exit", "0"] and fields[5] == "vmhwm_mb" and fields[7] == "cpu_s"
    assert 1 < float(fields[6]) < 4096 and float(fields[8]) >= 0
