"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q bench/tests/check_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def names(kind: str) -> set:
    return {m["name"] for m in SPEC[kind]}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"]) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "dichotomy", "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny"]) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"]
    assert set(result["metrics"]) == names("per_layer")
    m = result["metrics"]
    assert m["ncpart.partitions"]["value"] > 0 and m["algebra.psd_calls"]["value"] > 0
    assert m["converse.calls"]["value"] > 0 and m["cli.import_s"]["value"] > 0


def _run(workload: str, name_part: str, tmp_path, traced: bool = False):
    jobs = [j for j in make_jobs(workload, 5, str(tmp_path), tiny=True) if name_part in j.name]
    job = jobs[0]
    r = run.run_job(job, "t" if traced else "u", str(tmp_path), run.child_env(), traced, np.random.default_rng(0))
    with open(tmp_path / ("t.out" if traced else "u.out"), "rb") as fh:
        return job, r, fh.read()


def _perturb_first_entry(tensor, delta: float) -> None:
    while isinstance(tensor[0], list):
        tensor = tensor[0]
    tensor[0] += delta


def _gate(job, stdout: bytes):
    return gate.check(job, 0, stdout, b"", np.random.default_rng(1))


def test_perturbed_moment_fails_the_gate(tmp_path):
    job, r, stdout = _run("transform", "realization", tmp_path)
    assert not r.fails
    out = json.loads(stdout)
    _perturb_first_entry(out["moments"][-1], 1e-6)
    assert _gate(job, json.dumps(out).encode())


def test_perturbed_low_order_moment_of_a_cumulant_spec_fails_the_gate(tmp_path):
    job, r, stdout = _run("transform", "cumulants", tmp_path)
    assert not r.fails
    out = json.loads(stdout)
    _perturb_first_entry(out["moments"][0], 1e-6)
    assert _gate(job, json.dumps(out).encode())


@pytest.mark.parametrize("name_part", ["positivity-k2", "positivity-bernoulli"])
def test_flipped_psd_verdict_fails_the_gate(tmp_path, name_part):
    job, r, stdout = _run("dichotomy", name_part, tmp_path)
    assert not r.fails
    out = json.loads(stdout)
    out["certificate"]["is_psd"] = not out["certificate"]["is_psd"]
    assert _gate(job, json.dumps(out).encode())


def test_traced_and_untraced_stdout_are_byte_identical(tmp_path):
    _, plain, plain_out = _run("dichotomy", "counterexample-k2-noncp", tmp_path)
    _, traced, traced_out = _run("dichotomy", "counterexample-k2-noncp", tmp_path, traced=True)
    assert not plain.fails and not traced.fails
    assert traced.trace["spans"] and plain_out == traced_out


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "freeness", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
