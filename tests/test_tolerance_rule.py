"""One tolerance rule: every zero test of a verdict goes through
algebra.negligible, and verdicts on valid input hold at every entry scale.

The guard reads the sources with ast, as test_route_independence does: no
module but algebra holds a float literal below 1e-6 or a module-level *_TOL
or *_EPS name, except the literals on ALLOWED, each with its reason."""

import ast
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ovfree.algebra import negligible
from ovfree.cli import main
from ovfree.ovdist import eta_power, moments_from_realization, positivity_certificate
from ovfree.serialize import array_to_json

from conftest import random_eta, random_realization

SRC = Path(__file__).resolve().parents[1] / "src" / "ovfree"
SMALL = 1e-6
ALLOWED = {
    ("converse.py", 1e-8): "find_witness's search margin: the witness, and so lambda, must not move with --tol",
    ("converse.py", 1e-10): "build_gns's Gram-Schmidt cutoff on unit-scale seeds sizes the basis, it is no verdict",
}


def _small_literals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < SMALL
    }


def _module_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _modules():
    return sorted(path for path in SRC.glob("*.py") if path.name != "algebra.py")


def test_no_small_literal_outside_algebra():
    found = {(path.name, value) for path in _modules() for value in _small_literals(path)}
    assert found <= set(ALLOWED), sorted(found - set(ALLOWED))
    assert set(ALLOWED) <= found, f"stale allow-list entries: {sorted(set(ALLOWED) - found)}"


def test_no_tolerance_name_outside_algebra():
    names = {(path.name, n) for path in _modules() for n in _module_names(path) if n.endswith(("_TOL", "_EPS"))}
    assert not names, sorted(names)


def test_the_guard_reads_what_it_guards():
    assert 1e-9 in _small_literals(SRC / "algebra.py")
    assert "DEFAULT_TOL" in _module_names(SRC / "algebra.py")


def test_the_rule_is_absolute_below_scale_one_and_relative_above():
    assert negligible(1e-9, 0.0) and not negligible(1.1e-9, 1e-3)
    assert negligible(1e-3, 1e6) and not negligible(1.1e-3, 1e6)
    assert negligible(np.array([[1e-10, -1e-9j]]), 1.0) and not negligible(np.array([0.0, 2e-9]), 1.0)
    assert negligible(0.5, 1.0, tol=0.5) and not negligible(math.nan, 1.0) and not negligible(1.0, math.nan)


@settings(max_examples=20, deadline=None)
@given(k=st.sampled_from([1, 2, 3]), p=st.sampled_from([1, 2]), scale=st.floats(1.0, 12.0),
       rank=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
@example(k=3, p=1, scale=6.375, rank=1, seed=566)  # row-scaled minimum -1.49e-9 at level 4, largest eigenvalue 207
def test_eta_powers_of_realizations_are_positive_at_every_scale(k, p, scale, rank, seed):
    # eta = id + psi with psi CP: by the paper's theorem the eta-power of a
    # positive distribution is positive, so no level may report otherwise
    # (and none may refuse a moment as not Hermitian, which would raise)
    rng = np.random.default_rng(seed)
    r = random_realization(rng, k=k, p=p, scale=scale)
    powered = eta_power(moments_from_realization(r, 6), random_eta(rng, k, rank=rank))
    for level in (2, 3, 4):
        report = positivity_certificate(powered, level)
        assert report.is_psd, (level, report.min_eigenvalue)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(k=st.sampled_from([1, 2]), p=st.sampled_from([1, 2]), scale=st.floats(1.0, 12.0),
       rank=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_the_two_routes_agree_at_every_scale(tmp_path, capsys, k, p, scale, rank, seed):
    rng = np.random.default_rng(seed)
    r = random_realization(rng, k=k, p=p, scale=scale)
    eta = random_eta(rng, k, rank=rank)
    realization = {"d": r.d, "p": r.p, "X": array_to_json(r.X), "state": array_to_json(r.rho)}
    spec = {"distribution": {"k": k, "realization": realization}, "map": {"k": k, "choi": array_to_json(eta.choi)}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    assert main(["verify-realization", "--in", str(path), "--order", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"], out["max_deviation"]
