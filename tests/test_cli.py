import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ovfree import serialize
from ovfree.cli import main
from ovfree.serialize import (
    ARRAY_FIELDS,
    FAST_READ_BYTES,
    MIN_SITE_BYTES,
    array_to_json,
    json_to_array,
    read_spec,
)

from conftest import (
    EDGE_INTS,
    bits,
    padded,
    random_cp,
    random_density,
    random_eta,
    random_hermitian,
    random_realization,
    random_symmetric_cumulants,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_text(tmp_path, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    return str(path)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def map_spec_scaled_id(k, t):
    return {"k": k, "kraus": [array_to_json(np.sqrt(t) * np.eye(k))]}


def map_spec_id_plus_transpose():
    from ovfree.cpmaps import CPMap

    choi = CPMap.identity(2).choi + CPMap.transpose_map(2).choi
    return {"k": 2, "choi": array_to_json(choi)}


def semicircle_spec(order=4):
    cums = []
    for n in range(1, order + 1):
        t = np.zeros((1,) * (n - 1) + (1, 1))
        if n == 2:
            t[..., 0, 0] = 1.0
        cums.append(array_to_json(t))
    return {"k": 1, "order": order, "cumulants": cums}


def bernoulli_spec(order=6):
    from ovfree.ovdist import bernoulli, cumulants_from_moments

    cums = cumulants_from_moments(bernoulli(order))
    return {"k": 1, "order": order, "cumulants": [array_to_json(c.tensor) for c in cums]}


def realization_spec(rng, k=2, p=2, order=3):
    X = random_hermitian(rng, k * p)
    rho = random_density(rng, p)
    return {
        "k": k,
        "order": order,
        "realization": {
            "d": k * p,
            "X": array_to_json(X),
            "embedding": "tensor-block",
            "p": p,
            "state": array_to_json(rho),
        },
    }


def test_check_cp_scaled_identity(tmp_path):
    inp = write(tmp_path, "map.json", map_spec_scaled_id(2, 2.0))
    out = str(tmp_path / "out.json")
    assert main(["check-cp", "--in", inp, "--out", out]) == 0
    report = read(out)
    assert report["eta"]["is_psd"] and report["eta_minus_id"]["is_psd"]


def test_check_cp_transpose(tmp_path):
    from ovfree.cpmaps import CPMap

    inp = write(tmp_path, "map.json", {"k": 2, "choi": array_to_json(CPMap.transpose_map(2).choi)})
    out = str(tmp_path / "out.json")
    assert main(["check-cp", "--in", inp, "--out", out]) == 0
    report = read(out)
    assert not report["eta"]["is_psd"]


def test_check_cp_id_plus_transpose(tmp_path):
    inp = write(tmp_path, "map.json", map_spec_id_plus_transpose())
    out = str(tmp_path / "out.json")
    assert main(["check-cp", "--in", inp, "--out", out]) == 0
    report = read(out)
    assert not report["eta"]["is_psd"]
    assert not report["eta_minus_id"]["is_psd"]


def test_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-cp", "--in", str(bad)]) == 2


def test_bad_map_spec_exit_2(tmp_path):
    inp = write(tmp_path, "map.json", {"k": 2})
    assert main(["check-cp", "--in", inp]) == 2


def test_convolve_semicircle(tmp_path):
    inp = write(tmp_path, "in.json", {"distribution": semicircle_spec(4), "map": map_spec_scaled_id(1, 2.0)})
    out = str(tmp_path / "out.json")
    assert main(["convolve-power", "--in", inp, "--out", out, "--order", "4"]) == 0
    result = read(out)
    m2 = result["moments"][1][0][0][0]
    m4 = result["moments"][3][0][0][0][0][0]
    assert abs(m2[0] - 2.0) < 1e-10
    assert abs(m4[0] - 8.0) < 1e-10


def test_convolve_identity_echoes(tmp_path):
    inp = write(tmp_path, "in.json", {"distribution": bernoulli_spec(4), "map": map_spec_scaled_id(1, 1.0)})
    out = str(tmp_path / "out.json")
    assert main(["convolve-power", "--in", inp, "--out", out, "--order", "4"]) == 0
    result = read(out)
    values = [result["moments"][0][0][0], result["moments"][1][0][0][0]]
    assert abs(values[0][0]) < 1e-12
    assert abs(values[1][0] - 1.0) < 1e-12


def test_convolve_bernoulli_half_prefix(tmp_path):
    inp = write(tmp_path, "in.json", {"distribution": bernoulli_spec(6), "map": map_spec_scaled_id(1, 0.5)})
    out = str(tmp_path / "out.json")
    assert main(["convolve-power", "--in", inp, "--out", out, "--order", "6"]) == 0
    result = read(out)
    flat = [np.asarray(t).reshape(-1)[:2] for t in result["moments"][:4]]
    got = [v[0] for v in flat]
    assert np.allclose(got, [0.0, 0.5, 0.0, 0.0], atol=1e-12)


def test_convolve_dimension_mismatch_exit_2(tmp_path):
    inp = write(tmp_path, "in.json", {"distribution": semicircle_spec(4), "map": map_spec_scaled_id(2, 2.0)})
    assert main(["convolve-power", "--in", inp]) == 2


def test_positivity_command(tmp_path):
    inp = write(tmp_path, "in.json", {"distribution": bernoulli_spec(6), "map": None})
    out = str(tmp_path / "out.json")
    assert main(["positivity", "--in", inp, "--out", out, "--level", "3", "--order", "6"]) == 0
    assert read(out)["positive_up_to_level"]


def test_verify_realization_pass(tmp_path):
    rng = np.random.default_rng(11)
    psi = random_cp(rng, 2, rank=1)
    from ovfree.cpmaps import CPMap

    eta_choi = CPMap.identity(2).choi + psi.choi
    inp = write(
        tmp_path,
        "in.json",
        {
            "distribution": realization_spec(rng, order=3),
            "map": {"k": 2, "choi": array_to_json(eta_choi)},
        },
    )
    out = str(tmp_path / "out.json")
    assert main(["verify-realization", "--in", inp, "--out", out, "--order", "3"]) == 0
    result = read(out)
    assert result["pass"]
    assert result["max_deviation"] < 1e-8


def test_verify_realization_precondition_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(12)
    inp = write(
        tmp_path,
        "in.json",
        {"distribution": realization_spec(rng, order=3), "map": map_spec_scaled_id(2, 0.5)},
    )
    out = str(tmp_path / "out.json")
    assert main(["verify-realization", "--in", inp, "--out", out]) == 3
    result = read(out)
    assert not result["pass"]
    assert result["eta_minus_id"]["witness"] is not None
    reason = "eta - id is not completely positive; see the counterexample command"
    assert result["reason"] == reason and capsys.readouterr() == ("", f"ovfree: {reason}\n")


def test_verify_realization_order_guard(tmp_path):
    rng = np.random.default_rng(13)
    inp = write(
        tmp_path,
        "in.json",
        {"distribution": realization_spec(rng, order=3), "map": map_spec_scaled_id(2, 1.0)},
    )
    assert main(["verify-realization", "--in", inp, "--order", "12"]) == 2


def test_order_guard_env_override(tmp_path, monkeypatch):
    inp = write(tmp_path, "in.json", {"distribution": semicircle_spec(9), "map": map_spec_scaled_id(1, 1.0)})
    monkeypatch.delenv("OVFREE_MAX_ORDER", raising=False)
    assert main(["convolve-power", "--in", inp, "--order", "9"]) == 2
    monkeypatch.setenv("OVFREE_MAX_ORDER", "9")
    out = str(tmp_path / "out.json")
    assert main(["convolve-power", "--in", inp, "--out", out, "--order", "9"]) == 0
    assert len(read(out)["moments"]) == 9


def test_counterexample_preserved(tmp_path):
    inp = write(tmp_path, "in.json", {"map": map_spec_scaled_id(2, 3.0)})
    out = str(tmp_path / "out.json")
    assert main(["counterexample", "--in", inp, "--out", out]) == 0
    result = read(out)
    assert result["eta_minus_id_cp"]
    assert result["witness"] is None and result["nonpositivity"] is None


def test_counterexample_full_chain(tmp_path):
    inp = write(tmp_path, "in.json", {"map": map_spec_id_plus_transpose()})
    out = str(tmp_path / "out.json")
    assert main(["counterexample", "--in", inp, "--out", out]) == 0
    result = read(out)
    assert not result["eta_minus_id_cp"]
    assert result["lambda"] < 1
    assert result["witness"]["m"] == 2
    assert result["nonpositivity"]["min_eigenvalue"] < 0
    assert result["nonpositivity"]["witness_vector"] is not None


def test_counterexample_scalar_lambda(tmp_path):
    inp = write(tmp_path, "in.json", {"map": map_spec_scaled_id(1, 0.9)})
    out = str(tmp_path / "out.json")
    assert main(["counterexample", "--in", inp, "--out", out]) == 0
    result = read(out)
    assert abs(result["lambda"] - 0.9) < 1e-10


def test_counterexample_honours_level(tmp_path, monkeypatch):
    from ovfree import converse

    levels = []
    report = converse.counterexample_report
    monkeypatch.setattr(converse, "counterexample_report", lambda eta, level, tol: levels.append(level) or report(eta, level, tol))
    inp = write(tmp_path, "in.json", {"map": map_spec_id_plus_transpose()})
    for argv in ([], ["--level", "3"], ["--level", "5"]):
        assert main(["counterexample", "--in", inp, "--out", str(tmp_path / "out.json"), *argv]) == 0
    assert levels == [4, 3, 5]
    assert read(tmp_path / "out.json")["nonpositivity"]["level"] == 3


def test_counterexample_without_failing_level_prints_null(tmp_path, monkeypatch):
    # a certificate whose moment matrices are all positive up to its level
    # certifies nothing: the level-2 search for a Bernoulli lambda in (0, 1)
    from ovfree import converse

    certify = converse.certify_nonpositive
    monkeypatch.setattr(converse, "certify_nonpositive", lambda lam, level, tol: certify(lam, 2, tol))
    inp = write(tmp_path, "in.json", {"map": map_spec_id_plus_transpose()})
    out = str(tmp_path / "out.json")
    assert main(["counterexample", "--in", inp, "--out", out]) == 0
    result = read(out)
    assert result["lambda"] < 1 and result["witness"] is not None
    assert result["nonpositivity"] is None


def test_deterministic_output(tmp_path):
    inp = write(tmp_path, "in.json", {"map": map_spec_id_plus_transpose()})
    out1 = str(tmp_path / "out1.json")
    out2 = str(tmp_path / "out2.json")
    assert main(["counterexample", "--in", inp, "--out", out1]) == 0
    assert main(["counterexample", "--in", inp, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--in", "x.json"])


@pytest.mark.parametrize("field", ["p", "X", "state", "cumulants"])
@pytest.mark.parametrize("command", ["positivity", "convolve-power", "verify-realization"])
def test_realization_missing_field_exit_2(tmp_path, capsys, command, field):
    spec = realization_spec(np.random.default_rng(14), k=1, p=2, order=2)
    if field == "cumulants":  # not missing but extra: a spec with both forms
        spec["cumulants"] = semicircle_spec(2)["cumulants"]
    else:
        del spec["realization"][field]
    inp = write(tmp_path, "in.json", {"distribution": spec, "map": map_spec_scaled_id(1, 1.0)})
    assert main([command, "--in", inp]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{field}'" in err and "Traceback" not in err


def _realization_input(tmp_path, k, state):
    rng = np.random.default_rng(15)
    dist = {"k": k, "order": 4, "realization": {"p": 2, "X": array_to_json(random_hermitian(rng, 2 * k)), "state": array_to_json(state)}}
    return write(tmp_path, "in.json", {"distribution": dist, "map": map_spec_scaled_id(k, 1.5)})


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("command", ["positivity", "convolve-power", "verify-realization"])
def test_state_negligibly_off_psd_is_accepted_at_every_k(tmp_path, capsys, command, k):
    # the eigenvalue -6e-10 is negligible at tol 1e-9; the state is decided once, at its own scale
    assert main([command, "--in", _realization_input(tmp_path, k, np.diag([1 + 6e-10, -6e-10]))]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("state", [np.ones(3) / np.sqrt(3), np.ones((1, 1)), np.full((2, 3), 0.5)], ids=["vector-3", "1x1", "2x3"])
@pytest.mark.parametrize("command", ["positivity", "convolve-power", "verify-realization"])
def test_state_of_the_wrong_size_exit_2(tmp_path, capsys, command, state):
    needle = f"state must be 2x2 or a length-2 vector for p=2, got shape {state.shape}"
    assert_one_line_exit_2(capsys, [command, "--in", _realization_input(tmp_path, 2, state)], needle)


@pytest.mark.parametrize("argv", [["positivity", "--level", "1"], ["convolve-power"]])
def test_cumulant_of_the_wrong_size_exit_2(tmp_path, capsys, argv):
    dist = {"k": 2, "cumulants": [array_to_json(np.eye(3))]}
    inp = write(tmp_path, "in.json", {"distribution": dist, "map": map_spec_scaled_id(2, 1.5)})
    assert_one_line_exit_2(capsys, argv[:1] + ["--in", inp] + argv[1:], "cumulant 1 needs 4 entries for k=2, got 9")


def test_realization_not_an_object_exit_2(tmp_path, capsys):
    spec = {"k": 1, "order": 2, "realization": []}
    inp = write(tmp_path, "in.json", {"distribution": spec, "map": map_spec_scaled_id(1, 1.0)})
    assert main(["convolve-power", "--in", inp]) == 2
    assert "realization spec must be an object" in capsys.readouterr().err


BAD_LEAVES = {"short": [1.0], "string": ["x", 0.0], "long": [0.0, 0.0, 3.0], "boolean": [True, 0.0]}


def assert_one_line_exit_2(capsys, argv, needle):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err and "Traceback" not in err


@pytest.mark.parametrize("leaf", sorted(BAD_LEAVES))
def test_check_cp_malformed_leaf_exit_2(tmp_path, capsys, leaf):
    spec = map_spec_id_plus_transpose()
    spec["choi"][0][1] = BAD_LEAVES[leaf]  # after the valid leaf choi[0][0]
    assert_one_line_exit_2(capsys, ["check-cp", "--in", write(tmp_path, "map.json", spec)], "[re, im]")


@pytest.mark.parametrize("leaf", sorted(BAD_LEAVES))
def test_convolve_malformed_leaf_exit_2(tmp_path, capsys, leaf):
    dist = semicircle_spec(3)
    dist["cumulants"][1][0][0] = [[0.5, 0.0], BAD_LEAVES[leaf]]
    inp = write(tmp_path, "in.json", {"distribution": dist, "map": map_spec_scaled_id(1, 1.0)})
    assert_one_line_exit_2(capsys, ["convolve-power", "--in", inp], "[re, im]")


BAD_INTEGERS = {"null": None, "list": [2], "object": {"k": 2}, "string": "2", "fraction": 1.5}


@pytest.mark.parametrize("value", sorted(BAD_INTEGERS))
def test_check_cp_non_integer_k_exit_2(tmp_path, capsys, value):
    spec = map_spec_id_plus_transpose()
    spec["k"] = BAD_INTEGERS[value]
    assert_one_line_exit_2(capsys, ["check-cp", "--in", write(tmp_path, "map.json", spec)], "'k'")


@pytest.mark.parametrize("value", sorted(BAD_INTEGERS))
@pytest.mark.parametrize("where", ["k", "order", "map.k", "realization.p", "realization.d"])
def test_convolve_non_integer_field_exit_2(tmp_path, capsys, where, value):
    rng = np.random.default_rng(15)
    dist = realization_spec(rng, k=1, p=2, order=2) if where.startswith("realization") else semicircle_spec(3)
    payload = {"distribution": dist, "map": map_spec_scaled_id(1, 1.0)}
    part, _, field = where.rpartition(".")
    target = {"": dist, "map": payload["map"], "realization": dist.get("realization")}[part]
    target[field] = BAD_INTEGERS[value]
    assert_one_line_exit_2(capsys, ["convolve-power", "--in", write(tmp_path, "in.json", payload)], f"'{field}'")


def test_check_cp_integer_past_the_digit_limit_exit_2(tmp_path, capsys):
    # int() refuses a literal of 4,300 digits or more; such a k is read as
    # the nearest double, inf, as a site's numbers are read, and refused as a field
    path = write_text(tmp_path, '{"k": ' + "1" * 5000 + ', "choi": [[[1.0, 0.0]]]}')
    needle = "field 'k' must be a positive integer, got Infinity"
    assert_one_line_exit_2(capsys, ["check-cp", "--in", path], needle)
    assert_one_line_exit_2(capsys, ["check-cp", "--in", padded(path)], needle)


def test_convolve_distribution_not_an_object_exit_2(tmp_path, capsys):
    inp = write(tmp_path, "in.json", {"distribution": [1], "map": map_spec_scaled_id(1, 1.0)})
    assert_one_line_exit_2(capsys, ["convolve-power", "--in", inp, "--order", "2"], "'distribution'")


@pytest.mark.parametrize("command", ["check-cp", "convolve-power", "positivity", "counterexample"])
def test_input_not_an_object_exit_2(tmp_path, capsys, command):
    assert_one_line_exit_2(capsys, [command, "--in", write(tmp_path, "in.json", [1, 2])], "must be an object")


def _count_transforms(monkeypatch):
    from ovfree import ovdist

    calls = []
    engine = ovdist._interval_dp

    def counted(*args, **kwargs):
        calls.append(kwargs.get("inverse"))
        return engine(*args, **kwargs)

    monkeypatch.setattr(ovdist, "_interval_dp", counted)
    return calls


def test_convolve_cumulant_spec_runs_one_forward_transform(tmp_path, monkeypatch):
    from ovfree.cpmaps import CPMap
    from ovfree.ovdist import eta_power, moments_from_cumulants
    from ovfree.serialize import json_to_array

    rng = np.random.default_rng(16)
    cums = random_symmetric_cumulants(rng, 2, 4)
    eta = CPMap(2, CPMap.identity(2).choi + random_cp(rng, 2).choi)
    dist = {"k": 2, "cumulants": [array_to_json(c.tensor) for c in cums]}
    inp = write(tmp_path, "in.json", {"distribution": dist, "map": {"k": 2, "choi": array_to_json(eta.choi)}})
    out = str(tmp_path / "out.json")
    calls = _count_transforms(monkeypatch)
    assert main(["convolve-power", "--in", inp, "--out", out]) == 0
    assert calls == [False]
    monkeypatch.undo()
    result = read(out)
    want = eta_power(moments_from_cumulants(cums), eta)
    assert result["label"] == want.label == "eta_power(cumulant-generated)"
    for n, c in enumerate(cums):
        # the printed cumulants are eta composed with the input ones; the
        # moments agree with the inverse-and-forward route of eta_power
        pairs = ((result["cumulants"][n], c.compose(eta).tensor), (result["moments"][n], want.moments[n].tensor))
        for got, exact in pairs:
            assert np.max(np.abs(json_to_array(got) - exact)) <= 1e-11 * max(1.0, np.max(np.abs(exact)))


def test_convolve_realization_spec_runs_two_transforms(tmp_path, monkeypatch):
    spec = {"distribution": realization_spec(np.random.default_rng(17)), "map": map_spec_scaled_id(2, 1.5)}
    inp = write(tmp_path, "in.json", spec)
    calls = _count_transforms(monkeypatch)
    assert main(["convolve-power", "--in", inp, "--out", str(tmp_path / "out.json")]) == 0
    assert calls == [True, False]
    assert read(str(tmp_path / "out.json"))["label"] == "eta_power(realized)"


def test_convolve_rejects_non_hermitian_cumulants(tmp_path, capsys):
    dist = semicircle_spec(3)
    dist["cumulants"][0] = [[[0.0, 1.0]]]  # E(X) = i is not self-adjoint
    inp = write(tmp_path, "in.json", {"distribution": dist, "map": map_spec_scaled_id(1, 1.0)})
    assert_one_line_exit_2(capsys, ["convolve-power", "--in", inp], "cumulant 1 violates Hermitian symmetry")


GOLDEN_REALIZATION = str(Path(__file__).parent / "golden" / "realization.json")
GOLDEN_CONVOLVE = str(Path(__file__).parent / "golden" / "convolve.json")


def test_verify_realization_order_above_compressed_cap(capsys, monkeypatch):
    # 7 is within the transform commands' cap of 8 but above
    # verify-realization's own, VERIFY_ORDER_CAP = 6
    monkeypatch.delenv("OVFREE_MAX_ORDER", raising=False)
    argv = ["verify-realization", "--in", GOLDEN_REALIZATION, "--order", "7"]
    assert_one_line_exit_2(capsys, argv, "exceeds the hard guard 6; set OVFREE_MAX_ORDER")


@pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5"])
def test_bad_max_order_env_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("OVFREE_MAX_ORDER", value)
    argv = ["verify-realization", "--in", GOLDEN_REALIZATION]
    assert_one_line_exit_2(capsys, argv, f"OVFREE_MAX_ORDER must be a positive integer, got '{value}'")


def test_verify_realization_refuses_a_cumulant_spec(tmp_path, capsys):
    spec = {"distribution": semicircle_spec(), "map": map_spec_scaled_id(1, 2.0)}
    argv = ["verify-realization", "--in", write(tmp_path, "in.json", spec)]
    assert_one_line_exit_2(capsys, argv, "needs a realization-based distribution")


def test_not_completely_positive_inside_a_command_exits_3(capsys, monkeypatch):
    # a NotCompletelyPositiveError that reaches main exits 3 with its reason
    # on stderr and its certificate in the output; here build_fock raises it
    # for a psi that is not CP, which verify-realization's own check rules out
    from ovfree import freeprod
    from ovfree.cpmaps import CPMap, NotCompletelyPositiveError
    from ovfree.fock import build_fock

    bad_psi = CPMap.scaled_identity(2, 0.5).minus_id()
    with pytest.raises(NotCompletelyPositiveError) as info:
        build_fock(bad_psi, 2, 1e-9)
    monkeypatch.setattr(freeprod, "build_fock", lambda psi, depth, tol: build_fock(bad_psi, depth, tol))
    assert main(["verify-realization", "--in", GOLDEN_REALIZATION]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"ovfree: {info.value}\n"
    payload = json.loads(captured.out)
    assert set(payload) == {"reason", "certificate"} and payload["reason"] == str(info.value)
    certificate = payload["certificate"]
    assert certificate["is_psd"] is False and certificate["min_eigenvalue"] == info.value.report.min_eigenvalue
    assert np.allclose(json_to_array(certificate["witness"]), info.value.report.witness, atol=1e-11)


def run_fresh(code):
    """Run code in a fresh interpreter that imports ovfree from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_run_never_imports_scipy():
    # scipy.sparse alone costs about a quarter of a second per CLI process;
    # only the sparse FockOp view, which no command uses, may load it
    code = (
        "import sys\n"
        "from ovfree.cli import main\n"
        f"assert main(['verify-realization', '--in', {GOLDEN_REALIZATION!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded[:5]\n"
    )
    assert '"pass":true' in run_fresh(code)


def test_convolve_power_loads_no_module_at_run_time():
    # no module enters sys.modules while a command runs: ovfree's own modules
    # are there, lazily, from the import on, main loads numpy and runs
    # serialize, cpmaps and algebra before every command, and the canonical
    # output loads nothing else; numpy.ma, which np.unique pulls in, would add
    # about 2 MB to every job
    code = (
        "import sys\n"
        "import numpy\n"
        "from ovfree import serialize\n"
        "from ovfree.cli import main\n"
        "serialize.ARRAY_FIELDS\n"
        "before = set(sys.modules)\n"
        f"assert main(['convolve-power', '--in', {GOLDEN_CONVOLVE!r}]) == 0\n"
        "loaded = sorted(set(sys.modules) - before - {'locale', '_locale'})\n"  # argparse's gettext
        "assert not loaded, loaded\n"
    )
    assert '"moments":' in run_fresh(code)


def test_cli_process_freezes_and_keeps_the_collector_enabled():
    code = (
        "import gc\n"
        "from ovfree.cli import main\n"
        f"assert main(['convolve-power', '--in', {GOLDEN_CONVOLVE!r}]) == 0\n"
        "assert gc.get_freeze_count() > 0 and gc.isenabled()\n"
    )
    assert '"moments":' in run_fresh(code)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_restores_the_collector_state(tmp_path, capsys, enabled):
    # read_spec leaves the collector alone; main restores it on an input error
    good, bad = write(tmp_path, "in.json", {"k": 1}), tmp_path / "bad.json"
    bad.write_text('{"k": ')
    big_bad = tmp_path / "big_bad.json"
    big_bad.write_text('{"k": ')
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert read_spec(good) == {"k": 1} and gc.isenabled() == enabled
        assert read_spec(padded(write(tmp_path, "big.json", {"k": 1}))) == {"k": 1} and gc.isenabled() == enabled
        assert gc.get_freeze_count() == frozen
        for path in (bad, padded(big_bad)):  # no site in the padded copy: json decides
            assert main(["check-cp", "--in", str(path)]) == 2 and gc.isenabled() == enabled
            assert "cannot read JSON input" in capsys.readouterr().err
    finally:
        gc.enable()


def test_invalid_utf8_names_its_path(tmp_path, capsys):
    # a codec error is a read error like any other: one line naming the path
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"k": "\xff"}')
    assert main(["check-cp", "--in", str(path)]) == 2
    assert capsys.readouterr().err == (f"ovfree: cannot read JSON input {path}: 'utf-8' codec can't decode "
                                       "byte 0xff in position 7: invalid start byte\n")


def test_main_writes_to_a_redirected_text_stdout(tmp_path):
    # an in-process caller may send stdout to a str-only stream
    out = tmp_path / "out.json"
    assert main(["convolve-power", "--in", GOLDEN_CONVOLVE, "--out", str(out)]) == 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["convolve-power", "--in", GOLDEN_CONVOLVE]) == 0
    assert buf.getvalue() == out.read_text(encoding="utf-8")


def test_closed_stdout_exit_2_with_one_line(tmp_path):
    # a reader that closes the pipe after 10 bytes, well before the end of
    # the 127 kB output: one stderr line and exit 2, no traceback at the
    # write or at the interpreter's flush at exit
    cums = [np.zeros((4,) * n + (2, 2, 2)).tolist() for n in range(6)]
    path = write(tmp_path, "in.json", {"distribution": {"k": 2, "cumulants": cums}, "map": map_spec_scaled_id(2, 1.5)})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-m", "ovfree.cli", "convolve-power", "--in", path], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
        err = proc.stderr.read().decode()
    assert err == "ovfree: cannot write output to stdout: [Errno 32] Broken pipe\n"
    assert main(["convolve-power", "--in", path, "--out", str(tmp_path / "out.json")]) == 0
    assert (tmp_path / "out.json").stat().st_size >= 64 * 1024


def test_counterexample_zero_map_exit_3(tmp_path, capsys):
    # eta = 0 on M_2: eta - id = -id is not CP, but phi(eta_m(a)) = 0 for
    # every state, so the witness search fails as a precondition
    inp = write(tmp_path, "in.json", {"map": {"k": 2, "choi": array_to_json(np.zeros((4, 4)))}})
    assert main(["counterexample", "--in", inp]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "witness search failed" in captured.err
    result = json.loads(captured.out)
    assert sorted(result) == ["certificate", "reason"]
    assert result["reason"] in captured.err
    assert not result["certificate"]["is_psd"] and abs(result["certificate"]["min_eigenvalue"] + 2.0) < 1e-12


@pytest.mark.parametrize("command", ["convolve-power", "positivity"])
def test_orderless_cumulant_spec_is_capped(tmp_path, capsys, monkeypatch, command):
    # with neither --order nor an "order" field the order is the number of
    # listed cumulants, and the cap holds for it as for any other order
    dist = semicircle_spec(14)
    del dist["order"]
    inp = write(tmp_path, "in.json", {"distribution": dist, "map": map_spec_scaled_id(1, 1.0)})
    monkeypatch.delenv("OVFREE_MAX_ORDER", raising=False)
    assert_one_line_exit_2(capsys, [command, "--in", inp], "order 14 exceeds the hard guard 8; set OVFREE_MAX_ORDER")
    monkeypatch.setenv("OVFREE_MAX_ORDER", "14")
    assert main([command, "--in", inp, "--out", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("argv, env, needle", [
    # inside every cap: the k = 3, p = 2 product at order 8 has 9^7 * 36 entries
    pytest.param(["convolve-power", "--order", "8"], None, "an order-8 moment product on M_6 would need 2,755 MB",
                 id="k3-inside-the-cap"),
    pytest.param(["positivity", "--order", "12", "--level", "7"], "12", "an order-12 moment product on M_4 would need 1,074 MB",
                 id="env-lifts-the-cap-not-the-byte-rule"),
    # a Kraus spec's shapes are checked before its k^2 x k^2 Choi matrix is allocated
    pytest.param(["check-cp"], None, "Kraus operators must be 3000 x 3000", id="check-cp-kraus-shape"),
    pytest.param(["counterexample"], None, "Kraus operators must be 3000 x 3000", id="counterexample-kraus-shape"),
])
def test_realization_order_above_byte_limit_exit_2(tmp_path, capsys, monkeypatch, argv, env, needle):
    import tracemalloc

    if argv[0] == "convolve-power":
        spec = {"distribution": realization_spec(np.random.default_rng(19), k=3), "map": map_spec_scaled_id(3, 1.0)}
        inp = write(tmp_path, "in.json", spec)
    elif argv[0] in ("check-cp", "counterexample"):
        inp = write(tmp_path, "in.json", {"k": 3000, "kraus": [[[[1.0, 0.0]]]]})
    else:
        inp = GOLDEN_REALIZATION
    if env is None:
        monkeypatch.delenv("OVFREE_MAX_ORDER", raising=False)
    else:
        monkeypatch.setenv("OVFREE_MAX_ORDER", env)
    tracemalloc.start()
    try:
        assert_one_line_exit_2(capsys, argv[:1] + ["--in", inp] + argv[1:], needle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000  # refused before the product is allocated


@pytest.mark.parametrize("form", ["cumulants", "realization"])
def test_positivity_builds_orders_up_to_2l_minus_2(tmp_path, built_orders, form):
    spec = bernoulli_spec(8) if form == "cumulants" else realization_spec(np.random.default_rng(20), order=8)
    inp = write(tmp_path, "in.json", spec)
    out = str(tmp_path / "out.json")
    for level, built in ((3, 4), (1, 1), (5, 8)):
        built_orders.clear()
        assert main(["positivity", "--in", inp, "--out", out, "--level", str(level)]) == 0
        assert built_orders == [built]
    assert main(["positivity", "--in", inp, "--out", out, "--level", "6"]) == 2  # needs order 10


def test_positivity_checks_cumulants_above_the_orders_it_reads(tmp_path, capsys):
    dist = semicircle_spec(6)
    dist["cumulants"][5] = array_to_json(np.full((1,) * 7, 1j))  # not Hermitian
    inp = write(tmp_path, "in.json", dist)
    assert_one_line_exit_2(capsys, ["positivity", "--in", inp, "--level", "3"], "cumulant 6 violates Hermitian symmetry")


def test_positivity_level_needs_order_2l_minus_2(tmp_path):
    inp = write(tmp_path, "in.json", bernoulli_spec(4))
    out = str(tmp_path / "out.json")
    assert main(["positivity", "--in", inp, "--out", out, "--level", "3"]) == 0
    assert read(out)["positive_up_to_level"]


def _non_finite_input(tmp_path, field):
    """An input whose JSON spells NaN, Infinity or 1e999 in the given field."""
    path = tmp_path / "in.json"
    if field == "cumulants":
        dist = semicircle_spec(3)
        dist["cumulants"][1][0][0][0][0] = float("nan")
        spec = {"distribution": dist, "map": map_spec_scaled_id(1, 1.0)}
    elif field == "choi":
        spec = map_spec_id_plus_transpose()
        spec["choi"][1][1][0] = float("inf")
    elif field == "kraus":
        path.write_text(json.dumps(map_spec_scaled_id(2, 1.0)).replace("1.0", "1e999", 1))
        return str(path)
    else:
        spec = realization_spec(np.random.default_rng(18))
        spec["realization"][field][0][0][1] = float("nan")
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("command, field", [
    ("convolve-power", "cumulants"), ("check-cp", "choi"), ("counterexample", "choi"),
    ("check-cp", "kraus"), ("positivity", "X"), ("positivity", "state"),
])
def test_non_finite_input_exit_2(tmp_path, capsys, command, field):
    path = _non_finite_input(tmp_path, field)
    assert_one_line_exit_2(capsys, [command, "--in", path], f"field '{field}' holds a non-finite number")
    # the padded copy holds no site, and json reads NaN, Infinity and 1e999 as before
    assert_one_line_exit_2(capsys, [command, "--in", padded(path)], f"field '{field}' holds a non-finite number")


@pytest.mark.parametrize("argv, needle", [
    (["positivity", "--level", "-2"], "--level must be at least 1, got -2"),
    (["positivity", "--level", "0"], "--level must be at least 1, got 0"),
    (["counterexample", "--level", "0"], "--level must be at least 1, got 0"),
    (["check-cp", "--tol", "nan"], "--tol must be a finite number above 0, got nan"),
    (["check-cp", "--tol", "inf"], "--tol must be a finite number above 0, got inf"),
    (["check-cp", "--tol", "-1"], "--tol must be a finite number above 0, got -1.0"),
    (["verify-realization", "--tol", "0"], "--tol must be a finite number above 0, got 0.0"),
    (["counterexample", "--level", "1"], "counterexample needs --level at least 3 (levels 1 and 2 never fail), got 1"),
    (["counterexample", "--level", "2"], "counterexample needs --level at least 3 (levels 1 and 2 never fail), got 2"),
    (["convolve-power", "--order", "0"], "--order must be at least 1, got 0"),
    (["positivity", "--order", "0"], "--order must be at least 1, got 0"),
    (["verify-realization", "--order", "-1"], "--order must be at least 1, got -1"),
])
def test_flag_out_of_range_exit_2(tmp_path, capsys, argv, needle):
    spec = {"positivity": bernoulli_spec(4), "verify-realization": json.loads(Path(GOLDEN_REALIZATION).read_text())}
    inp = write(tmp_path, "in.json", spec.get(argv[0], map_spec_id_plus_transpose()))
    out = tmp_path / "out.json"
    assert_one_line_exit_2(capsys, argv[:1] + ["--in", inp, "--out", str(out)] + argv[1:], needle)
    assert not out.exists()


@pytest.mark.parametrize("case", ["check-cp", "counterexample-exit-3", "verify-realization-exit-3"])
def test_unwritable_out_exit_2(tmp_path, capsys, case):
    out = str(tmp_path / "missing" / "out.json")
    if case == "check-cp":
        argv = ["check-cp", "--in", write(tmp_path, "in.json", map_spec_id_plus_transpose())]
    elif case == "counterexample-exit-3":  # the zero map: a failed witness search
        argv = ["counterexample", "--in", write(tmp_path, "in.json", {"map": {"k": 2, "choi": array_to_json(np.zeros((4, 4)))}})]
    else:
        spec = json.loads(Path(GOLDEN_REALIZATION).read_text())
        spec["map"] = map_spec_scaled_id(2, 0.5)  # eta - id = -id/2 is not CP
        argv = ["verify-realization", "--in", write(tmp_path, "in.json", spec)]
    assert_one_line_exit_2(capsys, argv + ["--out", out], f"cannot write output {out}")


@pytest.mark.parametrize("command, flag", [
    ("check-cp", "--order"), ("check-cp", "--level"), ("convolve-power", "--level"),
    ("convolve-power", "--tol"), ("verify-realization", "--level"), ("counterexample", "--order"),
])
def test_command_rejects_flag_it_does_not_read(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        main([command, "--in", write(tmp_path, "in.json", map_spec_id_plus_transpose()), flag, "2"])
    assert info.value.code == 2 and f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


# -- array sites: past the threshold an array field is read from its own text --

_EDGE_FLOATS = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
_POISONS = ["none", "int", "float", "1e999", "nan", "bool", "null", "string", "object", "ragged", "empty", "hollow", "one",
            "three", "shifted", "comma"]
_STYLES = {"compact": {"separators": (",", ":")}, "spaced": {}, "indented": {"indent": 1}}


def _site_value(rng, shape, ints):
    """Nested [re, im] lists of the given leading shape: random doubles, or small integers."""
    values = rng.integers(-3, 4, shape + (2,)) if ints else rng.standard_normal(shape + (2,)) * 10.0 ** rng.integers(-8, 8)
    return values.tolist()


def _poison(rng, value, kind):
    """value with one leaf, row or pair replaced as kind says; raw JSON tokens are quoted markers."""
    if kind == "none":
        return value
    if kind == "hollow":
        value.clear()
        return value
    if kind == "comma":  # the text of the first "], [" turns to ",] [", which is not JSON
        return value
    row = value
    while isinstance(row[0], list) and isinstance(row[0][0], list):  # down to a list of pairs
        row = row[int(rng.integers(len(row)))]
    i = int(rng.integers(len(row)))
    leaf = {"int": EDGE_INTS[int(rng.integers(len(EDGE_INTS)))], "float": _EDGE_FLOATS[int(rng.integers(4))],
            "1e999": "@1e999@", "nan": float("nan"), "bool": True, "null": None, "string": "choi", "object": {}}
    if kind in leaf:
        row[i][int(rng.integers(2))] = leaf[kind]
    elif kind == "ragged":
        del row[i]
        if not row:
            row.append([])
    elif kind == "empty":
        row[i] = []
    elif kind == "shifted" and len(row) > 1:  # as many numbers, not in pairs
        i = min(i, len(row) - 2)
        row[i], row[i + 1] = row[i][:1], [row[i][1]] + row[i + 1]
    else:
        row[i] = row[i][:1] if kind == "one" else row[i] + [0.5]
    return value


@st.composite
def _site_documents(draw):
    """(command, JSON text) of a spec whose array fields vary in k, shape and
    whitespace, one of them poisoned, with duplicate keys, field names as
    string values, a placeholder look-alike or an array field in a list of
    objects now and then."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, ints, kind = draw(st.integers(1, 3)), draw(st.booleans()), draw(st.sampled_from(_POISONS))
    site = lambda *shape: _site_value(rng, shape, ints)  # noqa: E731
    if draw(st.booleans()):
        eta = {"k": k, "choi": site(k * k, k * k)}
    else:
        eta = {"k": k, "kraus": [site(k, k) for _ in range(draw(st.integers(1, 3)))]}
    order = draw(st.integers(1, 3))
    if draw(st.booleans()):
        dist = {"k": k, "order": order, "cumulants": [site(*((k * k,) * i + (k, k))) for i in range(order)]}
    else:
        p = draw(st.integers(1, 2))
        state = site(k * p) if draw(st.booleans()) else site(k * p, k * p)
        dist = {"k": k, "order": order, "realization": {"p": p, "X": site(k * p, k * p), "state": state}}
    command = draw(st.sampled_from(["check-cp", "convolve-power", "positivity"]))
    spec = {"check-cp": eta, "convolve-power": {"distribution": dist, "map": eta}, "positivity": dist}[command]
    fields = [(obj, key) for obj in (eta, dist, dist.get("realization", {})) for key in ("choi", "kraus", "cumulants", "X", "state")
              if key in obj]
    obj, key = fields[draw(st.integers(0, len(fields) - 1))]
    if key in ("kraus", "cumulants"):  # a list of arrays: poison one of them
        _poison(rng, obj[key][int(rng.integers(len(obj[key])))], kind)
    else:
        _poison(rng, obj[key], kind)
    extra = draw(st.sampled_from(["none", "duplicate", "names", "mimic", "listed"]))
    if extra == "duplicate":  # the first of two equal keys is dropped by both readers
        value = obj.pop(key)
        obj[key + "@first"], obj[key + "@dup"] = site(2, 2), value
    elif extra == "names":
        spec["label"], obj["note"] = key, {"choi": "kraus", "cumulants": "X"}
    elif extra == "mimic":
        spec["label"] = "@mimic@"
    elif extra == "listed":  # array fields in objects in lists, which no command reads
        spec["maps"] = [{"k": k, "choi": site(k * k, k * k)}, {"kraus": [site(k, k)]}]
        spec["nested"] = [[{"choi": site(k * k, k * k)}]]
    text = json.dumps(spec, **_STYLES[draw(st.sampled_from(sorted(_STYLES)))])
    for marker, token in (('"@1e999@"', "1e999"), ('"@mimic@"', '"\\u00000"')):
        text = text.replace(marker, token)
    if kind == "comma":
        text = text.replace("], [", ",] [", 1).replace("],[", ",][", 1)
    for tag in ("@first", "@dup"):  # "x@first": [...], ..., "x@dup": [...] -> two "x" keys
        text = text.replace(f'"{key}{tag}"', f'"{key}"')
    return command, text


def _site_reads(value):
    """value with each array field's value, or each element of a list field,
    as json_to_array reads it (its bytes or its message), the rest by bits."""

    def read(data):
        try:
            a = json_to_array(data)
        except ValueError as exc:
            return ("error", str(exc))
        return (a.dtype.str, a.shape, a.tobytes())

    if isinstance(value, list):  # an array field may sit in an object at any depth of lists
        return [_site_reads(item) for item in value]
    if not isinstance(value, dict):
        return bits(value)
    out = []
    for key, v in value.items():
        if ARRAY_FIELDS.get(key) and isinstance(v, list):
            out.append((key, [read(item) for item in v]))
        elif key in ARRAY_FIELDS and not isinstance(v, (dict, str)):
            out.append((key, read(v)))
        else:
            out.append((key, _site_reads(v)))
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=_site_documents(), min_site=st.sampled_from([1, 40, 4096]), piece=st.sampled_from([1, 30, 1 << 20]))
@example(document=("convolve-power", json.dumps({"distribution": {"k": 1, "cumulants": [[[[1, 0]]], [[[[0.5, 0]]]]]},
                                                 "map": {"k": 1, "kraus": [[[[1, 0]]]]}})), min_site=1, piece=1)
@example(document=("check-cp", '{"k": 1, "choi": [[[1, 0.5]]]}'), min_site=1, piece=1)  # an int piece, then a float one
@example(document=("check-cp", '{"k": 1, "choi": [[[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]]}'), min_site=1, piece=30)
@example(document=("check-cp", '{"k": 2, "choi": [[[1.0, 0.0],] [[0.0, 1.0]]]}'), min_site=1, piece=30)  # not JSON
def test_readers_agree_on_array_sites(tmp_path, monkeypatch, document, min_site, piece):
    # the same arrays, bit for bit, and the same output, message and exit
    # code whether an array field is read from its own text, in pieces of
    # its numbers, or as nested lists
    command, text = document
    monkeypatch.setattr(serialize, "MIN_SITE_BYTES", min_site)
    monkeypatch.setattr(serialize, "FLAT_PIECE_BYTES", piece)
    small, big = tmp_path / "small.json", tmp_path / "big.json"
    small.write_text(text)
    big.write_text(text)
    padded(big)
    reads = []
    for path in (small, big):
        try:
            reads.append(_site_reads(read_spec(str(path))))
        except ValueError as exc:
            reads.append(("error", str(exc).replace(str(path), "<path>")))
    assert reads[0] == reads[1]
    runs = [_run([command, "--in", str(path)]) for path in (small, big)]
    assert runs[0][:2] == runs[1][:2] and runs[0][2].replace(str(small), "") == runs[1][2].replace(str(big), "")


def _cumulant_spec(ragged=False):
    """A k=2, order-5 convolve-power input, its last two cumulants longer
    than MIN_SITE_BYTES in every style; ragged drops one row of the last."""
    cums = [array_to_json(c.tensor) for c in random_symmetric_cumulants(np.random.default_rng(9), 2, 5)]
    if ragged:
        del cums[4][0][0][0][0][1]
    return {"distribution": {"k": 2, "cumulants": cums}, "map": map_spec_scaled_id(2, 1.5)}


@pytest.mark.parametrize("style", ["spaced", "compact", "indented", "ragged"])
def test_padded_cumulant_spec_reaches_json_to_array_as_arrays(tmp_path, monkeypatch, style):
    # past the threshold each long, canonical array field reaches
    # json_to_array as the ndarray read from its text; indented or ragged
    # text, and a field shorter than MIN_SITE_BYTES, stays nested lists
    spec = _cumulant_spec(ragged=style == "ragged")
    text = json.dumps(spec, **_STYLES["spaced" if style == "ragged" else style])
    small, big = write_text(tmp_path, text), str(tmp_path / "big.json")
    Path(big).write_text(text)
    padded(big)
    seen = []
    monkeypatch.setattr(serialize, "json_to_array", lambda data: seen.append(type(data)) or json_to_array(data))
    runs, types = [], []
    for path in (small, big):
        seen.clear()
        runs.append(_run(["convolve-power", "--in", path]))
        types.append(list(seen))
    assert runs[0][:2] == runs[1][:2] and runs[0][2].replace(small, "") == runs[1][2].replace(big, "")
    sizes = [len(json.dumps(c, **_STYLES["compact"])) for c in spec["distribution"]["cumulants"]]
    assert [size >= MIN_SITE_BYTES for size in sizes] == [False] * 3 + [True] * 2
    if style == "ragged":  # the last cumulant stays a list, and json_to_array refuses it
        assert types == [[list] * 5, [list] * 3 + [np.ndarray, list]] and runs[1][0] == 2
        assert "malformed complex array" in runs[1][2]
    else:
        fast = np.ndarray if style in ("spaced", "compact") else list
        assert types == [[list] * 6, [list] * 3 + [fast] * 2 + [list]] and runs[1][0] == 0


def _deep(where):
    n = 3_000 if where == "choi" else 200_000
    body = '["]", ' * n + "[]" + "]" * n if where == "k-strings" else "[" * n + "]" * n
    return '{"k": 2, "choi": %s}' % body if where.startswith("choi") else '{"k": %s}' % body


@pytest.mark.parametrize("where, pad", [
    ("k", False), ("k", True), ("choi", False), ("choi", True), ("k-strings", False), ("choi-200k", True),
], ids=["k-json", "k-past-threshold", "choi-json", "choi-past-threshold", "k-strings-past-threshold",
        "choi-200k-past-threshold"])
def test_deeply_nested_input_exit_2(tmp_path, where, pad):
    # json raises RecursionError; past the threshold a site nested deeper
    # than MAX_FAST_DEPTH is declined before its shape is read, and json
    # reads the whole file.  The "]" strings between the brackets (1.2 MB
    # unpadded) hide no depth.
    path = write_text(tmp_path, _deep(where))
    if pad:
        padded(path)
    assert (os.path.getsize(path) >= FAST_READ_BYTES) == (pad or where == "k-strings")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "ovfree.cli", "check-cp", "--in", path], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"ovfree: cannot read JSON input {path}: ")


def test_orjson_is_imported_only_past_the_threshold(tmp_path):
    # only a padded document with a long site loads orjson, for the site's
    # numbers; padding changes no output
    big = tmp_path / "convolve.json"
    big.write_text(Path(GOLDEN_CONVOLVE).read_text())
    long_site = write(tmp_path, "long.json", _cumulant_spec())
    (tmp_path / "long_big.json").write_text(Path(long_site).read_text())
    paths = [GOLDEN_CONVOLVE, padded(big), long_site, padded(tmp_path / "long_big.json")]
    code = (
        "import contextlib, io, sys\n"
        "import ovfree.cli\n"
        "assert 'orjson' not in sys.modules\n"
        "outs = []\n"
        f"for path in {paths!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        assert ovfree.cli.main(['convolve-power', '--in', path]) == 0\n"
        "    outs.append(buf.getvalue())\n"
        "    print('orjson' in sys.modules)\n"
        "assert outs[0] == outs[1] and outs[2] == outs[3] and '\"moments\":' in outs[2]\n"
    )
    assert run_fresh(code).split() == ["False", "False", "False", "True"]


@pytest.mark.parametrize("tail", [b'"x": tru', b'"x": "\xff"', b'"k": ' + b"[" * 200_000 + b"]" * 200_000],
                         ids=["syntax-error", "invalid-utf-8", "nested-200k"])
def test_refused_skeleton_sends_the_whole_file_to_json(tmp_path, monkeypatch, tail):
    # json refuses the text around the one long site, and reads the whole
    # file again: the one stderr line and exit code of json.load's read of
    # the file, positions in the original CRLF text
    site = json.dumps(np.ones((64, 64, 2)).tolist()).encode()
    path = tmp_path / "in.json"
    path.write_bytes(b'{"k": 2,\r\n "choi": ' + site + b",\r\n " + tail + b"}")
    padded(path)
    found, scan = [], serialize._array_sites
    monkeypatch.setattr(serialize, "_array_sites", lambda data: found.append(scan(data)) or found[-1])
    runs = [_run(["check-cp", "--in", str(path)])]
    monkeypatch.setattr(serialize, "FAST_READ_BYTES", os.path.getsize(path) + 1)  # json.load alone
    runs.append(_run(["check-cp", "--in", str(path)]))
    assert runs[0] == runs[1] and runs[0][0] == 2 and runs[0][2].count("\n") == 1
    assert [len(sites) for sites in found] == [1]


OVERFLOW_INPUTS = {
    # eigenvalues 0, 0, 0 and 4 * 1.7e308
    "check-cp": {"k": 2, "choi": [[[1.7e308 if i == j else -1.7e308, 0.0] for j in range(4)] for i in range(4)]},
    "convolve-power": {
        "distribution": {"k": 1, "cumulants": [[[[1e200, 0.0]]], [[[[1e200, 0.0]]]]]},
        "map": map_spec_scaled_id(1, 1.0),
    },
    "verify-realization": {
        "distribution": {"k": 1, "realization": {"d": 1, "p": 1, "X": [[[1e200, 0.0]]], "state": [[[1.0, 0.0]]]}},
        "map": map_spec_scaled_id(1, 1.0),
    },
}


@pytest.mark.parametrize("command", sorted(OVERFLOW_INPUTS))
def test_overflowing_result_exit_2_and_writes_nothing(tmp_path, capsys, command):
    # finite inputs whose results overflow to inf or nan: no Infinity token,
    # no passing certificate, no RuntimeWarning, and no byte of output
    out = tmp_path / "out.json"
    argv = [command, "--in", write(tmp_path, "in.json", OVERFLOW_INPUTS[command]), "--out", str(out)]
    assert_one_line_exit_2(capsys, argv, "non-finite number")
    assert not out.exists()
    assert_one_line_exit_2(capsys, argv[:3], "non-finite number")
    assert capsys.readouterr().out == ""


def test_check_cp_near_the_double_limit(tmp_path, capsys):
    # a finite Choi matrix near the largest double is certified as it is
    assert main(["check-cp", "--in", write(tmp_path, "in.json", {"k": 1, "choi": [[[1e308, 0.0]]]})]) == 0
    assert json.loads(capsys.readouterr().out)["eta"] == {"is_psd": True, "min_eigenvalue": 1e308, "tol": 1e-9, "witness": None}
    # a rank-one Choi matrix of entries 1e10: its eigenvalue -5.5e-6 is rounding at that scale
    assert main(["check-cp", "--in", write(tmp_path, "big.json", {"k": 2, "choi": array_to_json(np.full((4, 4), 1e10))})]) == 0
    eta = json.loads(capsys.readouterr().out)["eta"]
    assert eta["is_psd"] and eta["witness"] is None and eta["tol"] == 1e-9


@pytest.mark.parametrize("argv, scale, field", [
    (["positivity", "--level", "4"], 7.0, "positive_up_to_level"),  # min eigenvalue -1.25e-8 of a 44 x 44 matrix of norm 3.5e7
    (["verify-realization", "--order", "6"], 12.0, "pass"),  # the routes differ by 2.7e-7 on order-6 moments of about 1e9
], ids=["positivity", "verify-realization"])
def test_verdicts_on_a_realization_hold_at_its_scale(tmp_path, capsys, argv, scale, field):
    rng = np.random.default_rng(11)
    r = random_realization(rng, k=2, p=2, scale=scale)
    dist = {"k": 2, "order": 6, "realization": {"d": 4, "p": 2, "X": array_to_json(r.X), "state": array_to_json(r.rho)}}
    spec = {"distribution": dist, "map": {"k": 2, "choi": array_to_json(random_eta(rng, 2).choi)}}
    assert main([argv[0], "--in", write(tmp_path, "in.json", spec), *argv[1:]]) == 0
    assert json.loads(capsys.readouterr().out)[field] is True


@pytest.mark.parametrize("level", [2, 3, 4])
def test_a_negative_variance_is_not_positive_next_to_a_large_moment(tmp_path, capsys, level):
    # kappa2 = -1 makes m2 = -1; kappa6 = 1e12 puts m6 = 1e12 into the level-4
    # Hankel matrix, and its rounding must not hide the level-2 witness
    spec = semicircle_spec(6)
    spec["cumulants"][1] = array_to_json(-np.ones((1, 1, 1)))
    spec["cumulants"][5] = array_to_json(np.full((1,) * 5 + (1, 1), 1e12))
    assert main(["positivity", "--in", write(tmp_path, "in.json", spec), "--level", str(level)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["positive_up_to_level"] is False and out["certificate"]["min_eigenvalue"] <= -0.5


# the ovfree modules a fresh CLI process runs for each command; the rest stay
# lazy in sys.modules (and no command runs ncpart)
FRONT = {"cli", "serialize", "cpmaps", "algebra"}
TRANSFORM = FRONT | {"ovdist", "multimap"}
LOADED = {
    ("--help",): {"cli"},
    ("check-cp", "map.json"): FRONT,
    ("check-cp", "convolve.json"): FRONT,  # exit 2: not a map spec
    ("positivity", "positivity.json"): TRANSFORM,
    ("convolve-power", "convolve.json"): TRANSFORM,
    ("counterexample", "map.json"): TRANSFORM | {"converse"},
    ("verify-realization", "realization.json"): TRANSFORM | {"fock", "freeprod"},
}


@pytest.mark.parametrize("argv", sorted(LOADED), ids=["-".join(argv) for argv in sorted(LOADED)])
def test_each_command_runs_only_the_modules_it_calls(argv):
    args = [argv[0]] + (["--in", str(Path(GOLDEN_CONVOLVE).parent / argv[1])] if len(argv) > 1 else [])
    code = (
        "import contextlib, io, sys, types\n"
        "from ovfree.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        main({args!r})\n"
        "    except SystemExit:\n"
        "        pass\n"
        "ours = [name for name in sys.modules if name.startswith('ovfree.')]\n"
        "print(len(ours), sorted(name[7:] for name in ours if type(sys.modules[name]) is types.ModuleType))\n"
    )
    assert run_fresh(code) == f"10 {sorted(LOADED[argv])}\n"  # every submodule is in sys.modules


# each argument error's exit code and last stderr line (a prefix of it), and --help's
ARGUMENT_EXITS = [
    (["--help"], 0, ""),
    ([], 2, "ovfree: error: the following arguments are required: command"),
    (["nope"], 2, "ovfree: error: argument command: invalid choice: 'nope'"),
    (["check-cp"], 2, "ovfree check-cp: error: the following arguments are required: --in"),
    (["positivity", "--in", GOLDEN_CONVOLVE, "--level", "0"], 2, "ovfree: --level must be at least 1, got 0"),
    (["counterexample", "--in", GOLDEN_CONVOLVE, "--level", "2"], 2,
     "ovfree: counterexample needs --level at least 3 (levels 1 and 2 never fail), got 2"),
    (["check-cp", "--in", GOLDEN_CONVOLVE, "--tol", "nan"], 2, "ovfree: --tol must be a finite number above 0, got nan"),
    (["convolve-power", "--in", GOLDEN_CONVOLVE, "--order", "0"], 2, "ovfree: --order must be at least 1, got 0"),
]


@pytest.mark.parametrize("argv, code, line", ARGUMENT_EXITS, ids=[" ".join(a[:1] + a[3:]) or "none" for a, _, _ in ARGUMENT_EXITS])
def test_help_and_argument_errors_exit_before_numpy_is_imported(argv, code, line):
    # main checks its arguments before it imports numpy or runs any ovfree
    # module but cli
    script = (
        "import contextlib, io, json, sys, types\n"
        "from ovfree.cli import main\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    try:\n"
        f"        code = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "ran = sorted(m[7:] for m in sys.modules if m.startswith('ovfree.') and type(sys.modules[m]) is types.ModuleType)\n"
        "print(json.dumps([code, out.getvalue(), err.getvalue(), 'numpy' in sys.modules, ran]))\n"
    )
    got_code, out, err, numpy_loaded, ran = json.loads(run_fresh(script))
    assert (got_code, numpy_loaded, ran) == (code, False, ["cli"])
    if code == 0:
        assert out.startswith("usage: ovfree ") and err == ""
    else:
        assert out == "" and err.endswith("\n") and err.splitlines()[-1].startswith(line)


def _collector_cases(tmp_path):
    noncp = dict(read(GOLDEN_REALIZATION), map=map_spec_scaled_id(2, 0.5))  # eta - id = -id/2
    return {
        "command": (["verify-realization", "--in", GOLDEN_REALIZATION], 0),
        "input-error": (["check-cp", "--in", str(tmp_path / "missing.json")], 2),
        "precondition": (["verify-realization", "--in", write(tmp_path, "noncp.json", noncp)], 3),
        "usage-error": (["check-cp"], "SystemExit(2)"),
        "help": (["--help"], "SystemExit(0)"),
    }


@pytest.mark.parametrize("case", ["command", "input-error", "precondition", "usage-error", "help"])
def test_main_runs_no_collection_and_restores_the_collector(tmp_path, case):
    # no collection runs from main's entry to its return, so none traverses
    # numpy, the ovfree modules or the parsed input; main then leaves every
    # object frozen and the collector as it found it, enabled or not
    argv, want = _collector_cases(tmp_path)[case]
    code = (
        "import contextlib, gc, io, json\n"
        "from ovfree.cli import main\n"
        "inside, starts = [False], []\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        inside[0] = True\n"
        "        try:\n"
        "            return main(argv)\n"
        "        except SystemExit as exc:\n"
        "            return f'SystemExit({exc.code})'\n"
        "        finally:\n"
        "            inside[0] = False\n"
        "gc.callbacks.append(lambda phase, info: starts.append(phase) if phase == 'start' and inside[0] else None)\n"
        "gc.collect()  # the few objects made before main's entry can then trigger none\n"
        f"first = run({argv!r})\n"
        "state = [len(starts), gc.isenabled(), gc.get_freeze_count() > 0]\n"
        "gc.disable()\n"
        f"second = run({argv!r})\n"
        "print(json.dumps([first, *state, second, gc.isenabled()]))\n"
    )
    assert json.loads(run_fresh(code)) == [want, 0, True, True, want, False]
