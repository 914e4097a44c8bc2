import json
import tracemalloc

import numpy as np
import pytest

from ovfree import AMatrix, CPMap, MultiMap, Realization, compressed_distribution, flatten, psd_check
from ovfree.algebra import MAX_ARRAY_BYTES, check_array_size, matrix_units
from ovfree.cli import main
from ovfree.serialize import array_to_json

from conftest import random_complex, random_cp, random_hermitian, random_unitary


def random_amatrix(rng, rows, cols, k):
    return AMatrix(random_complex(rng, (rows, cols, k, k)))


def test_adjoint_identity():
    m = AMatrix.identity(3, 2)
    assert m.adjoint().allclose(m)


def test_adjoint_matrix_unit():
    e12 = matrix_units(2)[0 * 2 + 1]
    m = AMatrix(e12.reshape(1, 1, 2, 2))
    e21 = matrix_units(2)[1 * 2 + 0]
    assert np.allclose(m.adjoint().block(0, 0), e21)


def test_adjoint_involution(rng):
    m = random_amatrix(rng, 3, 3, 2)
    assert m.adjoint().adjoint().allclose(m)


def test_adjoint_antihomomorphism(rng):
    a = random_amatrix(rng, 3, 3, 2)
    b = random_amatrix(rng, 3, 3, 2)
    assert (a @ b).adjoint().allclose(b.adjoint() @ a.adjoint())


def test_flatten_identity():
    m = AMatrix.identity(4, 3)
    assert np.allclose(flatten(m), np.eye(12))


def test_flatten_block_diagonal(rng):
    a = random_complex(rng, (2, 2))
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[0, 0] = a
    blocks[1, 1] = a
    flat = flatten(AMatrix(blocks))
    expect = np.zeros((4, 4), dtype=complex)
    expect[:2, :2] = a
    expect[2:, 2:] = a
    assert np.allclose(flat, expect)


def test_flatten_multiplicative(rng):
    # oracle: multiply the flattened matrices directly
    a = random_amatrix(rng, 2, 2, 2)
    b = random_amatrix(rng, 2, 2, 2)
    direct = flatten(a) @ flatten(b)
    assert np.max(np.abs(flatten(a @ b) - direct)) < 1e-12


def test_flatten_star_preserving(rng):
    m = random_amatrix(rng, 3, 3, 2)
    assert np.max(np.abs(flatten(m.adjoint()) - flatten(m).conj().T)) < 1e-12


def test_flatten_rejects_non_square(rng):
    with pytest.raises(ValueError):
        flatten(random_amatrix(rng, 2, 3, 2))


def test_psd_identity():
    rep = psd_check(np.eye(4))
    assert abs(rep.min_eigenvalue - 1.0) < 1e-12
    assert rep.witness is None and rep.is_psd


def test_psd_indefinite_diagonal():
    rep = psd_check(np.diag([1.0, -1.0]))
    assert abs(rep.min_eigenvalue + 1.0) < 1e-12
    assert rep.witness is not None
    assert abs(abs(rep.witness[1]) - 1.0) < 1e-12
    assert not rep.is_psd


def test_psd_hankel_negative():
    # det by cofactor expansion: 1*(0.5*0 - 0) - 0 + 0.5*(0 - 0.25) = -1/8
    h = np.array([[1, 0, 0.5], [0, 0.5, 0], [0.5, 0, 0]])
    assert abs(np.linalg.det(h) + 0.125) < 1e-12
    rep = psd_check(h)
    assert rep.min_eigenvalue < -1e-6
    assert rep.witness is not None
    # witness invariant
    quad = rep.witness.conj() @ h @ rep.witness
    assert abs(quad.real - rep.min_eigenvalue) < 1e-10


def test_psd_rejects_non_hermitian(rng):
    m = random_complex(rng, (3, 3))
    with pytest.raises(ValueError):
        psd_check(m)


def test_psd_unitary_invariance(rng):
    h = random_complex(rng, (5, 5))
    h = h + h.conj().T
    u = random_unitary(rng, 5)
    r1 = psd_check(h)
    r2 = psd_check(u.conj().T @ h @ u)
    assert abs(r1.min_eigenvalue - r2.min_eigenvalue) < 1e-10


def test_psd_of_gram_amatrix(rng):
    m = random_amatrix(rng, 3, 3, 2)
    rep = psd_check(flatten(m.adjoint() @ m))
    assert rep.min_eigenvalue >= -1e-10


def _rank9_case(rng):
    """k = 3, eta - id of Kraus rank 9 and order 6: each compressed-moment
    slab would hold 111 * 3**12 = 59M complex entries (944 MB)."""
    eta = CPMap(3, CPMap.identity(3).choi + random_cp(rng, 3, rank=9).choi)
    r = Realization(k=3, p=1, X=random_hermitian(rng, 3), rho=np.eye(1))
    return r, eta


@pytest.mark.parametrize("case", ["multimap-zero", "compressed-distribution", "verify-realization"])
def test_array_size_rule(tmp_path, capsys, rng, case):
    # each case is refused by the one rule before its large array exists
    r, eta = _rank9_case(rng)
    tracemalloc.start()
    try:
        if case == "verify-realization":
            real = {"d": 3, "X": array_to_json(r.X), "embedding": "tensor-block", "p": 1, "state": [[[1.0, 0.0]]]}
            spec = {"distribution": {"k": 3, "order": 6, "realization": real}, "map": {"k": 3, "choi": array_to_json(eta.choi)}}
            path = tmp_path / "in.json"
            path.write_text(json.dumps(spec))
            assert main(["verify-realization", "--in", str(path)]) == 2
            message = capsys.readouterr().err.removeprefix("ovfree: ").removesuffix("\n")
        else:
            with pytest.raises(ValueError) as info:
                MultiMap.zero(3, 9) if case == "multimap-zero" else compressed_distribution(r, eta, 6)
            message = str(info.value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert MAX_ARRAY_BYTES == 800_000_000 and peak < 100_000_000
    assert "\n" not in message and message.endswith("MB array limit; reduce the order, k or the Kraus rank")


def test_array_size_rule_boundary():
    # 50M complex entries are allowed, as by the MultiMap guard the rule replaced
    check_array_size(50_000_000, "an array")
    with pytest.raises(ValueError, match="an array would need 800 MB, above the 800 MB array limit"):
        check_array_size(50_000_001, "an array")
