import json
import tracemalloc

import numpy as np
import pytest

from ovfree import algebra
from ovfree.algebra import MAX_ARRAY_BYTES, check_array_size, matrix_units, psd_check
from ovfree.cli import main
from ovfree.cpmaps import CPMap
from ovfree.fock import build_fock
from ovfree.freeprod import compressed_distribution, evaluate
from ovfree.multimap import MultiMap
from ovfree.ovdist import Realization
from ovfree.serialize import array_to_json

from conftest import random_complex, random_cp, random_hermitian, random_unitary


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
    # the gate takes asymmetry up to 10 * tol * max(1, max |m_ij|): input
    # rounded elsewhere passes, at scale 1 exactly as under the old 10 * tol
    for scale in (1.0, 1e6):
        for factor, accepted in ((0.9, True), (1.1, False)):
            m = scale * np.eye(2, dtype=complex)
            m[0, 1] = factor * 1e-8 * scale
            if accepted:
                assert psd_check(m).is_psd
            else:
                with pytest.raises(ValueError, match="not Hermitian"):
                    psd_check(m)


def test_psd_reads_a_graded_matrix_at_its_rows_scale(rng):
    # a moment matrix is graded; a negative eigenvalue of its unit-scale block
    # stays a witness next to an entry of 1e12, whose rounding it is below
    block = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-6]])  # eigenvalue -5e-7
    m = np.zeros((3, 3))
    m[:2, :2], m[2, 2] = block, 1e12
    rep = psd_check(m)
    assert not psd_check(block).is_psd and not rep.is_psd
    assert rep.min_eigenvalue < -1e-7 and abs(rep.witness.conj() @ m @ rep.witness - rep.min_eigenvalue) < 1e-12
    # and a graded rank-deficient Gram matrix, rows from 1 to 1e12, is PSD
    g = random_complex(rng, (4, 6))
    d = np.sqrt(10.0 ** np.arange(0, 13, 2.4))
    assert psd_check(d[:, None] * (g.conj().T @ g) * d[None, :]).is_psd


def test_psd_unitary_invariance(rng):
    h = random_complex(rng, (5, 5))
    h = h + h.conj().T
    u = random_unitary(rng, 5)
    r1 = psd_check(h)
    r2 = psd_check(u.conj().T @ h @ u)
    assert abs(r1.min_eigenvalue - r2.min_eigenvalue) < 1e-10


def test_psd_of_gram_amatrix(rng):
    # a 3 x 3 grid of 2 x 2 blocks, axes (W, k, W, k); its Gram matrix m^* m is PSD
    m = random_complex(rng, (3, 2, 3, 2)).reshape(6, 6)
    rep = psd_check(m.conj().T @ m)
    assert rep.min_eigenvalue >= -1e-10
    # at every scale a rank-deficient Gram matrix is PSD, and less 1e-6 of its
    # norm on its null vector v it is not (the rule scales with the matrix)
    g = random_complex(rng, (5, 6))
    v = np.linalg.svd(g)[2][-1].conj()
    for scale in 10.0 ** np.arange(-3, 13):
        gram = scale * (g.conj().T @ g)
        assert psd_check(gram).is_psd, scale
        bump = 1e-6 * max(1.0, np.linalg.norm(gram, 2)) * np.outer(v, v.conj())
        assert not psd_check(gram - bump).is_psd, scale
    rep = psd_check(np.full((4, 4), 1e10))  # rank one: eigenvalues 0, 0, 0 and 4e10, the zeros computed as -5.5e-6
    assert rep.is_psd and rep.witness is None


def test_psd_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            psd_check(np.diag([1.0, bad]))


def test_psd_near_the_double_limit():
    # m + m^dagger would overflow; the report is that of m itself
    rep = psd_check(np.array([[1e308]]))
    assert rep.min_eigenvalue == 1e308 and rep.is_psd
    rep = psd_check(np.diag([1.5e308, -1.5e308]))
    assert rep.min_eigenvalue == -1.5e308 and not rep.is_psd


def test_psd_report_owns_a_read_only_witness():
    rep = psd_check(np.diag([-1.0, 2.0]))
    assert not rep.witness.flags.writeable
    with pytest.raises(ValueError):
        rep.witness[0] = 0.0
    mine = np.array([1.0, 0.0])
    rep = algebra.PSDReport(min_eigenvalue=-1.0, witness=mine, tol=1e-9)
    mine[0] = 5.0
    assert rep.witness.tolist() == [1.0, 0.0] and not rep.witness.flags.writeable


def test_matrix_units():
    for k in (1, 2, 3):
        units = matrix_units(k)
        for p in range(k):
            for q in range(k):
                e = np.zeros((k, k))
                e[p, q] = 1.0
                assert np.array_equal(units[p * k + q], e)
        assert not units.flags.writeable


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


def test_array_size_rule_counts_freeness_letters(monkeypatch, rng):
    monkeypatch.setattr(algebra, "MAX_ARRAY_BYTES", 1_000_000)
    psi = random_cp(rng, 2, rank=1)
    eta = CPMap(2, CPMap.identity(2).choi + psi.choi)
    # k=2, p=20, order 5: the slabs hold 7 * 2**10 entries (115 kB), the B
    # letters of the compression word 20**2 * 2**10 (6.6 MB)
    r = Realization(k=2, p=20, X=random_hermitian(rng, 40), rho=np.eye(20) / 20)
    with pytest.raises(ValueError, match="a letter with 4 coefficient slots on a Fock module of 7 words and M_40 would need 7 MB"):
        compressed_distribution(r, eta, 5)
    # evaluate with six slotted atoms in one C run: slabs of 7 * 2**14 entries (1.8 MB)
    word = ["v*"] + [matrix_units(2)] * 6 + ["v"]
    r = Realization(k=2, p=1, X=random_hermitian(rng, 2), rho=np.eye(1))
    with pytest.raises(ValueError, match="a letter with 6 coefficient slots on a Fock module of 7 words and M_2 would need 2 MB"):
        evaluate(word, r, build_fock(psi, 2))
