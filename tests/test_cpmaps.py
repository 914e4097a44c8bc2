import numpy as np
import pytest

from ovfree import algebra
from ovfree.algebra import matrix_units
from ovfree.cpmaps import CPMap, NotCompletelyPositiveError, _vec, eta_minus_id_cp

from conftest import random_complex, random_cp


def test_choi_of_identity():
    m = CPMap.from_unit_values(2, list(matrix_units(2)))
    expect = sum(np.kron(e, e) for e in matrix_units(2))
    assert np.allclose(m.choi, expect)
    assert np.allclose(np.linalg.eigvalsh(m.choi), [0, 0, 0, 2])


def test_choi_of_trace_map():
    k = 2
    units = matrix_units(k)
    values = [np.trace(e) / k * np.eye(k) for e in units]
    m = CPMap.from_unit_values(k, values)
    assert np.allclose(m.choi, np.eye(k * k) / k)


def test_choi_of_transpose_is_swap():
    m = CPMap.transpose_map(2)
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[a * 2 + b, b * 2 + a] = 1.0
    assert np.allclose(m.choi, swap)
    assert np.allclose(np.linalg.eigvalsh(m.choi), [-1, 1, 1, 1])


@pytest.mark.parametrize("k, batch", [(1, (5,)), (2, (4, 3)), (3, (9,)), (2, ())])
def test_apply_maps_a_stack_as_each_matrix(rng, k, batch):
    # bit for bit the per-matrix einsum("pq,piqj->ij", a, choi4)
    eta = CPMap(k, random_complex(rng, (k * k, k * k)))
    a = random_complex(rng, batch + (k, k))
    got = eta.apply(a)
    assert got.shape == a.shape
    for i in np.ndindex(*batch):
        assert np.array_equal(got[i], np.einsum("pq,piqj->ij", a[i], eta.choi4))
    with pytest.raises(ValueError, match=f"expected {k}x{k} matrices"):
        eta.apply(np.zeros((k + 1, k + 1)))


def test_is_cp_identity():
    assert CPMap.identity(3).is_cp().is_psd


def test_is_cp_transpose_antisymmetric_witness():
    rep = CPMap.transpose_map(2).is_cp()
    assert not rep.is_psd
    w = rep.witness
    # the -1 eigenvector of swap is the antisymmetric vector (0, 1, -1, 0)/sqrt(2)
    assert abs(abs(w[1]) - 1 / np.sqrt(2)) < 1e-10
    assert abs(w[1] + w[2]) < 1e-10
    assert abs(w[0]) < 1e-10 and abs(w[3]) < 1e-10


def test_is_cp_single_kraus(rng):
    K = random_complex(rng, (3, 3))
    assert CPMap.from_kraus(3, [K]).is_cp().is_psd


def test_eta_minus_id_scaled():
    assert eta_minus_id_cp(CPMap.scaled_identity(2, 2.0)).is_psd
    boundary = eta_minus_id_cp(CPMap.identity(2))
    assert boundary.is_psd and abs(boundary.min_eigenvalue) < 1e-12
    assert not eta_minus_id_cp(CPMap.scaled_identity(2, 0.5)).is_psd


def test_kraus_of_identity():
    ops = CPMap.identity(2).kraus()
    assert len(ops) == 1
    assert np.allclose(ops[0], np.eye(2))


def test_kraus_of_eta_minus_id():
    psi = CPMap.scaled_identity(2, 3.0).minus_id()
    ops = psi.kraus()
    assert len(ops) == 1
    assert np.allclose(ops[0], np.sqrt(2.0) * np.eye(2))


def test_kraus_round_trip(rng):
    k = 3
    m = random_cp(rng, k, rank=3)
    ops = m.kraus()
    assert len(ops) == 3
    rebuilt = CPMap.from_kraus(k, ops)
    assert np.max(np.abs(rebuilt.choi - m.choi)) < 1e-9


def test_kraus_of_zero_map():
    assert CPMap.zero(2).kraus() == []


def test_kraus_rejects_non_cp():
    with pytest.raises(NotCompletelyPositiveError) as err:
        CPMap.transpose_map(2).kraus()
    assert err.value.report.witness is not None


def test_from_kraus_checks_shapes_and_bytes_before_the_choi_matrix(monkeypatch):
    with pytest.raises(ValueError, match="Kraus operators must be 3000 x 3000"):
        CPMap.from_kraus(3000, [np.eye(1)])
    # a 16^2 x 16^2 Choi matrix needs 1.05 MB, above a lowered limit of 1 MB
    monkeypatch.setattr(algebra, "MAX_ARRAY_BYTES", 1_000_000)
    with pytest.raises(ValueError, match="the Choi matrix of a map on M_16 would need 1 MB"):
        CPMap.from_kraus(16, [np.eye(16)])
    assert CPMap.from_kraus(15, [np.eye(15)]).k == 15


def test_vec_convention_pins_choi(rng):
    # dedicated convention test: choi == sum vec(K) vec(K)^* for the fixed vec
    k = 2
    ops = [random_complex(rng, (k, k)) for _ in range(2)]
    m = CPMap.from_kraus(k, ops)
    built = sum(np.outer(_vec(K), _vec(K).conj()) for K in ops)
    assert np.allclose(m.choi, built)
    # and the Kraus action matches the Choi action
    a = random_complex(rng, (k, k))
    direct = sum(K.conj().T @ a @ K for K in ops)
    assert np.max(np.abs(m.apply(a) - direct)) < 1e-12


def test_amplify_order_one(rng):
    m = random_cp(rng, 2, rank=2)
    assert np.allclose(m.amplify(1).choi, m.choi)


def test_amplify_identity(rng):
    amp = CPMap.identity(2).amplify(3)
    a = random_complex(rng, (6, 6))
    assert np.max(np.abs(amp.apply(a) - a)) < 1e-12


def test_amplify_blockwise_action(rng):
    m = random_cp(rng, 2, rank=2)
    amp = m.amplify(2)
    x = random_complex(rng, (4, 4))
    expect = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            expect[2 * i:2 * i + 2, 2 * j:2 * j + 2] = m.apply(x[2 * i:2 * i + 2, 2 * j:2 * j + 2])
    assert np.max(np.abs(amp.apply(x) - expect)) < 1e-12


def test_amplify_partial_transpose_not_cp():
    assert not CPMap.transpose_map(2).amplify(2).is_cp().is_psd


def test_amplify_rejects_bad_order():
    with pytest.raises(ValueError):
        CPMap.identity(2).amplify(0)


def test_apply_identity(rng):
    a = random_complex(rng, (2, 2))
    assert np.allclose(CPMap.identity(2).apply(a), a)


def test_apply_kraus_on_unit(rng):
    ops = [random_complex(rng, (2, 2)) for _ in range(2)]
    m = CPMap.from_kraus(2, ops)
    expect = sum(K.conj().T @ K for K in ops)
    assert np.max(np.abs(m.apply(np.eye(2)) - expect)) < 1e-12


def test_apply_eta_on_unit(rng):
    # eta(1) = psi(1) + 1 for eta = psi + id
    psi = random_cp(rng, 2, rank=2)
    eta = CPMap(2, psi.choi + CPMap.identity(2).choi)
    assert np.max(np.abs(eta.apply(np.eye(2)) - (psi.apply(np.eye(2)) + np.eye(2)))) < 1e-12


def test_choi_action_round_trip(rng):
    k = 2
    m = random_cp(rng, k, rank=2)
    rebuilt = CPMap.from_action(k, m.apply)
    assert np.max(np.abs(rebuilt.choi - m.choi)) < 1e-12


def test_apply_star_compatible(rng):
    m = random_cp(rng, 2, rank=2)
    a = random_complex(rng, (2, 2))
    assert np.max(np.abs(m.apply(a.conj().T) - m.apply(a).conj().T)) < 1e-12


def test_eta_minus_id_cp_implies_eta_cp(rng):
    for seed in range(5):
        sub = np.random.default_rng(seed)
        psi = random_cp(sub, 2, rank=2)
        eta = CPMap(2, psi.choi + CPMap.identity(2).choi)
        assert eta_minus_id_cp(eta).is_psd
        assert eta.is_cp().is_psd


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        CPMap.identity(2).apply(np.eye(3))


def test_cpmap_owns_a_read_only_choi(rng):
    choi = random_cp(rng, 2, rank=2).choi.copy()
    m = CPMap(2, choi)
    a = random_complex(rng, (2, 2))
    before = m.apply(a)
    choi[:] = 0
    assert np.array_equal(m.apply(a), before)
    with pytest.raises(ValueError):
        m.choi[0, 0] = 1.0
    with pytest.raises(ValueError):
        m.choi4[0, 0, 0, 0] = 1.0


def test_cpmap_refuses_assignment(rng):
    m = random_cp(rng, 2, rank=2)
    choi = m.choi
    with pytest.raises(AttributeError, match="immutable"):
        m.k = 3  # a 4x4 Choi matrix read as k = 3 would void every shape check
    with pytest.raises(AttributeError, match="immutable"):
        m.choi = np.zeros((4, 4))
    with pytest.raises(AttributeError, match="immutable"):
        del m.k
    with pytest.raises(AttributeError, match="immutable"):
        m.cache = None
    assert m.k == 2 and m.choi is choi
