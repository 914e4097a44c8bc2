import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovfree import CPMap, FockOp, NotCompletelyPositiveError, build_fock, word_expectation
from ovfree.algebra import matrix_units

from conftest import random_complex, random_cp


def scaled_id_fock(t, depth=4):
    psi = CPMap.from_kraus(1, [np.array([[np.sqrt(t - 1.0)]])])
    return build_fock(psi, depth), CPMap.scaled_identity(1, t)


def eta_of(psi):
    return CPMap(psi.k, psi.choi + CPMap.identity(psi.k).choi)


def test_zero_psi_degenerate_module():
    f = build_fock(CPMap.zero(2), 4)
    assert f.r == 0
    assert f.D == 5  # one word per degree 0..4


def test_identity_psi_ranks():
    f = build_fock(CPMap.identity(2), 4)
    assert f.r == 1
    assert f.grading == [1, 2, 4, 8, 16]
    assert f.D == 31


def test_rank_two_psi_geometric_sum(rng):
    psi = random_cp(rng, 2, rank=2)
    f = build_fock(psi, 4)
    assert f.r == 2
    assert f.D == 1 + 3 + 9 + 27 + 81


def test_non_cp_psi_rejected():
    with pytest.raises(NotCompletelyPositiveError) as err:
        build_fock(CPMap.transpose_map(2), 3)
    assert err.value.report.witness is not None


def test_xi_reproduces_psi(rng):
    psi = random_cp(rng, 2, rank=2)
    f = build_fock(psi, 3)
    for a in matrix_units(2):
        got = sum(K.conj().T @ a @ K for K in f.kraus)
        assert np.max(np.abs(got - psi.apply(a))) < 1e-10


def test_v_on_vacuum_inserts_xi(rng):
    psi = random_cp(rng, 2, rank=2)
    f = build_fock(psi, 3)
    v = f.v_op()
    vacuum = f.word_index[()]
    for letter in range(f.r + 1):
        target = f.word_index[(letter,)]
        coord = f.kraus[letter] if letter < f.r else np.eye(2)
        assert np.max(np.abs(v.block(target, vacuum) - coord)) < 1e-12
    assert v.degree_shift == +1


def test_zero_psi_v_is_isometric_shift():
    f = build_fock(CPMap.zero(2), 4)
    v = f.v_op()
    vv = v.adjoint() @ v
    assert np.max(np.abs(f.cond_exp_block(vv.mat) - np.eye(2))) < 1e-12


def test_v_star_v_is_eta_of_one(rng):
    psi = random_cp(rng, 2, rank=2)
    f = build_fock(psi, 4)
    v = f.v_op()
    got = f.cond_exp_block((v.adjoint() @ v).mat)
    assert np.max(np.abs(got - eta_of(psi).apply(np.eye(2)))) < 1e-12


def test_isometry_after_normalization():
    # eta(1) = alpha * 1 makes alpha^(-1/2) v an isometry
    t = 2.5
    f, _ = scaled_id_fock(t)
    v = (t**-0.5) * f.v_op()
    got = f.cond_exp_block((v.adjoint() @ v).mat)
    assert abs(complex(got[0, 0]) - 1.0) < 1e-12
    # same over M_2 with psi = (t - 1) id
    f2 = build_fock(CPMap.scaled_identity(2, t - 1.0), 3)
    v2 = (t**-0.5) * f2.v_op()
    assert np.max(np.abs(f2.cond_exp_block((v2.adjoint() @ v2).mat) - np.eye(2))) < 1e-12


def test_lambda_is_unital_star_homomorphism(rng):
    psi = random_cp(rng, 2, rank=1)
    f = build_fock(psi, 3)
    eye = f.lambda_op(np.eye(2))
    assert (eye.mat != f.identity_op().mat).nnz == 0
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (2, 2))
    prod = f.lambda_op(a) @ f.lambda_op(b)
    assert np.max(np.abs((prod.mat - f.lambda_op(a @ b).mat).toarray())) < 1e-12
    adj = f.lambda_op(a).adjoint()
    assert np.max(np.abs((adj.mat - f.lambda_op(a.conj().T).mat).toarray())) < 1e-12


def test_compression_identity_below_boundary(rng):
    psi = random_cp(rng, 2, rank=2)
    f = build_fock(psi, 3)
    eta = eta_of(psi)
    v = f.v_op()
    for a in matrix_units(2):
        W = v.adjoint() @ f.lambda_op(a) @ v
        expect = eta.apply(a)
        for i, w in enumerate(f.words):
            if len(w) < f.depth:
                assert np.max(np.abs(W.block(i, i) - expect)) < 1e-12
        # and off-diagonal blocks vanish
        dense = W.mat.toarray()
        for i in range(f.D):
            dense[i * 2:(i + 1) * 2, i * 2:(i + 1) * 2] = 0
        assert np.max(np.abs(dense)) < 1e-12


def test_state_compression_recovers_element(rng):
    psi = random_cp(rng, 2, rank=2)
    f = build_fock(psi, 3)
    v = f.v_op()
    a = random_complex(rng, (2, 2))
    got = f.cond_exp_block((v @ f.lambda_op(a) @ v.adjoint()).mat)
    assert np.max(np.abs(got - a)) < 1e-12


def test_cond_exp_restricted_to_algebra(rng):
    psi = random_cp(rng, 2, rank=1)
    f = build_fock(psi, 3)
    a = random_complex(rng, (2, 2))
    assert np.max(np.abs(f.cond_exp_block(f.lambda_op(a).mat) - a)) < 1e-12


def test_non_tracial_scalar_case():
    for t in (1.5, 2.0, 3.0):
        f, _ = scaled_id_fock(t)
        v = f.v_op()
        assert abs(complex(f.cond_exp_block((v @ v.adjoint()).mat)[0, 0]) - 1.0) < 1e-12
        assert abs(complex(f.cond_exp_block((v.adjoint() @ v).mat)[0, 0]) - t) < 1e-12


def test_cond_exp_bimodule_property(rng):
    psi = random_cp(rng, 2, rank=1)
    f = build_fock(psi, 3)
    v = f.v_op()
    T = v @ f.lambda_op(random_complex(rng, (2, 2))) @ v.adjoint()
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (2, 2))
    lhs = f.cond_exp_block((f.lambda_op(a) @ T @ f.lambda_op(b)).mat)
    assert np.max(np.abs(lhs - a @ f.cond_exp_block(T.mat) @ b)) < 1e-12


def test_cond_exp_positive(rng):
    psi = random_cp(rng, 2, rank=1)
    f = build_fock(psi, 4)
    v = f.v_op()
    T = v @ f.lambda_op(random_complex(rng, (2, 2))) + 0.3 * v.adjoint()
    block = f.cond_exp_block((T.adjoint() @ T).mat)
    assert np.linalg.eigvalsh((block + block.conj().T) / 2)[0] >= -1e-10


def test_word_expectation_examples(rng):
    psi = random_cp(rng, 2, rank=2)
    f = build_fock(psi, 5)
    eta = eta_of(psi)
    a = random_complex(rng, (2, 2))
    assert np.max(np.abs(word_expectation(f, ["v*", a, "v"]) - eta.apply(a))) < 1e-12
    assert np.max(np.abs(word_expectation(f, ["v", a, "v*"]) - a)) < 1e-12
    # oracle: direct operator product for the length-4 word
    got = word_expectation(f, ["v*", "v", "v*", "v"])
    eta1 = eta.apply(np.eye(2))
    assert np.max(np.abs(got - eta1 @ eta1)) < 1e-12


def test_word_expectation_depth_guard(rng):
    psi = random_cp(rng, 1, rank=1)
    f = build_fock(psi, 2)
    with pytest.raises(ValueError, match="need depth >= 4"):
        word_expectation(f, ["v*", np.eye(1), "v"])


def test_word_expectation_depth_invariance(rng):
    psi = random_cp(rng, 2, rank=1)
    a = random_complex(rng, (2, 2))
    word = ["v", "v*", a, "v", "v*"]
    f1 = build_fock(psi, len(word) + 1)
    f2 = build_fock(psi, len(word) + 3)
    assert np.max(np.abs(word_expectation(f1, word) - word_expectation(f2, word))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([1, 2, 3]), rank=st.sampled_from([0, 1, 2]), depth=st.integers(2, 4),
       slots=st.lists(st.integers(1, 3), max_size=2), support=st.sampled_from(["all", "top", "below"]),
       seed=st.integers(0, 2**32 - 1))
def test_slab_pushes_match_sparse_v(k, rank, depth, slots, support, seed):
    rng = np.random.default_rng(seed)
    psi = CPMap.zero(k) if rank == 0 else random_cp(rng, k, rank=rank)
    f = build_fock(psi, depth)
    slab = random_complex(rng, (f.D, k, *slots))
    top = f.degrees == depth
    if support == "top":  # v must send all of it to zero
        slab[~top] = 0
    elif support == "below":
        slab[top] = 0
    v = f.v_op()
    flat = slab.reshape(f.dim, -1)
    for got, oracle in ((f.push_v(slab), v.mat @ flat), (f.push_vstar(slab), v.adjoint().mat @ flat)):
        assert got.shape == slab.shape
        assert np.max(np.abs(got.reshape(f.dim, -1) - oracle), initial=0.0) < 1e-13
    if support == "top":
        assert not np.any(f.push_v(slab))


def test_index_maps_are_read_only(rng):
    f = build_fock(random_cp(rng, 2, rank=2), 3)
    assert f.prepend_index.shape == (1 + 3 + 9, 3)
    # row w of the table is l.w for every letter l, by the words themselves
    for i, w in enumerate(f.words[:13]):
        assert [f.word_index[(letter,) + w] for letter in range(3)] == list(f.prepend_index[i])
    assert f.letter_coords.shape == (3, 2, 2)
    for table in (f.prepend_index, f.letter_coords):
        with pytest.raises(ValueError):
            table.flat[0] = 0


def test_fock_op_owns_a_read_only_csr():
    f = build_fock(CPMap.identity(2), 2)
    v = f.v_op()
    assert isinstance(v.mat.nnz, int) and v.mat.nnz > 0
    for arr in (v.mat.data, v.mat.indices, v.mat.indptr):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    with pytest.raises(ValueError):
        v.mat[v.mat.nonzero()[0][0], v.mat.nonzero()[1][0]] = 5.0  # a stored entry is written in place
    # the operator keeps its own copy: changing the matrix it was built from changes nothing
    import scipy.sparse as sp

    mat = sp.identity(f.dim, format="csr", dtype=complex)
    op = FockOp(f, mat, 0)
    mat.data[:] = 7.0
    assert np.array_equal(op.mat.toarray(), np.eye(f.dim))
    assert (op @ v).mat.nnz == v.mat.nnz and not (v.adjoint() @ v).mat.data.flags.writeable
