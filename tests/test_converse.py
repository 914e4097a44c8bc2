from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ovfree.converse import (
    GNSModel,
    NoWitnessError,
    TupleDistribution,
    Witness,
    _bernoulli_cumulant_values,
    build_gns,
    certify_nonpositive,
    compression_cumulants,
    counterexample_report,
    find_witness,
    pack_tuple,
    unpack_tuple,
)
from ovfree.cpmaps import CPMap, eta_minus_id_cp
from ovfree.multimap import MultiMap
from ovfree.ovdist import eta_power

from conftest import random_complex, random_cp, random_eta


def id_plus_transpose(k=2):
    return CPMap(k, CPMap.identity(k).choi + CPMap.transpose_map(k).choi)


def random_tuple_distribution(rng, m=2, order=3, k=1):
    """Random joint moments with the adjoint symmetry X_ij^* = X_ji."""
    s = m * m
    flip = lambda u: (u % m) * m + (u // m)
    raw = {}
    for n in range(1, order + 1):
        for w in product(range(s), repeat=n):
            raw[w] = MultiMap(k, random_complex(rng, (k * k,) * (n - 1) + (k, k)))
    sym = {}
    for w, mm in raw.items():
        adj_w = tuple(flip(u) for u in reversed(w))
        sym[w] = (mm + raw[adj_w].herm_reflect()) * 0.5
    return TupleDistribution(k=k, s=s, order=order, moments=sym)


# -- packing ---------------------------------------------------------------------


def test_pack_m1_is_identity(rng):
    td = random_tuple_distribution(rng, m=1, order=3)
    packed = pack_tuple(td)
    for n in range(1, 4):
        assert packed.moments[n - 1].max_deviation(td.moments[(0,) * n]) < 1e-14


def test_pack_unpack_round_trip(rng):
    # at k = 2 a swap of the (slot, coefficient) axes would show
    for k in (1, 2):
        td = random_tuple_distribution(rng, m=2, order=3, k=k)
        back = unpack_tuple(pack_tuple(td), 2, k)
        assert back.moments.keys() == td.moments.keys()
        assert max(td.moments[w].max_deviation(back.moments[w]) for w in td.moments) == 0.0, k


def test_pack_matches_chain_sum(rng):
    # block (i, j) of the packed moment on b_1, .., b_{n-1} in M_m(M_k) is
    # sum E(X_{i u_1} (b_1)_{u_1 v_1} X_{v_1 u_2} ... X_{v_{n-1} j})
    m, k, order = 2, 2, 3
    td = random_tuple_distribution(rng, m=m, order=order, k=k)
    packed = pack_tuple(td)
    for n in range(1, order + 1):
        bs = [random_complex(rng, (m * k, m * k)) for _ in range(n - 1)]
        got = packed.moments[n - 1].apply(bs)
        for i, j in product(range(m), repeat=2):
            expect = np.zeros((k, k), dtype=complex)
            for chain in product(range(m), repeat=2 * (n - 1)):
                us, vs = chain[0::2], chain[1::2]
                rows, cols = (i,) + vs, us + (j,)
                word = tuple(r * m + c for r, c in zip(rows, cols))
                blocks = [b[u * k:(u + 1) * k, v * k:(v + 1) * k] for b, u, v in zip(bs, us, vs)]
                expect += td.moments[word].apply(blocks)
            assert np.max(np.abs(got[i * k:(i + 1) * k, j * k:(j + 1) * k] - expect)) < 1e-12


def test_pack_rejects_non_square():
    td = TupleDistribution(k=1, s=3, order=1, moments={
        (i,): MultiMap(1, np.zeros((1, 1))) for i in range(3)
    })
    with pytest.raises(ValueError, match="perfect square"):
        pack_tuple(td)


def test_diagonal_free_tuple_block_diagonal(rng):
    # (X_00, 0, 0, X_11) with free self-adjoint entries: mixed cumulants vanish
    m, s, order = 2, 4, 3
    cums = {}
    scalars = {0: [0.3, 1.0, 0.25], 3: [-0.2, 0.7, 0.1]}
    for var, vals in scalars.items():
        for n in range(1, order + 1):
            cums[(var,) * n] = MultiMap(1, np.full((1,) * (n - 1) + (1, 1), vals[n - 1], dtype=complex))
    td = TupleDistribution.from_cumulants(1, s, order, cums)
    # oracle: freeness makes E(X_ii b X_jj) = kappa contributions with constant
    # index blocks only; in particular E(X_00 X_11) = E(X_00) E(X_11)
    got = td.moments[(0, 3)].apply([np.eye(1)])
    assert abs(complex(got[0, 0]) - 0.3 * (-0.2)) < 1e-12
    packed = pack_tuple(td)
    m2 = packed.moments[1]
    # the second packed moment evaluated on 1 is block-diagonal
    val = m2.apply([np.eye(2)])
    assert abs(val[0, 1]) < 1e-12 and abs(val[1, 0]) < 1e-12
    assert abs(val[0, 0] - complex(td.moments[(0, 0)].apply([np.eye(1)])[0, 0])) < 1e-12


def test_tuple_eta_power_matches_amplified_power(rng):
    for k, eta in ((1, CPMap.scaled_identity(1, 1.6)), (2, random_eta(rng, 2))):
        td = random_tuple_distribution(rng, m=2, order=3, k=k)
        lhs = pack_tuple(td.eta_power(eta))
        rhs = eta_power(pack_tuple(td), eta.amplify(2))
        assert lhs.max_deviation(rhs) < 1e-10, k


# -- witness ---------------------------------------------------------------------


def test_find_witness_id_plus_transpose():
    w = find_witness(id_plus_transpose())
    assert w.m == 2
    assert w.phi_of(w.eta_m_a - w.a) < 0
    assert w.phi_of(w.a) > 0
    assert w.phi_of(w.eta_m_a) > 0


def test_find_witness_scalar_case():
    lam0 = 0.8
    w = find_witness(CPMap.scaled_identity(1, lam0))
    assert w.m == 1
    assert np.allclose(w.a, [[1.0]])
    # unmixed: phi is the unique state on C
    assert np.allclose(w.phi, [[1.0]])
    assert abs(w.phi_of(w.eta_m_a - w.a) - (lam0 - 1.0)) < 1e-12


def test_find_witness_rejects_cp_case():
    with pytest.raises(NoWitnessError, match="no witness exists"):
        find_witness(CPMap.scaled_identity(2, 2.0))


def test_witness_and_gns_own_read_only_arrays():
    a, phi = np.diag([1.0, 0.0]), np.eye(2) / 2
    w = Witness(m=1, a=a, phi=phi, kappa=0.05, eta_m_a=0.8 * a)
    a[0, 0] = phi[0, 0] = 5.0
    assert w.a[0, 0] == 1.0 and w.phi[0, 0] == 0.5
    g = build_gns(w)
    found = find_witness(id_plus_transpose())
    for arr in (w.a, w.phi, w.eta_m_a, g.basis, found.a, found.phi, found.eta_m_a):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0


# -- GNS -------------------------------------------------------------------------


def trace_state_witness():
    a = np.diag([1.0, 0.0]).astype(complex)
    return Witness(m=1, a=a, phi=np.eye(2, dtype=complex) / 2, kappa=0.05, eta_m_a=0.8 * a)


def test_gns_trace_state_projection_value():
    w = trace_state_witness()
    g = build_gns(w)
    assert g.H_dim == 4
    rep_a = g.rep(w.a)
    ratio = g.vartheta_op(rep_a @ g.P @ rep_a) / g.vartheta_op(g.P)
    assert abs(ratio - 0.5) < 1e-12  # Tr(aPa) = phi(a) exactly


def test_gns_scalar_case_is_one_dimensional():
    w = Witness(m=1, a=np.eye(1, dtype=complex), phi=np.eye(1, dtype=complex),
                kappa=0.05, eta_m_a=0.8 * np.eye(1))
    g = build_gns(w)
    assert g.H_dim == 1
    assert abs(g.vartheta_op(g.P) - 1.0) < 1e-14
    assert np.allclose(g.rep(np.eye(1)), [[1.0]])


def test_gns_cyclic_vector_reproduces_state(rng):
    w = find_witness(id_plus_transpose())
    g = build_gns(w)
    x = random_complex(rng, (4, 4))
    assert abs(g.rep(x)[0, 0] - np.trace(w.phi @ x)) < 1e-10


def test_gns_projection_compression_identity(rng):
    # P rep(z) P = phi(z) P for any z
    w = find_witness(id_plus_transpose())
    g = build_gns(w)
    z = random_complex(rng, (4, 4))
    lhs = g.P @ g.rep(z) @ g.P
    assert np.max(np.abs(lhs - np.trace(w.phi @ z) * g.P)) < 1e-10


def test_gns_degenerate_state_quotients():
    a = np.diag([1.0, 0.0]).astype(complex)
    w = Witness(m=1, a=a, phi=a.copy(), kappa=0.05, eta_m_a=0.5 * a)
    g = build_gns(w)
    assert g.H_dim == 2  # rank-one state: M_2 * sqrt(rho) is 2-dimensional


# -- compression constants ---------------------------------------------------------


def test_compression_scalar_passthrough():
    lam0 = 0.7
    w = find_witness(CPMap.scaled_identity(1, lam0))
    g = build_gns(w)
    base = _bernoulli_cumulant_values(6)
    tilde, lam = compression_cumulants(base, w, g)
    assert abs(lam - lam0) < 1e-12
    assert np.allclose(tilde, [lam0 * b for b in base])


def test_compression_pipeline_id_plus_transpose():
    w = find_witness(id_plus_transpose())
    g = build_gns(w)
    base = _bernoulli_cumulant_values(6)
    tilde, lam = compression_cumulants(base, w, g)
    assert 0 < lam < 1
    ratios = [tilde[n] / base[n] for n in range(1, 6, 2)]  # even orders 2, 4, 6
    assert max(abs(rr - lam) for rr in ratios) < 1e-10
    assert lam < 1 - w.kappa / w.phi_of(w.a)


def test_compression_refuses_a_model_that_misses_phi_a():
    w = trace_state_witness()
    g1 = GNSModel(basis=build_gns(w).basis[:1])  # misses a*xi: delta = phi(a)(1 - phi(a)) = 1/4
    with pytest.raises(ValueError, match="does not reproduce phi"):
        compression_cumulants(_bernoulli_cumulant_values(4), w, g1)


# -- Bernoulli certificates ----------------------------------------------------------


def test_certify_grid_negative():
    for lam in (0.25, 0.5, 0.75, 0.9):
        cert = certify_nonpositive(lam, 4)
        assert cert.found and cert.level <= 4
        assert cert.report.witness is not None


def test_certify_monotone_levels():
    levels = {}
    for lam in (0.25, 0.5, 0.75, 0.9):
        levels[lam] = certify_nonpositive(lam, 4).level
    assert levels[0.25] <= levels[0.5] <= levels[0.9]


def test_certify_half_hankel_determinant():
    cert = certify_nonpositive(0.5, 3)
    assert cert.level == 3
    h = np.array([[1, 0, 0.5], [0, 0.5, 0], [0.5, 0, 0.0]])
    assert abs(np.linalg.det(h) + 0.125) < 1e-12
    assert abs(cert.report.min_eigenvalue - np.linalg.eigvalsh(h)[0]) < 1e-10


def test_certify_at_and_above_one_psd():
    for lam in (1.0, 1.5, 2.0):
        cert = certify_nonpositive(lam, 4)
        assert not cert.found
        assert cert.report.min_eigenvalue >= -1e-9


def test_certify_negative_lambda():
    cert = certify_nonpositive(-0.5, 4)
    assert cert.found and cert.level <= 2


def test_certificates_build_orders_up_to_2l_minus_2(built_orders):
    # the level-L moment matrix reads moments up to order 2L - 2 only
    for level in (2, 3, 5):
        certify_nonpositive(0.9, level)
        assert max(built_orders) == 2 * level - 2
        built_orders.clear()
        counterexample_report(id_plus_transpose(), level=level)
        assert max(built_orders) == 2 * level - 2
        built_orders.clear()
    assert certify_nonpositive(0.9, 1).level == 1 and max(built_orders) == 1


@pytest.mark.parametrize("lam, level", [(1 - 1e-12, 3), (-1e-12, 2)])
def test_certify_falls_back_to_the_exact_vector(lam, level):
    # no eigenvalue clears the tolerance rule here, so the certificate is the
    # vector (-lam, 0, 1), or (0, 1) for lam < 0, with v^T H v decided in fractions
    cert = certify_nonpositive(lam, 4)
    assert cert.found and cert.level == level
    v = [Fraction(x) for x in cert.report.witness.real]
    q = Fraction(lam)
    hankel = [[1, 0, q], [0, q, 0], [q, 0, 2 * q * q - q]][:level]
    assert sum(v[i] * hankel[i][j] * v[j] for i in range(level) for j in range(level)) < 0
    assert cert.report.min_eigenvalue < 0 and not cert.report.witness.imag.any()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("beta", [0.2, 0.4])
def test_dichotomy_at_its_threshold(k, beta):
    # eta(x) = alpha x + beta tr(x)/k I: the Choi matrix of eta - id has the
    # eigenvalue (alpha - 1) k + beta/k, so eta - id is CP iff alpha >= 1 - beta/k^2;
    # no alpha at or above that is called not CP, and each not-CP verdict has a certificate
    threshold = 1 - beta / k**2
    for offset in [sign * 10.0**-e for e in range(1, 13) for sign in (1, -1)]:
        alpha = threshold + offset
        eta = CPMap.from_action(k, lambda x: alpha * x + beta * np.trace(x) / k * np.eye(k))
        report = counterexample_report(eta, level=4)
        assert report.preserved or offset < 0, offset
        assert report.preserved or report.nonpositivity.found, offset


def test_certify_zero_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        certify_nonpositive(0.0, 3)


# -- the full report ------------------------------------------------------------------


def test_report_positivity_preserved():
    rep = counterexample_report(CPMap.scaled_identity(2, 3.0))
    assert rep.preserved
    assert rep.witness is None and rep.lam is None and rep.nonpositivity is None


def test_report_full_chain():
    rep = counterexample_report(id_plus_transpose())
    assert not rep.preserved
    assert rep.witness is not None
    assert rep.lam < 1
    assert rep.nonpositivity.found


def test_report_scalar_lambda_passthrough():
    rep = counterexample_report(CPMap.scaled_identity(1, 0.9))
    assert not rep.preserved
    assert abs(rep.lam - 0.9) < 1e-12
    assert rep.nonpositivity.found


def test_dichotomy_small_sweep():
    rng = np.random.default_rng(5)
    for trial in range(10):
        if trial % 2 == 0:
            psi = random_cp(rng, 2, rank=1, scale=0.7)
            eta = CPMap(2, CPMap.identity(2).choi + psi.choi)
        else:
            g = random_complex(rng, (4, 4))
            eta = CPMap(2, (g + g.conj().T) / 2)
        rep = counterexample_report(eta)
        assert rep.preserved == eta_minus_id_cp(eta).is_psd
        if not rep.preserved:
            assert rep.nonpositivity.found


def test_tuple_distribution_moments_are_read_only():
    given = {(i,): MultiMap(1, np.full((1, 1), float(i))) for i in range(2)}
    td = TupleDistribution(k=1, s=2, order=1, moments=given)
    given[(0,)] = MultiMap(1, np.full((1, 1), 9.0))
    assert td.moments[(0,)].tensor[0, 0] == 0.0
    with pytest.raises(TypeError):
        td.moments[(0,)] = given[(0,)]
    with pytest.raises(AttributeError):
        td.moments.clear()
    assert td.eta_power(CPMap.identity(1)).moments.keys() == td.moments.keys()
