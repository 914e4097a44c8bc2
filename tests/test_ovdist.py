import tracemalloc
from itertools import product

import numpy as np
import pytest

from ovfree import ovdist
from ovfree.cpmaps import CPMap
from ovfree.freeprod import _b_mul
from ovfree.multimap import MultiMap
from ovfree.ovdist import (
    Realization,
    bernoulli,
    cumulants_from_moments,
    eta_power,
    moments_from_cumulants,
    moments_from_realization,
    positivity_certificate,
    semicircular,
)

from conftest import random_complex, random_eta, random_hermitian, random_realization, random_symmetric_cumulants


# -- independent oracles -------------------------------------------------------
#
# A brute-force enumerator of all set partitions with an inline crossing
# filter, plus an interval-contraction evaluator of nested partition terms.
# Both are deliberately separate implementations from the library's
# forest-based tensor engine.


def all_set_partitions(n):
    if n == 0:
        yield []
        return
    for part in all_set_partitions(n - 1):
        for i in range(len(part)):
            yield [b + [n - 1] if j == i else list(b) for j, b in enumerate(part)]
        yield [list(b) for b in part] + [[n - 1]]


def crossing(blocks):
    owner = {}
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    xs = sorted(owner)
    for a in xs:
        for b in xs:
            for c in xs:
                for d in xs:
                    if a < b < c < d and owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
                        return True
    return False


def nc_partitions(n):
    return [sorted((sorted(b) for b in p), key=lambda b: b[0]) for p in all_set_partitions(n) if not crossing(p)]


def eval_kappa(blocks, coeffs, cum):
    """Interval-contraction evaluation of one nested partition term.

    coeffs is [c_0, ..., c_n] for the word c_0 X c_1 X ... X c_n with
    c_0 = c_n = 1; blocks use 1-based X positions.  cum(s, inner) evaluates
    the block map of size s on the coefficients strictly inside the block.
    """
    if not blocks:
        assert len(coeffs) == 1
        return coeffs[0]
    for bi, b in enumerate(blocks):
        if all(b[i + 1] == b[i] + 1 for i in range(len(b) - 1)):
            break
    l, r, s = b[0], b[-1], len(b)
    val = cum(s, coeffs[l:r])
    new_coeffs = coeffs[: l - 1] + [coeffs[l - 1] @ val @ coeffs[r]] + coeffs[r + 1 :]
    new_blocks = [[x if x < l else x - s for x in blk] for j, blk in enumerate(blocks) if j != bi]
    return eval_kappa(new_blocks, new_coeffs, cum)


def oracle_moment(n, args, cum, k):
    coeffs = [np.eye(k, dtype=complex)] + list(args) + [np.eye(k, dtype=complex)]
    total = np.zeros((k, k), dtype=complex)
    for part in nc_partitions(n):
        total += eval_kappa([[x + 1 for x in b] for b in part], list(coeffs), cum)
    return total


def scalar_cumulants_oracle(moms):
    """Scalar moment -> cumulant recursion; products suffice for k = 1."""
    kappa = {}
    for n in range(1, len(moms) + 1):
        total = 0.0
        for part in nc_partitions(n):
            if len(part) == 1:
                continue
            term = 1.0
            for b in part:
                term *= kappa[len(b)]
            total += term
        kappa[n] = moms[n - 1] - total
    return [kappa[n] for n in range(1, len(moms) + 1)]


# -- realizations ---------------------------------------------------------------


def test_identity_realization_all_moments_one():
    r = Realization(k=1, p=2, X=np.eye(2, dtype=complex), rho=np.eye(2) / 2)
    d = moments_from_realization(r, 5)
    for n in range(1, 6):
        assert abs(complex(d.moment(n).tensor.reshape(-1)[0]) - 1.0) < 1e-12


def test_bernoulli_realization():
    r = Realization(k=1, p=2, X=np.diag([1.0, -1.0]).astype(complex), rho=np.eye(2) / 2)
    d = moments_from_realization(r, 4)
    values = [complex(d.moment(n).tensor.reshape(-1)[0]).real for n in range(1, 5)]
    assert np.allclose(values, [0.0, 1.0, 0.0, 1.0])


def test_realization_second_moment_direct(rng):
    r = random_realization(rng, k=2, p=2)
    d = moments_from_realization(r, 3)
    a = random_complex(rng, (2, 2))
    direct = r.cond_exp(r.X @ r.embed(a) @ r.X)
    assert np.max(np.abs(d.moment(2).apply([a]) - direct)) < 1e-12


@pytest.mark.parametrize("k, p, batch", [(1, 3, (4,)), (2, 2, (4, 3)), (3, 2, (9,)), (2, 3, ())])
def test_realization_maps_a_stack_as_each_matrix(rng, k, p, batch):
    # embed and cond_exp on a stack equal a (x) 1_p and E of each matrix, bit for bit
    r = random_realization(rng, k=k, p=p)
    a, x = random_complex(rng, batch + (k, k)), random_complex(rng, batch + (r.d, r.d))
    embedded, expected = r.embed(a), r.cond_exp(x)
    assert embedded.shape == batch + (r.d, r.d) and expected.shape == batch + (k, k)
    for i in np.ndindex(*batch):
        assert np.array_equal(embedded[i], np.kron(a[i], np.eye(p)))
        assert np.array_equal(expected[i], np.einsum("ts,isjt->ij", r.rho, x[i].reshape(k, p, k, p)))
    assert np.allclose(expected[(0,) * len(batch)],
                       [[np.trace(r.rho @ x[(0,) * len(batch)][i * p:(i + 1) * p, j * p:(j + 1) * p]) for j in range(k)]
                        for i in range(k)])


def _graded(rng, shape):
    """Complex entries of scales 1e-8 to 1e8, with about one row in five all zero."""
    a = random_complex(rng, shape) * 10.0 ** rng.uniform(-8, 8, shape)
    a[rng.random(shape[:-1]) < 0.2] = 0
    return a


@pytest.mark.parametrize("k, p", list(product((1, 2, 3), repeat=2)))
def test_block_products_equal_the_dense_ones(rng, k, p):
    # embed_times and minus_embed skip the zeros of e (x) 1_p, so every value
    # is that of the dense product and difference (a matmul contraction is not)
    r = random_realization(rng, k=k, p=p)
    for _ in range(40):
        n, m = (int(x) for x in rng.integers(1, 10, size=2))
        e, t = _graded(rng, (n, k, k)), _graded(rng, (m, r.d, r.d))
        assert np.array_equal(r.embed_times(e, t), _b_mul(r.embed(e), t))
        t = _graded(rng, (n, r.d, r.d))
        assert np.array_equal(r.minus_embed(t, e), t - r.embed(e))


def test_realization_rejects_bad_inputs(rng):
    with pytest.raises(ValueError, match="self-adjoint"):
        Realization(k=1, p=2, X=random_complex(rng, (2, 2)), rho=np.eye(2) / 2)
    with pytest.raises(ValueError, match="density"):
        Realization(k=1, p=2, X=np.eye(2, dtype=complex), rho=np.eye(2))
    for rho in (np.ones(3) / np.sqrt(3), np.ones((1, 1)), np.ones((2, 3))):
        with pytest.raises(ValueError, match="state must be 2x2 or a length-2 vector for p=2, got shape"):
            Realization(k=2, p=2, X=np.eye(4, dtype=complex), rho=rho)


def test_realization_validate_scales_with_d_squared(rng):
    # a scalar realization by a 90 x 90 X: no d^4 stack of matrix units is built
    r = random_realization(rng, k=1, p=90)
    assert moments_from_realization(r, 3).order == 3


def test_realization_validate_memory_at_low_order(rng):
    # k = 13, p = 2 at order 1: the moments hold k^2 d^2 entries a step, never
    # the k^4 d^2 of every pair of matrix units (300 MB)
    r = random_realization(rng, k=13, p=2)
    step = 16 * r.k**2 * r.d**2
    tracemalloc.start()
    try:
        moments_from_realization(r, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * step, (peak, step)


def test_realization_order_byte_rule(rng):
    # no order cap of its own: N >= 1, and the largest product, (k^2)^(N-1)
    # d^2 entries, must pass algebra.check_array_size
    r = random_realization(rng)
    with pytest.raises(ValueError, match="order must be at least 1, got 0"):
        moments_from_realization(r, 0)
    with pytest.raises(ValueError, match="an order-12 moment product on M_4 would need 1,074 MB"):
        moments_from_realization(r, 12)
    assert moments_from_realization(random_realization(rng, k=1), 12).order == 12


# -- cumulants -------------------------------------------------------------------


def test_semicircular_cumulants():
    cums = cumulants_from_moments(semicircular(8))
    values = [complex(c.tensor.reshape(-1)[0]) for c in cums]
    assert abs(values[1] - 1.0) < 1e-12
    assert max(abs(v) for i, v in enumerate(values) if i != 1) < 1e-12


def test_bernoulli_cumulants_against_oracle():
    moms = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    expected = scalar_cumulants_oracle(moms)
    assert np.allclose(expected, [0.0, 1.0, 0.0, -1.0, 0.0, 2.0])
    cums = cumulants_from_moments(bernoulli(6))
    got = [complex(c.tensor.reshape(-1)[0]).real for c in cums]
    assert np.allclose(got, expected, atol=1e-12)


def test_point_mass_cumulants_satisfy_relation(rng):
    # X = a0 embedded in itself (p = 1): the defining moment-cumulant relation
    # must hold under the independent interval-contraction evaluator.
    a0 = random_complex(rng, (2, 2))
    a0 = (a0 + a0.conj().T) / 2
    r = Realization(k=2, p=1, X=a0, rho=np.array([[1.0]]))
    d = moments_from_realization(r, 5)
    cums = cumulants_from_moments(d)

    def cum(s, inner):
        return cums[s - 1].apply(inner)

    for n in range(1, 6):
        args = [random_complex(rng, (2, 2)) for _ in range(n - 1)]
        word = a0.copy()
        for a in args:
            word = word @ a @ a0
        direct = word  # E = id when p = 1
        assert np.max(np.abs(oracle_moment(n, args, cum, 2) - direct)) < 1e-9


def test_moments_from_cumulants_semicircle_counts():
    d = semicircular(6)
    values = [complex(d.moment(n).tensor.reshape(-1)[0]).real for n in range(1, 7)]
    assert np.allclose(values, [0, 1, 0, 2, 0, 5])


def test_point_mass_scalar_powers():
    c = 1.3
    cums = [MultiMap(1, np.full((1,) * (n - 1) + (1, 1), c if n == 1 else 0.0, dtype=complex)) for n in range(1, 5)]
    d = moments_from_cumulants(cums)
    values = [complex(d.moment(n).tensor.reshape(-1)[0]).real for n in range(1, 5)]
    assert np.allclose(values, [c, c**2, c**3, c**4])


def test_round_trip_both_ways(rng):
    cums = random_symmetric_cumulants(rng, 2, 6)
    d = moments_from_cumulants(cums)
    back = cumulants_from_moments(d)
    assert max(a.max_deviation(b) for a, b in zip(cums, back)) < 1e-9
    d2 = moments_from_cumulants(back)
    assert d.max_deviation(d2) < 1e-9


def test_transform_against_interval_oracle(rng):
    # the tensor-engine moments satisfy the partition sum as computed by the
    # independent contraction evaluator, over M_2
    cums = random_symmetric_cumulants(rng, 2, 4)
    d = moments_from_cumulants(cums)

    def cum(s, inner):
        return cums[s - 1].apply(inner)

    for n in range(1, 5):
        args = [random_complex(rng, (2, 2)) for _ in range(n - 1)]
        assert np.max(np.abs(d.moment(n).apply(args) - oracle_moment(n, args, cum, 2))) < 1e-10


# -- eta powers -------------------------------------------------------------------


def test_eta_power_identity(rng):
    r = random_realization(rng)
    d = moments_from_realization(r, 5)
    assert eta_power(d, CPMap.identity(2)).max_deviation(d) < 1e-10


def test_eta_power_semicircle_scaling():
    for t in (1.0, 2.0, 3.5):
        d = eta_power(semicircular(4), CPMap.scaled_identity(1, t))
        m2 = complex(d.moment(2).tensor.reshape(-1)[0]).real
        m4 = complex(d.moment(4).tensor.reshape(-1)[0]).real
        assert abs(m2 - t) < 1e-10
        assert abs(m4 - 2 * t * t) < 1e-10


def test_eta_power_bernoulli_half():
    d = eta_power(bernoulli(6), CPMap.scaled_identity(1, 0.5))
    values = [complex(d.moment(n).tensor.reshape(-1)[0]).real for n in range(1, 5)]
    assert np.allclose(values, [0.0, 0.5, 0.0, 0.0], atol=1e-12)
    rep = positivity_certificate(d, 3)
    assert rep.min_eigenvalue < -1e-3
    # level-3 scalar moment matrix is the Hankel with determinant -1/8
    h = np.array([[1, 0, 0.5], [0, 0.5, 0], [0.5, 0, 0.0]])
    assert abs(np.linalg.det(h) + 0.125) < 1e-12
    assert abs(rep.min_eigenvalue - np.linalg.eigvalsh(h)[0]) < 1e-10


def test_eta_power_composition_law(rng):
    r = random_realization(rng)
    d = moments_from_realization(r, 4)
    eta1 = random_eta(rng, 2)
    eta2 = random_eta(rng, 2)
    lhs = eta_power(eta_power(d, eta1), eta2)
    rhs = eta_power(d, eta2.compose(eta1))
    assert lhs.max_deviation(rhs) < 1e-9


def test_eta_power_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        eta_power(bernoulli(4), CPMap.identity(2))


def test_hermitian_symmetry_preserved(rng):
    r = random_realization(rng)
    d = eta_power(moments_from_realization(r, 5), random_eta(rng, 2))
    for m in d.moments:
        assert m.max_deviation(m.herm_reflect()) < 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_require_hermitian_boundary(scale):
    # Hermitian defect up to 10 * DEFAULT_TOL * max(1, scale) passes: 1e-8 at scale 1
    for factor, accepted in ((0.9, True), (1.1, False)):
        t = scale * np.eye(2, dtype=complex)
        t[0, 1] = factor * 1e-8 * scale
        m = MultiMap(2, t)
        assert m.herm_defect() == factor * 1e-8 * scale
        if accepted:
            ovdist.require_hermitian(m, "m")
        else:
            with pytest.raises(ValueError, match="m violates Hermitian symmetry"):
                ovdist.require_hermitian(m, "m")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_require_hermitian_refuses_non_finite(bad):
    # a NaN defect would pass a "defect > tol" test
    with pytest.raises(ValueError, match="m holds a non-finite number"):
        ovdist.require_hermitian(MultiMap(1, np.full((1, 1, 1), bad)), "m")
    t = np.zeros((4, 2, 2), dtype=complex)
    t[3, 1, 1] = bad
    with pytest.raises(ValueError, match="moment 2 holds a non-finite number"):
        ovdist.OVDistribution(2, 2, (MultiMap(2, np.eye(2)), MultiMap(2, t)))


# -- positivity -------------------------------------------------------------------


def test_realized_distribution_positive_levels(rng):
    r = random_realization(rng, k=2, p=2)
    d = moments_from_realization(r, 8)
    for level in range(1, 5):
        assert positivity_certificate(d, level).min_eigenvalue >= -1e-10


def _gram_min_eigenvalue(r, level):
    """Smallest eigenvalue of [E(V_i^* V_j)] over the words V = X e_1 X ... X of
    X-degree < level, E computed as the partial trace Tr_p((1_k (x) rho) Y)."""
    k, p = r.k, r.p
    units = [np.kron(np.outer(np.eye(k)[a], np.eye(k)[b]), np.eye(p)) for a in range(k) for b in range(k)]
    words = [np.eye(k * p)]
    layer = [r.X]
    for _ in range(1, level):
        words += layer
        layer = [v @ e @ r.X for v in layer for e in units]

    def E(y):
        z = (np.kron(np.eye(k), r.rho) @ y).reshape(k, p, k, p)
        return np.trace(z, axis1=1, axis2=3)

    gram = np.block([[E(vi.conj().T @ vj) for vj in words] for vi in words])
    return np.linalg.eigvalsh(gram)[0], float(np.max(np.abs(gram)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_positivity_certificate_is_the_gram_matrix(rng, k):
    # p = 4 makes the Gram matrix full rank, so its smallest eigenvalue is
    # not a rounding-level zero that any block layout would reproduce
    r = random_realization(rng, k=k, p=4, scale=0.7)
    d = moments_from_realization(r, 4)
    for level in (1, 2, 3):
        expect, scale = _gram_min_eigenvalue(r, level)
        got = positivity_certificate(d, level).min_eigenvalue
        assert abs(got - expect) <= 1e-10 * scale
        assert level == 1 or expect > 1e-6 * scale


def test_semicircle_power_two_positive():
    d = eta_power(semicircular(8), CPMap.scaled_identity(1, 2.0))
    assert positivity_certificate(d, 4).is_psd


def test_positivity_insufficient_order():
    # level 3 reads moments up to order 2 * 3 - 2 = 4
    assert positivity_certificate(bernoulli(4), 3).is_psd
    with pytest.raises(ValueError, match="insufficient order: level 3 needs order >= 4"):
        positivity_certificate(bernoulli(3), 3)


def test_positivity_level_below_one():
    # the level-0 grid would be empty and certify nothing
    with pytest.raises(ValueError, match="level must be at least 1, got 0"):
        positivity_certificate(bernoulli(4), 0)


def test_scalar_cumulant_scaling_matches_classical(rng):
    # cumulants of the t-power scale by t for A = C
    d = bernoulli(6)
    t = 1.7
    cums = cumulants_from_moments(d)
    powered = cumulants_from_moments(eta_power(d, CPMap.scaled_identity(1, t)))
    for c, ct in zip(cums, powered):
        assert np.max(np.abs(ct.tensor - t * c.tensor)) < 1e-10


def test_realization_owns_read_only_copies(rng):
    X = random_hermitian(rng, 4)
    rho = np.eye(2, dtype=complex) / 2
    r = Realization(k=2, p=2, X=X, rho=rho)
    X[0, 1] += 1.0
    rho[0, 0] = 5.0
    assert np.array_equal(r.X, r.X.conj().T)
    assert r.rho[0, 0] == 0.5
    assert not r.X.flags.writeable and not r.rho.flags.writeable
    with pytest.raises(ValueError):
        r.X[0, 0] = 1.0
