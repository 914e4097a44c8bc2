import numpy as np
import pytest

from ovfree import CPMap, MultiMap, enumerate_nc
from ovfree.multimap import join, kappa_map, left_slot, moment_map, plug_all, right_slot

from conftest import random_complex, random_cp


def random_map(rng, k, arity):
    return MultiMap(k, random_complex(rng, (k * k,) * arity + (k, k)))


def args(rng, k, n):
    return [random_complex(rng, (k, k)) for _ in range(n)]


def test_left_slot_semantics(rng):
    k = 2
    f = random_map(rng, k, 2)
    a, b, c = args(rng, k, 3)
    got = left_slot(f).apply([a, b, c])
    assert np.max(np.abs(got - a @ f.apply([b, c]))) < 1e-12


def test_right_slot_semantics(rng):
    k = 2
    f = random_map(rng, k, 2)
    a, b, c = args(rng, k, 3)
    got = right_slot(f).apply([a, b, c])
    assert np.max(np.abs(got - f.apply([a, b]) @ c)) < 1e-12


def test_join_semantics(rng):
    k = 2
    f = random_map(rng, k, 1)
    g = random_map(rng, k, 2)
    a, b, c = args(rng, k, 3)
    got = join(f, g).apply([a, b, c])
    assert np.max(np.abs(got - f.apply([a]) @ g.apply([b, c]))) < 1e-12


def test_plug_all_semantics(rng):
    k = 2
    omega = random_map(rng, k, 2)
    g = random_map(rng, k, 2)
    a, b, c = args(rng, k, 3)
    plugged = plug_all(omega, [None, g])
    got = plugged.apply([a, b, c])
    assert np.max(np.abs(got - omega.apply([a, g.apply([b, c])]))) < 1e-12
    plugged2 = plug_all(omega, [g, None])
    got2 = plugged2.apply([a, b, c])
    assert np.max(np.abs(got2 - omega.apply([g.apply([a, b]), c]))) < 1e-12


def test_compose_is_pointwise(rng):
    k = 2
    f = random_map(rng, k, 2)
    eta = random_cp(rng, k, rank=2)
    a, b = args(rng, k, 2)
    got = f.compose(eta).apply([a, b])
    assert np.max(np.abs(got - eta.apply(f.apply([a, b])))) < 1e-12


@pytest.mark.parametrize("k, arity", [(k, n) for k in (1, 2, 3) for n in range(6 if k < 3 else 5)])
def test_compose_equals_the_einsum_it_reorders(k, arity):
    # bit for bit: the reshaped einsum makes the same products and sums over
    # (p, q) in the same order, on magnitudes from 1e-3 to 1e3 and on
    # arbitrary (non-Hermitian, so not completely positive) Choi matrices
    rng = np.random.default_rng([k, arity])
    for _ in range(3):
        shape = (k * k,) * arity + (k, k)
        t = random_complex(rng, shape) * 10.0 ** rng.uniform(-3, 3, shape)
        eta = CPMap(k, random_complex(rng, (k * k, k * k)) * 10.0 ** rng.uniform(-3, 3, (k * k, k * k)))
        assert np.array_equal(MultiMap(k, t).compose(eta).tensor, np.einsum("...pq,piqj->...ij", t, eta.choi4))


def test_herm_reflect_involution(rng):
    f = random_map(rng, 2, 3)
    assert f.herm_reflect().herm_reflect().max_deviation(f) < 1e-12


def test_herm_reflect_semantics(rng):
    k = 2
    f = random_map(rng, k, 2)
    a, b = args(rng, k, 2)
    got = f.herm_reflect().apply([a, b])
    expect = f.apply([b.conj().T, a.conj().T]).conj().T
    assert np.max(np.abs(got - expect)) < 1e-12


def take_herm_reflect(f):
    """The reflection built slot by slot: reverse the slots, swap the output
    axes, then map every slot index c to that of e_c^* with one np.take."""
    from ovfree.algebra import unit_adjoint_index

    k, n = f.k, f.arity
    swap = [unit_adjoint_index(c, k) for c in range(k * k)]
    t = np.transpose(f.tensor, tuple(range(n - 1, -1, -1)) + (n + 1, n))
    for axis in range(n):
        t = np.take(t, swap, axis=axis)
    return np.conjugate(t)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_herm_reflect_equals_take_oracle(rng, k):
    for arity in range(4):
        f = random_map(rng, k, arity)
        assert np.array_equal(f.herm_reflect().tensor, take_herm_reflect(f))
        assert f.herm_defect() == np.max(np.abs(f.tensor - take_herm_reflect(f)))
        if arity:
            t = f.tensor.copy()
            t[(-1,) * arity] = np.nan  # in the last leading slice: a NaN anywhere wins
            assert np.isnan(MultiMap(k, t).herm_defect())


def test_kappa_two_singletons(rng):
    # kappa for {{0}, {1}} is a -> w1 a w1
    k = 2
    w1 = random_map(rng, k, 0)
    p = next(q for q in enumerate_nc(2) if len(q.blocks()) == 2)
    kap = kappa_map(p.roots, k, lambda block: w1)
    a = random_complex(rng, (k, k))
    expect = w1.tensor @ a @ w1.tensor
    assert np.max(np.abs(kap.apply([a]) - expect)) < 1e-12


def test_kappa_nested_pair(rng):
    # kappa for {{0, 2}, {1}} is (a, b) -> w2(a w1 b)
    k = 2
    w1 = random_map(rng, k, 0)
    w2 = random_map(rng, k, 1)
    cums = {1: w1, 2: w2}
    p = next(q for q in enumerate_nc(3) if q.blocks() == ((0, 2), (1,)))
    kap = kappa_map(p.roots, k, lambda block: cums[len(block)])
    a, b = args(rng, k, 2)
    expect = w2.apply([a @ w1.tensor @ b])
    assert np.max(np.abs(kap.apply([a, b]) - expect)) < 1e-12


def test_moment_map_order_two(rng):
    # M_2(a) = w2(a) + w1 a w1
    k = 2
    w1 = random_map(rng, k, 0)
    w2 = random_map(rng, k, 1)
    cums = {1: w1, 2: w2}
    m2 = moment_map(2, k, lambda block: cums[len(block)])
    a = random_complex(rng, (k, k))
    expect = w2.apply([a]) + w1.tensor @ a @ w1.tensor
    assert np.max(np.abs(m2.apply([a]) - expect)) < 1e-12


def test_multimap_owns_read_only_tensor(rng):
    t = random_complex(rng, (4, 2, 2))
    f = MultiMap(2, t)
    before = f.tensor.copy()
    t[0, 0, 0] += 1.0
    assert np.array_equal(f.tensor, before)
    assert not f.tensor.flags.writeable
    with pytest.raises(ValueError):
        f.tensor[0, 0, 0] = 1.0
