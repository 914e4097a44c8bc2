from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovfree.algebra import matrix_units
from ovfree.cpmaps import CPMap, NotCompletelyPositiveError
from ovfree.fock import build_fock, word_expectation
from ovfree.freeprod import _runs, compressed_distribution, evaluate, required_depth
from ovfree.multimap import MultiMap
from ovfree.ovdist import cumulants_from_moments, eta_power, moments_from_realization

from conftest import random_complex, random_cp, random_eta, random_realization


def make_env(rng, k=2, rank=1, depth=6):
    r = random_realization(rng, k=k, p=2)
    psi = random_cp(rng, k, rank=rank)
    eta = CPMap(k, psi.choi + CPMap.identity(k).choi)
    f = build_fock(psi, depth)
    return r, eta, f


def test_single_b_letter_is_first_moment(rng):
    r, eta, f = make_env(rng)
    got = evaluate(["X"], r, f)
    assert np.max(np.abs(got - r.cond_exp(r.X))) < 1e-12


def test_single_c_word_is_eta(rng):
    r, eta, f = make_env(rng)
    a = random_complex(rng, (2, 2))
    got = evaluate(["v*", a, "v"], r, f)
    assert np.max(np.abs(got - eta.apply(a))) < 1e-12


def test_empty_word_is_unit(rng):
    r, eta, f = make_env(rng)
    assert np.max(np.abs(evaluate([], r, f) - np.eye(2))) < 1e-12


def test_pure_scalar_word(rng):
    r, eta, f = make_env(rng)
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (2, 2))
    got = evaluate([a, b], r, f)
    assert np.max(np.abs(got - a @ b)) < 1e-12


def test_centered_alternating_pair_vanishes(rng):
    # E((X - E X) (vv* - E(vv*))) = 0 by freeness; build it atom by atom
    r, eta, f = make_env(rng)
    ex = r.cond_exp(r.X)
    evv = evaluate(["v", "v*"], r, f)
    terms = [
        (["X", "v", "v*"], 1.0),
        (["X", evv], -1.0),
        ([ex, "v", "v*"], -1.0),
        ([ex, evv], 1.0),
    ]
    total = np.zeros((2, 2), dtype=complex)
    for atoms, sign in terms:
        total += sign * evaluate(atoms, r, f)
    assert np.max(np.abs(total)) < 1e-11


def test_evaluate_is_a_bilinear(rng):
    r, eta, f = make_env(rng)
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (2, 2))
    inner = ["v*", "X", "v"]
    plain = evaluate(inner, r, f)
    framed = evaluate([a] + inner + [b], r, f)
    assert np.max(np.abs(framed - a @ plain @ b)) < 1e-11


def test_first_moment_formula(rng):
    r, eta, f = make_env(rng)
    got = evaluate(["v*", "X", "v"], r, f)
    assert np.max(np.abs(got - eta.apply(r.cond_exp(r.X)))) < 1e-11


def test_second_moment_formula(rng):
    # E(v*Xv a v*Xv) = eta(w2(a)) + eta(w1) a eta(w1), from the order-2
    # moment-cumulant expansion
    r, eta, f = make_env(rng)
    cums = cumulants_from_moments(moments_from_realization(r, 2))
    a = random_complex(rng, (2, 2))
    got = evaluate(["v*", "X", "v", a, "v*", "X", "v"], r, f)
    ew1 = eta.apply(cums[0].tensor)
    expect = eta.apply(cums[1].apply([a])) + ew1 @ a @ ew1
    assert np.max(np.abs(got - expect)) < 1e-10


def test_compressed_identity_map_recovers_original(rng):
    r = random_realization(rng)
    dist = moments_from_realization(r, 4)
    comp = compressed_distribution(r, CPMap.identity(2), 4)
    assert comp.max_deviation(dist) < 1e-9


def test_compressed_equals_eta_power(rng):
    r, eta, f = make_env(rng)
    comp = compressed_distribution(r, eta, 3)
    powered = eta_power(moments_from_realization(r, 3), eta)
    assert comp.max_deviation(powered) < 1e-9


def test_compressed_equals_eta_power_m3(rng):
    # exercise the slot machinery at k = 3
    r = random_realization(rng, k=3, p=2)
    psi = random_cp(rng, 3, rank=1, scale=0.5)
    eta = CPMap(3, psi.choi + CPMap.identity(3).choi)
    comp = compressed_distribution(r, eta, 2)
    powered = eta_power(moments_from_realization(r, 2), eta)
    assert comp.max_deviation(powered) < 1e-9


def test_compressed_scalar_bernoulli_power(rng):
    # classical scalar case: compressing the +-1 Bernoulli variable realizes
    # its t-th free convolution power for t >= 1
    from ovfree.ovdist import Realization

    r = Realization(k=1, p=2, X=np.diag([1.0, -1.0]).astype(complex), rho=np.eye(2) / 2)
    t = 1.8
    eta = CPMap.scaled_identity(1, t)
    comp = compressed_distribution(r, eta, 4)
    powered = eta_power(moments_from_realization(r, 4), eta)
    assert comp.max_deviation(powered) < 1e-10
    m2 = complex(comp.moment(2).tensor.reshape(-1)[0]).real
    assert abs(m2 - t) < 1e-10


def test_compressed_requires_eta_minus_id_cp(rng):
    r = random_realization(rng)
    eta = CPMap.scaled_identity(2, 0.5)
    with pytest.raises(NotCompletelyPositiveError) as info:
        compressed_distribution(r, eta, 3)
    assert info.value.report.min_eigenvalue == eta.minus_id().is_cp().min_eigenvalue


def test_compressed_order_at_least_one(rng):
    # the library checks only N >= 1; the CLI caps verify-realization at 6
    # (test_cli.test_verify_realization_order_above_compressed_cap)
    r = random_realization(rng)
    with pytest.raises(ValueError, match="order must be at least 1, got 0"):
        compressed_distribution(r, CPMap.identity(2), 0)
    assert compressed_distribution(r, CPMap.identity(2), 1).order == 1


def test_unknown_atom_rejected(rng):
    r, eta, f = make_env(rng)
    for atom in ["Y", ("A", np.eye(2)), [[1.0, 0.0], [0.0, 1.0]], np.array(["v", "v*"])]:
        with pytest.raises(ValueError, match=r"^unknown atom .*; expected 'X', 'v', 'v\*' or a numeric array$"):
            evaluate(["X", atom, "v"], r, f)


def test_normal_form_alternates(rng):
    # _runs gives a word's alternating runs, array atoms attached
    a = random_complex(rng, (2, 2))
    runs = _runs([a, "v*", "X", "X", a, "v", a, "v*", a])
    tags = [tag for tag, _ in runs]
    assert tags == ["C", "B", "C"]
    assert len(runs[1][1]) == 3  # X X and the attached coefficient
    assert [tag for tag, _ in _runs([a])] == ["A"] and _runs([]) == [("A", [])]


@pytest.mark.parametrize("atoms, depth", [
    ([], 2),
    (["v*"], 2),
    (["v", "X", "v*"], 2),
    (["v*", "v*", "v", "v"], 3),
    (["v", "X", "v"], 3),  # X does not break the run: E(v E(X) v) is formed
    (["v", np.eye(2), "v", "v*", "v", "v"], 4),
] + [
    # the compression words v* X (v a v*) X ... X v of every order up to 8
    (["v*"] + ["X", "v", np.eye(2), "v*"] * (N - 1) + ["X", "v"], 2) for N in range(1, 9)
])
def test_required_depth(atoms, depth):
    assert required_depth(atoms) == depth


def test_evaluate_rejects_shallow_module(rng):
    r = random_realization(rng)
    psi = random_cp(rng, 2, rank=1)
    word = ["v*", "v*", "v", "v"]
    with pytest.raises(ValueError, match="need depth >= 3"):
        evaluate(word, r, build_fock(psi, 2))
    deep = evaluate(word, r, build_fock(psi, 6))
    assert np.max(np.abs(deep)) > 0.1
    assert np.max(np.abs(evaluate(word, r, build_fock(psi, 3)) - deep)) < 1e-12 * np.max(np.abs(deep))



@pytest.mark.parametrize("k, rank", [(1, 1), (1, 2), (1, None), (2, 1), (2, 2), (2, None), (3, 1), (3, 2), (3, None)])
def test_one_recursion_is_evaluate_at_every_order_bit_for_bit(k, rank):
    # compressed_distribution evaluates every order in one recursion on the
    # order-N word; each moment must be evaluate's on its own order's word,
    # to the bit.  rank None is eta = id: psi = 0, the Fock module holds only
    # the unit letter, and a double count of the last order still shows
    rng = np.random.default_rng(10 * k + (rank or 0))
    r = random_realization(rng, k=k, p=2)
    eta = CPMap.identity(k) if rank is None else CPMap(k, random_cp(rng, k, rank=rank).choi + CPMap.identity(k).choi)
    N = 6 if k <= 2 else 5
    dist = compressed_distribution(r, eta, N, tol=1e-9)
    units = matrix_units(k)
    for n in range(1, N + 1):
        word = ["v*"] + ["X", "v", units, "v*"] * (n - 1) + ["X", "v"]
        want = evaluate(word, r, build_fock(eta.minus_id(), required_depth(word), 1e-9))
        got = dist.moment(n).tensor
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"order {n}"

@settings(max_examples=20, deadline=None)
@given(k=st.sampled_from([1, 2, 3]), rank=st.sampled_from([1, 2]), N=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_compressed_matches_eta_power(k, rank, N, seed):
    rng = np.random.default_rng(seed)
    r = random_realization(rng, k=k, p=2)
    eta = random_eta(rng, k, rank=rank)
    comp = compressed_distribution(r, eta, N)
    powered = eta_power(moments_from_realization(r, N), eta)
    f = build_fock(eta.minus_id(), 2)
    for n in range(1, N + 1):
        want = powered.moment(n).tensor
        scale = np.max(np.abs(want))
        assert np.max(np.abs(comp.moment(n).tensor - want)) <= 1e-10 * scale
        # the n-th moment map on concrete arguments is the compression word with them
        args = [random_complex(rng, (k, k)) for _ in range(n - 1)]
        atoms = ["v*"] + [a for arg in args for a in ("X", "v", arg, "v*")] + ["X", "v"]
        word = evaluate(atoms, r, f)
        assert np.max(np.abs(comp.moment(n).apply(args) - word)) <= 1e-12 * max(1.0, np.max(np.abs(word)))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("names", [
    ["X", "U", "b", "X", "v*", "U", "v"],  # slots in a B run and in a C run
    ["U", "v*", "X", "U2", "X", "v", "U", "v*", "v"],  # a leading slot; two slots in one B atom
    ["U", "b", "U2"],  # A-atoms only
])
def test_slotted_atoms_are_map_arguments(rng, k, names):
    # "U" is the matrix units as one slotted A-atom and "U2" the products
    # e_c1 e_c2 as one atom with two slots: evaluate then gives the tensor of
    # the multilinear map whose value at concrete arguments is evaluate of the
    # word with those arguments, slots in word order
    units = matrix_units(k)
    slotted_atom = {"U": units, "U2": np.einsum("aij,bjl->abil", units, units)}
    b = random_complex(rng, (k, k))
    slotted, concrete, args = [], [], []
    for name in names:
        if name in slotted_atom:
            new = [random_complex(rng, (k, k)) for _ in range(slotted_atom[name].ndim - 2)]
            slotted.append(slotted_atom[name])
            concrete.append(reduce(np.matmul, new))
            args += new
        else:
            atom = b if name == "b" else name
            slotted.append(atom)
            concrete.append(atom)
    r = random_realization(rng, k=k)
    f = build_fock(random_cp(rng, k, rank=2), required_depth(concrete))
    tensor = evaluate(slotted, r, f)
    assert tensor.shape == (k * k,) * len(args) + (k, k)
    want = evaluate(concrete, r, f)
    assert np.max(np.abs(MultiMap(k, tensor).apply(args) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("n_slots", [27, 30])
@pytest.mark.parametrize("run", ["A", "B"])
def test_words_with_more_than_26_slots(rng, run, n_slots):
    # every tensor of the recursion holds its slots on one axis, so no
    # alphabet of einsum subscripts bounds their number
    args = [np.exp(2j * np.pi * rng.random((1, 1))) for _ in range(n_slots)]
    lead = ["X"] if run == "B" else []
    slotted = lead + [atom for _ in args for atom in [matrix_units(1)] + lead]
    concrete = lead + [atom for a in args for atom in [a] + lead]
    r = random_realization(rng, k=1)
    f = build_fock(random_cp(rng, 1, rank=1), 2)
    tensor = evaluate(slotted, r, f)
    assert tensor.shape == (1,) * n_slots + (1, 1)
    want = evaluate(concrete, r, f)
    assert np.max(np.abs(MultiMap(1, tensor).apply(args) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _random_atoms(rng, alphabet, length, k):
    atoms = []
    for _ in range(length):
        atom = alphabet[rng.integers(len(alphabet))]
        atoms.append(random_complex(rng, (k, k)) if atom == "A" else atom)
    return atoms


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([1, 2]), rank=st.sampled_from([1, 2]), length=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_pure_fock_words_match_sparse_product(k, rank, length, seed):
    # the bra-slab recursion against the product of sparse Fock operators
    rng = np.random.default_rng(seed)
    atoms = _random_atoms(rng, ["v", "v*", "A"], length, k)
    f = build_fock(random_cp(rng, k, rank=rank), length + 1)
    want = word_expectation(f, atoms)
    got = evaluate(atoms, random_realization(rng, k=k), f)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([1, 2]), rank=st.sampled_from([1, 2]), pairs=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_mixed_words_exact_at_required_depth(k, rank, pairs, seed):
    # v/v* pairs in random order, so that E is not zero by degree counting,
    # with up to six atoms in all and X and A atoms at random places
    rng = np.random.default_rng(seed)
    atoms = [str(a) for a in rng.permutation(["v", "v*"] * pairs)]
    for extra in _random_atoms(rng, ["X", "A"], rng.integers(7 - 2 * pairs), k):
        atoms.insert(rng.integers(len(atoms) + 1), extra)
    r = random_realization(rng, k=k)
    psi = random_cp(rng, k, rank=rank)
    got = evaluate(atoms, r, build_fock(psi, required_depth(atoms)))
    want = evaluate(atoms, r, build_fock(psi, len(atoms) + 2))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_runs_of_v_atoms_cross_b_letters(rng):
    # the recursion forms E(v* E(X) v* E(X) v E(X) v), which needs depth 3
    atoms = ["v*", "X", "v*", "X", "v", "X", "v"]
    r = random_realization(rng)
    psi = random_cp(rng, 2, rank=1)
    got = evaluate(atoms, r, build_fock(psi, required_depth(atoms)))
    want = evaluate(atoms, r, build_fock(psi, 6))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
