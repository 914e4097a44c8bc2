from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovfree import (
    CPMap,
    MixedWord,
    MultiMap,
    NotCompletelyPositiveError,
    build_fock,
    compressed_distribution,
    cumulants_from_moments,
    eta_power,
    evaluate,
    moments_from_realization,
    word_expectation,
)
from ovfree.algebra import matrix_units
from ovfree.freeprod import required_depth

from conftest import random_complex, random_cp, random_eta, random_realization


def make_env(rng, k=2, rank=1, depth=6):
    r = random_realization(rng, k=k, p=2)
    psi = random_cp(rng, k, rank=rank)
    eta = CPMap(k, psi.choi + CPMap.identity(k).choi)
    f = build_fock(psi, depth)
    return r, eta, f


def test_single_b_letter_is_first_moment(rng):
    r, eta, f = make_env(rng)
    got = evaluate(MixedWord.from_atoms(["X"]), r, f)
    assert np.max(np.abs(got - r.cond_exp(r.X))) < 1e-12


def test_single_c_word_is_eta(rng):
    r, eta, f = make_env(rng)
    a = random_complex(rng, (2, 2))
    got = evaluate(MixedWord.from_atoms(["v*", ("A", a), "v"]), r, f)
    assert np.max(np.abs(got - eta.apply(a))) < 1e-12


def test_empty_word_is_unit(rng):
    r, eta, f = make_env(rng)
    assert np.max(np.abs(evaluate(MixedWord.from_atoms([]), r, f) - np.eye(2))) < 1e-12


def test_pure_scalar_word(rng):
    r, eta, f = make_env(rng)
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (2, 2))
    got = evaluate(MixedWord.from_atoms([("A", a), ("A", b)]), r, f)
    assert np.max(np.abs(got - a @ b)) < 1e-12


def test_centered_alternating_pair_vanishes(rng):
    # E((X - E X) (vv* - E(vv*))) = 0 by freeness; build it atom by atom
    r, eta, f = make_env(rng)
    ex = r.cond_exp(r.X)
    evv = evaluate(MixedWord.from_atoms(["v", "v*"]), r, f)
    terms = [
        (["X", "v", "v*"], 1.0),
        (["X", ("A", evv)], -1.0),
        ([("A", ex), "v", "v*"], -1.0),
        ([("A", ex), ("A", evv)], 1.0),
    ]
    total = np.zeros((2, 2), dtype=complex)
    for atoms, sign in terms:
        total += sign * evaluate(MixedWord.from_atoms(atoms), r, f)
    assert np.max(np.abs(total)) < 1e-11


def test_evaluate_is_a_bilinear(rng):
    r, eta, f = make_env(rng)
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (2, 2))
    inner = ["v*", "X", "v"]
    plain = evaluate(MixedWord.from_atoms(inner), r, f)
    framed = evaluate(MixedWord.from_atoms([("A", a)] + inner + [("A", b)]), r, f)
    assert np.max(np.abs(framed - a @ plain @ b)) < 1e-11


def test_first_moment_formula(rng):
    r, eta, f = make_env(rng)
    got = evaluate(MixedWord.from_atoms(["v*", "X", "v"]), r, f)
    assert np.max(np.abs(got - eta.apply(r.cond_exp(r.X)))) < 1e-11


def test_second_moment_formula(rng):
    # E(v*Xv a v*Xv) = eta(w2(a)) + eta(w1) a eta(w1), from the order-2
    # moment-cumulant expansion
    r, eta, f = make_env(rng)
    cums = cumulants_from_moments(moments_from_realization(r, 2))
    a = random_complex(rng, (2, 2))
    got = evaluate(MixedWord.from_atoms(["v*", "X", "v", ("A", a), "v*", "X", "v"]), r, f)
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
    from ovfree import Realization

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
    with pytest.raises(NotCompletelyPositiveError):
        compressed_distribution(r, CPMap.scaled_identity(2, 0.5), 3)


def test_compressed_order_at_least_one(rng):
    # the library checks only N >= 1; the CLI caps verify-realization at 6
    # (test_cli.test_verify_realization_order_above_compressed_cap)
    r = random_realization(rng)
    with pytest.raises(ValueError, match="order must be at least 1, got 0"):
        compressed_distribution(r, CPMap.identity(2), 0)
    assert compressed_distribution(r, CPMap.identity(2), 1).order == 1


def test_unknown_atom_rejected():
    with pytest.raises(ValueError):
        MixedWord.from_atoms(["Y"])


def test_from_atoms_keeps_a_read_only_copy():
    a = np.eye(2, dtype=complex)
    w = MixedWord.from_atoms(["X", ("A", a)])
    a[0, 0] = 5
    coefficient = w.atoms[1][1]
    assert coefficient[0, 0] == 1 and not coefficient.flags.writeable


def test_normal_form_alternates(rng):
    a = random_complex(rng, (2, 2))
    w = MixedWord.from_atoms([("A", a), "v*", "X", "X", ("A", a), "v", ("A", a), "v*", ("A", a)])
    nf = w.normal_form()
    tags = [tag for tag, _ in nf]
    assert tags == ["C", "B", "C"]
    assert all(t1 != t2 for t1, t2 in zip(tags, tags[1:]))
    assert len(nf[1][1]) == 3  # X X and the attached coefficient
    nf_scalar = MixedWord.from_atoms([("A", a)]).normal_form()
    assert len(nf_scalar) == 1 and nf_scalar[0][0] == "A"


@pytest.mark.parametrize("atoms, depth", [
    ([], 2),
    (["v*"], 2),
    (["v", "X", "v*"], 2),
    (["v*", "v*", "v", "v"], 3),
    (["v", "X", "v"], 3),  # X does not break the run: E(v E(X) v) is formed
    (["v", ("A", np.eye(2)), "v", "v*", "v", "v"], 4),
] + [
    # the compression words v* X (v a v*) X ... X v of every order up to 8
    (["v*"] + ["X", "v", ("A", np.eye(2)), "v*"] * (N - 1) + ["X", "v"], 2) for N in range(1, 9)
])
def test_required_depth(atoms, depth):
    assert required_depth(atoms) == depth


def test_evaluate_rejects_shallow_module(rng):
    r = random_realization(rng)
    psi = random_cp(rng, 2, rank=1)
    word = MixedWord.from_atoms(["v*", "v*", "v", "v"])
    with pytest.raises(ValueError, match="need depth >= 3"):
        evaluate(word, r, build_fock(psi, 2))
    deep = evaluate(word, r, build_fock(psi, 6))
    assert np.max(np.abs(deep)) > 0.1
    assert np.max(np.abs(evaluate(word, r, build_fock(psi, 3)) - deep)) < 1e-12 * np.max(np.abs(deep))


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
        atoms = ["v*"] + [a for arg in args for a in ("X", "v", ("A", arg), "v*")] + ["X", "v"]
        word = evaluate(MixedWord.from_atoms(atoms), r, f)
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
            slotted.append(("A", slotted_atom[name]))
            concrete.append(("A", reduce(np.matmul, new)))
            args += new
        else:
            atom = ("A", b) if name == "b" else name
            slotted.append(atom)
            concrete.append(atom)
    r = random_realization(rng, k=k)
    f = build_fock(random_cp(rng, k, rank=2), required_depth(concrete))
    tensor = evaluate(MixedWord.from_atoms(slotted), r, f)
    assert tensor.shape == (k * k,) * len(args) + (k, k)
    want = evaluate(MixedWord.from_atoms(concrete), r, f)
    assert np.max(np.abs(MultiMap(k, tensor).apply(args) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _random_atoms(rng, alphabet, length, k):
    atoms = []
    for _ in range(length):
        atom = alphabet[rng.integers(len(alphabet))]
        atoms.append(("A", random_complex(rng, (k, k))) if atom == "A" else atom)
    return atoms


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([1, 2]), rank=st.sampled_from([1, 2]), length=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_pure_fock_words_match_sparse_product(k, rank, length, seed):
    # the bra-slab recursion against the product of sparse Fock operators
    rng = np.random.default_rng(seed)
    atoms = _random_atoms(rng, ["v", "v*", "A"], length, k)
    f = build_fock(random_cp(rng, k, rank=rank), length + 1)
    want = word_expectation(f, [a if isinstance(a, str) else a[1] for a in atoms])
    got = evaluate(MixedWord.from_atoms(atoms), random_realization(rng, k=k), f)
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
    word = MixedWord.from_atoms(atoms)
    got = evaluate(word, r, build_fock(psi, required_depth(atoms)))
    want = evaluate(word, r, build_fock(psi, len(atoms) + 2))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_runs_of_v_atoms_cross_b_letters(rng):
    # the recursion forms E(v* E(X) v* E(X) v E(X) v), which needs depth 3
    atoms = ["v*", "X", "v*", "X", "v", "X", "v"]
    r = random_realization(rng)
    psi = random_cp(rng, 2, rank=1)
    word = MixedWord.from_atoms(atoms)
    got = evaluate(word, r, build_fock(psi, required_depth(atoms)))
    want = evaluate(word, r, build_fock(psi, 6))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
