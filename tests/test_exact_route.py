"""Both routes to the eta-convolution power against a third, exact one.

tests/exact_oracle.py computes the eta-power of a rational realization in
fractions.Fraction, sharing no code with either route: not the embedding,
the conditional expectation, CPMap.apply, the transform or the freeness
recursion.  Only the routes' inputs are built here with ovfree.
"""

import numpy as np
import pytest

from ovfree.cpmaps import CPMap
from ovfree.freeprod import compressed_distribution
from ovfree.ovdist import Realization, eta_power, moments_from_realization

import exact_oracle

REL_TOL = 1e-12

# (k, p, order, seed): scalar realizations of four states, and M_2-valued ones of two
CASES = [(1, 4, 6, seed) for seed in (1, 2)] + [(2, 2, 4, seed) for seed in (1, 2)]


def as_array(x):
    return np.array([[complex(a) for a in row] for row in x], dtype=complex)


def route_inputs(X, state, kraus, k, p):
    r = Realization(k, p, as_array(X), np.diag([float(s) for s in state]).astype(complex))
    eta = CPMap.from_kraus(k, [np.eye(k)] + [as_array(K) for K in kraus])
    return r, eta


def exact_tensors(moments, k, order):
    """MultiMap's tensor layout of every order's exact moment map."""
    tensors = []
    for n in range(1, order + 1):
        t = np.empty((k * k,) * (n - 1) + (k, k), dtype=complex)
        for w in np.ndindex(*(k * k,) * (n - 1)):
            t[w] = as_array(moments[w])
        tensors.append(t)
    return tensors


def relative_errors(dist, exact):
    return [float(np.max(np.abs(m.tensor - e)) / np.max(np.abs(e))) for m, e in zip(dist.moments, exact)]


def assert_routes_meet_the_exact_eta_power(k, p, order, seed, imaginary=False):
    X, state, kraus = exact_oracle.rational_case(seed, k, p, imaginary)
    exact = exact_tensors(exact_oracle.eta_power_moments(X, state, kraus, k, p, order), k, order)
    r, eta = route_inputs(X, state, kraus, k, p)
    transform = eta_power(moments_from_realization(r, order), eta)
    freeness = compressed_distribution(r, eta, order)
    assert max(relative_errors(transform, exact)) <= REL_TOL
    assert max(relative_errors(freeness, exact)) <= REL_TOL


@pytest.mark.parametrize("k, p, order, seed", CASES)
def test_both_routes_meet_the_exact_eta_power(k, p, order, seed):
    assert_routes_meet_the_exact_eta_power(k, p, order, seed)


def test_both_routes_meet_the_exact_eta_power_of_complex_operators():
    # for a real K, a -> K* a K commutes with the transpose; complex X and
    # Kraus operators tell eta from a -> eta(a^T)^T, and X from its conjugate
    assert_routes_meet_the_exact_eta_power(2, 2, 4, 1, imaginary=True)


def test_the_oracle_applies_kraus_operators_as_from_kraus_means():
    # CPMap.from_kraus(k, Ks) is a -> sum_i K_i^* a K_i; the oracle's eta must be that map
    k, p, order = 2, 2, 4
    X, state, kraus = exact_oracle.rational_case(3, k, p)
    r, eta = route_inputs(X, state, kraus, k, p)
    for c in range(k * k):
        e = exact_oracle.unit(k, c)
        assert np.max(np.abs(eta.apply(as_array(e)) - as_array(exact_oracle.apply_eta(kraus, e)))) <= 1e-14
    # a -> sum_i K_i a K_i^* is another map, and the eta-power it gives is far from the routes'
    flipped = tuple(exact_oracle.transpose(K) for K in kraus)
    wrong = exact_tensors(exact_oracle.eta_power_moments(X, state, flipped, k, p, order), k, order)
    assert max(relative_errors(eta_power(moments_from_realization(r, order), eta), wrong)) > 1e-3

