"""The interval-recursion transform against the partition-enumeration oracle
and against the per-term kernel it replaced.

ovfree.multimap.kappa_map / moment_map over ovfree.ncpart.enumerate_nc sum
the nested evaluations one non-crossing partition at a time; the library's
transforms must agree with them, beat them on peak memory, and keep working
above the oracle's ground-set bound.  nc_oracle._interval_dp runs one einsum
per term over interleaved labels; the library's kernel must give the same
bits and stay within its peak memory.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovfree import ovdist
from ovfree.converse import TupleDistribution
from ovfree.multimap import MultiMap, kappa_map, moment_map
from ovfree.ncpart import MAX_GROUND_SET, enumerate_nc
from ovfree.ovdist import (
    MAX_TRANSFORM_ORDER,
    OVDistribution,
    bernoulli,
    cumulants_from_moments,
    moments_from_cumulants,
    semicircular,
)

from conftest import random_complex, random_symmetric_cumulants
import nc_oracle
from nc_oracle import catalan

REL_TOL = 1e-12


def assert_close(got, want, moment):
    """Equal up to REL_TOL relative to the word's moment: both directions sum
    or cancel terms of that size."""
    scale = max(1.0, float(np.max(np.abs(moment))))
    assert float(np.max(np.abs(got - want))) <= REL_TOL * scale


def oracle_moments(k, words, cums):
    """Moment map of every word: the sum over NC(n), missing words zero."""

    def value(w):
        return cums[w] if w in cums else MultiMap.zero(k, len(w) - 1)

    return {w: moment_map(len(w), k, lambda block: value(tuple(w[q] for q in block))) for w in words}


def oracle_cumulants(k, words, moments):
    """Cumulants by subtracting every enumerated partition but the one-block
    one; words must come in order of increasing length."""
    cums = {}
    for w in words:
        correction = MultiMap.zero(k, len(w) - 1)
        for p in enumerate_nc(len(w)):
            if len(p.blocks()) > 1:
                correction = correction + kappa_map(p.roots, k, lambda block: cums[tuple(w[q] for q in block)])
        cums[w] = moments[w] - correction
    return cums


def scalar_value(m):
    return complex(m.tensor.reshape(-1)[0]).real


# -- one variable ------------------------------------------------------------------

CASES = [(1, n) for n in range(1, 9)] + [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 6)]


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(CASES), seed=st.integers(0, 2**32 - 1))
def test_both_directions_match_oracle(case, seed):
    k, order = case
    cums = random_symmetric_cumulants(np.random.default_rng(seed), k, order)
    words = [(0,) * n for n in range(1, order + 1)]
    dist = moments_from_cumulants(cums)
    want = oracle_moments(k, words, dict(zip(words, cums)))
    for w, m in zip(words, dist.moments):
        assert_close(m.tensor, want[w].tensor, want[w].tensor)
    want_cums = oracle_cumulants(k, words, dict(zip(words, dist.moments)))
    for w, m, c in zip(words, dist.moments, cumulants_from_moments(dist)):
        assert_close(c.tensor, want_cums[w].tensor, m.tensor)


# -- tuples ------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    k=st.sampled_from([1, 2]),
    s=st.sampled_from([2, 3]),
    order=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_tuple_distribution_matches_oracle(k, s, order, seed):
    rng = np.random.default_rng(seed)
    words = [w for n in range(1, order + 1) for w in product(range(s), repeat=n)]
    # a random quarter of the words is left out: missing cumulants are zero
    cums = {
        w: MultiMap(k, random_complex(rng, (k * k,) * (len(w) - 1) + (k, k)))
        for w in words
        if rng.random() > 0.25
    }
    td = TupleDistribution.from_cumulants(k, s, order, cums)
    want = oracle_moments(k, words, cums)
    assert set(td.moments) == set(words)
    for w in words:
        assert_close(td.moments[w].tensor, want[w].tensor, want[w].tensor)
    got_cums = td.cumulants()
    want_cums = oracle_cumulants(k, words, td.moments)
    for w in words:
        assert_close(got_cums[w].tensor, want_cums[w].tensor, td.moments[w].tensor)
        expected = cums[w].tensor if w in cums else np.zeros_like(want_cums[w].tensor)
        assert np.max(np.abs(got_cums[w].tensor - expected)) < 1e-9


# -- the same bits as the per-term kernel ------------------------------------------


def random_known(rng, k, words, keep=1.0):
    """Random tensors for a random share of the words, a tenth of their real
    and of their imaginary parts exact zeros of either sign."""
    known = {}
    for w in words:
        if rng.random() < keep:
            t = random_complex(rng, (k * k,) * (len(w) - 1) + (k, k))
            for part in (t.real, t.imag):
                part[rng.random(t.shape) < 0.1] = rng.choice([0.0, -0.0])
            known[w] = t
    return known


# order 5 is the first at which a node term has two gaps, so tuple words go one order further;
# scalar orders 10 and 12 build node terms of up to four and five gaps
BIT_CASES = [(k, 1, n) for k, top in [(1, 8), (2, 6), (3, 4)] for n in range(1, top + 1)]
BIT_CASES += [(2, 2, n) for n in range(1, 6)]
BIT_CASES += [(1, 1, 10), (1, 1, 12)]


def scale(t, c):
    """t times the real c, part by part: a complex product with c + 0j can flip the sign of a zero."""
    return (t.view(np.float64) * float(c)).view(t.dtype)


# dilating X by c multiplies every length-n entry, moment or cumulant, by c^n; for a power of
# two that is exact in floats, so the kernel on the dilated input must give the oracle's bits
# scaled; 2**62 keeps order 12's c^12 = 2^744 far below overflow
@pytest.mark.parametrize("dilation", [1, 2**8, 2**62])
@pytest.mark.parametrize("case", BIT_CASES)
@settings(max_examples=4, deadline=None)
@given(inverse=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_kernel_is_the_per_term_kernel_bit_for_bit(case, dilation, inverse, seed):
    k, s, order = case
    words = [w for n in range(1, order + 1) for w in product(range(s), repeat=n)]
    # the forward direction reads a missing word as the zero map; the inverse needs every moment
    known = random_known(np.random.default_rng(seed), k, words, keep=1.0 if inverse or s == 1 else 0.75)
    dilated = {w: scale(t, dilation ** len(w)) for w, t in known.items()}
    got = ovdist._interval_dp(k, s, order, dilated, inverse)
    want = nc_oracle._interval_dp(k, s, order, known, inverse)
    assert set(got) == set(want) == set(words)
    for w in words:  # bytes, so that the sign of a zero counts too
        scaled = scale(want[w], dilation ** len(w))
        assert got[w].shape == scaled.shape and got[w].tobytes() == scaled.tobytes(), w


def test_kernel_peak_memory_within_the_per_term_kernel():
    k, order = 3, 6
    words = [(0,) * n for n in range(1, order + 1)]
    known = random_known(np.random.default_rng(9), k, words)
    for inverse in (False, True):
        peak = traced_peak(lambda: ovdist._interval_dp(k, 1, order, known, inverse))
        assert peak <= 1.1 * traced_peak(lambda: nc_oracle._interval_dp(k, 1, order, known, inverse)), inverse


# -- beyond the oracle's ground set ------------------------------------------------


def test_semicircle_catalan_moments_at_order_16():
    assert 16 > MAX_GROUND_SET
    d = semicircular(16)
    for m in range(1, 9):
        assert abs(scalar_value(d.moment(2 * m)) - catalan(m)) < 1e-9
        assert abs(scalar_value(d.moment(2 * m - 1))) < 1e-12


def test_bernoulli_round_trip_at_order_16():
    d = bernoulli(16)
    cums = cumulants_from_moments(d)
    # free cumulants of the symmetric Bernoulli law: (-1)^(m-1) catalan(m-1)
    for m in range(1, 9):
        assert abs(scalar_value(cums[2 * m - 1]) - (-1) ** (m - 1) * catalan(m - 1)) < 1e-9
        assert abs(scalar_value(cums[2 * m - 2])) < 1e-12
    assert moments_from_cumulants(cums).max_deviation(d) < 1e-9


def test_order_above_einsum_labels_rejected_up_front():
    order = MAX_TRANSFORM_ORDER + 1
    cums = [MultiMap(1, np.zeros((1,) * (n - 1) + (1, 1), dtype=complex)) for n in range(1, order + 1)]
    with pytest.raises(ValueError, match="transform order"):
        moments_from_cumulants(cums)


# -- peak memory -------------------------------------------------------------------


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_peak_memory_within_oracle():
    k, order = 3, 6
    cums = random_symmetric_cumulants(np.random.default_rng(5), k, order)
    words = [(0,) * n for n in range(1, order + 1)]
    dist = moments_from_cumulants(cums)

    def oracle_forward():
        moments = oracle_moments(k, words, dict(zip(words, cums)))
        return OVDistribution(k=k, order=order, moments=tuple(moments[w] for w in words))

    def oracle_inverse():
        return oracle_cumulants(k, words, dict(zip(words, dist.moments)))

    assert traced_peak(lambda: moments_from_cumulants(cums)) <= traced_peak(oracle_forward)
    assert traced_peak(lambda: cumulants_from_moments(dist)) <= traced_peak(oracle_inverse)
