import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovfree import CPMap, bernoulli, cumulants_from_moments, serialize
from ovfree.serialize import (
    _POW10,
    _decimal,
    _round_sig,
    array_to_json,
    canonical_chunks,
    canonical_dumps,
    dist_from_spec,
    dist_to_spec,
    int_field,
    json_to_array,
    map_from_spec,
    map_to_spec,
)

from conftest import random_complex


def test_array_round_trip(rng):
    arr = random_complex(rng, (2, 3, 2))
    back = json_to_array(array_to_json(arr))
    assert back.shape == arr.shape
    assert np.max(np.abs(back - arr)) < 1e-15


def test_scalar_leaf():
    assert json_to_array([1.5, -2.0]) == complex(1.5, -2.0)


def test_malformed_leaf_rejected():
    with pytest.raises(ValueError, match="re, im"):
        json_to_array([[1.0, 2.0, 3.0]])


@pytest.mark.parametrize(
    "data",
    [
        [[1.0, 2.0], [1.0]],  # a short leaf after a valid one
        [[1.0, 2.0], ["x", 2.0]],  # a string leaf after a valid one
        [[1.0, 2.0], [1.0, 2.0, 3.0]],  # a long leaf after a valid one
        [[[1.0, 2.0]], [1.0, 2.0]],  # leaves at two depths
        [[1.0, 2.0], [None, 2.0]],
        [[True, False]],
        [[True, 2.0]],  # np.asarray reads a boolean beside a number as 1 or 0
        [[1.0, False]],
        [[0.5, 0.25]] * 40 + [[True, 0.5]],  # one boolean among many numbers
        [[1.0, 2.0], {"re": 1.0}],
        [],
        [[]],
        None,
        "1.0",
        3.0,
    ],
)
def test_malformed_arrays_raise_one_line_value_error(data):
    with pytest.raises(ValueError, match="re, im") as info:
        json_to_array(data)
    assert "\n" not in str(info.value)


def test_json_to_array_keeps_every_bit():
    values = [0.0, -0.0, 1e-320, -5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1, -2.5]
    arr = np.empty((len(values), 1), dtype=complex)  # not x + 1j * y: 1j * inf has a nan real part
    arr.real[:, 0] = values
    arr.imag[:, 0] = values[::-1]
    back = json_to_array(array_to_json(arr))
    assert back.shape == arr.shape
    assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))
    assert json_to_array([[1, 2], [3, -4]]).tolist() == [1 + 2j, 3 - 4j]


# -- the vectorised rounding against the per-element oracle --------------------


def _neighbours(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.inf if steps > 0 else -np.inf))
    return x


_near_ties = st.builds(  # within a few ulps of a 13th-digit 5: d.ddddddddddd5 x 10^e
    lambda m, e, steps, sign: sign * _neighbours(float(f"{m}5e{e - 12}"), steps),
    st.integers(10**11, 10**12 - 1),
    st.integers(-310, 300),
    st.integers(-3, 3),
    st.sampled_from([1.0, -1.0]),
)
_powers_of_ten = st.builds(
    lambda e, steps: _neighbours(float(f"1e{e}"), steps), st.integers(-323, 308), st.integers(-3, 3)
)
_magnitudes = st.builds(  # d.dddddddddddddddd x 10^e from 1e-320 to 1e308
    lambda sign, lead, digits, e: float(f"{sign}{lead}.{digits:016d}e{e}"),
    st.sampled_from(["", "-"]),
    st.integers(1, 9),
    st.integers(0, 10**16 - 1),
    st.integers(-320, 307),
)
_any_float = st.one_of(st.floats(), _near_ties, _powers_of_ten, _magnitudes, st.sampled_from([0.0, -0.0, 5e-324]))


def _round_array(x):
    """_round_sig of every element of a float array, bit for bit, from
    serialize._decimal: an exact element is m / 10**p, the double nearest its
    12-digit decimal; the other nonzero elements go through _round_sig."""
    m, p, exact = _decimal(x)
    out = np.where(exact, np.copysign(m / _POW10[p], x), 0.0)
    rest = ~exact & (x != 0)
    out[rest] = [_round_sig(v) for v in x[rest].tolist()]
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_float, min_size=1, max_size=64))
def test_round_array_matches_round_sig(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf, nan and zeros raise no RuntimeWarning
        got = _round_array(np.array(values)).tolist()
    assert [repr(v) for v in got] == [repr(_round_sig(v)) for v in values]


def _old_array_to_json(arr):
    arr = np.asarray(arr)
    if arr.ndim == 0:
        z = complex(arr)
        return [float(np.real(z)), float(np.imag(z))]
    return [_old_array_to_json(sub) for sub in arr]


def _old_round_tree(obj):
    if isinstance(obj, np.ndarray):
        return _old_round_tree(_old_array_to_json(obj))
    if isinstance(obj, float):
        return _round_sig(obj)
    if isinstance(obj, dict):
        return {key: _old_round_tree(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_old_round_tree(val) for val in obj]
    return obj


def old_canonical_dumps(obj):
    """The per-element tree walk the array codec replaced: every array becomes
    nested [re, im] lists of Python floats, and then each float is rounded on
    its own."""
    return json.dumps(_old_round_tree(obj), sort_keys=True, separators=(",", ":")) + "\n"


_SPECIALS = np.array(  # finite: canonical_dumps refuses inf and nan
    [0.0, -0.0, 1.7976931348623157e308, 1e-320, 0.5e-3, 123456789012.5, 1e12, 1e-11]
    # at and next to the ends of repr's positional range and of the 12-digit fast path
    + [np.nextafter(b, t) for b in (1e-4, 1e16, 1e12, 1e11, 1e-11) for t in (0.0, b, np.inf)]
    + [0.1234567890125, -98765.43210985, 5.0000000000005e-9, 999999999999.5]  # near-ties
)


def _random_array(rng):
    """A complex or real array of a random shape, 0-d and size-1 axes
    included, now and then one larger than a kernel chunk, with magnitudes
    from 1e-14 to 1e18 and a fifth of its floats drawn from _SPECIALS."""
    draw = rng.random()
    if draw < 0.1:
        shape = ()
    elif draw < 0.15:
        shape = (3, 1, serialize._CHUNK // 2 + 1)  # chunk seams fall inside and between rows
    else:
        shape = tuple(rng.integers(1, 4, size=rng.integers(0, 4)))
    parts = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-14, 18, size=(2,) + shape)
    mask = rng.random(parts.shape) < 0.2
    parts[mask] = rng.choice(_SPECIALS, size=int(mask.sum()))
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = parts
    return z if rng.random() < 0.8 else z.real


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonical_dumps_matches_per_element_walk(seed):
    rng = np.random.default_rng(seed)
    payload = {
        "arrays": [_random_array(rng) for _ in range(3)],
        "nested": {"a": _random_array(rng), "x": float(rng.standard_normal()), "n": None, "ok": True, "s": "t"},
        "floats": [float(v) for v in rng.standard_normal(4) * 10.0 ** rng.integers(-20, 20, 4)],
        "int": int(rng.integers(100)),
    }
    assert canonical_dumps(payload) == old_canonical_dumps(payload)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_canonical_dumps_chunk_seams(monkeypatch, chunk):
    # every entry of these shapes sits at a chunk seam for some chunk size
    rng = np.random.default_rng(chunk)
    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    payload = [random_complex(rng, (3, 4, 5)), random_complex(rng, (2, 1, 3, 1)), np.array(2.5 - 1e-5j), np.zeros((2, 0))]
    assert canonical_dumps(payload) == old_canonical_dumps(payload)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_canonical_dumps_refuses_non_finite(bad):
    # JSON has no inf or nan: a payload holding one, as a float or as an array
    # entry at any depth, is refused before any text is made
    for payload in [{"x": bad}, [1.0, (2.0, bad)], {"a": np.array([[1.0, complex(0.0, bad)]])}, {"a": [np.full(3, bad)]}]:
        with pytest.raises(ValueError, match="non-finite number"):
            canonical_chunks(payload)
    assert canonical_dumps({"x": 1e308, "a": np.array([1e308])}) == '{"a":[[1e+308,0.0]],"x":1e+308}\n'


@pytest.mark.filterwarnings("error")
def test_canonical_dumps_boundary_values():
    values = np.concatenate([_SPECIALS, -_SPECIALS, [9.99999999999949e-5, 9.9999999999995e15, 1e15, 123456.0, 1e-4 / 3]])
    z = values.astype(complex)
    z.imag = values[::-1]
    payload = {"real": values, "complex": z, "one": values[:1].reshape(1, 1, 1)}
    assert canonical_dumps(payload) == old_canonical_dumps(payload)


@pytest.mark.filterwarnings("error")
def test_exponent_notation_takes_the_kernel(monkeypatch):
    # |x| in [1e-11, 1e-4) prints as d.ddde-XX; small moments fill this range,
    # so the kernel writes it rather than the per-element fallback
    values = [s * float(f"{d}e{e}") for e in range(-11, -4) for d in ("1", "1.5", "9.99999999999", "1.00000000001")
              for s in (1.0, -1.0)]
    want = old_canonical_dumps(np.array(values))
    monkeypatch.setattr(serialize, "_round_sig", None)
    assert canonical_dumps(np.array(values)) == want
    assert "1e-05" in want and "-1.5e-11" in want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("offset", ["5", "9", "11", "20"])
def test_near_ties_at_the_band_edge(offset):
    # m.5 +- offset * 1e-5 for 12-digit m, scaled to |x| from 1e-11 to 1e12:
    # about 1e-4 from a tie, where the kernel's fast path hands over to the
    # encoder; either side must agree with the per-element walk
    rng = np.random.default_rng(int(offset))
    frac = [f"{50000 + int(offset):05d}", f"{50000 - int(offset):05d}"]
    values = [float(f"{sign}{m}.{rng.choice(frac)}e{e - 11}") for e in range(-11, 12)
              for m, sign in zip(rng.integers(10**11, 10**12, 40), rng.choice(["", "-"], 40))]
    payload = {"real": np.array(values), "complex": np.array(values[::2]) + 1j * np.array(values[1::2])}
    assert canonical_dumps(payload) == old_canonical_dumps(payload)


def test_few_floats_take_the_encoder(monkeypatch):
    # of 100k standard-normal floats, only those within 1e-4 of a tie in
    # their 13th digit (about 0.02%) are written by the encoder per element
    values = np.random.default_rng(17).standard_normal(100_000)
    want, calls = old_canonical_dumps(values), []
    monkeypatch.setattr(serialize, "_round_sig", lambda v: calls.append(v) or _round_sig(v))
    assert canonical_dumps(values) == want
    assert len(calls) <= 50


def test_canonical_dumps_memory_bound():
    # a k=3, order-6 moment tensor; the chunk texts and their join hold the
    # output twice over, and every other temporary is bounded by one chunk
    rng = np.random.default_rng(6)
    t = random_complex(rng, (9,) * 5 + (3, 3))
    tracemalloc.start()
    try:
        text = canonical_dumps(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text) + (1 << 16)


def test_canonical_dumps_refuses_placeholder_lookalike():
    with pytest.raises(ValueError, match="placeholder"):
        canonical_dumps({"a": np.zeros(2), "s": "\x000"})


@pytest.mark.parametrize("value", [None, [], {}, "3", 2.5, True, 0, -1, float("nan")])
def test_int_field_rejects_non_integers(value):
    with pytest.raises(ValueError, match="'k' must be a positive integer"):
        int_field({"k": value}, "k")


def test_int_field_accepts_integers_and_default():
    assert int_field({"k": 3}, "k") == 3
    assert int_field({"k": 3.0}, "k") == 3
    assert int_field({}, "order", 6) == 6
    with pytest.raises(ValueError, match="missing the integer field 'p'"):
        int_field({}, "p")


def test_canonical_dumps_rounds_and_sorts():
    text = canonical_dumps({"b": 0.1234567890123456789, "a": -0.0})
    assert text == '{"a":0.0,"b":0.123456789012}\n'


def test_map_spec_round_trip(rng):
    m = CPMap.from_kraus(2, [random_complex(rng, (2, 2))])
    back = map_from_spec(map_to_spec(m))
    assert np.max(np.abs(back.choi - m.choi)) < 1e-15


def test_map_spec_requires_exactly_one_form():
    with pytest.raises(ValueError, match="exactly one"):
        map_from_spec({"k": 2})
    with pytest.raises(ValueError, match="exactly one"):
        map_from_spec({"k": 1, "kraus": [[[1.0, 0.0]]], "choi": [[[1.0, 0.0]]]})


def test_dist_spec_cumulants_round_trip():
    d = bernoulli(4)
    cums = cumulants_from_moments(d)
    spec = json.loads(canonical_dumps(dist_to_spec(d, cumulants=cums)))
    back = dist_from_spec({"k": 1, "cumulants": spec["cumulants"]}, 4)
    assert back.max_deviation(d) < 1e-11


def test_dist_spec_order_truncates_cumulants():
    d = bernoulli(6)
    cums = cumulants_from_moments(d)
    spec = {"k": 1, "cumulants": [array_to_json(c.tensor) for c in cums]}
    assert dist_from_spec(spec, 4).order == 4
    with pytest.raises(ValueError, match="only 6 cumulants"):
        dist_from_spec(spec, 7)


def test_dist_spec_requires_exactly_one_form():
    with pytest.raises(ValueError, match="exactly one"):
        dist_from_spec({"k": 1, "order": 4}, 4)


def test_realization_spec_vector_state(rng):
    # a unit vector state is promoted to its rank-one density matrix
    x = np.diag([1.0, -1.0])
    spec = {
        "k": 1,
        "order": 2,
        "realization": {
            "d": 2,
            "X": array_to_json(x),
            "embedding": "tensor-block",
            "p": 2,
            "state": array_to_json(np.array([1.0, 0.0])),
        },
    }
    d = dist_from_spec(spec, 2)
    assert abs(complex(d.moment(1).tensor.reshape(-1)[0]) - 1.0) < 1e-12


def test_realization_spec_dimension_mismatch():
    spec = {
        "k": 2,
        "realization": {
            "d": 3,
            "X": array_to_json(np.eye(3)),
            "embedding": "tensor-block",
            "p": 2,
            "state": array_to_json(np.eye(2) / 2),
        },
    }
    with pytest.raises(ValueError, match="dimension mismatch"):
        dist_from_spec(spec, 6)
