import json
import operator
import time
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ovfree import serialize
from ovfree.cpmaps import CPMap
from ovfree.ovdist import bernoulli, cumulants_from_moments
from ovfree.serialize import (
    FAST_READ_BYTES,
    MAX_SHORT_ELEMENTS,
    MIN_SITE_BYTES,
    _POW10,
    _decimal,
    _float_text,
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
    read_spec,
    write_canonical,
)

from conftest import EDGE_INTS, bits, padded, random_complex


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
    monkeypatch.setattr(serialize, "_float_text", None)
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
    monkeypatch.setattr(serialize, "_float_text", lambda v: calls.append(v) or _float_text(v))
    assert canonical_dumps(values) == want
    assert len(calls) <= 50


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False))
def test_float_text_is_the_encoders_text(v):
    # the per-element fallback writes what json.dumps(_round_sig(v)) writes
    assert _float_text(v) == json.dumps(_round_sig(v))


def test_float_text_over_every_exponent():
    rng = np.random.default_rng(18)  # finite positive doubles of every exponent, subnormals and the specials
    values = rng.integers(1, 0x7FF0000000000000, 20_000).view(np.float64).tolist()
    values += [abs(v) for v in _SPECIALS.tolist() if v != 0] + [5e-324, 2.2250738585072014e-308]
    assert [_float_text(v) for v in values] == [json.dumps(_round_sig(v)) for v in values]


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


# numbers at the site reader's edges: signed zeros, the least and nearly the
# greatest double, and integers beside 2**53 (past which a double skips
# integers), 2**63 and 2**64 (the ends of int64 and uint64, past which both
# readers give the nearest double)
_EDGE_NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308,
                 *(sign * (2**e + d) for e in (53, 63, 64) for d in (-1, 0, 1) for sign in (1, -1))]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), order=st.integers(1, 4), p=st.integers(1, 3),
       rank=st.integers(1, 4), vector=st.booleans(), sep=st.sampled_from([",", ", "]), ints=st.booleans(),
       edge_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_site=st.sampled_from([1, 256, 2048]))
def test_site_reader_agrees_with_json(tmp_path, monkeypatch, seed, k, order, p, rank, vector, sep, ints, edge_share,
                                      min_site):
    # each array field of a map and a distribution spec in one document
    # ("choi", "kraus", "cumulants", "X" and "state"), read from its own text
    # by read_spec in pieces of 64 bytes and as nested lists by json, is the
    # same array, before and after json_to_array, bit for bit; a field
    # shorter than MIN_SITE_BYTES stays json's nested lists
    monkeypatch.setattr(serialize, "FAST_READ_BYTES", 1)
    monkeypatch.setattr(serialize, "MIN_SITE_BYTES", min_site)
    monkeypatch.setattr(serialize, "FLAT_PIECE_BYTES", 64)
    rng = np.random.default_rng(seed)
    shapes = {("map", "choi"): (k * k, k * k, 2), **{("map", "kraus", i): (k, k, 2) for i in range(rank)},
              **{("distribution", "cumulants", n): (k * k,) * n + (k, k, 2) for n in range(order)},
              ("distribution", "realization", "X"): (k * p, k * p, 2),
              ("distribution", "realization", "state"): (p, 2) if vector else (p, p, 2)}
    document = {"k": k, "order": order, "map": {"k": k, "choi": None, "kraus": [None] * rank},
                "distribution": {"k": k, "cumulants": [None] * order, "realization": {"p": p, "X": None, "state": None}}}
    for where, shape in shapes.items():
        values = np.empty(int(np.prod(shape)), dtype=object)
        for i in range(values.size):
            if rng.random() < edge_share:
                values[i] = _EDGE_NUMBERS[rng.integers(len(_EDGE_NUMBERS))]
            else:
                values[i] = int(rng.integers(-3, 4)) if ints else float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        reduce(operator.getitem, where[:-1], document)[where[-1]] = values.reshape(shape).tolist()
    separators = (sep, sep.replace(",", ":"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document, separators=separators))
    got = serialize.read_spec(str(path))
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh, parse_int=serialize._parse_int)
    for where in shapes:
        site, nested = reduce(operator.getitem, where, got), reduce(operator.getitem, where, expected)
        text = json.dumps(reduce(operator.getitem, where, document), separators=separators)
        assert isinstance(site, np.ndarray) == (len(text) >= min_site), where
        for a, b in ((np.array(site), np.array(nested)), (json_to_array(site), json_to_array(nested))):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# -- reading and writing files --------------------------------------------------

_RNG = np.random.default_rng(14)  # finite doubles of every exponent, both signs
_REPR17 = ["%.17g" % x for x in _RNG.integers(0, 0x7FF0000000000000, 256).view(np.float64) * _RNG.choice([-1, 1], 256)]


@pytest.mark.parametrize("text", [
    '{"k": 1, "choi": [[-0.0, 5e-324], [2.2250738585072014e-308, 1e-400], [-0, 0]]}',
    '{"k": 1, "choi": [' + ", ".join(f"[{a}, {b}]" for a, b in zip(_REPR17[::2], _REPR17[1::2])) + "]}",
    *(f'{{"k": {n}, "choi": [[{n}, {-n}], [1, 0]]}}' for n in EDGE_INTS),
    '{"k": 1, "k": 2, "choi": [[1.5, 0]], "v": {"a": [1.5], "a": []}, "choi": [[2, 0.5]]}',
    '{"name": "caf\\u00e9", "k": 2, "choi": [[1.5, 0]]}',
    '{"a": [], "b": [[]], "c": {}, "d": [{}], "choi": [[]]}',
], ids=["subnormal-and-zero", "repr17", *(f"int-{n}" for n in EDGE_INTS), "duplicate-keys", "escape", "empty"])
def test_readers_agree_bit_for_bit(tmp_path, monkeypatch, text):
    # orjson's flat parse of a site and json's nested parse of the same
    # numbers give the same array, dtype included; a duplicated site, an
    # escape or an empty site sends the padded copy to json whole
    monkeypatch.setattr(serialize, "MIN_SITE_BYTES", 1)
    small, big = tmp_path / "small.json", tmp_path / "big.json"
    small.write_text(text)
    big.write_text(text)
    expected, got = read_spec(str(small)), read_spec(padded(big))
    site = got["choi"]
    if isinstance(site, np.ndarray):
        nested = np.array(expected.pop("choi"))
        assert (site.dtype, site.shape, site.tobytes()) == (nested.dtype, nested.shape, nested.tobytes())
        del got["choi"]
    assert isinstance(site, np.ndarray) == (text.count('"choi"') == 1 and "\\" not in text and "[[]]" not in text)
    assert bits(got) == bits(expected)


_SEAM_SITES = [
    b"[[1.5, 2], [3, 4], [5, 6.25]]",  # canonical with ", ": a cut may fall just before any space
    b"[[1.5,2],[3,4],[5,6.25]]",
    b"[[1.5, 2], [3, 4, 5], [6.25]]",  # six numbers grouped 2, 3, 1: the count of a 3 x 2 array
    b"[[1.5,2,3],[4],[5,6.25]]",
    b"[[1.5, 2],[3, 4], [5, 6.25]]",  # one "," among ", "
    b"[[1.5 ,2 ,3], [4 ,5 ,6.25]]",  # " ," repeats as ", " would, and json reads it
    b"[[-1.5e-3, 2], [3E2, 4], [5, -6.25]]",
]


@pytest.mark.parametrize("site", _SEAM_SITES, ids=["spaced", "compact", "regrouped", "regrouped-compact", "mixed", "space-first", "exponents"])
def test_piece_seams_read_as_json(tmp_path, monkeypatch, site):
    # with a piece boundary at every comma of the site in turn, the site is
    # read exactly as json reads it, or declined, and it is read only if its
    # text less its numbers is canonical; as a list's first element, its last
    # piece runs on into the next element until it is cut at the site's end
    monkeypatch.setattr(serialize, "FAST_READ_BYTES", 1)
    monkeypatch.setattr(serialize, "MIN_SITE_BYTES", 1)
    path = tmp_path / "in.json"
    path.write_bytes(b'{"k": 1, "choi": ' + site + b', "kraus": [' + site + b", " + site + b"]}")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    canonical = site.translate(None, serialize._NUMBER) in (b"[[, ], [, ], [, ]]", b"[[,],[,],[,]]")
    for piece in range(len(site)):
        monkeypatch.setattr(serialize, "FLAT_PIECE_BYTES", piece)
        spec = read_spec(str(path))
        for got, nested in zip([spec["choi"], *spec["kraus"]], [expected["choi"], *expected["kraus"]], strict=True):
            assert isinstance(got, np.ndarray) == canonical
            if canonical:
                a = np.array(nested)
                assert (got.dtype, got.shape, got.tobytes()) == (a.dtype, a.shape, a.tobytes())
            else:
                assert bits(got) == bits(nested)


def test_site_reader_holds_no_copy_of_the_text(tmp_path):
    # reading one long site holds the file's bytes, read once, and besides
    # them its numbers twice at most, as the pieces' arrays and the joined
    # array, but never a copy of the site's text, which is over twice as long
    # as its array
    rng = np.random.default_rng(29)
    array = rng.standard_normal((450, 450, 2))
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"k": 1, "choi": array.tolist()}))
    assert path.stat().st_size >= 8 << 20
    tracemalloc.start()
    try:
        choi = read_spec(str(path))["choi"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(choi, np.ndarray) and choi.tobytes() == array.tobytes()
    assert peak < path.stat().st_size + 2 * array.nbytes + 4 * serialize.FLAT_PIECE_BYTES


def _tiny_sites_document(n):
    """n tiny choi and kraus fields in objects and n strings naming the fields."""
    tiny = [[[1.0, 0.0]]]
    return json.dumps({"maps": [{"k": 1, "choi": tiny, "kraus": [tiny]} for _ in range(n)],
                       "names": ["choi", "kraus", "cumulants"] * n}).encode()


def test_tiny_and_deep_sites_are_declined_before_per_site_work(monkeypatch):
    # a site shorter than MIN_SITE_BYTES or nested deeper than MAX_FAST_DEPTH
    # is never read as a site, and list fields are scanned only up to the
    # document's MAX_SHORT_ELEMENTS'th short element
    import orjson

    def refuse(*args):
        raise AssertionError("per-site work on a declined site")

    class Fields(dict):  # records each key looked up
        def get(self, key, default=None):
            looked.append(key)
            return super().get(key, default)

    looked = []
    monkeypatch.setattr(serialize, "_site_array", refuse)
    monkeypatch.setattr(serialize, "ARRAY_FIELDS", Fields(serialize.ARRAY_FIELDS))
    tiny = _tiny_sites_document(20_000)
    assert len(tiny) > FAST_READ_BYTES and serialize._array_sites(tiny) == []
    assert looked == []  # no quote-free stretch as long as a site: no key is looked at
    long_site = json.dumps(np.ones((MIN_SITE_BYTES, 1, 2)).tolist()).encode()
    kraus = b'{"k": 1, "kraus": [' + b", ".join([b"[[[1.0, 0.0]]]"] * MAX_SHORT_ELEMENTS + [long_site]) + b"]}"
    assert serialize._array_sites(kraus) == []
    with pytest.raises(AssertionError, match="per-site work"):  # one short element fewer, and the long one is read
        serialize._array_sites(kraus.replace(b"[[[1.0, 0.0]]], ", b"", 1))
    deep = b'{"k": 2, "choi": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"
    assert serialize._array_sites(deep) == []
    # the scan for keys is a small part of a read of many tiny sites, even
    # by orjson, the faster parser
    monkeypatch.undo()
    scan = min(_timed(serialize._array_sites, tiny) for _ in range(5))
    parse = min(_timed(orjson.loads, tiny) for _ in range(5))
    assert scan < 0.25 * parse


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_emit_holds_no_copy_of_the_text(tmp_path):
    rng = np.random.default_rng(18)
    payload = {"moments": [rng.standard_normal(320_000) + 1j * rng.standard_normal(320_000)]}
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        write_canonical(payload, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 10_000_000
    assert peak < size  # the chunks are written as they are made: about 3 MB of kernel temporaries


def test_emit_refuses_a_placeholder_lookalike_before_writing(tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(ValueError, match="placeholder"):
        write_canonical({"a": np.zeros(1), "b": "\x000"}, str(out))
    assert not out.exists()
