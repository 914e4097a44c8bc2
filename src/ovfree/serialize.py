"""JSON conventions shared by every module.

Complex scalars serialize as two-element arrays [re, im]; matrices and
tensors as row-major nested arrays of those.  Output payloads hold complex
tensors as numpy arrays; canonical_chunks writes each in that form, every
float rounded to 12 significant digits, so identical inputs produce
byte-identical files, and canonical_dumps joins its chunks.  The text is what
json.dumps would write, but a numpy kernel builds it from each float's
12-digit integer, a table of 4-digit ASCII words and one layout per decimal
exponent, in chunks of _CHUNK entries (about 3 MB of temporaries);
near-ties, |x| outside [1e-11, 1e12), inf and nan take the encoder's own
text per element.
Input arrays are parsed whole by json_to_array, which rejects anything but a
rectangular array of numeric [re, im] pairs (a JSON boolean is not numeric).
"""

from __future__ import annotations

import json
import operator
import re
from functools import reduce
from itertools import chain
from typing import Any, Iterator, Optional, Tuple

import numpy as np

from .algebra import PSDReport
from .cpmaps import CPMap
from .multimap import MultiMap
from .ovdist import (
    OVDistribution,
    Realization,
    cumulants_from_moments,
    moments_from_cumulants,
    moments_from_realization,
    require_hermitian,
)


def _pairs(arr: Any) -> np.ndarray:
    """A complex array as a float array with a trailing [re, im] axis."""
    z = np.ascontiguousarray(arr, dtype=complex)
    return z.view(np.float64).reshape(np.shape(arr) + (2,))


def array_to_json(arr: Any) -> Any:
    """Full-precision wire form of a complex array: nested lists of [re, im]."""
    return _pairs(arr).tolist()


def json_to_array(data: Any) -> np.ndarray:
    """The complex array of a rectangular nested list of [re, im] pairs."""
    try:
        a = np.asarray(data)
    except (ValueError, TypeError, OverflowError):  # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "iuf" or a.ndim == 0 or a.shape[-1] != 2 or _holds_bool(data, a):
        raise ValueError("malformed complex array: need a rectangular array whose leaves are [re, im] numbers")
    return np.ascontiguousarray(a, dtype=np.float64).view(complex)[..., 0]


def _holds_bool(data: Any, a: np.ndarray) -> bool:
    """Whether a leaf of data, read by np.asarray as a, is a boolean, which
    np.asarray reads as 0 or 1 beside numbers.  Only the leaves that read 0
    or 1 are looked up, by their index."""
    suspects = np.unravel_index(np.flatnonzero((a == 0) | (a == 1)), a.shape)
    return any(isinstance(reduce(operator.getitem, index, data), bool) for index in zip(*suspects))


def _finite(a: np.ndarray, field: str) -> np.ndarray:
    """a, if every entry is finite; JSON input may spell NaN, Infinity or 1e999."""
    if not np.all(np.isfinite(a)):
        raise ValueError(f"field '{field}' holds a non-finite number (NaN or infinity)")
    return a


def _round_sig(x: float, digits: int = 12) -> float:
    if x == 0.0:
        return 0.0
    rounded = float(f"{x:.{digits}g}")
    return 0.0 if rounded == 0.0 else rounded


_POW10 = 10.0 ** np.arange(23)  # exact doubles


def _decimal(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, p, exact): where exact, x rounded to 12 significant digits is
    copysign(m, x) / 10**p, with m an integral float in [1e11, 1e12).

    For p = 11 - floor(log10|x|) in [0, 22], 10**p is an exact double, so
    s = |x| 10**p is off by at most half an ulp (< 1e-4, as s < 1e12), and
    m = rint(s) is the 12-digit decimal of x whenever s lies in [1e11, 1e12)
    and its fractional part is not within 1e-3 of 1/2.  The other elements
    (zeros, near-ties, |x| outside [1e-11, 1e12), inf, nan, and any exponent
    an inexact log10 misjudged) are not exact.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # zeros, inf and nan
        p = 11.0 - np.floor(np.log10(a))
        exact = (p >= 0) & (p <= 22)
        p = np.where(exact, p, 0).astype(np.intp)
        s = a * _POW10[p]
        m = np.rint(s)
        exact &= (s >= 1e11) & (m < 1e12) & (np.abs(s - np.floor(s) - 0.5) >= 1e-3)
    return m, p, exact


# -- the array kernel: JSON text of a complex array from its 12-digit integers --

_CHUNK = 1 << 13  # entries per pass; bounds the kernel's temporaries to about 3 MB
_WIDTH = 20  # bytes per float: a sign, up to 18 of text, a separator
# the 4 ASCII digits of each of 0..9999 as one word, and their trailing zeros (4 for 0)
_QUAD = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).view(np.uint32)[:, 0]
_QUAD_TZ = np.select([np.arange(10_000) % 10**t == 0 for t in (4, 3, 2, 1)], [4, 3, 2, 1])
_TAIL = np.frombuffer(b"0.0\0", dtype=np.uint32)[0]  # the fourth word of a digit row
# the fifth, per row e + 11 of the layouts below: the exponent of e in [-11, -5]
_EXP = np.frombuffer(b"".join(b"e-%02d" % -e if e < -4 else bytes(4) for e in range(-11, 13)), dtype=np.uint32)


def _layouts() -> Tuple[np.ndarray, np.ndarray]:
    """repr's text of m * 10**(e - 11) as 18 indices into a digit row [12 digits of m, '0', '.', '0', NUL, _EXP],
    in row e + 11 for e in [-11, 11] (23 is blank), and the trailing zeros each may drop; d.ddde-XX below e = -4."""
    index, trim = np.full((24, 18), 15), np.full(24, 12)  # d.ddde-XX drops every trailing zero of m
    index[:7, :17] = [0, 13, *range(1, 12), *range(16, 20)]  # and the caller drops a '.' left bare
    for e in range(-4, 12):
        z, whole = [14] * max(-e, 0) + list(range(13)), max(e, 0) + 1  # 0.00ddd or ddd, and the 0 of ".0"
        index[e + 11, : len(z) + 1] = z[:whole] + [13] + z[whole:]
        trim[e + 11] = len(z) - whole - 1  # a fraction keeps one digit
    return index, trim


_LAYOUT, _LAYOUT_TRIM = _layouts()
# row j keeps the first j bytes of a digit row and its '.', '0', NUL and exponent
_KEEP = np.where((np.arange(20) < np.arange(14)[:, None]) | (np.arange(20) >= 13), 255, 0).astype(np.uint8).view(np.uint32)


def _float_fields(x: np.ndarray) -> np.ndarray:
    """The JSON text of each float of x as _round_sig rounds it, in rows of
    _WIDTH NUL-padded bytes (the last is the caller's).  Zeros and exact
    elements are laid out from the digits of m, trailing zeros masked off;
    the rest take the encoder's own text per element."""
    m, p, exact = _decimal(x)
    key = np.where(exact, 22 - p, np.where(x == 0, 11, 23))  # e + 11; zeros print as 0e0
    m = np.where(exact, m, 0.0)
    q4, hi = np.floor(m / 1e4), np.floor(m / 1e8)  # exact: m is an integer below 2**53
    hi, mid, lo = hi.astype(np.intp), (q4 - hi * 1e4).astype(np.intp), (m - q4 * 1e4).astype(np.intp)
    digits = np.stack([_QUAD[hi], _QUAD[mid], _QUAD[lo], np.full(x.size, _TAIL), _EXP[key]], axis=1)
    tz = np.select([lo > 0, mid > 0], [_QUAD_TZ[lo], 4 + _QUAD_TZ[mid]], 8 + _QUAD_TZ[hi])
    digits &= _KEEP[13 - np.minimum(tz + 1, _LAYOUT_TRIM[key])]
    out = np.zeros((x.size, _WIDTH), dtype=np.uint8)
    for g in np.flatnonzero(np.bincount(key, minlength=24)[:23]):
        rows = np.flatnonzero(key == g)
        out[rows, 1:19] = digits[rows].view(np.uint8).take(_LAYOUT[g], axis=1)
    out[(key < 7) & (tz == 11), 2] = 0  # "1e-05": no '.' before an empty fraction
    out[:, 0] = np.where(x < 0, ord("-"), 0)
    other = np.flatnonzero(key == 23)  # near-ties, |x| < 1e-11 or >= 1e12, inf and nan
    padded = "".join(json.dumps(_round_sig(v)).ljust(_WIDTH - 1, "\0") for v in x[other].tolist())
    out[other, :-1] = np.frombuffer(padded.encode("ascii"), dtype=np.uint8).reshape(-1, _WIDTH - 1)
    return out


def _array_texts(arr: Any) -> Iterator[str]:
    """json.dumps of _pairs(arr) as nested lists, floats rounded by _round_sig, in pieces of _CHUNK entries:
    each entry is a NUL-padded row of its brackets, "[re,im]" and a comma, and a keep-mask drops the padding."""
    f = _pairs(arr)
    shape, n, d = f.shape[:-1], f.size // 2, f.ndim - 1
    if n == 0:
        yield json.dumps(np.zeros(shape).tolist(), separators=(",", ":"))
        return
    opens, closes = np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)
    for t in range(1, d + 1):  # an entry opens a bracket per trailing zero index, closes one per last index
        opens.reshape(shape)[(Ellipsis,) + (0,) * t] += 1
        closes.reshape(shape)[(Ellipsis,) + (-1,) * t] += 1
    col, count = np.arange(d + 1), np.arange(d + 1)[:, None]
    open_rows = np.where(col >= d - count, ord("["), 0).astype(np.uint8)  # row j: j brackets and the pair's
    close_rows = np.where(col < count, ord("]"), ord(",") * (col == d)).astype(np.uint8)  # j brackets, a comma
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        fields = _float_fields(f.reshape(-1)[2 * lo : 2 * hi])
        fields.reshape(hi - lo, 2, _WIDTH)[..., -1] = (ord(","), ord("]"))
        rows = np.concatenate([open_rows[opens[lo:hi]], fields.reshape(hi - lo, -1), close_rows[closes[lo:hi]]], axis=1)
        if hi == n:
            rows[-1, -1] = 0
        yield str(rows[rows != 0], "ascii")


_SLOT = re.compile(r'"\\u0000(\d+)"')  # the JSON text of an array's placeholder


def canonical_chunks(obj: Any) -> Iterator[str]:
    """Deterministic JSON in pieces: sorted keys, 12 significant digits, no
    whitespace variation.  A numpy array in obj is written as a complex
    tensor: the C encoder writes the rest of obj around a placeholder per
    array, and the kernel's text of each array is spliced in, one chunk at a
    time.  The placeholders are checked when this is called, before any text
    is made."""
    arrays = []

    def skeleton(o: Any) -> Any:
        if isinstance(o, float):
            return _round_sig(o)
        if isinstance(o, np.ndarray):
            arrays.append(o)
            return f"\0{len(arrays) - 1}"
        if isinstance(o, dict):
            return {key: skeleton(val) for key, val in o.items()}
        if isinstance(o, (list, tuple)):
            return [skeleton(val) for val in o]
        return o

    parts = _SLOT.split(json.dumps(skeleton(obj), sort_keys=True, separators=(",", ":")))
    if sorted(map(int, parts[1::2])) != list(range(len(arrays))):
        raise ValueError("a string in the payload mimics an array placeholder")
    parts[-1] += "\n"
    return chain.from_iterable(_array_texts(arrays[int(p)]) if i % 2 else (p,) for i, p in enumerate(parts))


def canonical_dumps(obj: Any) -> str:
    """The text of canonical_chunks(obj) as one string."""
    return "".join(canonical_chunks(obj))


# -- map and distribution specs -------------------------------------------------


def int_field(spec: dict, name: str, default: Optional[int] = None) -> int:
    """spec[name] (or default when absent) as a positive integer; anything
    else, such as null, a string, a list or 2.5, raises a ValueError."""
    if name not in spec:
        if default is None:
            raise ValueError(f"spec is missing the integer field '{name}'")
        return default
    value = spec[name]
    integral = isinstance(value, int) and not isinstance(value, bool)
    if not (integral or (isinstance(value, float) and value.is_integer())) or value < 1:
        raise ValueError(f"field '{name}' must be a positive integer, got {json.dumps(value)[:40]}")
    return int(value)


def map_from_spec(spec: dict) -> CPMap:
    """{"k": int, "kraus": [matrix, ...]} or {"k": int, "choi": matrix}."""
    if not isinstance(spec, dict) or "k" not in spec:
        raise ValueError("map spec must be an object with a 'k' field")
    k = int_field(spec, "k")
    has_kraus = "kraus" in spec
    has_choi = "choi" in spec
    if has_kraus == has_choi:
        raise ValueError("map spec needs exactly one of 'kraus' or 'choi'")
    if has_kraus:
        if not isinstance(spec["kraus"], list):
            raise ValueError("map spec 'kraus' must be a list of matrices")
        return CPMap.from_kraus(k, [_finite(json_to_array(K), "kraus") for K in spec["kraus"]])
    return CPMap(k, _finite(json_to_array(spec["choi"]), "choi"))


def map_to_spec(m: CPMap) -> dict:
    return {"k": m.k, "choi": array_to_json(m.choi)}


def realization_from_spec(k: int, real: dict) -> Realization:
    """{"d", "X", "embedding": "tensor-block", "p", "state"}; the state is a
    density matrix or a unit vector (taken as the corresponding vector
    state)."""
    if not isinstance(real, dict):
        raise ValueError("realization spec must be an object")
    for field in ("p", "X", "state"):
        if field not in real:
            raise ValueError(f"realization spec is missing the '{field}' field")
    if real.get("embedding", "tensor-block") != "tensor-block":
        raise ValueError("only the tensor-block embedding is supported")
    p = int_field(real, "p")
    d = int_field(real, "d", k * p)
    if d != k * p:
        raise ValueError(f"realization dimension mismatch: d={d} but k*p={k * p}")
    X = _finite(json_to_array(real["X"]), "X")
    state = _finite(json_to_array(real["state"]), "state")
    if state.ndim == 1:
        state = np.outer(state, state.conj())
    return Realization(k=k, p=p, X=X, rho=state)


def spec_k(spec: dict) -> int:
    """The k of a distribution spec, after a check of its form: an object
    with 'k' and exactly one of 'realization' or a non-empty 'cumulants'
    list."""
    if not isinstance(spec, dict) or "k" not in spec:
        raise ValueError("distribution spec must be an object with a 'k' field")
    if ("realization" in spec) == ("cumulants" in spec):
        raise ValueError("distribution spec needs exactly one of 'realization' or 'cumulants'")
    if "cumulants" in spec and not (isinstance(spec["cumulants"], list) and spec["cumulants"]):
        raise ValueError("distribution spec 'cumulants' must be a non-empty list of tensors")
    return int_field(spec, "k")


def _spec_cumulants(spec: dict, k: int, order: int) -> Tuple[MultiMap, ...]:
    """The first order cumulant maps a cumulant spec lists; every listed
    tensor is parsed, and none is transformed."""
    cums = [MultiMap(k, _finite(json_to_array(t), "cumulants").reshape((k * k,) * i + (k, k))) for i, t in enumerate(spec["cumulants"])]
    if order > len(cums):
        raise ValueError(f"order {order} requested but only {len(cums)} cumulants supplied")
    return tuple(cums[:order])


def dist_from_spec(spec: dict, order: int) -> OVDistribution:
    """The distribution of {"k", "realization": {...}} or {"k", "cumulants":
    [tensor, ...]} up to the given order; the spec's own "order" field is the
    caller's to resolve."""
    k = spec_k(spec)
    if "realization" in spec:
        return moments_from_realization(realization_from_spec(k, spec["realization"]), order)
    return moments_from_cumulants(_spec_cumulants(spec, k, order))


def cumulants_from_spec(spec: dict, order: int) -> Tuple[Tuple[MultiMap, ...], str]:
    """The free cumulants up to order of a distribution spec and the label
    of its distribution.  A cumulant spec is read as it stands, with no
    transform, after a check of the Hermitian symmetry its distribution would
    need; a realization spec costs one transform, moments to cumulants."""
    k = spec_k(spec)
    if "realization" in spec:
        dist = dist_from_spec(spec, order)
        return cumulants_from_moments(dist), dist.label
    cums = _spec_cumulants(spec, k, order)
    for i, c in enumerate(cums):
        require_hermitian(c, f"cumulant {i + 1}")
    return cums, "cumulant-generated"


def dist_to_spec(d: OVDistribution, cumulants=None) -> dict:
    """A distribution's output payload; its tensors stay arrays until
    canonical_dumps."""
    out = {
        "k": d.k,
        "order": d.order,
        "label": d.label,
        "moments": [m.tensor for m in d.moments],
    }
    if cumulants is not None:
        out["cumulants"] = [c.tensor for c in cumulants]
    return out


def psd_report_to_json(rep: PSDReport) -> dict:
    return {
        "min_eigenvalue": rep.min_eigenvalue,
        "is_psd": rep.is_psd,
        "tol": rep.tol,
        "witness": rep.witness,
    }
