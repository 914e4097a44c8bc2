"""JSON conventions shared by every module.

Complex scalars serialize as two-element arrays [re, im]; matrices and
tensors as row-major nested arrays of those.  Output payloads hold complex
tensors as numpy arrays; canonical_chunks writes each in that form, every
float rounded to 12 significant digits, so identical inputs produce
byte-identical files, and canonical_dumps joins its chunks.  The text is what
json.dumps would write, but a numpy kernel builds it from each float's
12-digit integer, in chunks of _CHUNK entries (about 3 MB of temporaries), by
a stable sort on decimal exponent and one take per exponent's layout from a
table of 4-digit ASCII words; near-ties (see _decimal) and |x| outside
[1e-11, 1e12) take the encoder's own text.  inf and nan raise a ValueError.
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

from . import multimap, ovdist
from .algebra import PSDReport
from .cpmaps import CPMap


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
    s = |x| 10**p is off by at most half an ulp (2**-14 < 1e-4, as s < 1e12 <
    2**40), and m = rint(s) is the 12-digit decimal of x whenever s lies in
    [1e11, 1e12) and its fractional part is not within 1e-4 of 1/2.  The
    other elements (zeros, near-ties, |x| outside [1e-11, 1e12), inf, nan,
    and any exponent an inexact log10 misjudged) are not exact.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # zeros, inf and nan
        p = 11.0 - np.floor(np.log10(a))
        exact = (p >= 0) & (p <= 22)
        p = np.where(exact, p, 0).astype(np.intp)
        s = a * _POW10[p]
        m = np.rint(s)
        exact &= (s >= 1e11) & (m < 1e12) & (np.abs(s - np.floor(s) - 0.5) >= 1e-4)
    return m, p, exact


# -- the array kernel: JSON text of a complex array from its 12-digit integers --

_CHUNK = 1 << 13  # entries per pass; bounds the kernel's temporaries to about 3 MB
_WIDTH = 19  # bytes per float: a sign and up to 18 of text
# the 4 ASCII digits of each of 0..9999 as one word: [0, 10_000) with their trailing zeros masked to NUL, then as they are
_QUAD = np.stack(np.indices((2,) + (10,) * 4, dtype=np.uint8)[1:], axis=-1) + ord("0")
for _j in range(4):  # in row 0, digit j is NUL where it and every later digit are 0
    _QUAD[(0,) + (slice(None),) * _j + (0,) * (4 - _j) + (_j,)] = 0
_QUAD = _QUAD.view(np.uint32).ravel()
# the last 8 bytes of a digit row, per row e + 11 of the layouts below: '.', '0', two NULs and the exponent of e < -4
_TAIL = np.frombuffer(b"".join(b".0\0\0" + (b"e-%02d" % -e if e < -4 else bytes(4)) for e in range(-11, 13)), dtype=np.uint64)


def _layouts() -> np.ndarray:
    """repr's text of m * 10**(e - 11) less its sign as 18 indices into a digit row [12 digits of m, the same with trailing
    zeros as NUL, _TAIL], in row e + 11 for e in [-11, 11] (23 is blank): d.ddde-XX below e = -4 (the caller drops a '.'
    left bare), 0.00ddd below e = 0, and ddd.d on, whose whole part and first fraction digit keep their zeros."""
    index = np.full((24, _WIDTH - 1), 26)
    index[:7, :17] = [12, 24, *range(13, 24), *range(28, 32)]
    for e in range(-4, 0):
        index[e + 11, : 13 - e] = [25, 24, *[25] * (-e - 1), *range(12, 24)]
    for e in range(11):
        index[e + 11, :13] = [*range(e + 1), 24, e + 1, *range(e + 14, 24)]
    index[22, :14] = [*range(12), 24, 25]
    return index


_LAYOUT = _layouts()


def _float_fields(x: np.ndarray) -> np.ndarray:
    """The JSON text of each float of x as _round_sig rounds it, in rows of _WIDTH NUL-padded bytes: sorted stably by
    layout, zeros and exact elements take one contiguous take per layout and the rest, last, the encoder's text per
    element; one scatter puts the rows back, and the signs are written in place."""
    m, p, exact = _decimal(x)
    key = np.where(exact, 22 - p, np.where(x == 0, 11, 23)).astype(np.uint8)  # e + 11; zeros print as 0e0
    order = np.argsort(key, kind="stable")
    edge = np.searchsorted(key[order], np.arange(25)).tolist()
    m = np.where(exact, m, 0.0)[order]
    q4, hi = np.floor(m / 1e4), np.floor(m / 1e8)  # exact: m is an integer below 2**53
    hi, mid, lo = hi.astype(np.intp), (q4 - hi * 1e4).astype(np.intp), (m - q4 * 1e4).astype(np.intp)
    digits = np.empty((x.size, 8), dtype=np.uint32)  # m's digits, the same trimmed (a word keeps its zeros before a nonzero one), _TAIL
    digits[:, 0], digits[:, 1], digits[:, 2] = _QUAD[10_000:][hi], _QUAD[10_000:][mid], _QUAD[10_000:][lo]
    digits[:, 3], digits[:, 4], digits[:, 5] = _QUAD[hi + 10_000 * ((mid | lo) > 0)], _QUAD[mid + 10_000 * (lo > 0)], _QUAD[lo]
    rows = np.empty((x.size, _WIDTH), dtype=np.uint8)
    for g in np.flatnonzero(np.diff(edge[:24])):
        a, b = edge[g], edge[g + 1]
        digits[a:b].view(np.uint64)[:, 3] = _TAIL[g]
        rows[a:b, 1:] = digits[a:b].view(np.uint8)[:, _LAYOUT[g]]
    rows[: edge[7]][m[: edge[7]] % 1e11 == 0, 2] = 0  # "1e-05": no '.' before an empty fraction
    other = x[order[edge[23] :]]  # near-ties, |x| < 1e-11 or >= 1e12, inf and nan
    padded = "".join(json.dumps(_round_sig(v)).ljust(_WIDTH - 1, "\0") for v in np.abs(other).tolist())
    rows[edge[23] :, 1:] = np.frombuffer(padded.encode("ascii"), dtype=np.uint8).reshape(-1, _WIDTH - 1)
    out = np.empty_like(rows)
    out.view(f"V{_WIDTH}")[order] = rows.view(f"V{_WIDTH}")  # a row as one item
    out[:, 0] = (x < 0).view(np.uint8) * ord("-")
    return out


def _array_texts(arr: Any) -> Iterator[str]:
    """json.dumps of _pairs(arr) as nested lists, floats rounded by _round_sig, in pieces of _CHUNK entries:
    each entry is a NUL-padded row of its brackets, "[re,im]" and a comma in one reused buffer, and the NULs are dropped."""
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
    brackets = np.dtype((np.void, d + 1))  # row j: j brackets and the pair's; j brackets and a comma
    open_rows = np.where(col >= d - count, ord("["), 0).astype(np.uint8).view(brackets)[:, 0]
    close_rows = np.where(col < count, ord("]"), ord(",") * (col == d)).astype(np.uint8).view(brackets)[:, 0]
    buf = np.empty((min(n, _CHUNK), 2 * d + 2 * _WIDTH + 4), dtype=np.uint8)
    fields = buf[:, d + 1 : -d - 1].reshape(-1, 2, _WIDTH + 1)
    fields[..., -1] = (ord(","), ord("]"))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        buf[: hi - lo, : d + 1].view(brackets)[:, 0] = open_rows.take(opens[lo:hi])
        fields[: hi - lo, :, :-1] = _float_fields(f.reshape(-1)[2 * lo : 2 * hi]).reshape(hi - lo, 2, _WIDTH)
        buf[: hi - lo, -d - 1 :].view(brackets)[:, 0] = close_rows.take(closes[lo:hi])
        if hi == n:
            buf[hi - lo - 1, -1] = 0
        yield buf[: hi - lo].tobytes().translate(None, b"\0").decode("ascii")


_SLOT = re.compile(r'"\\u0000(\d+)"')  # the JSON text of an array's placeholder


def canonical_chunks(obj: Any) -> Iterator[str]:
    """Deterministic JSON in pieces: sorted keys, 12 significant digits, no
    whitespace variation.  A numpy array in obj is written as a complex
    tensor: the C encoder writes the rest of obj around a placeholder per
    array, and the kernel's text of each array is spliced in, one chunk at a
    time.  The placeholders, and that every float is finite (JSON has no
    inf or NaN), are checked when this is called, before any text is made."""
    arrays = []

    def skeleton(o: Any) -> Any:
        if isinstance(o, (float, np.ndarray)) and not np.isfinite(o).all():
            raise ValueError("the result holds a non-finite number, which JSON cannot hold: the input's values are too large to compute with")
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


def realization_from_spec(k: int, real: dict) -> ovdist.Realization:
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
    return ovdist.Realization(k=k, p=p, X=X, rho=state)


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


def _spec_cumulants(spec: dict, k: int, order: int) -> Tuple[multimap.MultiMap, ...]:
    """The first order cumulant maps a cumulant spec lists; every listed
    tensor is parsed, and none is transformed."""
    cums = [multimap.MultiMap(k, _finite(json_to_array(t), "cumulants").reshape((k * k,) * i + (k, k))) for i, t in enumerate(spec["cumulants"])]
    if order > len(cums):
        raise ValueError(f"order {order} requested but only {len(cums)} cumulants supplied")
    return tuple(cums[:order])


def dist_from_spec(spec: dict, order: int) -> ovdist.OVDistribution:
    """The distribution of {"k", "realization": {...}} or {"k", "cumulants":
    [tensor, ...]} up to the given order; the spec's own "order" field is the
    caller's to resolve."""
    k = spec_k(spec)
    if "realization" in spec:
        return ovdist.moments_from_realization(realization_from_spec(k, spec["realization"]), order)
    return ovdist.moments_from_cumulants(_spec_cumulants(spec, k, order))


def cumulants_from_spec(spec: dict, order: int) -> Tuple[Tuple[multimap.MultiMap, ...], str]:
    """The free cumulants up to order of a distribution spec and the label
    of its distribution.  A cumulant spec is read as it stands, with no
    transform, after a check of the Hermitian symmetry its distribution would
    need; a realization spec costs one transform, moments to cumulants."""
    k = spec_k(spec)
    if "realization" in spec:
        dist = dist_from_spec(spec, order)
        return ovdist.cumulants_from_moments(dist), dist.label
    cums = _spec_cumulants(spec, k, order)
    for i, c in enumerate(cums):
        ovdist.require_hermitian(c, f"cumulant {i + 1}")
    return cums, "cumulant-generated"


def dist_to_spec(d: ovdist.OVDistribution, cumulants=None) -> dict:
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
