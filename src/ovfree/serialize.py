"""JSON conventions shared by every module, and the CLI's one input reader
(read_spec) and one output writer (write_canonical).

Complex scalars serialize as two-element arrays [re, im]; matrices and
tensors as row-major nested arrays of those.  Output payloads hold complex
tensors as numpy arrays; canonical_chunks writes each in that form, every
float rounded to 12 significant digits, so identical inputs produce
byte-identical files, and canonical_dumps joins its chunks.  The text is what
json.dumps would write, but a numpy kernel builds it from each float's
12-digit integer, in chunks of _CHUNK entries (about 3 MB of temporaries), by
a stable sort on decimal exponent and one take per exponent's layout from a
table of 4-digit ASCII words; near-ties (see _decimal) and |x| outside
[1e-11, 1e12) take repr's text of the rounded float, one by one.  inf and
nan raise a ValueError.  An input array reaches json_to_array as nested
lists of [re, im] pairs or, where read_spec read a large array field
(ARRAY_FIELDS) from its own text, as the ndarray of its numbers; either way
anything but a rectangular array of numeric pairs is rejected (a JSON
boolean is not numeric).
"""

from __future__ import annotations

import io
import json
import operator
import os
import re
import sys
from functools import reduce
from itertools import chain
from typing import Any, Iterator, Optional, Sequence, Tuple

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
    """The complex array of a rectangular nested list of [re, im] pairs, or
    of the array of their numbers that read_spec read from an array field's
    text, which holds no boolean."""
    try:
        a = np.asarray(data)
    except (ValueError, TypeError, OverflowError):  # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "iuf" or a.ndim == 0 or a.shape[-1] != 2 or (not isinstance(data, np.ndarray) and _holds_bool(data, a)):
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


def _round_sig(x: float) -> float:
    """x rounded to 12 significant digits, a zero of either sign as 0.0."""
    if x == 0.0:
        return 0.0
    rounded = float(f"{x:.12g}")
    return 0.0 if rounded == 0.0 else rounded


def _float_text(v: float) -> str:
    """json.dumps(_round_sig(v)) for a finite v > 0, at about half its cost."""
    return repr(float(f"{v:.12g}"))


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
    layout, zeros and exact elements take one contiguous take per layout and the rest, last, _float_text per element;
    one scatter puts the rows back, and the signs are written in place."""
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
    other = x[order[edge[23] :]]  # near-ties and |x| < 1e-11 or >= 1e12 (canonical_chunks refuses inf and nan first)
    padded = "".join(_float_text(v).ljust(_WIDTH - 1, "\0") for v in np.abs(other).tolist())
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


# -- reading an input and writing an output ------------------------------------

# The spec fields that json_to_array reads, each mapped to whether its value
# is a list of arrays rather than one array.
ARRAY_FIELDS = {"choi": False, "X": False, "state": False, "kraus": True, "cumulants": True}
# In inputs of this size or more the long array fields are read from their
# own text.  Importing orjson after numpy takes about 7 ms, and in fresh
# processes read_spec took 0.7, 2.1, 9.1 and 11.1 ms through json against
# 4.3, 4.6, 8.7 and 9.5 ms on the site route at 14, 62, 250 and 335 KB, so
# the routes cross near 250 KB; 1 MiB keeps every smaller input on json.
FAST_READ_BYTES = 1 << 20
# numpy arrays have at most 64 axes, which also bounds the work per site.
MAX_FAST_DEPTH = 64
# An array site, the value of a "choi", "X" or "state" field or an element of
# a "kraus" or "cumulants" list, whose text is this long or longer is read as
# flat lists of numbers; a shorter one does not repay the per-site work.
MIN_SITE_BYTES = 4096
# The elements of list fields are scanned for sites until this many in the
# document were shorter: k^2 Kraus operators at k <= 7 and the shorter
# cumulants (at most 3 for k >= 2) stay within it.
MAX_SHORT_ELEMENTS = 64
# A site's text is copied and its numbers parsed in pieces of about this many
# bytes, so that no copy of the site and no list of more than a piece's
# numbers is held.
FLAT_PIECE_BYTES = 1 << 16
# The quotes of a document are found this many bytes at a time.
_SCAN_BYTES = 1 << 20
_NUMBER = b"0123456789+-.eE"
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")


def read_spec(path: str) -> dict:
    """The JSON object at path; a file that cannot be read, or holds no
    object, raises a ValueError naming path.  Its lists are acyclic, so a
    collection frees none of them: cli.main reads with the cyclic collector
    off, and a library caller reading a large input may pause it too.

    Python's json parses every input's structure.  The file is read once,
    into bytes (_parse).  If they are FAST_READ_BYTES or more and hold no
    backslash, each array field (ARRAY_FIELDS: a "choi", "X" or "state"
    value, or an element of a "kraus" or "cumulants" list) of MIN_SITE_BYTES
    or more whose text is a rectangular array of numbers, written compactly
    or with ", " separators, is read from the bytes a piece at a time, by
    orjson as flat lists of numbers, into an ndarray (_site_array), which
    json_to_array reads as it does nested lists, and json parses the rest,
    joined from slices of the bytes (_loads_with_arrays).  Every other
    input, and every document whose rest json refuses or that leaves any
    doubt, is read by json whole from the same bytes, so the value read, the
    message and the exit code never depend on the route, and a file that
    shrinks while it is read is a short document.
    An integer outside [-2**63, 2**64) is read as the nearest double on both
    routes (_parse_int)."""
    try:
        spec = _parse(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"cannot read JSON input {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValueError(f"JSON input {path} must be an object")
    return spec


def _parse(path: str):
    """The document at path, read once into bytes: past FAST_READ_BYTES, if
    it holds no backslash, _loads_with_arrays's value, unless it declines;
    otherwise json.load's, through a wrapper that decodes the bytes and
    translates their newlines as a text-mode open does."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) >= FAST_READ_BYTES and b"\\" not in data:
        spec = _loads_with_arrays(data)
        if spec is not None:
            return spec
    return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), parse_int=_parse_int)


def _loads_with_arrays(data):
    """json's value of data, a document's bytes, with an ndarray
    in place of the nested lists of each array site that _site_array reads,
    and the rest parsed from slices of data, or None if there is no such site
    or any doubt.  Each site becomes a placeholder, "\\u0000<i>", which no
    string of a document without a backslash can equal, and json parses the
    rest, its object hook putting each array back where an array field holds
    its placeholder, at any depth; None if json refuses that text (a message
    or position would name it, not data) or a placeholder is not put back,
    as where a duplicated key drops it.  A site and its placeholder are both
    JSON values, so the text with placeholders is valid JSON exactly when
    data is."""
    sites = _array_sites(data)
    if not sites:
        return None
    parts, done = [], 0
    for i, (start, end, _) in enumerate(sites):
        parts += (data[done:start], b'"\\u0000%d"' % i)
        done = end
    parts.append(data[done:])
    placed = []

    def array(placeholder: str) -> np.ndarray:
        placed.append(int(placeholder[1:]))
        return sites[placed[-1]][2]

    def place(obj: dict) -> dict:
        for key, value in obj.items():
            is_list = ARRAY_FIELDS.get(key)
            if is_list and isinstance(value, list):
                value[:] = [array(item) if isinstance(item, str) and item[:1] == "\0" else item for item in value]
            elif is_list is False and isinstance(value, str) and value[:1] == "\0":
                obj[key] = array(value)
        return obj

    # decoded as the text-mode read decodes (json.loads(bytes) would detect
    # UTF-16); an untranslated CR changes no valid document, only positions
    try:
        spec = json.loads(b"".join(parts).decode("utf-8"), object_hook=place, parse_int=_parse_int)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        return None
    return spec if len(placed) == len(sites) else None


def _array_sites(data) -> list:
    """(start, end, array) of each site of MIN_SITE_BYTES or more that
    _site_array reads in data, a document's bytes.  Such a site
    lies in a stretch of that many bytes or more between a key's closing
    quote and the next quote, so the candidate keys come from the offsets of
    the quotes (_quote_offsets).  A site ends at the first run of as many ']'
    as it opens with: a short site's is looked for here, within
    MIN_SITE_BYTES, and a longer one's by _site_array as it reads it."""
    quotes = _quote_offsets(data)
    gaps = np.diff(quotes, append=len(data))
    sites, short = [], 0
    for j in np.flatnonzero(gaps[1::2] > MIN_SITE_BYTES).tolist():  # after a closing quote: no escapes here
        opening, close = int(quotes[2 * j]), int(quotes[2 * j + 1])
        stop = close + int(gaps[2 * j + 1])  # the next quote, or the end of data
        is_list = ARRAY_FIELDS.get(data[opening + 1 : close].decode("latin-1"))
        if is_list is None or not data[close + 1 : close + 4].startswith((b":[", b": [")):
            continue
        start = data.find(b"[", close) + is_list  # the site, or the list's first element
        while short < MAX_SHORT_ELEMENTS:
            head = data[start : start + MAX_FAST_DEPTH + 1]
            depth = len(head) - len(head.lstrip(b"["))
            if not 0 < depth <= MAX_FAST_DEPTH:
                break
            end = data.find(b"]" * depth, start, min(stop, start + MIN_SITE_BYTES - 1))  # a short site's run
            if end >= 0:
                short += 1
                end += depth
            else:
                end, array = _site_array(data, start, stop, depth)
                if end < 0:
                    break
                if array is not None:
                    sites.append((start, end, array))
            if not is_list or data[end : end + 1] != b",":
                break
            start = end + 1 + (data[end + 1 : end + 2] == b" ")
    return sites


def _quote_offsets(data) -> np.ndarray:
    """The offsets of the quotes in data, compared _SCAN_BYTES at a time into
    one reused buffer, so that no array as long as data is held."""
    is_quote = np.empty(min(len(data), _SCAN_BYTES), dtype=bool)
    found = []
    for lo in range(0, len(data), _SCAN_BYTES):
        step = is_quote[: len(data) - lo]
        np.equal(np.frombuffer(data, np.uint8, len(step), lo), ord('"'), out=step)
        found.append(np.flatnonzero(step) + lo)
    return np.concatenate(found)


def _site_array(data, start: int, stop: int, depth: int):
    """(end, array) of the site that opens at start with depth brackets and
    ends at the first run of as many ']' before stop (end -1 if none does);
    array is None unless the site's text less its numbers is the canonical
    text of the shape its first path gives (_site_shape), so a piece holding
    anything but brackets, commas and spaces declines it before orjson sees it.

    A piece is cut at the first comma more than FLAT_PIECE_BYTES past its
    first byte, and each piece after the first opens with the comma that
    closed the one before.  Its text is copied once out of data; less its
    numbers, it is its part of the structure, and only a part holding the
    run can hide it, as deleting numbers only joins runs.  With its brackets
    blanked and its ends set to '[' and ']', the text is a JSON list of the
    piece's numbers for orjson; numpy promotes the pieces' dtypes as it does
    the numbers'."""
    import orjson  # here, not at import: about 7 ms that a small input never repays

    close = b"]" * depth
    end, structure, pieces = -1, bytearray(), []
    with memoryview(data) as view:
        lo = start
        while end < 0:
            cut = data.find(b",", lo + 1 + FLAT_PIECE_BYTES, stop)
            if cut >= 0:
                hi = cut + 1
            else:  # the last piece ends at the run, and without a run there is no site
                hi = data.find(close, lo, stop)
                if hi < 0:
                    return -1, None
                hi += depth
            text = bytearray(view[lo:hi])
            part = text.translate(None, _NUMBER)
            if close in part:
                run = text.find(close)
                if run < 0:  # a run that deleting numbers made: not canonical
                    break
                end = lo + run + depth
                del text[run + depth :]
                part = text.translate(None, _NUMBER)
            if part.translate(None, b"[], "):
                break
            structure += part[1:] if lo > start else part  # the shared comma once
            text = text.translate(_BLANK_BRACKETS)
            text[0], text[-1] = ord("["), ord("]")
            try:  # orjson checks that each slot holds one number
                numbers = orjson.loads(text)
                # beside a float, numpy reads every number as a float64: so it needs no dtype discovery
                pieces.append(np.array(numbers, np.float64 if numbers and type(numbers[0]) is float else None))
            except (ValueError, TypeError, OverflowError):
                break
            lo = cut
        else:  # every piece was read
            del text  # not held while the pieces are joined
            shape = _site_shape(structure, depth)
            del structure
            if shape is None:
                return end, None
            try:  # reshape checks that no slot is empty
                return end, np.concatenate(pieces).reshape(shape)
            except ValueError:
                return end, None
    if end < 0:  # declined before the run: no earlier piece holds it
        run = data.find(close, lo, stop)
        end = run + depth if run >= 0 else -1
    return end, None


def _site_shape(structure: bytearray, depth: int):
    """The shape whose canonical text, with one separator, "," or ", ",
    throughout, is structure, read from its first path; None if there is
    none.  The first array of each level, at the level's own offset, is
    canonical if it is bracketed, its first element is canonical and then a
    separator follows, and its inside repeats with the period of an element
    and a separator, which one startswith checks in place."""
    comma = structure.find(b",")
    sep = b", " if structure[comma + 1 : comma + 2] == b" " else b","
    shape, inner = [], 0  # inner: the length of an element of the level below
    with memoryview(structure) as view:
        for level in range(depth - 1, -1, -1):  # the first array of each level, innermost first
            size = structure.find(b"]" * (depth - level)) + depth - 2 * level  # 2 + n inner + (n - 1) len(sep)
            n, rest = divmod(size - 2 + len(sep), inner + len(sep))
            body, close = level + 1, level + size - 1  # its first element, and its closing bracket
            if (rest or n < 1 or structure[level:body] != b"[" or structure[close : close + 1] != b"]"
                    or not (n == 1 or structure.startswith(sep, body + inner))
                    or not structure.startswith(view[body + inner + len(sep) : close], body)):
                return None
            shape.append(n)
            inner = size
    return shape[::-1] if inner == len(structure) else None


def _parse_int(text: str):
    """An integer literal, exact in [-2**63, 2**64) and elsewhere the nearest
    double: orjson reads a site's numbers so, and json must agree."""
    if len(text) > 20:  # outside that range, and int() refuses 4,300 digits or more
        return float(text)
    value = int(text)
    return value if -(1 << 63) <= value < 1 << 64 else float(text)


def write_canonical(payload: dict, out: Optional[str]) -> None:
    """Write the canonical text of payload to the file out, or to stdout if
    out is None, chunk by chunk, so the whole text is never held; a payload
    canonical_chunks refuses, such as one holding inf or NaN, writes no byte.
    A file that cannot be written raises a ValueError naming out, and so does
    a closed stdout, after pointing its descriptor at os.devnull so that the
    interpreter's flush at exit prints nothing."""
    chunks = canonical_chunks(payload)
    if out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            try:
                fd = sys.stdout.fileno()
            except (AttributeError, OSError):  # an in-memory stream, such as a test's capture
                pass
            else:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            raise ValueError(f"cannot write output to stdout: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write output {out}: {exc}") from exc


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
    p x p density matrix or a length-p unit vector (taken as the
    corresponding vector state), which ovdist.Realization checks."""
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
    tensor is parsed, and none is transformed.  Cumulant i + 1 must have
    the shape (k*k,) * i + (k, k), its entry count checked first."""
    cums = []
    for i, t in enumerate(spec["cumulants"]):
        tensor = _finite(json_to_array(t), "cumulants")
        shape = (k * k,) * i + (k, k)
        if tensor.size != k ** (2 * i + 2):
            raise ValueError(f"cumulant {i + 1} needs {k ** (2 * i + 2)} entries for k={k}, got {tensor.size}")
        if tensor.shape != shape:
            raise ValueError(f"cumulant {i + 1} must have shape {shape} for k={k}, got shape {tensor.shape}")
        cums.append(multimap.MultiMap(k, tensor))
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


def dist_to_spec(d: ovdist.OVDistribution, cumulants: Sequence[multimap.MultiMap]) -> dict:
    """A distribution's output payload with its cumulants; its tensors stay
    arrays until write_canonical."""
    return {
        "k": d.k,
        "order": d.order,
        "label": d.label,
        "moments": [m.tensor for m in d.moments],
        "cumulants": [c.tensor for c in cumulants],
    }


def psd_report_to_json(rep: PSDReport) -> dict:
    return {
        "min_eigenvalue": rep.min_eigenvalue,
        "is_psd": rep.is_psd,
        "tol": rep.tol,
        "witness": rep.witness,
    }
