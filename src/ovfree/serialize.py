"""JSON conventions shared by every module.

Complex scalars serialize as two-element arrays [re, im]; matrices and
tensors as row-major nested arrays of those.  Output payloads hold complex
tensors as numpy arrays; canonical_dumps turns each one into that form with
every float rounded to 12 significant digits, in one vectorised pass per
array, so identical inputs produce byte-identical files.
Input arrays are parsed whole by json_to_array, which rejects anything but a
rectangular array of numeric [re, im] pairs.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
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
    if a is None or a.dtype.kind not in "iuf" or a.ndim == 0 or a.shape[-1] != 2:
        raise ValueError("malformed complex array: need a rectangular array whose leaves are [re, im] numbers")
    return np.ascontiguousarray(a, dtype=np.float64).view(complex)[..., 0]


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


def _round_array(x: np.ndarray) -> np.ndarray:
    """_round_sig of every element of a float array, bit for bit.

    For p = 11 - floor(log10|x|) in [0, 22], 10**p is an exact double, so
    s = |x| 10**p is off by at most half an ulp (< 1e-4, as s < 1e12), and
    rint(s) / 10**p is the double nearest the 12-digit decimal of x whenever
    s lies in [1e11, 1e12) and its fractional part is not within 1e-3 of 1/2.
    The other nonzero elements (near-ties, |x| outside [1e-11, 1e12), inf,
    nan, and any exponent an inexact log10 misjudged) go through _round_sig;
    zeros become 0.0.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # zeros, inf and nan
        p = 11.0 - np.floor(np.log10(a))
        exact = (p >= 0) & (p <= 22)
        scale = _POW10[np.where(exact, p, 0).astype(np.intp)]
        s = a * scale
        m = np.rint(s)
        exact &= (s >= 1e11) & (m < 1e12) & (np.abs(s - np.floor(s) - 0.5) >= 1e-3)
    out = np.where(exact, np.copysign(m / scale, x), 0.0)
    rest = ~exact & (x != 0)
    out[rest] = [_round_sig(v) for v in x[rest].tolist()]
    return out


def _round_tree(obj: Any) -> Any:
    if isinstance(obj, float):
        return _round_sig(obj)
    if isinstance(obj, np.ndarray):
        return _round_array(_pairs(obj)).tolist()
    if isinstance(obj, dict):
        return {key: _round_tree(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(val) for val in obj]
    return obj


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while JSON for large tensors is
    built or parsed: the collector's passes over millions of fresh, acyclic
    lists free nothing and took about a third of a k=3, order-6 job."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, 12 significant digits, no whitespace
    variation.  A numpy array in obj is written as a complex tensor."""
    with gc_paused():
        return json.dumps(_round_tree(obj), sort_keys=True, separators=(",", ":")) + "\n"


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


def _spec_k(spec: dict) -> int:
    if not isinstance(spec, dict) or "k" not in spec:
        raise ValueError("distribution spec must be an object with a 'k' field")
    if ("realization" in spec) == ("cumulants" in spec):
        raise ValueError("distribution spec needs exactly one of 'realization' or 'cumulants'")
    return int_field(spec, "k")


def _spec_cumulants(spec: dict, k: int) -> Tuple[MultiMap, ...]:
    """The cumulant maps a cumulant spec lists, up to its order; no transform."""
    if not isinstance(spec["cumulants"], list):
        raise ValueError("distribution spec 'cumulants' must be a list of tensors")
    cums = [MultiMap(k, _finite(json_to_array(t), "cumulants").reshape((k * k,) * i + (k, k))) for i, t in enumerate(spec["cumulants"])]
    order = int_field(spec, "order", len(cums))
    if order > len(cums):
        raise ValueError(f"order {order} requested but only {len(cums)} cumulants supplied")
    if not cums:
        raise ValueError("distribution spec lists no cumulants")
    return tuple(cums[:order])


def dist_from_spec(spec: dict) -> OVDistribution:
    """{"k", "order", "realization": {...}} or {"k", "cumulants": [tensor, ...]}."""
    k = _spec_k(spec)
    if "realization" in spec:
        order = int_field(spec, "order", 6)
        return moments_from_realization(realization_from_spec(k, spec["realization"]), order)
    return moments_from_cumulants(_spec_cumulants(spec, k), k=k)


def cumulants_from_spec(spec: dict) -> Tuple[Tuple[MultiMap, ...], str]:
    """The free cumulants of a distribution spec and the label of its
    distribution.  A cumulant spec is read as it stands, with no transform,
    after a check of the Hermitian symmetry its distribution would need; a
    realization spec costs one transform, moments to cumulants."""
    k = _spec_k(spec)
    if "realization" in spec:
        dist = dist_from_spec(spec)
        return cumulants_from_moments(dist), dist.label
    cums = _spec_cumulants(spec, k)
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
