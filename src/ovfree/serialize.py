"""JSON conventions shared by every module.

Complex scalars serialize as two-element arrays [re, im]; matrices and
tensors as row-major nested arrays of those.  Report output rounds every
float to 12 significant digits so identical inputs produce byte-identical
files across platforms.
"""

from __future__ import annotations

import json
from typing import Any, List

import numpy as np

from .algebra import PSDReport
from .cpmaps import CPMap
from .multimap import MultiMap
from .ovdist import OVDistribution, Realization, moments_from_cumulants, moments_from_realization


def complex_to_json(z: complex) -> List[float]:
    return [float(np.real(z)), float(np.imag(z))]


def array_to_json(arr: np.ndarray) -> Any:
    arr = np.asarray(arr)
    if arr.ndim == 0:
        return complex_to_json(complex(arr))
    return [array_to_json(sub) for sub in arr]


def json_to_array(data: Any) -> np.ndarray:
    def depth_of(x: Any) -> int:
        d = 0
        while isinstance(x, list):
            if len(x) == 2 and all(isinstance(v, (int, float)) for v in x):
                return d  # complex leaf
            d += 1
            x = x[0]
        raise ValueError("malformed complex array: leaves must be [re, im]")

    nd = depth_of(data)

    def build(x: Any, level: int):
        if level == nd:
            return complex(x[0], x[1])
        return [build(sub, level + 1) for sub in x]

    return np.array(build(data, 0), dtype=complex)


def _round_sig(x: float, digits: int = 12) -> float:
    if x == 0.0:
        return 0.0
    rounded = float(f"{x:.{digits}g}")
    return 0.0 if rounded == 0.0 else rounded


def _round_tree(obj: Any) -> Any:
    if isinstance(obj, float):
        return _round_sig(obj)
    if isinstance(obj, dict):
        return {key: _round_tree(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(val) for val in obj]
    return obj


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, 12 significant digits, no whitespace
    variation."""
    return json.dumps(_round_tree(obj), sort_keys=True, separators=(",", ":")) + "\n"


# -- map and distribution specs -------------------------------------------------


def map_from_spec(spec: dict) -> CPMap:
    """{"k": int, "kraus": [matrix, ...]} or {"k": int, "choi": matrix}."""
    if not isinstance(spec, dict) or "k" not in spec:
        raise ValueError("map spec must be an object with a 'k' field")
    k = int(spec["k"])
    has_kraus = "kraus" in spec
    has_choi = "choi" in spec
    if has_kraus == has_choi:
        raise ValueError("map spec needs exactly one of 'kraus' or 'choi'")
    if has_kraus:
        return CPMap.from_kraus(k, [json_to_array(K) for K in spec["kraus"]])
    return CPMap(k, json_to_array(spec["choi"]))


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
    p = int(real["p"])
    d = int(real.get("d", k * p))
    if d != k * p:
        raise ValueError(f"realization dimension mismatch: d={d} but k*p={k * p}")
    X = json_to_array(real["X"])
    state = json_to_array(real["state"])
    if state.ndim == 1:
        state = np.outer(state, state.conj())
    return Realization(k=k, p=p, X=X, rho=state)


def dist_from_spec(spec: dict) -> OVDistribution:
    """{"k", "order", "realization": {...}} or {"k", "cumulants": [tensor, ...]}."""
    if not isinstance(spec, dict) or "k" not in spec:
        raise ValueError("distribution spec must be an object with a 'k' field")
    k = int(spec["k"])
    if ("realization" in spec) == ("cumulants" in spec):
        raise ValueError("distribution spec needs exactly one of 'realization' or 'cumulants'")
    if "realization" in spec:
        order = int(spec.get("order", 6))
        return moments_from_realization(realization_from_spec(k, spec["realization"]), order)
    cums = []
    for i, t in enumerate(spec["cumulants"]):
        tensor = json_to_array(t).reshape((k * k,) * i + (k, k))
        cums.append(MultiMap(k, tensor))
    if "order" in spec:
        order = int(spec["order"])
        if order > len(cums):
            raise ValueError(f"order {order} requested but only {len(cums)} cumulants supplied")
        cums = cums[:order]
    return moments_from_cumulants(cums, k=k)


def dist_to_spec(d: OVDistribution, cumulants=None) -> dict:
    out = {
        "k": d.k,
        "order": d.order,
        "label": d.label,
        "moments": [array_to_json(m.tensor) for m in d.moments],
    }
    if cumulants is not None:
        out["cumulants"] = [array_to_json(c.tensor) for c in cumulants]
    return out


def psd_report_to_json(rep: PSDReport) -> dict:
    return {
        "min_eigenvalue": rep.min_eigenvalue,
        "is_psd": rep.is_psd,
        "tol": rep.tol,
        "witness": None if rep.witness is None else array_to_json(rep.witness),
    }
