"""Seeded job lists for the ovfree benchmark workloads.

Every workload is a list of CLI jobs.  ``make_jobs`` draws the inputs from a
seed, writes each job's input JSON into a work directory and returns the jobs
together with what the correctness gate needs to know about them (the
construction), which never reaches the program.

All random data is plain numpy; nothing here imports ovfree.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

WORKLOADS = ("transform", "freeness", "dichotomy", "bulk-io")


@dataclass
class Job:
    """One CLI invocation: ``ovfree <command> --in <infile> <args...>``."""

    name: str
    command: str
    infile: str
    args: List[str] = field(default_factory=list)
    expect: Dict = field(default_factory=dict)  # the construction, for the gate only


# -- plain numpy constructions -------------------------------------------------


def to_json(arr) -> list:
    """Complex array -> nested [re, im] lists (the ovfree wire format)."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def rand_complex(rng, shape, scale=1.0) -> np.ndarray:
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def rand_hermitian(rng, n, scale=1.0) -> np.ndarray:
    h = rand_complex(rng, (n, n), scale)
    return (h + h.conj().T) / 2


def rand_density(rng, n) -> np.ndarray:
    g = rand_complex(rng, (n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def adjoint_unit_perm(k: int) -> np.ndarray:
    """Index of e_pq^* = e_qp in the row-major matrix-unit basis."""
    return np.array([(c % k) * k + c // k for c in range(k * k)])


def herm_reflect(t: np.ndarray, k: int) -> np.ndarray:
    """(a_1, .., a_n) -> f(a_n^*, .., a_1^*)^* for a coordinate tensor."""
    n = t.ndim - 2
    r = np.transpose(t, tuple(range(n - 1, -1, -1)) + (n + 1, n))
    perm = adjoint_unit_perm(k)
    for axis in range(n):
        r = np.take(r, perm, axis=axis)
    return np.conjugate(r)


def symmetric_cumulants(rng, k: int, order: int, scale: float) -> List[np.ndarray]:
    out = []
    for n in range(1, order + 1):
        t = rand_complex(rng, (k * k,) * (n - 1) + (k, k), scale)
        out.append((t + herm_reflect(t, k)) / 2)
    return out


def choi_from_kraus(kraus) -> np.ndarray:
    """choi = sum_i vec(K_i) vec(K_i)^* with vec(K) = conj(K) row-major, so
    that block (p, q) of the Choi matrix is eta(e_pq) for eta(a) = sum K^* a K."""
    k = kraus[0].shape[0]
    choi = np.zeros((k * k, k * k), dtype=complex)
    for K in kraus:
        v = np.conjugate(K).reshape(-1)
        choi += np.outer(v, v.conj())
    return choi


def eta_kraus(rng, k: int, rank: int, scale: float = 0.5) -> List[np.ndarray]:
    """Kraus family of eta = id + psi with psi a random CP map of the given rank."""
    return [np.eye(k, dtype=complex)] + [rand_complex(rng, (k, k), scale) for _ in range(rank)]


def realization(rng, k: int, p: int) -> Dict:
    """Self-adjoint X in M_{kp} of operator norm 1 and a random state on M_p."""
    X = rand_hermitian(rng, k * p)
    X = X / np.max(np.abs(np.linalg.eigvalsh(X)))
    return {"k": k, "p": p, "X": X, "rho": rand_density(rng, p)}


def realization_spec(real: Dict, order: int) -> Dict:
    k, p = real["k"], real["p"]
    return {
        "k": k,
        "order": order,
        "realization": {
            "d": k * p,
            "X": to_json(real["X"]),
            "embedding": "tensor-block",
            "p": p,
            "state": to_json(real["rho"]),
        },
    }


def non_cp_choi(rng, k: int) -> np.ndarray:
    """Hermitian Choi matrix of a map eta with eta - id not CP (redrawn until
    the Choi matrix of eta - id has a clearly negative eigenvalue)."""
    ident = choi_from_kraus([np.eye(k, dtype=complex)])
    while True:
        choi = rand_hermitian(rng, k * k)
        if np.linalg.eigvalsh(choi - ident)[0] < -0.1:
            return choi


# -- scalar free moment-cumulant recursion (negative control) ----------------


def scalar_moments(cums: List[float]) -> List[float]:
    """m_0..m_N from free cumulants k_1..k_N of one scalar variable:
    m_n = sum_s k_s sum_{i_1+..+i_s = n-s} m_{i_1} .. m_{i_s}."""
    N = len(cums)
    m = [1.0] + [0.0] * N
    for n in range(1, N + 1):
        # conv[s][j] = coefficient sum of s moments with total degree j
        conv = [1.0] + [0.0] * n
        total = 0.0
        for s in range(1, n + 1):
            nxt = [0.0] * (n + 1)
            for j in range(n + 1):
                if conv[j]:
                    for i in range(n + 1 - j):
                        nxt[i + j] += conv[j] * m[i]
            conv = nxt
            total += cums[s - 1] * conv[n - s]
        m[n] = total
    return m


def bernoulli_cumulants(N: int) -> List[float]:
    """Free cumulants of the symmetric Bernoulli law (+-1 with mass 1/2),
    by inverting scalar_moments one order at a time."""
    cums: List[float] = []
    for n in range(1, N + 1):
        target = 1.0 if n % 2 == 0 else 0.0
        trial = scalar_moments(cums + [0.0])[n]
        cums.append(target - trial)
    return cums


def hankel(lam: float, level: int) -> np.ndarray:
    """Level-L Hankel moment matrix [m_{i+j}] of the lam-scaled Bernoulli law."""
    m = scalar_moments([lam * c for c in bernoulli_cumulants(2 * level)])
    return np.array([[m[i + j] for j in range(level)] for i in range(level)])


# -- the workloads -------------------------------------------------------------


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs: List[Job] = []

    def add(self, name: str, command: str, spec: Dict, args=(), **expect) -> None:
        path = os.path.join(self.workdir, f"{len(self.jobs):02d}-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(spec))
        self.jobs.append(Job(name, command, path, list(args), expect))


def _transform(w: _Writer, rng, tiny: bool) -> None:
    k, N = 2, (4 if tiny else 8)
    cums = symmetric_cumulants(rng, k, N, scale=0.5)
    kraus = eta_kraus(rng, k, 2)
    spec = {
        "distribution": {"k": k, "order": N, "cumulants": [to_json(c) for c in cums]},
        "map": {"k": k, "kraus": [to_json(K) for K in kraus]},
    }
    w.add(f"cumulants-k{k}-N{N}-r2", "convolve-power", spec, cumulants=cums, choi=choi_from_kraus(kraus))
    real = realization(rng, k, 2)
    ident = [np.eye(k, dtype=complex)]
    spec = {"distribution": realization_spec(real, N), "map": {"k": k, "kraus": [to_json(K) for K in ident]}}
    w.add(f"realization-k{k}-N{N}-id", "convolve-power", spec,
          realization=real, order=N, choi=choi_from_kraus(ident))


def _freeness(w: _Writer, rng, tiny: bool) -> None:
    cases = [(2, 3, 1), (2, 3, 2)] if tiny else [(2, 5, 1), (2, 4, 2), (3, 4, 1)]
    for k, N, rank in cases:
        real = realization(rng, k, 2)
        kraus = eta_kraus(rng, k, rank)
        spec = {"distribution": realization_spec(real, N), "map": {"k": k, "kraus": [to_json(K) for K in kraus]}}
        w.add(f"verify-k{k}-N{N}-r{rank}", "verify-realization", spec, choi=choi_from_kraus(kraus))


def _dichotomy(w: _Writer, rng, tiny: bool) -> None:
    for k in (2, 3):
        maps = [("cp", choi_from_kraus(eta_kraus(rng, k, 1)), True), ("noncp", non_cp_choi(rng, k), False)]
        for label, choi, cp in maps:
            spec = {"k": k, "choi": to_json(choi)}
            for command in ("check-cp", "counterexample"):
                w.add(f"{command}-k{k}-{label}", command, spec, choi=choi, eta_minus_id_cp=cp)
    positivity = [(2, 4, 2)] if tiny else [(2, 8, 2), (2, 8, 3), (2, 8, 4), (3, 6, 3)]
    for k, N, level in positivity:
        real = realization(rng, k, 2)
        w.add(f"positivity-k{k}-N{N}-L{level}", "positivity", realization_spec(real, N),
              ["--level", str(level)], realization=real, level=level, psd=True)
    # negative control: lam-scaled Bernoulli cumulants, lam in (0, 1), fail positivity
    level = 3 if tiny else 4
    lam = float(rng.uniform(0.3, 0.7))
    cums = [lam * c for c in bernoulli_cumulants(2 * level)]
    tensors = [np.full((1,) * (n - 1) + (1, 1), c) for n, c in enumerate(cums, 1)]
    spec = {"k": 1, "order": 2 * level, "cumulants": [to_json(t) for t in tensors]}
    w.add(f"positivity-bernoulli-L{level}", "positivity", spec, ["--level", str(level)],
          lam=lam, level=level, psd=False)


def _bulk_io(w: _Writer, rng, tiny: bool) -> None:
    k, N = 3, (3 if tiny else 6)
    cums = symmetric_cumulants(rng, k, N, scale=0.5)
    kraus = eta_kraus(rng, k, 1)
    spec = {
        "distribution": {"k": k, "order": N, "cumulants": [to_json(c) for c in cums]},
        "map": {"k": k, "kraus": [to_json(K) for K in kraus]},
    }
    w.add(f"cumulants-k{k}-N{N}-r1", "convolve-power", spec, cumulants=cums, choi=choi_from_kraus(kraus))


_BUILDERS = {"transform": _transform, "freeness": _freeness, "dichotomy": _dichotomy, "bulk-io": _bulk_io}


def make_jobs(workload: str, seed: int, workdir: str, tiny: bool = False) -> List[Job]:
    """Write the seeded inputs of one workload into workdir; return its jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    w = _Writer(workdir)
    _BUILDERS[workload](w, rng, tiny)
    return w.jobs
