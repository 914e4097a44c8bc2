"""Correctness gate for benchmark jobs.

Every check recomputes the expected result with plain numpy from the job's
construction (kept by the benchmark, never shown to the program) or re-checks
a certificate from the payload.  Nothing here imports ovfree, so a fast wrong
result of the timed code cannot pass through a shared code path.

``check(job, returncode, stdout, stderr, rng)`` returns a list of failure
messages; an empty list means the job passed.
"""

from __future__ import annotations

import json
from itertools import combinations, product
from typing import Dict, List, Sequence

import numpy as np

from workloads import Job, choi_from_kraus, hankel

REL_TOL = 1e-8  # ROADMAP: 1e-8 relative to the scale of the compared values
PSD_TOL = 1e-9  # the CLI default --tol
N_RANDOM_ARGS = 4  # random argument tuples for the moment-cumulant check


def from_json(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    if a.shape[-1] != 2:
        raise ValueError("complex leaves must be [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


def _close(got: np.ndarray, want: np.ndarray, what: str, fails: List[str]) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        fails.append(f"{what}: shape {got.shape} != expected {want.shape}")
        return
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    dev = float(np.max(np.abs(got - want), initial=0.0))
    if not dev <= REL_TOL * scale:
        fails.append(f"{what}: deviation {dev:.3e} exceeds {REL_TOL:g} x scale {scale:.3e}")


def _choi4(choi: np.ndarray) -> np.ndarray:
    k = int(round(np.sqrt(choi.shape[0])))
    return choi.reshape(k, k, k, k)


def _minus_id(choi: np.ndarray) -> np.ndarray:
    """Choi matrix of a -> eta(a) - a."""
    return choi - choi_from_kraus([np.eye(_choi4(choi).shape[0])])


# -- operator-valued moments, independently of the program --------------------


def apply_multilinear(t: np.ndarray, args: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate a coordinate tensor of shape (k*k,)*n + (k, k) on a batch of
    argument tuples; args[i] has shape (B, k, k).  Returns (B, k, k)."""
    k = t.shape[-1]
    if not args:
        return t[None]
    coords = [a.reshape(a.shape[0], k * k) for a in args]
    out = np.tensordot(coords[0], t, axes=([1], [0]))
    for c in coords[1:]:
        out = np.einsum("bc...,bc->b...", out, c)
    return out


def moments_at(cumulants: Sequence[np.ndarray], args: np.ndarray) -> List[np.ndarray]:
    """M_1..M_N at batched arguments, from the cumulants, by the first-block
    recursion of the operator-valued moment-cumulant formula.

    args has shape (B, N-1, k, k); a_t sits between X_t and X_{t+1}.  E(i, j)
    is the moment of X_i a_i X_{i+1} ... a_{j-1} X_j.  The block containing
    X_i has elements i = p_0 < .. < p_{s-1} <= j; each gap between p_m and
    p_{m+1} contributes a_{p_m} E(p_m + 1, p_{m+1} - 1) a_{p_{m+1} - 1} to
    the cumulant's argument, and what follows p_{s-1} multiplies from the
    right as a_{p_{s-1}} E(p_{s-1} + 1, j).
    """
    N = len(cumulants)
    a = [args[:, t] for t in range(N - 1)]
    memo: Dict = {}

    def E(i: int, j: int) -> np.ndarray:
        if (i, j) in memo:
            return memo[(i, j)]
        total = 0
        for size in range(j - i + 1):
            for rest in combinations(range(i + 1, j + 1), size):
                block = (i,) + rest
                slots = []
                for p, q in zip(block, block[1:]):
                    slots.append(a[p] if q == p + 1 else a[p] @ E(p + 1, q - 1) @ a[q - 1])
                val = apply_multilinear(cumulants[len(block) - 1], slots)
                last = block[-1]
                if last < j:
                    val = val @ a[last] @ E(last + 1, j)
                total = total + val
        memo[(i, j)] = total
        return total

    return [E(0, n - 1) for n in range(1, N + 1)]


def realization_moments(real: Dict, N: int) -> List[np.ndarray]:
    """Exact moment tensors E(X e_{c_1} X ... e_{c_{n-1}} X), n = 1..N, of a
    tensor-block realization with E = id (x) tr(rho .)."""
    k, p, X, rho = real["k"], real["p"], real["X"], real["rho"]
    units = np.eye(k * k).reshape(k * k, k, k)
    W = np.stack([np.kron(u, np.eye(p)) @ X for u in units])
    cur = X
    out = []
    for n in range(1, N + 1):
        if n > 1:
            cur = np.einsum("...ab,cbd->...cad", cur, W)
        x = cur.reshape(cur.shape[:-2] + (k, p, k, p))
        out.append(np.einsum("...isjt,ts->...ij", x, rho))
    return out


def moment_matrix(real: Dict, level: int) -> np.ndarray:
    """Flattened level-L block moment matrix [E(w^* w')] of a realization,
    over the words X u_1 X ... u_{j-1} X (j < L) with matrix-unit u's and the
    empty word."""
    k, p, X, rho = real["k"], real["p"], real["X"], real["rho"]
    d = k * p
    units = np.eye(k * k).reshape(k * k, k, k)
    words = [np.eye(d, dtype=complex)]
    for j in range(1, level):
        for cs in product(range(k * k), repeat=j - 1):
            w = X
            for c in cs:
                w = w @ np.kron(units[c], np.eye(p)) @ X
            words.append(w)
    Wd = np.stack(words)
    gram = np.einsum("wba,vbc->wvac", Wd.conj(), Wd).reshape(len(words), len(words), k, p, k, p)
    blocks = np.einsum("wvisjt,ts->wivj", gram, rho)
    return blocks.reshape(len(words) * k, len(words) * k)


# -- per-command checks --------------------------------------------------------


def _check_report(rep: Dict, matrix: np.ndarray, what: str, fails: List[str]) -> None:
    """A PSD report against the benchmark's own eigvalsh of the same matrix."""
    herm = (matrix + matrix.conj().T) / 2
    own = float(np.linalg.eigvalsh(herm)[0])
    scale = max(1.0, float(np.max(np.abs(matrix))))
    if abs(rep["min_eigenvalue"] - own) > REL_TOL * scale:
        fails.append(f"{what}: min eigenvalue {rep['min_eigenvalue']!r} != own eigvalsh {own!r}")
    if rep["is_psd"] != (own >= -PSD_TOL):
        fails.append(f"{what}: verdict is_psd={rep['is_psd']} but own min eigenvalue is {own!r}")
    if not rep["is_psd"]:
        if rep["witness"] is None:
            fails.append(f"{what}: negative verdict without a witness")
        else:
            w = from_json(rep["witness"])
            w = w / np.linalg.norm(w)
            if not float(np.real(w.conj() @ herm @ w)) < -PSD_TOL:
                fails.append(f"{what}: witness does not give a negative value")


def _hankel_recheck(lam: float, level: int, witness, min_eig: float, what: str, fails: List[str]) -> None:
    H = hankel(lam, level)
    w = from_json(witness) if witness is not None else None
    if w is None or w.shape != (level,):
        fails.append(f"{what}: witness vector missing or not of length {level}")
        return
    w = w / np.linalg.norm(w)
    val = float(np.real(w.conj() @ H @ w))
    if not val < -PSD_TOL:
        fails.append(f"{what}: w* H w = {val!r} is not negative")
    if abs(val - min_eig) > REL_TOL * max(1.0, float(np.max(np.abs(H)))):
        fails.append(f"{what}: w* H w = {val!r} != reported min eigenvalue {min_eig!r}")


def _convolve_power(job: Job, out: Dict, rng, fails: List[str]) -> None:
    ex = job.expect
    moments = [from_json(m) for m in out["moments"]]
    cums = [from_json(c) for c in out["cumulants"]]
    N = len(ex["cumulants"]) if "cumulants" in ex else ex["order"]
    if len(moments) != N or len(cums) != N:
        fails.append(f"expected {N} moments and cumulants, got {len(moments)} and {len(cums)}")
        return
    if "cumulants" in ex:
        choi4 = _choi4(ex["choi"])
        for n, c in enumerate(ex["cumulants"], 1):
            _close(cums[n - 1], np.einsum("...pq,piqj->...ij", c, choi4), f"cumulant {n}", fails)
    else:
        # eta = id: the output moments are the realization's own moments
        for n, want in enumerate(realization_moments(ex["realization"], N), 1):
            _close(moments[n - 1], want, f"moment {n}", fails)
    if fails:
        return
    k = cums[0].shape[-1]
    args = rng.standard_normal((N_RANDOM_ARGS, N - 1, k, k, 2)) @ np.array([1.0, 1.0j])
    for n, want in enumerate(moments_at(cums, args), 1):
        got = apply_multilinear(moments[n - 1], [args[:, t] for t in range(n - 1)])
        _close(got, want, f"moment {n} at random arguments vs output cumulants", fails)


def _verify_realization(job: Job, out: Dict, rng, fails: List[str]) -> None:
    if out["pass"] is not True:
        fails.append("verify-realization reported pass = false")
    if not out["max_deviation"] <= REL_TOL:
        fails.append(f"max_deviation {out['max_deviation']!r} exceeds {REL_TOL:g}")
    _check_report(out["eta_minus_id"], _minus_id(job.expect["choi"]), "eta - id", fails)


def _check_cp(job: Job, out: Dict, rng, fails: List[str]) -> None:
    choi = job.expect["choi"]
    _check_report(out["eta"], choi, "eta", fails)
    _check_report(out["eta_minus_id"], _minus_id(choi), "eta - id", fails)
    if out["eta_minus_id"]["is_psd"] != job.expect["eta_minus_id_cp"]:
        fails.append("eta - id verdict contradicts the construction")


def _counterexample(job: Job, out: Dict, rng, fails: List[str]) -> None:
    choi = job.expect["choi"]
    _check_report(out["eta_minus_id"], _minus_id(choi), "eta - id", fails)
    cp = job.expect["eta_minus_id_cp"]
    if out["eta_minus_id_cp"] != cp:
        fails.append("eta_minus_id_cp contradicts the construction")
        return
    if cp:
        if any(out[key] is not None for key in ("witness", "lambda", "nonpositivity")):
            fails.append("a CP case carries a counterexample")
        return
    wit, lam, cert = out["witness"], out["lambda"], out["nonpositivity"]
    if wit is None or lam is None or cert is None:
        fails.append("a non-CP case lacks its witness, lambda or certificate")
        return
    # witness margin phi(eta_m(a)) < phi(a) - kappa with the benchmark's own eta_m
    a, phi, m = from_json(wit["a"]), from_json(wit["phi"]), int(wit["m"])
    k = _choi4(choi).shape[0]
    eta_m_a = np.einsum("upvq,piqj->uivj", a.reshape(m, k, m, k), _choi4(choi)).reshape(m * k, m * k)
    if np.max(np.abs(a @ a - a)) > 1e-8 or np.max(np.abs(a - a.conj().T)) > 1e-8:
        fails.append("witness a is not a projection")
    if np.linalg.eigvalsh((phi + phi.conj().T) / 2)[0] < -1e-8 or abs(np.trace(phi) - 1) > 1e-8:
        fails.append("witness phi is not a state")
    phi_eta = float(np.real(np.trace(phi @ eta_m_a)))
    phi_a = float(np.real(np.trace(phi @ a)))
    if not phi_eta < phi_a - wit["kappa"]:
        fails.append(f"witness margin fails: phi(eta_m(a)) = {phi_eta!r} >= phi(a) - kappa = {phi_a - wit['kappa']!r}")
    if not lam < 1:
        fails.append(f"lambda = {lam!r} is not below 1")
    _hankel_recheck(lam, cert["level"], cert["witness_vector"], cert["min_eigenvalue"], "Bernoulli certificate", fails)


def _positivity(job: Job, out: Dict, rng, fails: List[str]) -> None:
    ex = job.expect
    rep = out["certificate"]
    if out["positive_up_to_level"] != ex["psd"] or rep["is_psd"] != ex["psd"]:
        fails.append(f"positivity verdict {out['positive_up_to_level']} contradicts the construction ({ex['psd']})")
        return
    if out["level"] != ex["level"]:
        fails.append(f"level {out['level']} != requested {ex['level']}")
    if ex["psd"]:
        _check_report(rep, moment_matrix(ex["realization"], ex["level"]), "moment matrix", fails)
    else:
        _hankel_recheck(ex["lam"], ex["level"], rep["witness"], rep["min_eigenvalue"], "negative control", fails)


_CHECKS = {
    "convolve-power": _convolve_power,
    "verify-realization": _verify_realization,
    "check-cp": _check_cp,
    "counterexample": _counterexample,
    "positivity": _positivity,
}


def check(job: Job, returncode: int, stdout: bytes, stderr: bytes, rng) -> List[str]:
    """Failure messages for one finished job (empty when it passed)."""
    fails: List[str] = []
    if returncode != 0:
        fails.append(f"exit code {returncode}")
    if b"Traceback" in stderr:
        fails.append("traceback on stderr")
    if fails:
        return fails
    try:
        out = json.loads(stdout)
        _CHECKS[job.command](job, out, rng, fails)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        fails.append(f"malformed output: {type(exc).__name__}: {exc}")
    return fails
