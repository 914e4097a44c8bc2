"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance and runtime budget is asserted, so a plain `pytest` run enforces
them as well.
"""

import time

import numpy as np

from ovfree.algebra import matrix_units
from ovfree.converse import (
    _bernoulli_cumulant_values,
    build_gns,
    certify_nonpositive,
    compression_cumulants,
    counterexample_report,
    find_witness,
)
from ovfree.cpmaps import CPMap, eta_minus_id_cp
from ovfree.fock import build_fock
from ovfree.freeprod import compressed_distribution
from ovfree.ovdist import (
    bernoulli,
    cumulants_from_moments,
    eta_power,
    moments_from_cumulants,
    moments_from_realization,
    positivity_certificate,
    semicircular,
)

from conftest import fock_words, random_complex, random_cp, random_realization, random_symmetric_cumulants


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fock_identities():
    # 25 random CP maps psi over M_k, k in {1,2,3}, depth 5: v*v = eta(1),
    # v* lambda(a) v = lambda(eta(a)) on all matrix units below the boundary,
    # E(v lambda(a) v*) = a; max abs error < 1e-10; runtime < 10 s
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(25):
        k = [1, 2, 3][trial % 3]
        rank = 1 if k == 1 else 1 + (trial % 2)
        psi = random_cp(rng, k, rank=rank, scale=0.6)
        eta = CPMap(k, psi.choi + CPMap.identity(k).choi)
        f = build_fock(psi, 5)
        v = f.v_op()
        vs = v.adjoint()
        worst = max(worst, float(np.max(np.abs(f.cond_exp_block((vs @ v).mat) - eta.apply(np.eye(k))))))
        sub = np.concatenate(
            [np.arange(i * k, (i + 1) * k) for i, w in enumerate(fock_words(f)) if len(w) < f.depth]
        )
        for a in matrix_units(k):
            W = (vs @ f.lambda_op(a) @ v).mat
            L = f.lambda_op(eta.apply(a)).mat
            diff = (W - L).tocsr()[sub, :][:, sub]
            worst = max(worst, float(np.max(np.abs(diff.toarray()))) if diff.nnz else 0.0)
        a = random_complex(rng, (k, k))
        worst = max(worst, float(np.max(np.abs(f.cond_exp_block((v @ f.lambda_op(a) @ vs).mat) - a))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    report(1, ok, f"Fock identities, 25 maps: max error {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_2_non_traciality():
    worst = 0.0
    for t in (1.5, 2.0, 3.0):
        psi = CPMap.from_kraus(1, [np.array([[np.sqrt(t - 1.0)]])])
        f = build_fock(psi, 4)
        v = f.v_op()
        worst = max(worst, abs(complex(f.cond_exp_block((v @ v.adjoint()).mat)[0, 0]) - 1.0))
        worst = max(worst, abs(complex(f.cond_exp_block((v.adjoint() @ v).mat)[0, 0]) - t))
    ok = worst < 1e-12
    report(2, ok, f"non-traciality E(vv*) = 1, E(v*v) = t: max error {worst:.2e}")


def test_criterion_3_round_trip():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        cums = random_symmetric_cumulants(rng, 2, 6)
        d = moments_from_cumulants(cums)
        back = cumulants_from_moments(d)
        worst = max(worst, max(a.max_deviation(b) for a, b in zip(cums, back)))
        d2 = moments_from_cumulants(back)
        worst = max(worst, d.max_deviation(d2))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    report(3, ok, f"moment<->cumulant round trips, 20 families: max error {worst:.2e}, runtime {elapsed:.1f}s")


def _ten_random_pairs():
    rng = np.random.default_rng(104)
    pairs = []
    for _ in range(10):
        r = random_realization(rng, k=2, p=2)
        psi = random_cp(rng, 2, rank=1, scale=0.6)
        eta = CPMap(2, psi.choi + CPMap.identity(2).choi)
        pairs.append((r, eta))
    return pairs


def test_criterion_4_compression_equals_eta_power():
    # the central check: the freeness recursion and the cumulant composition
    # must produce the same order-4 distribution
    t0 = time.perf_counter()
    worst = 0.0
    for r, eta in _ten_random_pairs():
        comp = compressed_distribution(r, eta, 4)
        powered = eta_power(moments_from_realization(r, 4), eta)
        worst = max(worst, comp.max_deviation(powered))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 60.0
    report(4, ok, f"compressed vs eta-power, 10 pairs at order 4: max deviation {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_5_positivity_preserved():
    worst = 0.0
    for r, eta in _ten_random_pairs():
        powered = eta_power(moments_from_realization(r, 4), eta)
        worst = min(worst, positivity_certificate(powered, 2).min_eigenvalue)
    ok = worst >= -1e-8
    report(5, ok, f"eta-power positivity at level 2, 10 pairs: min eigenvalue {worst:.2e}")


def test_criterion_6_scalar_consistency():
    worst = 0.0
    for t in (1.0, 2.0, 3.5):
        d = eta_power(semicircular(4), CPMap.scaled_identity(1, t))
        m2 = complex(d.moment(2).tensor.reshape(-1)[0]).real
        m4 = complex(d.moment(4).tensor.reshape(-1)[0]).real
        worst = max(worst, abs(m2 - t), abs(m4 - 2 * t * t))
    ok = worst < 1e-10
    report(6, ok, f"semicircle power moments m2 = t, m4 = 2t^2: max error {worst:.2e}")


def test_criterion_7_scalar_endgame():
    ok = True
    details = []
    for lam in (0.25, 0.5, 0.75, 0.9):
        cert = certify_nonpositive(lam, 4)
        ok = ok and cert.found and cert.level <= 4
        details.append(f"{lam}:level{cert.level}")
    # the lam = 1/2 witness at level 3 is the Hankel matrix with det -1/8
    cert_half = certify_nonpositive(0.5, 3)
    h = np.array([[1, 0, 0.5], [0, 0.5, 0], [0.5, 0, 0.0]])
    ok = ok and cert_half.level == 3
    ok = ok and abs(np.linalg.det(h) + 0.125) < 1e-12
    ok = ok and abs(cert_half.report.min_eigenvalue - np.linalg.eigvalsh(h)[0]) < 1e-10
    for lam in (1.0, 1.5, 2.0):
        cert = certify_nonpositive(lam, 4)
        ok = ok and not cert.found
    report(7, ok, "Bernoulli powers: negative certificates below 1 (" + ", ".join(details) + "), PSD at and above 1")


def test_criterion_8_converse_pipeline():
    t0 = time.perf_counter()
    eta = CPMap(2, CPMap.identity(2).choi + CPMap.transpose_map(2).choi)
    w = find_witness(eta)
    margin = w.phi_of(w.eta_m_a - w.a)
    g = build_gns(w)
    base = _bernoulli_cumulant_values(6)
    tilde, lam = compression_cumulants(base, w, g)
    ratio_dev = max(
        abs(tilde[n - 1] / base[n - 1] - lam) for n in range(2, 7) if abs(base[n - 1]) > 1e-12
    )
    cert = certify_nonpositive(lam, 4)
    elapsed = time.perf_counter() - t0
    ok = margin < 0 and lam < 1 and ratio_dev < 1e-10 and cert.found and elapsed < 10.0
    report(
        8,
        ok,
        f"converse pipeline: margin {margin:.3f}, lambda {lam:.4f}, ratio spread {ratio_dev:.1e}, "
        f"certificate level {cert.level}, runtime {elapsed:.1f}s",
    )


def test_criterion_9_dichotomy_sweep():
    rng = np.random.default_rng(109)
    exceptions = 0
    n_preserved = 0
    n_counter = 0
    for trial in range(50):
        k = 2
        if trial % 2 == 0:
            psi = random_cp(rng, k, rank=1 + trial % 2, scale=0.7)
            eta = CPMap(k, CPMap.identity(k).choi + psi.choi)
        else:
            g = random_complex(rng, (k * k, k * k))
            eta = CPMap(k, (g + g.conj().T) / 2)
        psd = eta_minus_id_cp(eta).is_psd
        try:
            rep = counterexample_report(eta)
            chain_succeeded = not rep.preserved and rep.nonpositivity is not None and rep.nonpositivity.found
            if rep.preserved != psd or (not psd and not chain_succeeded):
                exceptions += 1
        except Exception:
            exceptions += 1
        if psd:
            n_preserved += 1
        else:
            n_counter += 1
    ok = exceptions == 0 and n_preserved > 0 and n_counter > 0
    report(
        9,
        ok,
        f"dichotomy sweep over 50 maps: {n_preserved} preserved, {n_counter} counterexamples, "
        f"{exceptions} exceptions",
    )
