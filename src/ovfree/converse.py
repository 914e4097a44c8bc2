"""Counterexample pipeline for maps eta with eta - id not completely positive.

Given such an eta on M_k, the Choi matrix of eta - id has a negative
eigenvector, which yields a projection a in M_m(A) (m = k, a the maximally
entangled rank-one projector) and a state phi with phi(eta_m(a) - a) < 0,
where eta_m = id_m (x) eta acts blockwise.  The GNS representation of phi and
the rank-one projection P onto its cyclic vector then compress any scalar
cumulant sequence by the constant

    lambda = phi(eta_m(a)) / (vartheta(a P a) / vartheta(P)) < 1,

and scaling the free cumulants of the symmetric Bernoulli distribution by a
constant lambda < 1 produces moments whose Hankel-type block matrix fails to
be PSD.  That failure is the explicit non-positivity certificate.

The module also provides the packing equivalence between joint distributions
of m^2-tuples and M_m(A)-valued distributions of the packed matrix, under
which eta-convolution powers correspond to (id_m (x) eta)-powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .algebra import DEFAULT_TOL, PSDReport, dagger, matrix_units, negligible, read_only
from .cpmaps import CPMap, eta_minus_id_cp
from .multimap import MultiMap
from .ovdist import (
    OVDistribution,
    _interval_dp,
    bernoulli,
    cumulants_from_moments,
    level_order,
    moments_from_cumulants,
    positivity_certificate,
)

MAX_TUPLE_WORDS = 20_000  # one dict entry per index word, which the byte rule cannot see


class NoWitnessError(ValueError):
    """Raised when no witness exists or the map is degenerate."""

    def __init__(self, message: str, report: Optional[PSDReport] = None):
        super().__init__(message)
        self.report = report


# -- joint distributions of tuples and the packing equivalence ----------------


@dataclass(frozen=True)
class TupleDistribution:
    """Truncated joint A-valued distribution of an s-tuple (X_0, ..., X_{s-1}).

    moments maps an index word (i_1, ..., i_n) to the MultiMap

        (a_1, ..., a_{n-1}) -> E(X_{i_1} a_1 X_{i_2} ... a_{n-1} X_{i_n}).
    """

    k: int
    s: int
    order: int
    moments: Mapping[Tuple[int, ...], MultiMap]

    def __post_init__(self):  # moments becomes a read-only view of a private copy
        object.__setattr__(self, "moments", MappingProxyType(dict(self.moments)))

    @classmethod
    def from_cumulants(
        cls, k: int, s: int, order: int, cums: Dict[Tuple[int, ...], MultiMap]
    ) -> "TupleDistribution":
        """Joint moments from joint cumulants; missing words mean zero maps."""
        _check_tuple_size(s, order)
        known = {w: c.tensor for w, c in cums.items() if len(w) <= order}
        moments = _interval_dp(k, s, order, known, inverse=False)
        return cls(k=k, s=s, order=order, moments={w: MultiMap(k, t) for w, t in moments.items()})

    def cumulants(self) -> Dict[Tuple[int, ...], MultiMap]:
        """Joint free cumulants by the same interval recursion as the
        one-variable transform, keyed by index word."""
        known = {w: m.tensor for w, m in self.moments.items()}
        cums = _interval_dp(self.k, self.s, self.order, known, inverse=True)
        return {w: MultiMap(self.k, t) for w, t in cums.items()}

    def eta_power(self, eta: CPMap) -> "TupleDistribution":
        """Compose every joint cumulant with eta and regenerate the moments."""
        if eta.k != self.k:
            raise ValueError("map dimension does not match the tuple's base algebra")
        twisted = {w: c.compose(eta) for w, c in self.cumulants().items()}
        return TupleDistribution.from_cumulants(self.k, self.s, self.order, twisted)


def _check_tuple_size(s: int, order: int) -> None:
    total = sum(s**n for n in range(1, order + 1))
    if total > MAX_TUPLE_WORDS:
        raise ValueError(f"tuple distribution too large ({total} index words)")


def _packed_axes(n: int) -> Tuple[int, ...]:
    """Axis order taking the stacked order-n word tensors to the packed moment.

    The stack has axes (r_0, c_0, ..., r_{n-1}, c_{n-1}) for the letters
    r_t * m + c_t of the word, then (a_1, b_1, ..., a_{n-1}, b_{n-1}, p, q)
    for the row and column of each slot's and the output's matrix unit.
    Packed slot t is (u_t, a_t, v_t, b_t) = (c_{t-1}, a_t, r_t, b_t) and the
    packed output is (r_0, p, c_{n-1}, q).
    """
    slots = tuple(ax for t in range(1, n) for ax in (2 * t - 1, 2 * n + 2 * t - 2, 2 * t, 2 * n + 2 * t - 1))
    return slots + (0, 4 * n - 2, 2 * n - 1, 4 * n - 1)


def pack_tuple(td: TupleDistribution) -> OVDistribution:
    """The M_m(A)-valued distribution of X = (X_ij), for s = m^2 variables.

    Variable X_ij is tuple entry i*m + j.  Block (i, j) of the packed moment
    evaluated on b_1, ..., b_{n-1} in M_m(A) is the chain sum

        sum E(X_{i u_1} (b_1)_{u_1 v_1} X_{v_1 u_2} ... X_{v_{n-1} j}).

    Each chain (i, u_1, v_1, ..., j) is one index word, so every packed entry
    is one entry of one word's moment: the packed tensor is the stack of the
    word tensors with its axes reordered.
    """
    m = int(round(np.sqrt(td.s)))
    if m * m != td.s:
        raise ValueError(f"tuple size {td.s} is not a perfect square")
    k, K = td.k, m * td.k
    moments: List[MultiMap] = []
    for n in range(1, td.order + 1):
        words = np.stack([td.moments[w].tensor for w in product(range(td.s), repeat=n)])
        packed = words.reshape((m, m) * n + (k, k) * n).transpose(_packed_axes(n))
        moments.append(MultiMap(K, packed.reshape((K * K,) * (n - 1) + (K, K))))
    return OVDistribution(k=K, order=td.order, moments=tuple(moments), label="packed")


def unpack_tuple(dist: OVDistribution, m: int, k: int) -> TupleDistribution:
    """Inverse of pack_tuple: recover joint moments of the m^2-tuple."""
    if dist.k != m * k:
        raise ValueError(f"distribution is over M_{dist.k}, expected M_{m * k}")
    s = m * m
    moments: Dict[Tuple[int, ...], MultiMap] = {}
    for n in range(1, dist.order + 1):
        split = dist.moments[n - 1].tensor.reshape((m, k, m, k) * n)
        words = split.transpose(np.argsort(_packed_axes(n))).reshape((s**n,) + (k * k,) * (n - 1) + (k, k))
        moments.update((w, MultiMap(k, t)) for w, t in zip(product(range(s), repeat=n), words))
    return TupleDistribution(k=k, s=s, order=dist.order, moments=moments)


# -- witness extraction --------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Projection a in M_m(A) and state phi with phi(eta_m(a)) < phi(a) - 2 kappa.

    phi is stored as a density matrix; eta_m_a caches id_m (x) eta applied to
    a, which the compression formulas reuse.  The arrays are read-only copies.
    _search_witness, the one builder, decides each of these properties.
    """

    m: int
    a: np.ndarray
    phi: np.ndarray
    kappa: float
    eta_m_a: np.ndarray

    def __post_init__(self):
        for name in ("a", "phi", "eta_m_a"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def phi_of(self, x: np.ndarray) -> float:
        return float(np.real(np.trace(self.phi @ x)))


def find_witness(eta: CPMap, tol: float = DEFAULT_TOL) -> Witness:
    """Deterministic witness search for eta with eta - id not CP.

    m = k and a is the rank-one projection onto the maximally entangled
    vector, so that eta_m(a) - a is the Choi matrix of eta - id divided by k.
    The base state is the negative Choi eigenvector; it is convexly mixed
    with the entangled state or the maximally mixed state over a grid of
    weights until phi(a) > 0, phi(eta_m(a) - a) < -kappa and the compression
    constant phi(eta_m(a)) is nondegenerate.
    """
    return _search_witness(eta, eta_minus_id_cp(eta, tol))


def _search_witness(eta: CPMap, report: PSDReport) -> Witness:
    """find_witness from the certificate of eta - id it starts from."""
    if report.is_psd:
        raise NoWitnessError("no witness exists: eta - id is completely positive", report)
    k = eta.k
    m = k
    n = m * k
    omega = np.eye(k, dtype=complex).reshape(n) / np.sqrt(k)
    a = np.outer(omega, omega.conj())
    eta_m_a = eta.amplify(m).apply(a)
    diff = eta_m_a - a
    w = report.witness
    phi0 = np.outer(w, w.conj())
    beta = -float(np.real(np.trace(phi0 @ diff)))
    partners = [a, np.eye(n, dtype=complex) / n]
    t_grid = [0.0] + [j / 64.0 for j in range(1, 64)]
    for kappa in (beta / 4, beta / 8, beta / 16, beta / 32, beta / 64):
        for sign in (1.0, -1.0):  # prefer a positive compression constant
            for partner in partners:
                for t in t_grid:
                    sigma = (1.0 - t) * phi0 + t * partner
                    fa = float(np.real(np.trace(sigma @ a)))
                    fd = float(np.real(np.trace(sigma @ diff)))
                    fe = float(np.real(np.trace(sigma @ eta_m_a)))
                    # a margin of the construction, not a zero test: the witness must not move with tol
                    if fa > 1e-8 and fd < -kappa and sign * fe > 1e-8:
                        return Witness(m=m, a=a, phi=sigma, kappa=kappa / 2, eta_m_a=eta_m_a)
    raise NoWitnessError(
        "witness search failed: phi(eta_m(a)) is degenerate for every candidate "
        "state (the compression constant would vanish and the scaled seed "
        "distribution would be a positive point mass)",
        report,
    )


# -- GNS model and the compression formulas ------------------------------------


@dataclass(frozen=True)
class GNSModel:
    """GNS space of phi on M_{mk}, realized inside M_{mk} with the
    Hilbert-Schmidt inner product via x -> x sqrt(phi).

    basis[0] is the cyclic vector; P is the rank-one projection onto it, in
    basis coordinates.  vartheta_op averages <M xi_j, xi_j> over the first
    N basis vectors; with the full basis (N = H_dim) it is tr/N on B(H).
    """

    basis: np.ndarray  # (H_dim, n, n), orthonormal, basis[0] = cyclic vector; a read-only copy
    N: int

    def __post_init__(self):
        object.__setattr__(self, "basis", read_only(self.basis))

    @property
    def H_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def P(self) -> np.ndarray:
        P = np.zeros((self.H_dim, self.H_dim), dtype=complex)
        P[0, 0] = 1.0
        return P

    def rep(self, z: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by z in the orthonormal basis."""
        return np.einsum("iba,bc,jca->ij", self.basis.conj(), z, self.basis)

    def vartheta_op(self, M: np.ndarray) -> float:
        return float(np.real(np.trace(M[: self.N, : self.N]))) / self.N


def build_gns(w: Witness, n_basis: Optional[int] = None) -> GNSModel:
    """Finite-dimensional GNS construction for the witness state.

    The inner product <x, y> = phi(x^* y) degenerates on the left kernel of
    sqrt(phi); Gram-Schmidt over {sqrt(phi), a sqrt(phi), e_uv sqrt(phi)}
    quotients it out.  Seeding a sqrt(phi) second makes the default ordering
    capture a xi within the first two vectors, so the full-basis model has
    vartheta(a P a) / vartheta(P) = phi(a) exactly.
    """
    rho = (w.phi + dagger(w.phi)) / 2
    vals, vecs = np.linalg.eigh(rho)
    sq = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ dagger(vecs)
    seeds = [sq, w.a @ sq, *(matrix_units(rho.shape[0]) @ sq)]
    basis: List[np.ndarray] = []
    for seed in seeds:
        vec = seed.astype(complex)
        for _ in range(2):  # re-orthogonalize for stability
            for b in basis:
                vec = vec - np.trace(dagger(b) @ vec) * b
        norm = float(np.sqrt(np.real(np.trace(dagger(vec) @ vec))))
        if norm > 1e-10:  # numerical rank of unit-scale seeds (|sqrt(phi)| = 1), which sizes the basis, not a verdict
            basis.append(vec / norm)
    arr = np.stack(basis)
    N = arr.shape[0] if n_basis is None else int(n_basis)
    if not 1 <= N <= arr.shape[0]:
        raise ValueError(f"n_basis must be in [1, {arr.shape[0]}]")
    return GNSModel(basis=arr, N=N)


def compression_cumulants(
    scalar_cumulants: Sequence[float], w: Witness, g: GNSModel
) -> Tuple[List[float], float]:
    """Push a scalar cumulant sequence through the compression chain.

    Sandwiching by the projection a scales the n-th cumulant of the seed by
    the product of vartheta(a P a) factors; renormalizing by vartheta(a P a)
    leaves the constant multiple

        lambda = phi(eta_m(a)) * vartheta(P) / vartheta(a P a),

    computed here from the model matrices.  The constancy of the resulting
    ratio and the bound lambda < (phi(a) - kappa) / (phi(a) - delta) < 1 are
    verified up to algebra.negligible; delta = |vartheta(aPa)/vartheta(P) -
    phi(a)| is 0 for the full-basis model and must stay below kappa otherwise.
    """
    phi_eta = w.phi_of(w.eta_m_a)
    phi_a = w.phi_of(w.a)
    rep_a = g.rep(w.a)
    theta_P = g.vartheta_op(g.P)
    theta_aPa = g.vartheta_op(rep_a @ g.P @ rep_a)
    ratio = theta_aPa / theta_P
    delta = abs(ratio - phi_a)
    if delta >= w.kappa:
        raise ValueError(
            f"vartheta basis too small: delta {delta:.3e} >= kappa {w.kappa:.3e}"
        )
    lam = phi_eta / ratio
    tilde: List[float] = []
    for n, om in enumerate(scalar_cumulants, start=1):
        hat = theta_P * phi_eta * theta_aPa ** (n - 1) * om
        tilde.append(hat / theta_aPa**n)
        if not negligible(tilde[-1] - lam * om, om):
            raise ValueError("compressed cumulants are not a constant multiple of the seed")
    bound = (phi_a - w.kappa) / (phi_a - delta)
    if bound >= 1.0 or (lam > bound and not negligible(lam - bound, bound)):
        raise ValueError(f"compression constant {lam} violates the bound {bound}")
    return tilde, lam


# -- the Bernoulli endgame -------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli_cumulant_values(order: int) -> Tuple[float, ...]:
    cums = cumulants_from_moments(bernoulli(order))
    return tuple(float(np.real(c.tensor.reshape(-1)[0])) for c in cums)


@dataclass(frozen=True)
class NonpositivityCertificate:
    """First level at which the scaled-Bernoulli moment matrix fails PSD."""

    lam: float
    level: int
    report: PSDReport

    @property
    def found(self) -> bool:
        return not self.report.is_psd


def certify_nonpositive(lam: float, level: int, tol: float = DEFAULT_TOL) -> NonpositivityCertificate:
    """Scale the symmetric Bernoulli cumulants by lam and hunt for a negative
    moment-matrix eigenvalue at levels up to level.

    Any lam < 1 other than 0 admits a certificate: for lam < 0 the second
    moment m2 = lam is negative (level 2), and for 0 < lam < 1 the level-3
    Hankel matrix has v^T H v = lam (lam - 1) < 0 at v = (-lam, 0, 1).  Where
    no eigenvalue clears the tolerance rule, as for lam within about tol of
    1, that vector is the certificate.  lam = 0 is rejected since the scaled
    seed degenerates to the point mass at zero, which is positive.
    """
    if lam == 0:
        raise ValueError(
            "lambda = 0 is degenerate: every scaled cumulant vanishes and the "
            "resulting point mass at zero is positive"
        )
    order = level_order(level)
    base = _bernoulli_cumulant_values(order)
    scaled = [
        MultiMap(1, np.full((1,) * (n - 1) + (1, 1), lam * base[n - 1], dtype=complex))
        for n in range(1, order + 1)
    ]
    dist = moments_from_cumulants(scaled, label=f"bernoulli-power({lam})")
    report = None
    for lv in range(1, level + 1):
        report = positivity_certificate(dist, lv, tol)
        if not report.is_psd:
            return NonpositivityCertificate(lam=lam, level=lv, report=report)
    return _exact_certificate(lam, level, tol) or NonpositivityCertificate(lam=lam, level=level, report=report)


def _exact_certificate(lam: float, level: int, tol: float) -> Optional[NonpositivityCertificate]:
    """The certificate vector v of certify_nonpositive, None if level is too
    low.  The report's min_eigenvalue is v's Rayleigh quotient on the exact
    Hankel matrix (m1 = m3 = 0, m2 = lam, m4 = 2 lam^2 - lam): lam at v =
    (0, 1), and lam (lam - 1) / (1 + lam^2) at v = (-lam, 0, 1).  It bounds
    the smallest eigenvalue from above and is negative in floating point too:
    lam - 1 is exact for lam >= 1/2 and at most -1/2 below."""
    if lam < 0 and level >= 2:
        v, value = np.array([0.0, 1.0]), lam
    elif 0 < lam < 1 and level >= 3:
        v, value = np.array([-lam, 0.0, 1.0]), lam * (lam - 1) / (1 + lam * lam)
    else:
        return None
    report = PSDReport(min_eigenvalue=float(value), witness=v / np.linalg.norm(v), tol=float(tol))
    return NonpositivityCertificate(lam=lam, level=len(v), report=report)


@dataclass(frozen=True)
class CounterexampleReport:
    """Outcome of the dichotomy: either positivity is preserved, or a witness
    with its compression constant and non-positivity certificate."""

    eta_minus_id: PSDReport
    preserved: bool
    witness: Optional[Witness]
    lam: Optional[float]
    nonpositivity: Optional[NonpositivityCertificate]


def counterexample_report(eta: CPMap, level: int = 4, tol: float = DEFAULT_TOL) -> CounterexampleReport:
    """Decide the dichotomy for eta and, in the negative case, produce the
    full witness -> GNS -> compression -> Bernoulli certificate chain."""
    rep = eta_minus_id_cp(eta, tol)
    if rep.is_psd:
        return CounterexampleReport(rep, True, None, None, None)
    w = _search_witness(eta, rep)
    g = build_gns(w)
    base = _bernoulli_cumulant_values(level_order(level))
    _, lam = compression_cumulants(base, w, g)
    cert = certify_nonpositive(lam, level, tol)
    return CounterexampleReport(rep, False, w, lam, cert)
