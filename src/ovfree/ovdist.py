"""A-valued distributions of one self-adjoint variable over A = M_k.

A distribution is the truncated family of moment maps

    M_n(a_1, ..., a_{n-1}) = E(X a_1 X a_2 ... a_{n-1} X),   n = 1..order,

stored as MultiMap tensors.  The module provides construction from concrete
matrix realizations, the moment <-> cumulant transforms (one interval
recursion over index words, shared with the tuple distributions of
ovfree.converse), eta-convolution powers (compose every cumulant with eta),
and block moment-matrix positivity certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebra import DEFAULT_TOL, PSDReport, check_array_size, dagger, matrix_units, negligible, psd_check, read_only, unit_adjoint_index
from .cpmaps import CPMap
from .multimap import MultiMap


@dataclass(frozen=True)
class Realization:
    """Self-adjoint X in M_{k*p} realizing an M_k-valued distribution.

    The algebra embeds as a -> a (x) 1_p and the conditional expectation is
    id (x) phi for the state phi = tr(rho .) on the M_p tensor factor.  This
    shape makes E bimodular, and unital and positive exactly when rho is a
    p x p density matrix; a length-p rho is taken as its vector state.
    """

    k: int
    p: int
    X: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        # private read-only copies: a caller mutating its arrays cannot void the checks below
        X, rho = read_only(self.X), read_only(self.rho)
        d, p = self.k * self.p, self.p
        if X.shape != (d, d):
            raise ValueError(f"X must be {d}x{d} for k={self.k}, p={p}")
        if not negligible(X - dagger(X), X):
            raise ValueError("realization is invalid: X is not self-adjoint")
        if rho.shape == (p,):
            rho = read_only(np.outer(rho, rho.conj()))
        if rho.shape != (p, p):
            raise ValueError(f"state must be {p}x{p} or a length-{p} vector for p={p}, got shape {rho.shape}")
        if not negligible(rho - dagger(rho), rho):
            raise ValueError("realization is invalid: state is not a density matrix (not Hermitian)")
        if not (psd_check(rho).is_psd and negligible(np.trace(rho) - 1.0, 1.0)):
            raise ValueError("realization is invalid: state is not a density matrix")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "rho", rho)

    @property
    def d(self) -> int:
        return self.k * self.p

    def embed(self, a: np.ndarray) -> np.ndarray:
        """a (x) 1_p for a in M_k, or for each k x k matrix along leading batch axes."""
        a = np.asarray(a, dtype=complex)
        return np.einsum("...ij,st->...isjt", a, np.eye(self.p)).reshape(a.shape[:-2] + (self.d, self.d))

    def embed_times(self, e: np.ndarray, t: np.ndarray) -> np.ndarray:
        """(e_c (x) 1_p) t_b for every c of an (n, k, k) stack e and every b of
        an (m, d, d) stack t, t's index in front: shape (m * n, d, d).  Block
        row s of the product is e_c times block row s of t, so the products by
        the zeros of 1_p are skipped; every value is that of the einsum of
        embed(e) and t, whose skipped terms add exact zeros."""
        out = np.einsum("nij,mjsc->mnisc", e, t.reshape(t.shape[0], self.k, self.p, self.d))
        return out.reshape(-1, self.d, self.d)

    def minus_embed(self, t: np.ndarray, e: np.ndarray) -> np.ndarray:
        """t - e (x) 1_p for an (n, d, d) stack t and an (n, k, k) stack e:
        e is subtracted on the p diagonal blocks of a copy of t."""
        out = t.copy()
        blocks = out.reshape(-1, self.k, self.p, self.k, self.p)
        for s in range(self.p):
            blocks[:, :, s, :, s] -= e
        return out

    def cond_exp(self, x: np.ndarray) -> np.ndarray:
        """E(x) for x in M_d, or for each d x d matrix along leading batch axes."""
        x = np.asarray(x, dtype=complex)
        x4 = x.reshape(x.shape[:-2] + (self.k, self.p, self.k, self.p))
        return np.einsum("ts,...isjt->...ij", self.rho, x4)


def require_hermitian(m: MultiMap, what: str) -> None:
    """Raise unless m is a fixed point of MultiMap.herm_reflect, as every
    moment and every cumulant map of a distribution is."""
    scale = float(np.max(np.abs(m.tensor)))
    if not np.isfinite(scale):
        raise ValueError(f"{what} holds a non-finite number: the input's values are too large to compute with")
    if not negligible(m.herm_defect(), scale, 10 * DEFAULT_TOL):  # psd_check's gate margin, for input rounded elsewhere
        raise ValueError(f"{what} violates Hermitian symmetry")


@dataclass(frozen=True)
class OVDistribution:
    """Truncated M_k-valued distribution: moment maps of arity 0..order-1.

    moments[i] is the map with i+1 occurrences of X, so moments[0] = E(X).
    Hermitian symmetry M_n(a_1, .., a_{n-1})^* = M_n(a_{n-1}^*, .., a_1^*)
    and finite entries are enforced at construction.
    """

    k: int
    order: int
    moments: Tuple[MultiMap, ...]
    label: str = ""

    def __post_init__(self):
        moments = tuple(self.moments)
        if len(moments) != self.order:
            raise ValueError("need one moment map per order 1..order")
        for i, m in enumerate(moments):
            if m.k != self.k or m.arity != i:
                raise ValueError(f"moment {i + 1} has wrong shape")
            require_hermitian(m, f"moment {i + 1}")
        object.__setattr__(self, "moments", moments)

    def moment(self, n: int) -> MultiMap:
        return self.moments[n - 1]

    def max_deviation(self, other: "OVDistribution") -> float:
        n = min(self.order, other.order)
        return float(np.max([self.moments[i].max_deviation(other.moments[i]) for i in range(n)]))  # a NaN wins


def moments_from_realization(r: Realization, N: int) -> OVDistribution:
    """Exact moment maps E(X a_1 X ... X) of a concrete realization."""
    if N < 1:
        raise ValueError(f"order must be at least 1, got {N}")
    k = r.k
    check_array_size((k * k) ** (N - 1) * r.d**2, f"an order-{N} moment product on M_{r.d}")
    # W[c] = embed(e_c) @ X; cur accumulates X a_{c_1} X ... X with slot axes
    W = r.embed(matrix_units(k)) @ r.X
    cur = r.X.copy()
    moments: List[np.ndarray] = []
    for n in range(1, N + 1):
        if n > 1:  # (slots..., c, a, b)
            cur = np.moveaxis(np.tensordot(cur, W, axes=([cur.ndim - 1], [1])), -2, -3)
        moments.append(r.cond_exp(cur))
    del cur  # the largest array, freed before MultiMap copies each moment
    return OVDistribution(k=k, order=N, moments=tuple(MultiMap(k, m) for m in moments), label="realized")


# -- the moment <-> cumulant transform ------------------------------------------
#
# Both directions run one interval recursion over index words (Speicher,
# Mem. AMS 627, 1998; Nica-Speicher, Lecture 11).  Split a non-crossing
# partition of the positions of a word w at the last element e of the block
# containing the first position.  Then
#
#     M_w = Node(w) + sum_{e < |w|} Node(w[:e]) a_e M_{w[e:]},
#
# where Node(w) sums the partitions whose first block contains both ends of w:
# kappa of that block's subword, with every non-empty gap g between block
# positions u < v filled by a_u M_{w[g]} a_{v-1}.  The moment map of a gap is
# itself an earlier entry of the recursion, so no partition is enumerated.
#
# Inside the kernel a word's tensor is held in the chain layout
# (i, r_0, c_0, ..., r_{L-2}, c_{L-2}, j): MultiMap's (slots..., i, j) with
# every slot split into its matrix-unit (row, col) pair and the output row
# moved to the front, shape (k,) * 2L.  Position p of the word owns the labels
# (2p, 2p + 1) = (c_{p-1}, r_p), with c_{-1} = i and r_{L-1} = j, so every
# term is an outer product of contiguous runs (e_pq M e_uv = M[q, u] e_pv).
# A join Node(w[:e]) a_e M_{w[e:]} is the flat prefix by the flat suffix.  In
# a node term kappa_V owns its positions' pairs and the gap u+1..v-1 of the
# block owns labels 2u + 2 .. 2v - 1; the term is built left to right, kappa_V
# times its first gap, that times the next, each an outer product that puts
# the gap's flat moment between the runs before it and those after it, so
# only the last product is as large as the result.
#
# Every entry goes through the same complex operations, in the same order, as
# in one einsum per term over interleaved labels: np.einsum multiplies its
# operands left to right as (a_r b_r - a_i b_i, a_r b_i + a_i b_r) and adds the
# product to 0, and a partial product's 0 + can only flip the sign of a zero,
# which the next product and 0 + undo.  numpy's multiply ufunc rounds
# differently, so the products stay einsums.

Word = Tuple[int, ...]
MAX_TRANSFORM_ORDER = 26  # a time bound: the top order alone has 2^24 node terms per word


@lru_cache(maxsize=None)
def _gap_plan(k: int, L: int) -> Tuple[Tuple[Word, Tuple[Tuple[int, int, int], ...]], ...]:
    """(V, (start, stop, prefix) per gap) for every block V of positions of a
    length-L word that holds both ends and leaves a gap, in the recursion's
    term order.  A gap's prefix is the size of the runs before it, those of
    positions 0 .. start - 1."""
    plan = []
    for size in range(L - 3, -1, -1):
        for inner in combinations(range(1, L - 1), size):
            V = (0,) + inner + (L - 1,)
            plan.append((V, tuple((u + 1, v, k ** (2 * u + 2)) for u, v in zip(V, V[1:]) if v > u + 1)))
    return tuple(plan)


def _total(acc, terms, op):
    """acc op t_1 op t_2 ..., left to right, None standing for +0.  An array
    acc is only read: the first op writes a new array, which later terms
    update in place.  A term that lands on None, an einsum output
    (0 + product), starts the total as it is."""
    own = False
    for t in terms:
        if acc is None:
            acc, own = t, True
        elif own:
            op(acc, t, out=acc)
        else:
            acc, own = op(acc, t, order="C"), True
        del t  # freed before the next term is built
    return acc


def _interval_dp(
    k: int, s: int, order: int, known: Dict[Word, np.ndarray], inverse: bool
) -> Dict[Word, np.ndarray]:
    """Moment <-> cumulant transform of an s-variable distribution over M_k.

    Forward: known maps index words to cumulant tensors, a missing word
    meaning the zero map, and the moment tensor of every word of length
    <= order is returned.  Inverse: known holds every moment tensor and the
    cumulants are returned; kappa_w enters M_w only as the one-block term, so
    it is M_w minus every other term of the recursion.  Above the inputs and
    outputs, memory holds the known tensors shorter than order in the chain
    layout, the term being built and Node(w) of the words shorter than order,
    which later joins need.  The outputs are views of the kernel's tensors,
    which MultiMap copies into its own C-contiguous layout.
    """
    if order > MAX_TRANSFORM_ORDER:
        raise ValueError(f"transform order {order} exceeds the supported {MAX_TRANSFORM_ORDER}")
    given = {}
    for w, t in known.items():
        view = np.moveaxis(np.asarray(t).reshape((k,) * (2 * len(w))), -2, 0)
        # later terms flatten every known tensor shorter than order; the top order is only read
        given[w] = view if len(w) == order else np.ascontiguousarray(view)
    cums, moms = ({}, given) if inverse else (given, {})
    nodes: Dict[Word, np.ndarray] = {}
    for L in range(1, order + 1):
        check_array_size(k ** (2 * L), f"a map of arity {L - 1} over M_{k}")
        shape = (k,) * (2 * L)
        keep = L < order
        plan = _gap_plan(k, L)

        def gap_term(w, kappa, gaps):
            term = kappa
            for start, stop, prefix in gaps:
                term = np.einsum("ab,c->acb", term.reshape(prefix, -1), moms[w[start:stop]].reshape(-1))
            return term.reshape(shape)

        for w in product(range(s), repeat=L):
            # Node(w[:e]) e_xy M_{w[e:]}: the flat Node[i, .., x] by the flat M[y, .., j]
            joins = (
                np.einsum("a,b->ab", nodes[w[:e]].reshape(-1), moms[w[e:]].reshape(-1)).reshape(shape)
                for e in range(1, L)
            )
            terms = (
                gap_term(w, kappa, gaps)
                for V, gaps in plan
                if (kappa := cums.get(tuple(w[p] for p in V))) is not None
            )
            if inverse:
                if keep:
                    node = _total(moms[w], joins, np.subtract)  # M_w minus the joins
                    acc = _total(node, terms, np.subtract)
                else:
                    acc = _total(moms[w], chain(joins, terms), np.subtract)
            else:
                start = np.zeros(shape, dtype=complex) if L == 1 else None  # no join starts the total
                kappa = cums.get(w)
                if keep:
                    node = _total(kappa, terms, np.add)
                    if node is None:
                        node = np.zeros(shape, dtype=complex)
                    acc = _total(start, chain(joins, (node,)), np.add)
                else:
                    acc = _total(start, chain(joins, () if kappa is None else (kappa,), terms), np.add)
            if keep:
                nodes[w] = node
            (cums if inverse else moms)[w] = acc
    done = cums if inverse else moms
    return {w: np.moveaxis(t, 0, -2).reshape((k * k,) * (len(w) - 1) + (k, k)) for w, t in done.items()}


def cumulants_from_moments(dist: OVDistribution) -> Tuple[MultiMap, ...]:
    """Free cumulant maps: each kappa_n is M_n minus every non-crossing
    partition term but the one-block one, by the interval recursion."""
    moments = {(0,) * (n + 1): m.tensor for n, m in enumerate(dist.moments)}
    cums = _interval_dp(dist.k, 1, dist.order, moments, inverse=True)
    return tuple(MultiMap(dist.k, cums[(0,) * n]) for n in range(1, dist.order + 1))


def moments_from_cumulants(cums: Sequence[MultiMap], label: str = "cumulant-generated") -> OVDistribution:
    """Distribution with the given cumulants: M_n = sum over NC(n) of the
    nested evaluations, summed by the interval recursion."""
    cums = list(cums)
    if not cums:
        raise ValueError("need at least the first cumulant")
    k = cums[0].k
    for i, c in enumerate(cums):
        if c.arity != i or c.k != k:
            raise ValueError(f"cumulant {i + 1} has wrong shape")
    N = len(cums)
    moms = _interval_dp(k, 1, N, {(0,) * (n + 1): c.tensor for n, c in enumerate(cums)}, inverse=False)
    moments = tuple(MultiMap(k, moms[(0,) * n]) for n in range(1, N + 1))
    return OVDistribution(k=k, order=N, moments=moments, label=label)


def eta_power(dist: OVDistribution, eta: CPMap) -> OVDistribution:
    """The distribution whose cumulants are eta composed with those of dist."""
    if eta.k != dist.k:
        raise ValueError(f"map acts on M_{eta.k} but distribution is over M_{dist.k}")
    cums = cumulants_from_moments(dist)
    twisted = [c.compose(eta) for c in cums]
    label = f"eta_power({dist.label})" if dist.label else "eta_power"
    return moments_from_cumulants(twisted, label=label)


def _degree_words(k: int, level: int) -> List[Tuple[int, Tuple[int, ...]]]:
    # words X u_1 X ... u_{j-1} X of X-degree j = 0..level-1;
    # degree 0 is the empty word (the unit of the algebra).
    words: List[Tuple[int, Tuple[int, ...]]] = [(0, ())]
    for j in range(1, level):
        for w in product(range(k * k), repeat=j - 1):
            words.append((j, w))
    return words


def level_order(level: int) -> int:
    """The highest moment order the level-L moment matrix reads: 2L - 2, at least 1."""
    return max(1, 2 * level - 2)


def positivity_certificate(dist: OVDistribution, level: int, tol: float = DEFAULT_TOL) -> PSDReport:
    """PSD certificate for the level-d block moment matrix.

    Rows and columns are indexed by words of X-degree < level with matrix-unit
    coefficients; the (w, w') entry is the moment of w^* w'.  A negative
    witness conclusively refutes positivity of the distribution; a PSD result
    certifies positivity up to this level only, by psd_check's scale-relative
    rule.  The entries are moments of order at most level_order(level), so
    that is the order the certificate needs.
    The grid is filled with axes (W, k, W, k) and reshaped to the block matrix.
    """
    if level < 1:
        raise ValueError(f"level must be at least 1, got {level}")
    if level_order(level) > dist.order:
        raise ValueError(f"insufficient order: level {level} needs order >= {level_order(level)}")
    k = dist.k
    words = _degree_words(k, level)
    W = len(words)
    diag_units = [p * k + p for p in range(k)]
    grid = np.zeros((W, k, W, k), dtype=complex)
    for i, (di, wi) in enumerate(words):
        adj_wi = tuple(unit_adjoint_index(c, k) for c in reversed(wi))
        for j, (dj, wj) in enumerate(words):
            n = di + dj
            if n == 0:
                grid[i, :, j] = np.eye(k)
            elif di == 0:
                grid[i, :, j] = dist.moments[n - 1].tensor[wj]
            elif dj == 0:
                grid[i, :, j] = dist.moments[n - 1].tensor[adj_wi]
            else:
                t = dist.moments[n - 1].tensor
                grid[i, :, j] = sum(t[adj_wi + (c,) + wj] for c in diag_units)
    return psd_check(grid.reshape(W * k, W * k), tol)


def bernoulli(order: int) -> OVDistribution:
    """Scalar symmetric Bernoulli (two equal point masses at -1 and +1)."""
    moments = []
    for n in range(1, order + 1):
        value = 1.0 if n % 2 == 0 else 0.0
        moments.append(MultiMap(1, np.full((1,) * (n - 1) + (1, 1), value, dtype=complex)))
    return OVDistribution(k=1, order=order, moments=tuple(moments), label="bernoulli")


def semicircular(order: int) -> OVDistribution:
    """Scalar standard semicircular element (second cumulant 1, rest 0)."""
    cums = [MultiMap(1, np.zeros((1,) * (n - 1) + (1, 1), dtype=complex)) for n in range(1, order + 1)]
    if order >= 2:
        cums[1] = MultiMap(1, np.ones((1, 1, 1), dtype=complex))
    return moments_from_cumulants(cums, label="semicircular")
