"""Mixed moments in an amalgamated free product, computed directly from the
freeness axiom.

Letters alternate between two algebras over A = M_k: concrete matrices from a
finite-dimensional realization (tag B) and operators on a truncated Fock
module (tag C).  The expectation of an alternating word is evaluated by the
centering recursion: scanning left to right, the first letter x that is not
yet centered is split as (x - E(x)) + E(x).  The centered part joins the
centered prefix; the scalar part fuses its two neighbours, which belong to
the same algebra, into a single letter.  Words consisting entirely of
centered letters have expectation zero -- that is the freeness axiom and the
only input about the free product this module uses.  Every step shortens the
word or centers one more letter, so the recursion is a finite binary tree.

Coefficient arguments of a moment map enter the word as extra tensor axes
("slots") on the letters, so a single recursion pass evaluates the map on the
whole matrix-unit basis at once instead of once per coefficient tuple.

A C-letter T is held as its bra slab T* Omega, where Omega = 0 (+) 1 is the
state vector; the recursion reads nothing else from it.  E(T) = <T* Omega,
Omega> is the conjugate transpose of the slab's Omega coordinate, centering
zeroes that coordinate, and a fused letter L e R has the slab
R* e* (L* Omega), so it costs the pushes of the one input letter R.  No
operator product on the Fock module is ever formed.

Depth.  v raises the Fock degree by one, v* lowers it and A-scalars keep it;
Omega has degree 1, and E(P) = <Omega, P Omega> vanishes unless the degrees
of P's atoms sum to zero.  Expanding the centerings, each C-product the
recursion evaluates is a sum of products of the word's C atoms in order, and
a stretch of atoms left out of one sits inside such an expectation, so it
sums to zero where it contributes.  The partial degree sums of every product
are therefore sums over contiguous runs of the word's v/v* atoms.  The
truncated v drops only vectors of the top degree, so on a module whose depth
is required_depth(word) -- one more than the largest such run sum, and at
least 2 -- every value is exact.  For the compression words
v* X (v a v*) X ... X v of compressed_distribution that depth is 2 at every
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from string import ascii_uppercase
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .algebra import dagger, matrix_units
from .cpmaps import CPMap, NotCompletelyPositiveError
from .fock import FockSpace, build_fock
from .multimap import MultiMap
from .ovdist import OVDistribution, Realization

MAX_COMPRESSED_ORDER = 6

Atom = Union[str, Tuple[str, np.ndarray]]


@dataclass(frozen=True)
class MixedWord:
    """A word in the atoms "X", "v", "v*" and ("A", a) for a in M_k.

    "X" belongs to the realization algebra, "v"/"v*" to the Fock algebra and
    A-atoms to the common subalgebra; in normal form, maximal runs merge into
    strictly alternating tagged letters.  The empty word represents the unit.
    """

    atoms: Tuple[Atom, ...]

    @classmethod
    def from_atoms(cls, atoms: Sequence[Atom]) -> "MixedWord":
        out: List[Atom] = []
        for a in atoms:
            if isinstance(a, str):
                if a not in ("X", "v", "v*"):
                    raise ValueError(f"unknown atom {a!r}")
                out.append(a)
            else:
                tag, mat = a
                if tag != "A":
                    raise ValueError(f"unknown atom tag {tag!r}")
                out.append(("A", np.asarray(mat, dtype=complex)))
        return cls(tuple(out))

    def normal_form(self) -> List[Tuple[str, Tuple[Atom, ...]]]:
        """Maximal same-algebra runs as (tag, atoms) pairs, tags alternating.

        A-atoms attach to the preceding run when one is open, otherwise to
        the first run that forms; a word with no X/v atoms normalizes to a
        single "A" run.
        """
        runs: List[Tuple[str, List[Atom]]] = []
        leading: List[Atom] = []
        for atom in self.atoms:
            if not isinstance(atom, str):
                (runs[-1][1] if runs else leading).append(atom)
                continue
            tag = "B" if atom == "X" else "C"
            if runs and runs[-1][0] == tag:
                runs[-1][1].append(atom)
            else:
                runs.append((tag, leading + [atom]))
                leading = []
        if leading:
            runs.append(("A", leading))
        return [(tag, tuple(items)) for tag, items in runs]


def required_depth(atoms: Sequence[Atom]) -> int:
    """Fock depth at which every expectation of this word is exact.

    That is 1 + the largest sum, over contiguous runs of the word's v/v*
    atoms, of +1 per v and -1 per v*, and never less than 2 (see the module
    docstring).
    """
    best = run = 0
    for atom in atoms:
        if isinstance(atom, str) and atom != "X":
            run = max(0, run + (1 if atom == "v" else -1))
            best = max(best, run)
    return max(2, 1 + best)


# -- internal letter representation -------------------------------------------


class _Letter:
    """One letter of an alternating word, with slot axes recorded in sids.

    Tag "B": tensor is a matrix on the realization space, shape
    (*slots, kp, kp).  Tag "C": tensor is the bra slab T* Omega of a Fock
    operator T, shape (D, k, *slots, k); on input letters, ops lists the
    adjoints of T's factors in the order they act on a slab.
    """

    __slots__ = ("tag", "tensor", "sids", "ops", "is_zero", "_e")

    def __init__(self, tag: str, tensor: np.ndarray, sids: Tuple[int, ...], ops: tuple = ()):
        self.tag = tag
        self.tensor = tensor
        self.sids = sids
        self.ops = ops
        self.is_zero = not np.any(tensor)
        self._e: Optional[np.ndarray] = None


class _Env:
    """Evaluation context: the realization and the Fock module."""

    def __init__(self, r: Realization, f: FockSpace):
        if r.k != f.k:
            raise ValueError("realization and Fock module have different base algebras")
        self.r = r
        self.f = f
        self.k = r.k
        self.v = f.v_op().mat
        self.vstar = f.v_op().adjoint().mat

    def embed(self, tensor: np.ndarray) -> np.ndarray:
        # a (x) 1_p on the trailing output axes, batched over slots
        p = self.r.p
        k = self.k
        out = np.einsum("...ij,st->...isjt", tensor, np.eye(p))
        return out.reshape(tensor.shape[:-2] + (k * p, k * p))

    def cond_exp_b(self, tensor: np.ndarray) -> np.ndarray:
        k, p = self.k, self.r.p
        t4 = tensor.reshape(tensor.shape[:-2] + (k, p, k, p))
        return np.einsum("ts,...isjt->...ij", self.r.rho, t4)

    def push(self, op, op_sids: Tuple[int, ...], slab: np.ndarray,
             sids: Tuple[int, ...]) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """Apply a sparse Fock matrix, or left multiplication by an A-valued
        tensor of shape (*op slots, k, k), to a slab; new slots go in front."""
        if sp.issparse(op):
            return (op @ slab.reshape(self.f.dim, -1)).reshape(slab.shape), sids
        k = self.k
        n = op.size // (k * k)
        rows = op.reshape(n, k, k).transpose(1, 0, 2).reshape(k * n, k)
        out = rows @ slab.reshape(self.f.D, k, -1)
        return out.reshape((self.f.D, k) + op.shape[:-2] + slab.shape[2:]), op_sids + sids

    def c_letter(self, factors: Sequence) -> _Letter:
        """Input C-letter for the product of factors, each "v", "v*" or an
        A-valued (tensor, sids) pair, held as its bra slab."""
        ops = []
        for fac in factors:
            if isinstance(fac, str):
                ops.append((self.vstar if fac == "v" else self.v, ()))
            else:
                ops.append((dagger(fac[0]), fac[1]))
        slab, sids = self.f.unit_slab(), ()
        for op, op_sids in ops:
            slab, sids = self.push(op, op_sids, slab, sids)
        return _Letter("C", slab, sids, tuple(ops))


def _expect(letter: _Letter, env: _Env) -> np.ndarray:
    """Marginal expectation; tensor shape (*slots of the letter, k, k)."""
    if letter._e is None:
        if letter.tag == "B":
            letter._e = env.cond_exp_b(letter.tensor)
        else:
            # <T* Omega, Omega>: the adjoint of the Omega coordinate
            letter._e = np.moveaxis(letter.tensor[env.f.state_index], 0, -1).conj()
    return letter._e


def _center(letter: _Letter, e: np.ndarray, env: _Env) -> _Letter:
    if letter.tag == "B":
        return _Letter("B", letter.tensor - env.embed(e), letter.sids)
    # (T - E(T))* Omega = T* Omega - E(T)* Omega
    slab = letter.tensor.copy()
    slab[env.f.state_index] = 0
    return _Letter("C", slab, letter.sids)


def _b_mul(t1: np.ndarray, n1: int, t2: np.ndarray, n2: int) -> np.ndarray:
    s1 = ascii_uppercase[:n1]
    s2 = ascii_uppercase[n1:n1 + n2]
    return np.einsum(f"{s1}ab,{s2}bc->{s1}{s2}ac", t1, t2)


def _merge(left: Optional[_Letter], e: np.ndarray, esids: Tuple[int, ...],
           right: _Letter, env: _Env) -> _Letter:
    """left * scalar * right fused into one letter (left may be absent)."""
    if right.tag == "B":
        t = _b_mul(env.embed(e), len(esids), right.tensor, len(right.sids))
        sids = esids + right.sids
        if left is not None:
            t = _b_mul(left.tensor, len(left.sids), t, len(sids))
            sids = left.sids + sids
        return _Letter("B", t, sids)
    # (L e R)* Omega = R* e* (L* Omega)
    slab, sids = (env.f.unit_slab(), ()) if left is None else (left.tensor, left.sids)
    slab, sids = env.push(dagger(e), esids, slab, sids)
    for op, op_sids in right.ops:
        slab, sids = env.push(op, op_sids, slab, sids)
    return _Letter("C", slab, sids)


class _Accumulator:
    def __init__(self, k: int, n_slots: int):
        self.k = k
        self.expected = tuple(range(n_slots))
        self.total = np.zeros((k * k,) * n_slots + (k, k), dtype=complex)

    def add(self, tensor: np.ndarray, sids: Tuple[int, ...]) -> None:
        if tuple(sorted(sids)) != self.expected:
            raise AssertionError("terminal word lost coefficient slots")
        perm = tuple(np.argsort(sids)) + (len(sids), len(sids) + 1)
        self.total += np.transpose(tensor, perm)


def _rec(stack: Tuple[_Letter, ...], m: _Letter, t: int,
         word: Tuple[_Letter, ...], env: _Env, acc: _Accumulator) -> None:
    if m.is_zero:
        return
    e = _expect(m, env)
    if t == len(word):
        # word is (centered stack) + m; freeness kills it unless the stack is empty
        if not stack:
            acc.add(e, m.sids)
        return
    nxt = word[t]
    if stack:
        merged = _merge(stack[-1], e, m.sids, nxt, env)
        _rec(stack[:-1], merged, t + 1, word, env, acc)
    else:
        merged = _merge(None, e, m.sids, nxt, env)
        _rec(stack, merged, t + 1, word, env, acc)
    centered = _center(m, e, env)
    if not centered.is_zero:
        _rec(stack + (centered,), nxt, t + 1, word, env, acc)


def _expect_word(letters: Sequence[_Letter], env: _Env, n_slots: int) -> np.ndarray:
    letters = tuple(letters)
    for a, b in zip(letters, letters[1:]):
        if a.tag == b.tag:
            raise AssertionError("word letters must alternate")
    acc = _Accumulator(env.k, n_slots)
    if letters:
        _rec((), letters[0], 1, letters, env, acc)
    else:
        acc.total += np.eye(env.k)
    return acc.total


# -- public operations ---------------------------------------------------------


def evaluate(word: MixedWord, r: Realization, f: FockSpace) -> np.ndarray:
    """Expectation of a mixed word onto A, using only the freeness axiom.

    Raises ValueError when f is shallower than required_depth(word.atoms),
    where the truncated module would give wrong values.
    """
    need = required_depth(word.atoms)
    if f.depth < need:
        raise ValueError(f"Fock depth {f.depth} is too small for this word; need depth >= {need}")
    env = _Env(r, f)
    k = env.k
    letters: List[_Letter] = []
    for tag, atoms in word.normal_form():
        mats = [atom[1] for atom in atoms if not isinstance(atom, str)]
        if any(a.shape != (k, k) for a in mats):
            raise ValueError(f"A-coefficients must be {k}x{k}")
        if tag == "A":
            return reduce(np.matmul, mats, np.eye(k, dtype=complex))
        if tag == "B":
            t = reduce(np.matmul, [env.embed(a[1]) if isinstance(a, tuple) else r.X for a in atoms])
            letters.append(_Letter("B", t, ()))
        else:
            letters.append(env.c_letter([a if isinstance(a, str) else (a[1], ()) for a in atoms]))
    return _expect_word(letters, env, 0)


def compressed_distribution(
    r: Realization,
    eta: CPMap,
    N: int,
    tol: float = 1e-9,
    max_order: Optional[int] = None,
) -> OVDistribution:
    """Moment maps of v* X v, assembled purely from the freeness recursion.

    The n-th moment map is E(v* X (v a_1 v*) X ... (v a_{n-1} v*) X v) with
    a matrix-unit slot per coefficient, evaluated on the Fock module of
    psi = eta - id at the depth required_depth gives for that word, which is
    2 at every order.  Requires eta - id completely positive (otherwise the
    Fock model for psi does not exist; the raised error carries the witness).
    """
    cap = MAX_COMPRESSED_ORDER if max_order is None else max_order
    if not 1 <= N <= cap:
        raise ValueError(f"order must be in [1, {cap}] (set max_order to override)")
    if eta.k != r.k:
        raise ValueError("map and realization have different base algebras")
    psi = eta.minus_id()
    report = psi.is_cp(tol)
    if not report.is_psd:
        raise NotCompletelyPositiveError(
            f"eta - id is not completely positive (min Choi eigenvalue "
            f"{report.min_eigenvalue:.3e}); no compression model exists",
            report,
        )
    f = build_fock(psi, required_depth(["v*"] + ["v", "v*"] * (N - 1) + ["v"]), tol)
    # slabs carry one k^2 axis per coefficient slot on top of the module
    if f.D * r.k**2 * (r.k * r.k) ** (N - 1) > 200_000_000:
        raise ValueError(
            "compressed moment evaluation too large for this order/base "
            "dimension; reduce the order or the Kraus rank of eta - id"
        )
    env = _Env(r, f)
    k = r.k
    units = np.asarray(matrix_units(k))
    X = _Letter("B", r.X, ())
    first, last = env.c_letter(["v*"]), env.c_letter(["v"])
    middles = [env.c_letter(["v", (units, (t,)), "v*"]) for t in range(N - 1)]
    moments = []
    for n in range(1, N + 1):
        letters: List[_Letter] = [first]
        for middle in middles[:n - 1]:
            letters += [X, middle]
        letters += [X, last]
        tensor = _expect_word(letters, env, n - 1)
        moments.append(MultiMap(k, tensor))
    return OVDistribution(k=k, order=N, moments=tuple(moments), label="compressed")
