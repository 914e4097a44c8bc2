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
("slots"): an A-atom may carry leading k^2 axes over the matrix-unit basis,
and each becomes a slot of the returned map, in word order, so a single
recursion pass evaluates the map on the whole basis at once instead of once
per coefficient tuple.  Merges only ever join adjacent stretches of the word,
so every tensor of the recursion holds its slots in one fixed order: reverse
word order, in front of its matrix axes.  A push, and a product of two B
tensors, puts the slots of the right (later) operand in front, and the final
expectation is reversed once.  compressed_distribution is evaluate on the
compression word v* X (v a_1 v*) X ... (v a_{n-1} v*) X v whose a_t are
slotted A-atoms.

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

from .algebra import check_array_size, dagger, matrix_units
from .cpmaps import CPMap, NotCompletelyPositiveError
from .fock import FockSpace, build_fock
from .multimap import MultiMap
from .ovdist import OVDistribution, Realization

Atom = Union[str, Tuple[str, np.ndarray]]


@dataclass(frozen=True)
class MixedWord:
    """A word in the atoms "X", "v", "v*" and ("A", a) for a in M_k.

    "X" belongs to the realization algebra, "v"/"v*" to the Fock algebra and
    A-atoms to the common subalgebra; in normal form, maximal runs merge into
    strictly alternating tagged letters.  The empty word represents the unit.
    from_atoms keeps read-only copies of the A-coefficients.
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
                coefficient = np.array(mat, dtype=complex)
                coefficient.setflags(write=False)
                out.append(("A", coefficient))
        return cls(tuple(out))

    def normal_form(self) -> List[Tuple[str, Tuple[Atom, ...]]]:
        """Maximal same-algebra runs as (tag, atoms) pairs, tags alternating.

        A-atoms attach to the preceding run when one is open, otherwise to
        the first run that forms; a word with no X/v atoms, the empty word
        too, normalizes to a single "A" run.
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
        if leading or not runs:
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
    """One letter of an alternating word; slots are in reverse word order.

    Tag "B": tensor is a matrix on the realization space, shape
    (*slots, kp, kp).  Tag "C": tensor is the bra slab T* Omega of a Fock
    operator T, shape (D, k, *slots, k); on input letters, ops lists the
    adjoints of T's factors in the order they act on a slab.
    """

    __slots__ = ("tag", "tensor", "ops", "is_zero", "_e")

    def __init__(self, tag: str, tensor: np.ndarray, ops: tuple = ()):
        self.tag = tag
        self.tensor = tensor
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

    def push(self, op, slab: np.ndarray) -> np.ndarray:
        """Apply a Fock push (FockSpace.push_v or push_vstar), or left
        multiplication by an A-valued tensor of shape (*op slots, k, k), to
        a slab; the op's slots go in front of the slab's."""
        if callable(op):
            return op(slab)
        k = self.k
        n = op.size // (k * k)
        rows = op.reshape(n, k, k).transpose(1, 0, 2).reshape(k * n, k)
        out = rows @ slab.reshape(self.f.D, k, -1)
        return out.reshape((self.f.D, k) + op.shape[:-2] + slab.shape[2:])

    def c_letter(self, factors: Sequence) -> _Letter:
        """Input C-letter for the product of factors, each "v", "v*" or an
        A-valued tensor, held as its bra slab."""
        push = {"v": self.f.push_vstar, "v*": self.f.push_v}
        ops = tuple(push[fac] if isinstance(fac, str) else dagger(fac) for fac in factors)
        slab = self.f.unit_slab()
        for op in ops:
            slab = self.push(op, slab)
        return _Letter("C", slab, ops)


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
        return _Letter("B", letter.tensor - env.embed(e))
    # (T - E(T))* Omega = T* Omega - E(T)* Omega
    slab = letter.tensor.copy()
    slab[env.f.state_index] = 0
    return _Letter("C", slab)


def _b_mul(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """The matrix product t1 t2, batched over slots; t2's slots go in front."""
    s1 = ascii_uppercase[:t1.ndim - 2]
    s2 = ascii_uppercase[t1.ndim - 2:t1.ndim + t2.ndim - 4]
    return np.einsum(f"{s1}ab,{s2}bc->{s2}{s1}ac", t1, t2)


def _flip_slots(t: np.ndarray) -> np.ndarray:
    """The leading slot axes of a (*slots, k, k) tensor in reverse order."""
    n = t.ndim - 2
    return np.ascontiguousarray(t.transpose(tuple(range(n - 1, -1, -1)) + (n, n + 1)))


def _merge(left: Optional[_Letter], e: np.ndarray, right: _Letter, env: _Env) -> _Letter:
    """left * scalar * right fused into one letter (left may be absent)."""
    if right.tag == "B":
        t = _b_mul(env.embed(e), right.tensor)
        return _Letter("B", t if left is None else _b_mul(left.tensor, t))
    # (L e R)* Omega = R* e* (L* Omega)
    slab = env.push(dagger(e), env.f.unit_slab() if left is None else left.tensor)
    for op in right.ops:
        slab = env.push(op, slab)
    return _Letter("C", slab)


def _rec(stack: Tuple[_Letter, ...], m: _Letter, t: int,
         word: Tuple[_Letter, ...], env: _Env, total: np.ndarray) -> None:
    if m.is_zero:
        return
    e = _expect(m, env)
    if t == len(word):
        # word is (centered stack) + m; freeness kills it unless the stack is empty
        if not stack:
            if e.shape != total.shape:
                raise AssertionError("terminal word lost coefficient slots")
            total += e
        return
    nxt = word[t]
    merged = _merge(stack[-1] if stack else None, e, nxt, env)
    _rec(stack[:-1], merged, t + 1, word, env, total)
    centered = _center(m, e, env)
    if not centered.is_zero:
        _rec(stack + (centered,), nxt, t + 1, word, env, total)


def _check_letters(r: Realization, f: FockSpace, n_slots: int) -> None:
    # with n_slots slots of k^2, a slab has D k^2 entries per slot tuple and a B letter (kp)^2
    check_array_size(max(f.D, r.p**2) * r.k ** (2 * n_slots + 2),
                     f"a letter with {n_slots} coefficient slots on a Fock module of {f.D} words and M_{r.d}")


def _expect_word(letters: Tuple[_Letter, ...], env: _Env, n_slots: int) -> np.ndarray:
    """E of a nonempty alternating word with n_slots slots, in word order."""
    total = np.zeros((env.k * env.k,) * n_slots + (env.k, env.k), dtype=complex)
    _rec((), letters[0], 1, letters, env, total)
    return _flip_slots(total)


# -- public operations ---------------------------------------------------------


def evaluate(word: MixedWord, r: Realization, f: FockSpace) -> np.ndarray:
    """Expectation of a mixed word onto A, using only the freeness axiom.

    An A-atom may carry leading slot axes of length k^2 over the matrix-unit
    basis, shape (k^2, ..., k^2, k, k), in B runs and C runs alike.  The
    result then has shape (k^2,)*S + (k, k), one slot per such axis in word
    order: the coordinate tensor of a multilinear map, as MultiMap holds it.
    Letters above the array rule (algebra.check_array_size) are refused
    before any is built.

    Raises ValueError when f is shallower than required_depth(word.atoms),
    where the truncated module would give wrong values.
    """
    need = required_depth(word.atoms)
    if f.depth < need:
        raise ValueError(f"Fock depth {f.depth} is too small for this word; need depth >= {need}")
    env = _Env(r, f)
    k = env.k
    coefficients = [atom[1] for atom in word.atoms if not isinstance(atom, str)]
    if any(a.shape[-2:] != (k, k) or any(s != k * k for s in a.shape[:-2]) for a in coefficients):
        raise ValueError(f"A-coefficients must be {k}x{k}, after slot axes of length {k * k}")
    n_slots = sum(a.ndim - 2 for a in coefficients)
    _check_letters(r, f, n_slots)
    letters: List[_Letter] = []
    for tag, atoms in word.normal_form():
        factors = [atom if isinstance(atom, str) else _flip_slots(atom[1]) for atom in atoms]
        if tag == "A":
            return _flip_slots(reduce(_b_mul, factors, np.eye(k, dtype=complex)))
        if tag == "B":
            mats = [r.X if isinstance(fac, str) else env.embed(fac) for fac in factors]
            letters.append(_Letter("B", reduce(_b_mul, mats)))
        else:
            letters.append(env.c_letter(factors))
    return _expect_word(tuple(letters), env, n_slots)


def compressed_distribution(r: Realization, eta: CPMap, N: int, tol: float = 1e-9) -> OVDistribution:
    """Moment maps of v* X v, assembled purely from the freeness recursion.

    The n-th moment map is evaluate on the compression word
    v* X (v a_1 v*) X ... (v a_{n-1} v*) X v, each a_t the matrix units as
    one slotted A-atom, on the Fock module of psi = eta - id at the depth
    required_depth gives for that word, which is 2 at every order.  Requires
    eta - id completely positive (otherwise the Fock model for psi does not
    exist; the raised error carries the witness).
    """
    if N < 1:
        raise ValueError(f"order must be at least 1, got {N}")
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
    units = ("A", matrix_units(r.k))
    words = [MixedWord.from_atoms(["v*"] + ["X", "v", units, "v*"] * (n - 1) + ["X", "v"]) for n in range(1, N + 1)]
    f = build_fock(psi, required_depth(words[-1].atoms), tol)
    _check_letters(r, f, N - 1)  # the order-N word's letters are the largest; refuse them before order 1
    moments = tuple(MultiMap(r.k, evaluate(word, r, f)) for word in words)
    return OVDistribution(k=r.k, order=N, moments=moments, label="compressed")
