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
A centered letter leaves the prefix only by a later fusion, one per letter
left, so a letter is centered only while len(prefix) + 2 <= the letters
left, the current one counted: no branch ends in a nonempty prefix.

Coefficient arguments of a moment map enter the word as extra tensor axes
("slots"): an array atom over A may carry leading k^2 axes over the
matrix-unit basis, and each becomes a slot of the returned map, in word
order, so a single recursion pass evaluates the map on the whole basis at
once instead of once per coefficient tuple.  Merges only ever join adjacent stretches of the word,
so every tensor of the recursion holds its S slots in one fixed order,
reverse word order, flattened row-major into one slot axis of n = (k^2)^S
entries: a B letter is (n, kp, kp), a slab's block (h, k, n, k) and an
expectation (n, k, k), whatever the order.  A push, and a product of two B tensors, puts
the slots of the right (later) operand in front, as the outer product of the
two slot axes.  The slots are reversed only where slotted atoms enter
evaluate and where its result leaves.

compressed_distribution runs one recursion for the compression words
v* X (v a_1 v*) X ... (v a_{n-1} v*) X v, a_t slotted array atoms, of every
order n <= N: the order-n word is the order-N word's first 2n letters and
its last, v.  Where the order-N recursion reaches letter 2n < 2N with at
most one centered letter, fusing v in ends the order-n word as its own
recursion would, in the same order, so every moment is bit-identical.

A C-letter T is held as its bra slab T* Omega, where Omega = 0 (+) 1 is the
state vector; the recursion reads nothing else from it.  E(T) = <T* Omega,
Omega> is the conjugate transpose of the slab's Omega coordinate (zero when
the slab's block does not hold Omega's word), centering zeroes that
coordinate, and a fused letter L e R has the slab R* e* (L* Omega), so it
costs the pushes of the one input letter R.  No operator product on the
Fock module is ever formed.  A slab keeps only the run of words its pushes
reach from Omega (fock), and a B letter on M_d = M_k (x) M_p is multiplied
by and centered against e (x) 1_p block by block (Realization.embed_times
and minus_embed); both skip only exact zeros, so every value is that of
the dense forms.

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

from functools import reduce
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import DEFAULT_TOL, check_array_size, matrix_units
from .cpmaps import CPMap
from .fock import FockSpace, build_fock
from .multimap import MultiMap
from .ovdist import OVDistribution, Realization

Atom = Union[str, np.ndarray]


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
    """One letter of an alternating word; n is the length of its slot axis.

    Tag "B": tensor is a stack of matrices on the realization space, shape
    (n, kp, kp).  Tag "C": the bra slab T* Omega of a Fock operator T is
    (lo, tensor), tensor its block of shape (h, k, n, k) (see fock); on
    input letters, ops lists the adjoints of T's factors in the order they
    act on a slab, each as _Env.push takes it.
    """

    __slots__ = ("tag", "tensor", "lo", "ops", "is_zero", "_e")

    def __init__(self, tag: str, tensor: np.ndarray, ops: tuple = (), lo: int = 0):
        self.tag = tag
        self.tensor = tensor
        self.lo = lo
        self.ops = ops
        self.is_zero = not tensor.any()
        self._e: Optional[np.ndarray] = None


class _Env:
    """Evaluation context: the realization and the Fock module."""

    def __init__(self, r: Realization, f: FockSpace):
        if r.k != f.k:
            raise ValueError("realization and Fock module have different base algebras")
        self.r = r
        self.f = f
        self.k = r.k

    def push(self, op, slab: Tuple[int, np.ndarray]) -> Tuple[int, np.ndarray]:
        """Apply a Fock push (FockSpace.push_v or push_vstar), or left
        multiplication by an A-valued (n, k, k) stack given as its operator
        rows (_adjoint_rows), to a slab whose block is (h, k, m, k); the
        op's slots go in front of the slab's: (h', k, n * m, k)."""
        if callable(op):
            return op(slab)
        lo, block = slab
        h, k, m = len(block), self.k, block.shape[2]
        out = op @ block.reshape(h, k, m * k)
        return lo, out.reshape(h, k, len(op) // k * m, k)

    def c_letter(self, factors: Sequence) -> _Letter:
        """Input C-letter for the product of factors, each "v", "v*" or an
        A-valued tensor, held as its bra slab."""
        push = {"v": self.f.push_vstar, "v*": self.f.push_v}
        ops = tuple(push[fac] if isinstance(fac, str) else _adjoint_rows(fac) for fac in factors)
        slab = self.f.unit_slab()
        for op in ops:
            slab = self.push(op, slab)
        lo, block = slab
        return _Letter("C", block, ops, lo)


def _adjoint_rows(a: np.ndarray) -> np.ndarray:
    """The operator rows of the adjoint stack of an (n, k, k) stack a, as
    _Env.push takes them: row i * n + c is row i of a_c^dagger, (k * n, k)."""
    return a.transpose(2, 0, 1).conj().reshape(-1, a.shape[-1])


def _expect(letter: _Letter, env: _Env) -> np.ndarray:
    """Marginal expectation, an (n, k, k) stack over the letter's slot axis."""
    if letter._e is None:
        if letter.tag == "B":
            letter._e = env.r.cond_exp(letter.tensor)
        elif 0 <= env.f.state_index - letter.lo < len(letter.tensor):
            # <T* Omega, Omega>: the adjoint of the Omega coordinate
            letter._e = letter.tensor[env.f.state_index - letter.lo].transpose(1, 2, 0).conj()
        else:  # the slab is zero at Omega
            n = letter.tensor.shape[2]
            letter._e = np.zeros((n, env.k, env.k), dtype=complex)
    return letter._e


def _center(letter: _Letter, e: np.ndarray, env: _Env) -> _Letter:
    if letter.tag == "B":
        return _Letter("B", env.r.minus_embed(letter.tensor, e))
    # (T - E(T))* Omega = T* Omega - E(T)* Omega
    i = env.f.state_index - letter.lo
    if not 0 <= i < len(letter.tensor):  # E(T) = 0: the slab is shared, never written
        return _Letter("C", letter.tensor, lo=letter.lo)
    block = letter.tensor.copy()
    block[i] = 0
    return _Letter("C", block, lo=letter.lo)


def _b_mul(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """The matrix products of an (n, a, b) and an (m, b, c) stack, for every
    pair of slot entries; t2's slots go in front: shape (m * n, a, c)."""
    out = np.einsum("nab,mbc->mnac", t1, t2)
    return out.reshape((-1,) + out.shape[2:])


def _flip_slots(t: np.ndarray, n_slots: int) -> np.ndarray:
    """A tensor of n_slots slots of k^2 entries and a k x k output, its slots
    in reverse order, shape (k^2,)*n_slots + (k, k)."""
    k = t.shape[-1]
    t = t.reshape((k * k,) * n_slots + (k, k))
    return np.ascontiguousarray(t.transpose(tuple(range(n_slots - 1, -1, -1)) + (n_slots, n_slots + 1)))


def _merge(left: Optional[_Letter], e: np.ndarray, right: _Letter, env: _Env) -> _Letter:
    """left * scalar * right fused into one letter (left may be absent)."""
    if right.tag == "B":
        t = env.r.embed_times(e, right.tensor)
        return _Letter("B", t if left is None else _b_mul(left.tensor, t))
    # (L e R)* Omega = R* e* (L* Omega)
    slab = env.push(_adjoint_rows(e), env.f.unit_slab() if left is None else (left.lo, left.tensor))
    for op in right.ops:
        slab = env.push(op, slab)
    lo, block = slab
    return _Letter("C", block, lo=lo)


def _rec(stack: Tuple[_Letter, ...], m: _Letter, t: int, word: Tuple[_Letter, ...], env: _Env, totals: dict) -> None:
    """Add E(word) to totals[len(word)], E(word[:t] + word[-1:]) to totals[t] for every other key t."""
    if m.is_zero:
        return
    e = _expect(m, env)
    if t == len(word):
        # word is (centered stack) + m, and the bound below leaves the stack empty
        _add(totals[t], e)
        return
    if t in totals and len(stack) <= 1:  # the word's first t letters and its last one end here
        last = _merge(stack[-1] if stack else None, e, word[-1], env)
        if not last.is_zero:
            _add(totals[t], _expect(last, env))
    nxt = word[t]
    merged = _merge(stack[-1] if stack else None, e, nxt, env)
    _rec(stack[:-1], merged, t + 1, word, env, totals)
    if len(stack) + 2 <= len(word) - t:  # a centered letter leaves the stack only by a later merge
        centered = _center(m, e, env)
        if not centered.is_zero:
            _rec(stack + (centered,), nxt, t + 1, word, env, totals)


def _add(total: np.ndarray, e: np.ndarray) -> None:
    if e.shape != total.shape:
        raise AssertionError("terminal word lost coefficient slots")
    total += e


def _runs(atoms: Sequence[Atom]) -> List[Tuple[str, List[Atom]]]:
    """A word's atoms checked, as maximal same-algebra runs: (tag, atoms)
    pairs, tags alternating, array atoms made complex.  An array atom joins
    the open run, else the first run to form; a word of array atoms alone,
    the empty word too, is one "A" run."""
    runs: List[Tuple[str, List[Atom]]] = []
    leading: List[Atom] = []
    for atom in atoms:
        if isinstance(atom, np.ndarray) and atom.dtype.kind in "biufc":
            (runs[-1][1] if runs else leading).append(atom.astype(complex, copy=False))
            continue
        if not isinstance(atom, str) or atom not in ("X", "v", "v*"):
            what = repr(atom) if isinstance(atom, str) else f"of type {type(atom).__name__}"
            raise ValueError(f"unknown atom {what}; expected 'X', 'v', 'v*' or a numeric array")
        tag = "B" if atom == "X" else "C"
        if runs and runs[-1][0] == tag:
            runs[-1][1].append(atom)
        else:
            runs.append((tag, leading + [atom]))
            leading = []
    if leading or not runs:
        runs.append(("A", leading))
    return runs


def _letters(runs: List[Tuple[str, List[Atom]]], env: _Env) -> Tuple[Tuple[_Letter, ...], List[int]]:
    """The runs' alternating letters, or the one "A" letter of a word of
    array atoms, and the number of slots each letter carries."""
    k = env.k
    letters, slots = [], []
    for tag, atoms in runs:
        factors = [atom if isinstance(atom, str) else _flip_slots(atom, atom.ndim - 2).reshape(-1, k, k)
                   for atom in atoms]
        slots.append(sum(atom.ndim - 2 for atom in atoms if not isinstance(atom, str)))
        if tag == "A":
            letters.append(_Letter("A", reduce(_b_mul, factors, np.eye(k, dtype=complex)[None])))
        elif tag == "B":
            mats = [env.r.X[None] if isinstance(fac, str) else env.r.embed(fac) for fac in factors]
            letters.append(_Letter("B", reduce(_b_mul, mats)))
        else:
            letters.append(env.c_letter(factors))
    return tuple(letters), slots


def _expectations(word: Sequence[Atom], r: Realization, f: FockSpace, ends: Sequence[int] = ()) -> List[np.ndarray]:
    """E of the word's first t letters followed by its last, for each t in
    ends, or [E(word)] when ends is empty; slots in word order, as evaluate
    returns them."""
    runs = _runs(word)
    need = required_depth(word)
    if f.depth < need:
        raise ValueError(f"Fock depth {f.depth} is too small for this word; need depth >= {need}")
    env = _Env(r, f)
    k = env.k
    coefficients = [atom for _, atoms in runs for atom in atoms if not isinstance(atom, str)]
    if any(a.shape[-2:] != (k, k) or any(s != k * k for s in a.shape[:-2]) for a in coefficients):
        raise ValueError(f"A-coefficients must be {k}x{k}, after slot axes of length {k * k}")
    n_slots = sum(a.ndim - 2 for a in coefficients)
    # with n_slots slots of k^2, a slab has at most D k^2 entries per slot tuple and a B letter (kp)^2
    check_array_size(max(f.D, r.p**2) * k ** (2 * n_slots + 2),
                     f"a letter with {n_slots} coefficient slots on a Fock module of {f.D} words and M_{r.d}")
    letters, slots = _letters(runs, env)
    if letters[0].tag == "A":
        return [_flip_slots(letters[0].tensor, n_slots)]
    counts = {t: sum(slots[:t]) + (slots[-1] if t < len(letters) else 0) for t in ends or [len(letters)]}
    totals = {t: np.zeros(((k * k) ** n, k, k), dtype=complex) for t, n in counts.items()}
    _rec((), letters[0], 1, letters, env, totals)
    return [_flip_slots(totals[t], n) for t, n in counts.items()]


# -- public operations ---------------------------------------------------------


def evaluate(word: Sequence[Atom], r: Realization, f: FockSpace) -> np.ndarray:
    """Expectation of a mixed word onto A, using only the freeness axiom.

    A word is a sequence of the atoms "X", "v", "v*" and arrays over A: k x k,
    or (k^2, ..., k^2, k, k) with leading slot axes over the matrix-unit
    basis.  The result then has shape (k^2,)*S + (k, k), one slot per such
    axis in word order: the coordinate tensor of a multilinear map, as
    MultiMap holds it.  The empty word is the unit.  Letters above the array
    rule (algebra.check_array_size) are refused before any is built.

    Raises ValueError when f is shallower than required_depth(word), where
    the truncated module would give wrong values.
    """
    return _expectations(word, r, f)[0]


def compressed_distribution(r: Realization, eta: CPMap, N: int, tol: float = DEFAULT_TOL) -> OVDistribution:
    """Moment maps of v* X v, assembled purely from the freeness recursion.

    The n-th moment map is evaluate on the compression word
    v* X (v a_1 v*) X ... (v a_{n-1} v*) X v, each a_t the matrix units as
    one slotted array atom, on the Fock module of psi = eta - id at the depth
    required_depth gives for that word, which is 2 at every order; one
    recursion on the order-N word computes every order.  Requires
    eta - id completely positive (otherwise the Fock model for psi does not
    exist, and build_fock raises NotCompletelyPositiveError with the witness).
    """
    if N < 1:
        raise ValueError(f"order must be at least 1, got {N}")
    if eta.k != r.k:
        raise ValueError("map and realization have different base algebras")
    word = ["v*"] + ["X", "v", matrix_units(r.k), "v*"] * (N - 1) + ["X", "v"]
    f = build_fock(eta.minus_id(), required_depth(word), tol)
    # order n < N ends at letter 2n, order N at 2N + 1 only: also at 2N counts it twice
    ends = [2 * n for n in range(1, N)] + [2 * N + 1]
    moments = tuple(MultiMap(r.k, m) for m in _expectations(word, r, f, ends))
    return OVDistribution(k=r.k, order=N, moments=moments, label="compressed")
