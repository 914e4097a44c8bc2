"""Exact truncated model of the full Fock module generated by a completely
positive map psi on A = M_k.

The bimodule K = A^r (+) A carries the A-valued inner product
<x, y> = sum_i x_i^* y_i; the vector xi = (K_1, ..., K_r) built from a Kraus
family of psi then satisfies <xi, a xi> = psi(a).  The truncated Fock module

    F = A (+) K (+) K (x)_A K (+) ... (+) K^{(x)_A depth}

is a free right A-module whose basis is indexed by words over r + 1 letters
(letter r is the unit direction of the A-summand), ordered by degree.
Operators are right A-linear, i.e. matrices over A acting by left
multiplication on coordinates, and a vector has one k-row coordinate per
basis word, with any number of trailing axes.  It is held as a slab
(lo, block): the block, of shape (h, k, ...), holds the coordinates of the
consecutive words lo .. lo + h - 1, and every other coordinate is zero; a
full vector is (0, its (D, k, ...) array).

The compression operator v prepends xi (+) 1, raising the degree by one, and
maps the top degree to zero; v^* lowers the degree and lambda(a) keeps it.
FockSpace defines v once, by two read-only tables built at construction: the
index of the word l.w for every letter l and every word w below the top
degree (prepend_index), and the stacked coordinates of the letters, the
Kraus operators and the identity (letter_coords).  The words are ordered so
that l.w has index width * index(w) + 1 + l, which makes prepend_index the
range 1..D-1 in rows of width = r + 1: push_v and push_vstar apply v and
v^* to a slab with one batched matmul each on contiguous views of the slab,
with no gather or scatter.  v maps the block's words w to the one run of
words l.w from width * lo + 1 on, and v^* maps each run of words l.w that
meets the block to its w, so the slabs the freeness recursion in freeprod
builds from 0 (+) 1 hold one or a few words, not D.  That recursion uses
nothing else of the module.

FockOp is the operator-product view: scipy sparse matrices on the flattened
coordinates (word, row), with v_op built from the same tables, composed by @
and read by word_expectation through cond_exp_block.  It serves as the
oracle for the slab pushes and loads scipy on first use, so importing this
module needs numpy only.

With eta = psi + id the identities v^* v = eta(1) and
v^* lambda(a) v = lambda(eta(a)) hold exactly below the truncation boundary.
The conditional expectation reads the diagonal A-block at the degree-one
basis vector 0 (+) 1.  The expectation of an operator word is exact when,
applying its letters to 0 (+) 1 from the right, v never acts on a vector of
the top degree; that holds once the depth is at least 1 + the largest sum,
over contiguous runs of the word's letters, of +1 per v and -1 per v*.
word_expectation, which multiplies the whole word out, asks for the cruder
depth >= length + 1; freeprod.required_depth gives the depth the freeness
recursion needs, which is 2 for the compression words v* X (v a v*) ... X v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence, Tuple, Union

import numpy as np

from .algebra import DEFAULT_TOL, check_array_size, freeze
from .cpmaps import CPMap

if TYPE_CHECKING:
    import scipy.sparse as sp

Letter = Union[str, np.ndarray]


class FockSpace:
    """Truncated Fock module: its sizes and the two read-only tables that
    define v.  The module is immutable: no attribute can be rebound."""

    def __init__(self, k: int, kraus: Sequence[np.ndarray], depth: int):
        if depth < 2:
            raise ValueError("depth must be at least 2")
        k, depth = int(k), int(depth)
        coords = [np.asarray(K, dtype=complex) for K in kraus]
        if any(K.shape != (k, k) for K in coords):
            raise ValueError("xi coordinates must be k x k matrices")
        r = len(coords)
        width = r + 1
        D = sum(width**j for j in range(depth + 1))
        check_array_size(D * k * k, f"one slab layer of a truncated Fock module of {D} words over M_{k}")
        # letters 0..r-1 carry the xi coordinates, letter r the unit direction
        letter_coords = freeze(np.array(coords + [np.eye(k)], dtype=complex))
        stacked = letter_coords.reshape(width * k, k)
        # v maps the words below the top degree, the first D - width**depth,
        # onto the indices 1..D-1 in order: row w of this table holds l.w
        low = D - width**depth
        self.__dict__.update(
            k=k, depth=depth, r=r, D=D, letter_coords=letter_coords,
            prepend_index=freeze(np.arange(1, D).reshape(low, width)),
            _stacked=stacked, _stacked_h=freeze(stacked.conj().T.copy()),
            state_index=1 + r,  # the unit direction's word (r,): width * index(()) + 1 + r
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"FockSpace is immutable: cannot assign '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"FockSpace is immutable: cannot delete '{name}'")

    @property
    def dim(self) -> int:
        return self.D * self.k

    def push_v(self, slab: Tuple[int, np.ndarray]) -> Tuple[int, np.ndarray]:
        """v applied to a slab (lo, block): (v s)[l.w] = C_l s[w] for every
        word w below the top degree; nothing reaches the vacuum.  The words
        l.w of the block's words w are the run from width * lo + 1 on."""
        lo, block = slab
        low, width = self.prepend_index.shape
        m = min(len(block), max(0, low - lo))  # the block's words below the top degree
        if m == 0:
            return 0, block[:0]
        out = np.matmul(self._stacked, block[:m].reshape(m, self.k, -1))
        return 1 + width * lo, out.reshape((m * width,) + block.shape[1:])

    def push_vstar(self, slab: Tuple[int, np.ndarray]) -> Tuple[int, np.ndarray]:
        """v^* applied to a slab (lo, block): (v^* s)[w] = sum_l C_l^* s[l.w]
        below the top degree, zero on it.  The words w returned are those
        whose run l.w, l = 0..r, meets the block; each is read whole, its
        words outside the block as the zeros they are."""
        lo, block = slab
        low, width = self.prepend_index.shape
        hi = lo + len(block)
        # the run of w is the words 1 + width * w .. width * (w + 1)
        w0, w1 = max(0, (lo - 1) // width), min(low, (hi - 2) // width + 1)
        if w1 <= w0:  # an empty block, or the vacuum alone
            return 0, block[:0]
        a, b = 1 + width * w0, 1 + width * w1
        if lo <= a and b <= hi:
            runs = block[a - lo:b - lo]
        else:
            runs = np.zeros((b - a,) + block.shape[1:], dtype=complex)
            runs[max(a, lo) - a:min(b, hi) - a] = block[max(a, lo) - lo:min(b, hi) - lo]
        out = np.matmul(self._stacked_h, runs.reshape(w1 - w0, width * self.k, -1))
        return w0, out.reshape((w1 - w0,) + block.shape[1:])

    def lambda_op(self, a: np.ndarray) -> "FockOp":
        import scipy.sparse as sp

        a = np.asarray(a, dtype=complex)
        if a.shape != (self.k, self.k):
            raise ValueError(f"expected a {self.k}x{self.k} matrix")
        mat = sp.kron(sp.identity(self.D, format="csr"), sp.csr_matrix(a), format="csr")
        return FockOp(self, mat)

    def v_op(self) -> "FockOp":
        """v as a sparse FockOp, built from the same tables as push_v."""
        return self._v

    @cached_property
    def _v(self) -> "FockOp":
        import scipy.sparse as sp

        k = self.k
        low, width = self.prepend_index.shape
        # entry (l.w, a; w, b) = C_l[a, b], axes (w, l, a, b)
        data = np.broadcast_to(self.letter_coords, (low, width, k, k))
        rows = self.prepend_index[:, :, None, None] * k + np.arange(k)[:, None]
        cols = np.arange(low)[:, None, None, None] * k + np.arange(k)
        rows, cols = np.broadcast_arrays(rows, cols)
        keep = data != 0
        mat = sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(self.dim, self.dim))
        return FockOp(self, mat)

    def identity_op(self) -> "FockOp":
        import scipy.sparse as sp

        return FockOp(self, sp.identity(self.dim, format="csr", dtype=complex))

    def cond_exp_block(self, mat: sp.spmatrix) -> np.ndarray:
        s = self.state_index * self.k
        return np.asarray(mat[s:s + self.k, s:s + self.k].todense())

    def unit_slab(self) -> Tuple[int, np.ndarray]:
        """0 (+) 1 as the slab the freeness recursion starts from: the
        (1, k, 1, k) block of the word state_index."""
        return self.state_index, np.eye(self.k, dtype=complex).reshape(1, self.k, 1, self.k)


@dataclass(frozen=True)
class FockOp:
    """Right A-linear operator on the truncated Fock module; mat is a
    private, read-only CSR copy."""

    space: FockSpace
    mat: sp.csr_matrix

    def __post_init__(self):
        object.__setattr__(self, "mat", self.mat.tocsr(copy=True))
        self.mat.sum_duplicates()  # sorts the indices now, which scipy would otherwise do in place later
        for a in (self.mat.data, self.mat.indices, self.mat.indptr):
            freeze(a)

    def __matmul__(self, other: "FockOp") -> "FockOp":
        if other.space is not self.space:
            raise ValueError("operators live on different Fock modules")
        return FockOp(self.space, self.mat @ other.mat)

    def __add__(self, other: "FockOp") -> "FockOp":
        return FockOp(self.space, self.mat + other.mat)

    def __mul__(self, t: complex) -> "FockOp":
        return FockOp(self.space, t * self.mat)

    __rmul__ = __mul__

    def adjoint(self) -> "FockOp":
        return FockOp(self.space, self.mat.conj().T)


def build_fock(psi: CPMap, depth: int, tol: float = DEFAULT_TOL) -> FockSpace:
    """Truncated Fock module for a CP map psi; raises with a PSD witness if
    psi is not completely positive (the vector xi does not exist then)."""
    kraus = psi.kraus(tol)
    return FockSpace(psi.k, kraus, depth)


def word_expectation(f: FockSpace, word: Sequence[Letter]) -> np.ndarray:
    """Expectation of a product of letters from {\"v\", \"v*\", lambda(a)}.

    A k x k array letter means lambda(a).  Requires depth >= len(word) + 1 so
    that no partial product touches the truncation boundary; under that bound
    the value is exact and independent of the depth.
    """
    L = len(word)
    need = L + 1
    if f.depth < need:
        raise ValueError(f"depth {f.depth} too small for a word of length {L}; need depth >= {need}")
    op = f.identity_op()
    for letter in word:
        op = op @ _as_op(f, letter)
    return f.cond_exp_block(op.mat)


def _as_op(f: FockSpace, letter: Letter) -> FockOp:
    if isinstance(letter, str):
        if letter == "v":
            return f.v_op()
        if letter == "v*":
            return f.v_op().adjoint()
        raise ValueError(f"unknown letter {letter!r}; expected 'v', 'v*' or a matrix")
    return f.lambda_op(np.asarray(letter, dtype=complex))
