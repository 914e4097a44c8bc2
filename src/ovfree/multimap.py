"""Dense tensors for C-multilinear maps (M_k)^n -> M_k, their slot algebra,
and the reference oracle for the moment <-> cumulant transform.

A map of arity n is stored as an array of shape (k*k,)*n + (k, k): slot t is
the coordinate index of argument t in the matrix-unit basis (row-major, so an
argument a enters as a.reshape(k*k)), and the final two axes are the output.

Storage is exact but dense: a map of arity n costs (k^2)^n * k^2 complex
entries, which caps practical use around k <= 3, n <= 7.  A tensor above
algebra.MAX_ARRAY_BYTES is refused by algebra.check_array_size before it is
allocated, rather than left to thrash.

kappa_map and moment_map evaluate the nested partition terms one enumerated
non-crossing partition at a time, Catalan(n) of them for order n.  No library
path calls them: the transforms of ovfree.ovdist run an interval recursion
instead, and the tests check it against this oracle for orders up to 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import ncpart
from .algebra import check_array_size, matrix_units, read_only


@dataclass(frozen=True)
class MultiMap:
    """A C-multilinear map (M_k)^arity -> M_k as its own read-only dense coordinate tensor."""

    k: int
    tensor: np.ndarray

    def __post_init__(self):
        t = read_only(self.tensor)
        kk = self.k * self.k
        if t.ndim < 2 or t.shape[-2:] != (self.k, self.k):
            raise ValueError("tensor must end with two output axes of length k")
        if any(s != kk for s in t.shape[:-2]):
            raise ValueError("every slot axis must have length k*k")
        object.__setattr__(self, "tensor", t)

    @property
    def arity(self) -> int:
        return self.tensor.ndim - 2

    @classmethod
    def zero(cls, k: int, arity: int) -> "MultiMap":
        check_array_size(k ** (2 * arity + 2), f"a map of arity {arity} over M_{k}")
        return cls(k, np.zeros((k * k,) * arity + (k, k), dtype=complex))

    def apply(self, args: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on concrete matrices."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        out = self.tensor
        for a in reversed(args):
            coords = np.asarray(a, dtype=complex).reshape(self.k * self.k)
            out = np.tensordot(out, coords, axes=([out.ndim - 3], [0]))
        return out

    def compose(self, eta) -> "MultiMap":
        """Post-compose the output with a linear map on M_k (Choi form), bit for bit as einsum("...pq,piqj->...ij")."""
        if eta.k != self.k:
            raise ValueError("dimension mismatch in composition")
        k, choi = self.k, np.ascontiguousarray(eta.choi4.transpose(1, 3, 0, 2))  # same products, same (p, q) order, faster
        return MultiMap(k, np.einsum("npq,ijpq->nij", self.tensor.reshape(-1, k, k), choi).reshape(self.tensor.shape))

    def _split_reflected(self) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the tensor and of its herm_reflect before conjugation,
        with every axis split into k-sized (row, col) parts.

        Reversing the slot order and taking each e_pq to e_pq^* = e_qp is one
        reversal of the 2n split slot axes; the output pair swaps as well.
        """
        k, n = self.k, self.arity
        split = self.tensor.reshape((k,) * (2 * n + 2))
        return split, split.transpose(tuple(range(2 * n - 1, -1, -1)) + (2 * n + 1, 2 * n))

    def herm_reflect(self) -> "MultiMap":
        """The map (a_1, ..., a_n) -> f(a_n^*, ..., a_1^*)^*.

        Distributional moment maps are fixed points of this involution.
        """
        _, reflected = self._split_reflected()
        return MultiMap(self.k, np.conjugate(reflected).reshape(self.tensor.shape))

    def herm_defect(self) -> float:
        """max |f - herm_reflect(f)|, one leading slice at a time, so that no
        temporary as large as the tensor is built."""
        split, reflected = self._split_reflected()
        return float(np.max([np.max(np.abs(a - np.conjugate(b))) for a, b in zip(split, reflected)]))  # a NaN wins

    def __add__(self, other: "MultiMap") -> "MultiMap":
        return MultiMap(self.k, self.tensor + other.tensor)

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        return MultiMap(self.k, self.tensor - other.tensor)

    def __mul__(self, t: complex) -> "MultiMap":
        return MultiMap(self.k, t * self.tensor)

    __rmul__ = __mul__

    def __neg__(self) -> "MultiMap":
        return MultiMap(self.k, -self.tensor)

    def max_deviation(self, other: "MultiMap") -> float:
        return float(np.max(np.abs(self.tensor - other.tensor)))


# -- slot algebra ------------------------------------------------------------
#
# These primitives implement insertion of coefficient slots and nested
# composition.  Slot axes always stay in left-to-right word order; the two
# output axes stay last.


def left_slot(m: MultiMap) -> MultiMap:
    """New first argument multiplying the output from the left."""
    U = matrix_units(m.k)
    t = np.tensordot(U, m.tensor, axes=([2], [m.tensor.ndim - 2]))
    # axes now (c, i, slots..., j); move i next to the output column axis
    t = np.moveaxis(t, 1, -2)
    return MultiMap(m.k, t)


def right_slot(m: MultiMap) -> MultiMap:
    """New last argument multiplying the output from the right."""
    U = matrix_units(m.k)
    t = np.tensordot(m.tensor, U, axes=([m.tensor.ndim - 1], [1]))
    # axes now (slots..., i, c, b); move c before i
    t = np.moveaxis(t, -2, -3)
    return MultiMap(m.k, t)


def join(f: MultiMap, g: MultiMap) -> MultiMap:
    """Pointwise product map (x, y) -> f(x) g(y); slots of f then slots of g."""
    arity = f.arity + g.arity
    check_array_size(f.k ** (2 * arity + 2), f"a map of arity {arity} over M_{f.k}")
    t = np.tensordot(f.tensor, g.tensor, axes=([f.tensor.ndim - 1], [g.tensor.ndim - 2]))
    # axes (f-slots..., i, g-slots..., j); move i next to j
    t = np.moveaxis(t, f.arity, -2)
    return MultiMap(f.k, t)


def plug_all(omega: MultiMap, plugs: Sequence[Optional[MultiMap]]) -> MultiMap:
    """Substitute maps into slots of omega; None leaves a slot untouched.

    The slots of each plugged map replace the corresponding slot in place, so
    word order is preserved.
    """
    if len(plugs) != omega.arity:
        raise ValueError("one plug entry per slot is required")
    kk = omega.k * omega.k
    t = omega.tensor
    for j in range(omega.arity - 1, -1, -1):
        g = plugs[j]
        if g is None:
            continue
        gt = g.tensor.reshape(g.tensor.shape[: g.arity] + (kk,))
        t = np.tensordot(t, gt, axes=([j], [g.arity]))
        # tensordot appended g's slot axes at the end; put them back at j
        nd = t.ndim
        t = np.moveaxis(t, range(nd - g.arity, nd), range(j, j + g.arity))
    return MultiMap(omega.k, t)


# -- reference oracle: nested evaluation over a non-crossing forest ----------

BlockValue = Callable[[Tuple[int, ...]], MultiMap]


def kappa_map(roots: Sequence[ncpart.NCNode], k: int, block_value: BlockValue) -> MultiMap:
    """Nested evaluation of one non-crossing forest.

    block_value(positions) supplies the map inserted for a block (its arity
    must be len(positions) - 1).  The result is a map whose slots are the
    interior coefficient positions of the forest's span, in increasing order.
    """
    return _eval_forest(tuple(roots), k, block_value)


def _eval_node(node: ncpart.NCNode, k: int, block_value: BlockValue) -> MultiMap:
    omega = block_value(node.block)
    if omega.arity != len(node.block) - 1:
        raise ValueError("block value has wrong arity")
    plugs: List[Optional[MultiMap]] = []
    for forest in node.gaps:
        if not forest:
            plugs.append(None)
        else:
            plugs.append(right_slot(left_slot(_eval_forest(forest, k, block_value))))
    return plug_all(omega, plugs)


def _eval_forest(roots: Tuple[ncpart.NCNode, ...], k: int, block_value: BlockValue) -> MultiMap:
    val = _eval_node(roots[0], k, block_value)
    for node in roots[1:]:
        val = join(right_slot(val), _eval_node(node, k, block_value))
    return val


def moment_map(n: int, k: int, block_value: BlockValue) -> MultiMap:
    """Sum of the nested evaluations over all non-crossing partitions of n."""
    total = MultiMap.zero(k, n - 1)
    for p in ncpart.enumerate_nc(n):
        total = total + kappa_map(p.roots, k, block_value)
    return total
