"""Brute-force references used only by the tests: non-crossing partitions,
and the moment <-> cumulant transform as it was before its kernel was
rewritten, one einsum per term over interleaved labels."""

from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Dict, List, Tuple

import numpy as np

from ovfree.algebra import check_array_size
from ovfree.ovdist import MAX_TRANSFORM_ORDER


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def is_noncrossing(blocks, n: int) -> bool:
    """Brute-force validity check: partition of range(n) with no crossing."""
    seen = sorted(x for b in blocks for x in b)
    if seen != list(range(n)):
        return False
    owner = {}
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                for d in range(c + 1, n):
                    if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
                        return False
    return True


# -- the per-term transform kernel ------------------------------------------------
#
# ovfree.ovdist._interval_dp must equal this entry for entry: it runs the same
# complex operations on every entry, in the same order (tests/test_transform.py).
# The label scheme: an arity-n tensor is viewed with every slot split into its
# matrix-unit (row, col) pair, shape (k,) * (2n + 2); label 2t / 2t + 1 is the
# row / column of slot t of the result and 2L - 2, 2L - 1 its output.

Word = Tuple[int, ...]
Labels = Tuple[int, ...]


def _slot_labels(lo: int, hi: int) -> Labels:
    return tuple(lab for t in range(lo, hi) for lab in (2 * t, 2 * t + 1))


@lru_cache(maxsize=None)
def _node_plan(L: int) -> Tuple[Tuple[Word, Labels, Tuple[Tuple[int, int, Labels], ...]], ...]:
    """(V, labels of kappa_V, (start, stop, labels) per non-empty gap) for
    every block V of positions of a length-L word holding both ends; the
    one-block term comes first."""
    if L == 1:
        return (((0,), (0, 1), ()),)
    plan = []
    for size in range(L - 2, -1, -1):
        for inner in combinations(range(1, L - 1), size):
            V = (0,) + inner + (L - 1,)
            kappa_labels: Labels = ()
            gaps = []
            for u, v in zip(V, V[1:]):
                kappa_labels += (2 * u, 2 * v - 1)
                if v > u + 1:
                    gaps.append((u + 1, v, _slot_labels(u + 1, v - 1) + (2 * u + 1, 2 * v - 2)))
            plan.append((V, kappa_labels + (2 * L - 2, 2 * L - 1), tuple(gaps)))
    return tuple(plan)


def _interval_dp(
    k: int, s: int, order: int, known: Dict[Word, np.ndarray], inverse: bool
) -> Dict[Word, np.ndarray]:
    """Moment <-> cumulant transform of an s-variable distribution over M_k.

    Forward: known maps index words to cumulant tensors, a missing word
    meaning the zero map, and the moment tensor of every word of length
    <= order is returned.  Inverse: known holds every moment tensor and the
    cumulants are returned; kappa_w enters M_w only as the one-block term, so
    it is M_w minus every other term of the recursion.  Above the inputs and
    outputs, memory holds one einsum temporary and Node(w) of the words
    shorter than order, which later joins need.
    """
    if order > MAX_TRANSFORM_ORDER:
        raise ValueError(f"transform order {order} exceeds the supported {MAX_TRANSFORM_ORDER}")
    expanded = {w: np.asarray(t).reshape((k,) * (2 * len(w))) for w, t in known.items()}
    cums, moms = ({}, expanded) if inverse else (expanded, {})
    add = np.subtract if inverse else np.add
    nodes: Dict[Word, np.ndarray] = {}
    out: Dict[Word, np.ndarray] = {}
    for L in range(1, order + 1):
        check_array_size(k ** (2 * L), f"a map of arity {L - 1} over M_{k}")
        shape = (k,) * (2 * L)
        labels = tuple(range(2 * L))
        keep = L < order
        node_plan = _node_plan(L)[1:] if inverse else _node_plan(L)
        # Node(w[:e]) e_xy M_{w[e:]} has output entries Node[.., i, x] M[.., y, j]
        join_plan = [
            (e, _slot_labels(0, e - 1) + (2 * L - 2, 2 * e - 2), _slot_labels(e, L - 1) + (2 * e - 1, 2 * L - 1))
            for e in range(1, L)
        ]
        for w in product(range(s), repeat=L):
            acc = moms[w].copy() if inverse else np.zeros(shape, dtype=complex)
            for e, head_labels, tail_labels in join_plan:
                add(acc, np.einsum(nodes[w[:e]], head_labels, moms[w[e:]], tail_labels, labels), out=acc)
            if inverse and keep:
                nodes[w] = acc.copy()  # M_w minus the joins
            node = np.zeros(shape, dtype=complex) if keep and not inverse else acc
            for V, kappa_labels, gaps in node_plan:
                kappa = cums.get(tuple(w[p] for p in V))
                if kappa is None:
                    continue
                operands: List[object] = [kappa, kappa_labels]
                for start, stop, gap_labels in gaps:
                    operands += [moms[w[start:stop]], gap_labels]
                add(node, np.einsum(*operands, labels), out=node)
            if keep and not inverse:
                nodes[w] = node
                acc += node
            (cums if inverse else moms)[w] = acc
            out[w] = acc.reshape((k * k,) * (L - 1) + (k, k))
    return out
