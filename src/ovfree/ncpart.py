"""Non-crossing partitions of {0, ..., n-1} with explicit nesting structure.

Enumeration recurses on the block of the smallest element: that block splits
the remaining positions into independent gap intervals (nested inside the
block) and a tail interval (a sibling forest to its right), so the nesting
forest needed for nested cumulant evaluation falls out of the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

MAX_GROUND_SET = 12  # Catalan(12) = 208012; bounds only the reference oracle, not the transform order


@dataclass(frozen=True)
class NCNode:
    """One block together with the sub-forest nested in each internal gap.

    gaps[j] is the (possibly empty) tuple of root nodes living strictly
    between block[j] and block[j+1]; len(gaps) == len(block) - 1.
    """

    block: Tuple[int, ...]
    gaps: Tuple[Tuple["NCNode", ...], ...]


@dataclass(frozen=True)
class NCPartition:
    n: int
    roots: Tuple[NCNode, ...]

    def blocks(self) -> Tuple[Tuple[int, ...], ...]:
        """All blocks, ordered by their smallest element."""
        out = []

        def visit(node: NCNode) -> None:
            out.append(node.block)
            for forest in node.gaps:
                for child in forest:
                    visit(child)

        for root in self.roots:
            visit(root)
        out.sort(key=lambda b: b[0])
        return tuple(out)


@lru_cache(maxsize=None)
def _nodes(lo: int, end: int) -> Tuple[NCNode, ...]:
    # All nodes whose block contains lo and whose span is exactly [lo, end).
    if end == lo + 1:
        return (NCNode(block=(lo,), gaps=()),)
    out = []
    for v1 in range(lo + 1, end):
        for gap_forest in _forests(lo + 1, v1):
            for cont in _nodes(v1, end):
                out.append(NCNode(block=(lo,) + cont.block, gaps=(gap_forest,) + cont.gaps))
    return tuple(out)


@lru_cache(maxsize=None)
def _forests(lo: int, hi: int) -> Tuple[Tuple[NCNode, ...], ...]:
    # All non-crossing forests on the interval [lo, hi).
    if lo == hi:
        return ((),)
    out = []
    for end in range(lo + 1, hi + 1):
        for node in _nodes(lo, end):
            for rest in _forests(end, hi):
                out.append((node,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_nc(n: int) -> Tuple[NCPartition, ...]:
    """All non-crossing partitions of {0, ..., n-1}, Catalan(n) of them.

    Output is in canonical order (lexicographic by the sorted block lists)
    for reproducible fixtures.
    """
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground set size must be in [1, {MAX_GROUND_SET}], got {n}")
    parts = [NCPartition(n, roots) for roots in _forests(0, n)]
    parts.sort(key=lambda p: p.blocks())
    return tuple(parts)
