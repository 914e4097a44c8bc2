"""Brute-force references for non-crossing partitions, used only by the tests."""

from math import comb


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
