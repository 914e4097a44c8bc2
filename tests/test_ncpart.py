import pytest

from ovfree.ncpart import enumerate_nc

from nc_oracle import catalan, is_noncrossing


def postorder(p):
    """(block, parent block or None, gap index in the parent or None) for
    every block of p, read from its roots and gaps; children come first."""
    steps = []

    def visit(node, parent, gap):
        for j, forest in enumerate(node.gaps):
            for child in forest:
                visit(child, node.block, j)
        steps.append((node.block, parent, gap))

    for root in p.roots:
        visit(root, None, None)
    return steps


def parent_table(p):
    return {block: (parent, gap) for block, parent, gap in postorder(p)}


def test_counts_match_catalan():
    for n in range(1, 11):
        assert len(enumerate_nc(n)) == catalan(n)


def test_small_counts():
    assert len(enumerate_nc(1)) == 1
    assert len(enumerate_nc(3)) == 5
    assert len(enumerate_nc(4)) == 14


def test_no_duplicates_and_noncrossing():
    for n in range(1, 8):
        parts = enumerate_nc(n)
        seen = {p.blocks() for p in parts}
        assert len(seen) == len(parts)
        for p in parts:
            assert is_noncrossing(p.blocks(), n)


def test_canonical_order():
    for n in range(2, 7):
        keys = [p.blocks() for p in enumerate_nc(n)]
        assert keys == sorted(keys)


def test_n3_content():
    expected = {
        ((0,), (1,), (2,)),
        ((0, 1), (2,)),
        ((0,), (1, 2)),
        ((0, 2), (1,)),
        ((0, 1, 2),),
    }
    assert {p.blocks() for p in enumerate_nc(3)} == expected


def test_nesting_singletons():
    p = next(q for q in enumerate_nc(3) if q.blocks() == ((0,), (1,), (2,)))
    assert len(p.roots) == 3
    table = parent_table(p)
    assert all(parent is None for parent, _ in table.values())


def test_nesting_interval_containment():
    p = next(q for q in enumerate_nc(4) if q.blocks() == ((0, 3), (1, 2)))
    table = parent_table(p)
    assert table[(1, 2)] == ((0, 3), 0)
    assert table[(0, 3)] == (None, None)


def test_nesting_full_block():
    p = next(q for q in enumerate_nc(5) if len(q.blocks()) == 1)
    assert len(p.roots) == 1
    assert p.roots[0].block == (0, 1, 2, 3, 4)
    assert all(forest == () for forest in p.roots[0].gaps)


def test_forest_postorder_properties():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            plan = postorder(p)
            blocks = [block for block, _, _ in plan]
            assert sorted(blocks) == sorted(p.blocks())
            position = {block: i for i, block in enumerate(blocks)}
            for block, parent, gap in plan:
                if parent is not None:
                    # children evaluate before their parent
                    assert position[block] < position[parent]
                    assert 0 <= gap < len(parent) - 1
                    lo, hi = parent[gap], parent[gap + 1]
                    assert lo < block[0] and block[-1] < hi


def test_ground_set_guard():
    with pytest.raises(ValueError):
        enumerate_nc(0)
    with pytest.raises(ValueError):
        enumerate_nc(13)
