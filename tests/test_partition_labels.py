"""Partitions as canonical label rows: Partition, induced_partition, the
chain's levels and its report, each compared with the tuple-of-blocks code
it replaced (tests/oracles.py: BlockPartition, induced_partition,
chain_levels, chain_report) on random assignments, block lists valid and
not, and dendrogram, ball, zoo, singleton-terminal and induced chains."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab._util import dumps
from test_split_first import CHECKS, chains


def assert_same(new, old):
    """new is the Partition old was: blocks, labels, sizes, hash and repr."""
    assert isinstance(new, ml.Partition)
    assert new.blocks == old.blocks
    assert all(type(i) is int for b in new.blocks for i in b)
    assert np.array_equal(new.block_of, old.block_of) and not new.block_of.flags.writeable
    assert (new.n_points, new.cardinality) == (old.n_points, old.cardinality)
    assert hash(new) == hash(old)
    assert repr(new) == f"Partition({list(map(list, old.blocks))})"


@st.composite
def block_lists(draw):
    """(blocks, n_points): the blocks of a random assignment of range(n), in
    any order, members in any order, empty blocks among them, and now and
    then a member dropped, or one repeated, out of range or negative added
    or put in place of a member."""
    n = draw(st.integers(0, 12))
    assign = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    blocks = [draw(st.permutations([i for i, a in enumerate(assign) if a == b]))
              for b in draw(st.permutations(range(6)))]
    fault = draw(st.sampled_from((None, None, "drop", "repeat", "outside", "negative")))
    full = [b for b in blocks if b]
    if fault == "drop" and full:
        full[0].pop()
    elif fault in ("outside", "negative") or fault == "repeat" and full:
        if fault == "repeat":
            bad = draw(st.sampled_from(sum(full, [])))
        else:
            bad = n + draw(st.integers(0, 2)) if fault == "outside" else -1
        if full and draw(st.booleans()):
            full[0][0] = bad
        else:
            draw(st.sampled_from(blocks)).append(bad)
    return [tuple(b) if draw(st.booleans()) else b for b in blocks], n


@CHECKS
@given(block_lists())
def test_partition_of_blocks_equals_block_partition(case):
    blocks, n = case
    try:
        old = oracles.BlockPartition(blocks, n)
    except ValueError:
        with pytest.raises(ValueError, match="disjoint, nonempty, and cover"):
            ml.Partition(blocks, n)
        return
    assert_same(ml.Partition(blocks, n), old)


@CHECKS
@given(st.data())
def test_assignments_equal_block_partition(data):
    n = data.draw(st.integers(0, 12))
    ids = st.integers(-3, 6)
    assign = data.draw(st.lists(ids, min_size=n, max_size=n))
    part = ml.Partition.from_assignment(assign)
    old = oracles.BlockPartition.from_assignment(assign)
    assert_same(part, old)
    assert ml.Partition.from_assignment(np.array(assign, dtype=np.int64)) == part
    assert ml.Partition(part.blocks, n) == part
    # others[0] merges blocks of assign, so part refines it; a second random
    # assignment, of the same length or any other, may or may not nest
    merge = data.draw(st.lists(ids, min_size=10, max_size=10))
    others = [[merge[a + 3] for a in assign],
              data.draw(st.lists(ids, min_size=n, max_size=n)),
              data.draw(st.lists(ids, max_size=12))]
    for other in others:
        coarse = ml.Partition.from_assignment(other)
        coarse_old = oracles.BlockPartition.from_assignment(other)
        assert part.refines(coarse) == old.refines(coarse_old)
        assert coarse.refines(part) == coarse_old.refines(old)
        assert (part == coarse) == (old == coarse_old)
    assert part.refines(ml.Partition.from_assignment(others[0]))
    assert part != old and part != assign
    inside = st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([])
    indices = data.draw(inside | st.lists(st.integers(-2, n + 1), max_size=3))
    try:
        traced = oracles.induced_partition(old, indices)
    except ValueError:
        with pytest.raises(ValueError, match="indices must lie in"):
            ml.induced_partition(part, indices)
        return
    assert_same(ml.induced_partition(part, indices), traced)


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_trivial_and_singletons_equal_block_partition(n):
    assert_same(ml.Partition.trivial(n), oracles.BlockPartition.trivial(n))
    assert_same(ml.Partition.singletons(n), oracles.BlockPartition.singletons(n))


@CHECKS
@given(chains(), st.data())
def test_levels_and_report_equal_block_oracles(case, data):
    space, chain = case
    full = ml.with_singleton_terminal(space, chain)
    keep = data.draw(st.lists(st.integers(0, space.n - 1), min_size=1, unique=True))
    for ch in (chain, full, ml.induced_chain(space, full, keep)[1]):
        for new, old in zip(ch.levels, oracles.chain_levels(ch), strict=True):
            assert_same(new, old)
        assert dumps(ch.to_report()) == dumps(oracles.chain_report(ch))

