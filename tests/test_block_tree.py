"""The block tree of partitions._block_tree against the suffix kernel it
replaced (oracles.block_extents_suffix, laid out level by level by
oracles.by_level) and Property 6 against the chunk walk over that kernel
(oracles.property6_by_chunks), bit for bit, in pair blocks of 1, 7 and 97
entries and of the default budget. Chains are dendrograms of clouds and
tie-heavy metrics, float and exact zoo chains, ball chains, random nested
chains from from_partitions, each as is, with its singleton terminal,
thinned or traced on a subset, and with its first level dropped, so that
level 0 already splits (an h of 0). The extremes a chain groups from the
cuts of its one pair pass equal those of the runs grouped by level
(oracles.split_extremes), at the same budgets. Then the tree itself: its
live nodes are the distinct blocks, each alive exactly on the levels that
have it, with its subtree in one post-order range; and nodes with no level
at all (dies <= born), a root over an h of 0 and a leaf between two h that
never split. Last, the memory of a 2,000-point dendrogram and its profile."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import spaces
from metriclab.partitions import _block_tree, _level_extremes, _tree_nodes
from metriclab.ultrametrize import ensure_trivial_head
from conftest import euclidean_space
from test_block_extents import chains as block_chains
from test_block_suffix import same_array
from test_pair_runs import chains as run_chains

CHECKS = settings(settings.get_profile("deterministic"), max_examples=60)
BUDGETS = st.sampled_from((1, 7, 97, spaces._BLOCK_ENTRIES))


@st.composite
def chains(draw):
    """(space, chain) of test_pair_runs or test_block_extents, or the same
    chain rebuilt by from_partitions without its first level."""
    space, chain = draw(st.one_of(run_chains(), block_chains()))
    if draw(st.booleans()):
        assume(len(chain) > 1)
        chain = ml.PartitionChain.from_partitions(space, chain.levels[1:], chain.thresholds[1:],
                                                  chain.level_ids[1:])
    return space, chain


@CHECKS
@given(chains(), BUDGETS)
def test_block_tree_equals_the_suffix_kernel(case, budget):
    space, chain = case
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        for ch in (chain, ml.with_singleton_terminal(space, chain)):
            new = oracles.by_level(ch, _block_tree(space, ch))
            for new_levels, old_levels in zip(new, oracles.block_extents_suffix(space, ch),
                                              strict=True):
                for a, b in zip(new_levels, old_levels, strict=True):
                    same_array(a, b)
            assert ml.profile(ch, space=space).property6 == oracles.property6_by_chunks(ch, space)


@CHECKS
@given(chains(), BUDGETS)
def test_extremes_from_the_cuts_equal_the_level_runs(case, budget):
    """A chain's split extremes, its cuts grouped by h, equal those grouped
    from the runs by level (oracles.split_extremes), bit for bit: as built, as
    rebuilt from its leaves at this budget, and with its singleton terminal
    and its trivial head, which keep the cuts. A chain made by hand keeps
    none, and its block tree reads its pairs for the same nodes."""
    space, chain = case
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        rebuilt = ml.PartitionChain._of_leaves(space, chain.order, chain.h, len(chain))
        for ch in (chain, rebuilt, ml.with_singleton_terminal(space, chain),
                   ensure_trivial_head(space, chain)):
            assert ch.cuts is not None
            for new, old in zip(_level_extremes(space, ch.order, ch.h, len(ch), ch.cuts),
                                oracles.split_extremes(space, ch.order, ch.h, len(ch)),
                                strict=True):
                same_array(new, old)
        bare = ml.PartitionChain(chain.order, chain.h, *chain.columns, chain.thresholds,
                                 chain.level_ids)
        for new, old in zip(_block_tree(space, bare), _block_tree(space, chain), strict=True):
            same_array(new, old)


def runs(chain, level):
    """The blocks of a level as runs (start, end) of the leaf order."""
    cuts = np.flatnonzero(np.asarray(chain.h) <= level) + 1
    bounds = [0, *cuts.tolist(), len(chain.order)]
    return set(zip(bounds, bounds[1:]))


def assert_tree(chain):
    """The live nodes are the distinct blocks, each alive exactly on the
    levels that have it; node i's subtree, first[i]..i, holds the nodes
    inside its run; a node with no level has dies <= born."""
    start, end, born, dies, first = _tree_nodes(chain.h, len(chain))
    levels = [runs(chain, level) for level in range(len(chain))]
    for i, (s, e, b, d, f) in enumerate(zip(start.tolist(), end.tolist(), born.tolist(),
                                            dies.tolist(), first.tolist())):
        having = [level for level, blocks in enumerate(levels) if (s, e) in blocks]
        assert having == list(range(b, d))  # empty exactly when dies <= born
        inside = np.flatnonzero((start >= s) & (end <= e)).tolist()
        assert inside == list(range(f, i + 1))
    alive = {(s, e) for s, e, b, d in zip(start.tolist(), end.tolist(), born.tolist(),
                                          dies.tolist()) if b < d}
    assert alive == set().union(*levels)
    assert len(start) == len(set(zip(start.tolist(), end.tolist()))) <= 2 * len(chain.order) - 1
    return born >= dies


@CHECKS
@given(chains())
def test_the_live_nodes_are_the_distinct_blocks(case):
    space, chain = case
    for ch in (chain, ml.with_singleton_terminal(space, chain)):
        event(f"h holds 0: {0 in ch.h.tolist()}, a node holds no level: {assert_tree(ch).any()}")


def test_zero_heights_and_lifeless_nodes():
    """Level 0 splits {0..5} in two and the last level keeps {3, 4, 5}
    whole: the root and the leaf 4 hold no level, yet every level's blocks
    and Property 6 equal the oracles at every budget."""
    space = euclidean_space(0, 6)
    levels = [ml.Partition([[0, 1, 2], [3, 4, 5]], 6), ml.Partition([[0, 1], [2], [3, 4, 5]], 6)]
    chain = ml.PartitionChain.from_partitions(space, levels)
    assert 0 in chain.h.tolist()
    lifeless = assert_tree(chain)
    start, end, *_ = _tree_nodes(chain.h, len(chain))
    dead = set(zip(start[lifeless].tolist(), end[lifeless].tolist()))
    middle = chain.order.tolist().index(4)
    assert (0, 6) in dead and (middle, middle + 1) in dead
    for budget in (1, 7, 97, spaces._BLOCK_ENTRIES):
        with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
            new = oracles.by_level(chain, _block_tree(space, chain))
            for new_levels, old_levels in zip(new, oracles.block_extents_by_level(space, chain)):
                for a, b in zip(new_levels, old_levels, strict=True):
                    same_array(a, b)
            assert ml.profile(chain, space=space).property6 == oracles.property6(chain, space)


def test_one_point_has_one_node():
    space = ml.validate([[0.0]])
    chain = ml.dendrogram_chain(space)
    start, end, born, dies, diameters, gaps, connected = _block_tree(space, chain)
    assert (start.tolist(), end.tolist(), born.tolist(), dies.tolist()) == ([0], [1], [0], [1])
    assert diameters.tolist() == gaps.tolist() == [0.0] and connected.tolist() == [True]


def test_a_block_just_below_delta_is_widest():
    """Level 1 holds {0, 1} at delta = 0.5 and {2, 3, 4}, 5e-11 narrower,
    within tolerance: its largest gap, 0.25, sets the constant, 0.25 over
    the next gamma 0.25, where {0, 1} alone would give 2."""
    m = np.full((5, 5), 0.9)
    np.fill_diagonal(m, 0.0)
    m[0, 1] = m[1, 0] = 0.5
    m[2, 3] = m[3, 2] = m[3, 4] = m[4, 3] = 0.25
    m[2, 4] = m[4, 2] = 0.5 * (1 - 1e-10)
    space = ml.validate(m)
    levels = [ml.Partition.trivial(5), ml.Partition([[0, 1], [2, 3, 4]], 5),
              ml.Partition([[0], [1], [2, 3], [4]], 5)]
    chain = ml.PartitionChain.from_partitions(space, levels)
    report = ml.profile(chain, space=space).property6
    assert report == oracles.property6(chain, space) == {"delta_strictly_decreasing": True,
                                                          "gap_constant": 1.0}


def test_a_2000_point_dendrogram_and_its_profile_peak_below_a_fifth_of_the_matrix():
    """No (level, point) array: 0.15x the matrix (1.70x with the suffix
    kernel)."""
    pts = np.random.default_rng(0).random((2000, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d /= d.max()
    np.fill_diagonal(d, 0.0)
    space = ml.FiniteMetricSpace([f"p{i}" for i in range(2000)], d, _trusted=True)
    tracemalloc.start()
    try:
        report = ml.profile(ml.dendrogram_chain(space), space=space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.property6["gap_constant"] is not None and peak <= 0.2 * d.nbytes
