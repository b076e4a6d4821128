"""A chain is a leaf order and the split levels of its adjacent leaves.
Every block of every level is a run of the order, and the split and labels
views equal the n x n kernels they replaced (tests/oracles.py): the
merge-rank loop of single linkage, the per-level mask sums of
from_partitions and the point-by-point labels walk. Inputs are dendrogram
and ball chains of clouds and tie-heavy metrics, the five zoo kinds with
and without the singleton terminal, and chains after
select_embeddable_subchain and induced_chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab.errors import DepthOverflow, NotNested, PackingInfeasible
from metriclab.spaces import _leaf_matrix, _prim
from conftest import euclidean_space
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=40)

EXACT_KINDS = ("seq_factorial", "seq_power_tower", "seq_geometric", "cantor_factorial",
               "product_geometric")


def assert_leaf_order(chain):
    """Each level's blocks are runs of the order, cut where h <= level, and
    split and labels equal the moved kernels on the same matrix."""
    by_leaf = chain.labels[:, chain.order]
    for lvl, row in enumerate(by_leaf):
        cuts = row[1:] != row[:-1]
        assert cuts.sum() + 1 == chain.stats[lvl].cardinality  # one run per block
        assert np.array_equal(cuts, chain.h <= lvl)
    assert np.array_equal(chain.labels, oracles.split_labels(oracles.split(chain)))
    assert not chain.labels.flags.writeable
    assert not chain.order.flags.writeable and not chain.h.flags.writeable


def merge_rank_split(space):
    """dendrogram_chain's split through the merge-rank loop."""
    heights, top = oracles.merge_ranks(_prim(space.rank))
    return len(heights) - top


def ball_split(space):
    """ball_chain's split through the merge-rank loop."""
    if space.n == 1:
        return np.ones((1, 1), dtype=np.int32)
    spectrum = np.unique(space.rank[np.triu_indices(space.n, 1)])
    heights, top = oracles.merge_ranks(_prim(space.rank))
    return (len(spectrum) - np.searchsorted(spectrum, heights, side="left"))[top]


@st.composite
def spaces(draw):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        return euclidean_space(seed, draw(st.integers(2, 40)))
    return quantized_space(seed, draw(st.integers(3, 40)), draw(st.integers(1, 4)))


@CHECKS
@given(spaces())
def test_single_linkage_chains_equal_the_merge_rank_loop(space):
    chain = ml.dendrogram_chain(space)
    assert np.array_equal(oracles.split(chain), merge_rank_split(space))
    assert_leaf_order(chain)
    ultra = ml.subdominant_ultrametric(space)
    assert np.array_equal(ultra.rank, oracles.subdominant(_prim(space.rank)))
    balls = ml.ball_chain(ultra)
    assert np.array_equal(oracles.split(balls), ball_split(ultra))
    assert_leaf_order(balls)
    for on, built in ((space, chain), (ultra, balls)):
        grown = ml.with_singleton_terminal(on, built)
        assert_leaf_order(grown)
        assert np.array_equal(oracles.split(grown),
                              oracles.split(oracles.with_singleton_terminal(on, built)))


@pytest.mark.parametrize("kind, exact", [(kind, False) for kind in ml.KINDS]
                         + [(kind, True) for kind in EXACT_KINDS])
def test_zoo_chains_equal_their_level_masks(kind, exact):
    family = ml.make_family(kind)
    wide = kind in ("product_geometric", "cantor_factorial")
    # exact factorials and power towers grow too long past depth 8
    for depth in (1, 2, 3, 5) if wide else (1, 2, 5, 8) if exact else (1, 2, 5, 8, 40):
        try:
            space, chain = ml.sample(family, depth, exact=exact)
        except DepthOverflow:  # float values underflow at this depth
            continue
        levels = oracles.sample_levels(family, depth, space)[0]
        assert np.array_equal(oracles.split(chain), oracles.split_of_levels(levels))
        assert_leaf_order(chain)
        grown = ml.with_singleton_terminal(space, chain)
        if len(grown) > len(chain):
            levels = levels + [ml.Partition.singletons(space.n)]
        assert np.array_equal(oracles.split(grown), oracles.split_of_levels(levels))
        assert_leaf_order(grown)
        assert_transforms(space, grown, depth)


def assert_transforms(space, chain, seed):
    """select_embeddable_subchain at N = 3 and induced_chain on a random half
    equal their level oracles."""
    if not space.exact:
        try:
            thin = ml.select_embeddable_subchain(space, chain, 3)
        except (PackingInfeasible, ValueError):  # no fit, or no proper level
            thin = None
        if thin is not None:
            levels = oracles.select_embeddable_subchain(space, chain, 3)[0]
            assert np.array_equal(oracles.split(thin), oracles.split_of_levels(levels))
            assert_leaf_order(thin)
    keep = np.random.default_rng(seed).permutation(space.n)[:max(1, space.n // 2)]
    sub, induced = ml.induced_chain(space, chain, keep)
    levels = oracles.induced_levels(chain, keep)[0]
    assert np.array_equal(oracles.split(induced), oracles.split_of_levels(levels))
    assert_leaf_order(induced)


@CHECKS
@given(spaces(), st.integers(0, 2 ** 32 - 1))
def test_transforms_of_dendrograms_equal_their_level_oracles(space, seed):
    chain = ml.with_singleton_terminal(space, ml.dendrogram_chain(space))
    assert_transforms(space, chain, seed)


def random_levels(rng, n, count, nested):
    """count partitions of n points, coarse first: coarsenings of random
    labels, or, when not nested, one of them drawn afresh."""
    rows = [rng.integers(0, n, n)]
    for _ in range(count - 1):
        top = rows[-1].max() + 1
        rows.append(rng.integers(0, top // 2 + 1, top)[rows[-1]])
    if not nested:
        rows[rng.integers(len(rows))] = rng.integers(0, n, n)
    return [ml.Partition.from_assignment(row.tolist()) for row in reversed(rows)]


@CHECKS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 6), st.booleans())
def test_from_partitions_equals_the_mask_sums(seed, n, count, nested):
    rng = np.random.default_rng(seed)
    levels = random_levels(rng, n, count, nested)
    space = euclidean_space(seed, n) if n > 1 else ml.validate([[0.0]])
    try:
        old = oracles.from_partitions(space, levels)
    except NotNested as exc:
        with pytest.raises(NotNested) as new:
            ml.PartitionChain.from_partitions(space, levels)
        assert vars(new.value) == vars(exc)
        return
    chain = ml.PartitionChain.from_partitions(space, levels)
    assert chain == old
    assert np.array_equal(oracles.split(chain), oracles.split_of_levels(levels))
    assert_leaf_order(chain)


def test_leaf_matrix_reduces_runs_of_adjacent_values():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 17):
        order, h = rng.permutation(n), rng.integers(0, 9, n - 1).astype(np.int32)
        for ufunc, fill in ((np.minimum, 9), (np.maximum, 0)):
            m = _leaf_matrix(order, h, ufunc, fill)
            for p in range(n):
                for q in range(n):
                    lo, hi = min(p, q), max(p, q)
                    want = ufunc.reduce(h[lo:hi], initial=fill)
                    assert m[order[p], order[q]] == want and m.dtype == h.dtype
