"""The pair stream partitions._pair_runs against the split-matrix kernel it
replaced (oracles.level_ranks): the per-level ranks, stats and rho of
every chain, read in blocks of one leaf row, of a prime number of entries
and of the default budget; and what a built chain holds in memory. Inputs
are clouds, tie-heavy metrics, float and exact zoo chains, with and
without the singleton terminal, and chains after select_embeddable_subchain
and induced_chain."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import partitions, spaces, zoo
from metriclab.errors import DepthOverflow, MetricLabError
from conftest import euclidean_space
from test_metamorphic import outcome
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=60)

CHUNKS = (1, 7, spaces._BLOCK_ENTRIES)

EXACT_KINDS = (("seq_factorial", {}, 8), ("seq_power_tower", {"s": 0.5}, 10),
               ("seq_geometric", {}, 40), ("cantor_factorial", {}, 5),
               ("product_geometric", {}, 5))


@st.composite
def chains(draw):
    """(space, chain): the dendrogram of a cloud or a tie-heavy metric, or a
    float or exact zoo chain; then as is, with its singleton terminal,
    thinned by select_embeddable_subchain at N = 3, or traced on a random
    subset."""
    source = draw(st.sampled_from(("cloud", "ties", "zoo", "exact_zoo")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if source == "cloud":
        space = euclidean_space(seed, draw(st.integers(2, 60)))
        chain = ml.dendrogram_chain(space)
    elif source == "ties":
        space = quantized_space(seed, draw(st.integers(3, 60)), draw(st.integers(1, 4)))
        chain = ml.dendrogram_chain(space)
    elif source == "exact_zoo":
        kind, params, top = draw(st.sampled_from(EXACT_KINDS))
        space, chain = ml.sample(ml.make_family(kind, **params), draw(st.integers(1, top)),
                                 exact=True)
    else:
        kind = draw(st.sampled_from(ml.KINDS))
        top = 5 if kind in ("product_geometric", "cantor_factorial") else 60
        try:
            space, chain = ml.sample(ml.make_family(kind), draw(st.integers(1, top)))
        except DepthOverflow:  # float values underflow at this depth
            assume(False)
    how = draw(st.sampled_from(("as_is", "terminal", "subchain", "induced")))
    if how == "terminal":
        chain = ml.with_singleton_terminal(space, chain)
    elif how == "subchain":
        try:
            chain = ml.select_embeddable_subchain(space, chain, 3)
        except (MetricLabError, ValueError):  # no fit, or no proper level
            assume(False)
    elif how == "induced":
        keep = draw(st.lists(st.integers(0, space.n - 1), min_size=1, unique=True))
        space, chain = ml.induced_chain(space, chain, keep)
    return space, chain


@CHECKS
@given(chains(), st.sampled_from(CHUNKS))
def test_stats_and_rho_equal_the_split_matrix_kernel(case, chunk):
    space, chain = case
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", chunk):
        ranks = partitions._level_ranks(space, chain.order, chain.h, len(chain))
        rebuilt = ml.PartitionChain._of_leaves(space, chain.order, chain.h, len(chain),
                                               chain.thresholds, chain.level_ids)
        rho = outcome(ml.ultrametric_from_chain, space, chain)
    for new, old in zip(ranks, oracles.level_ranks(space, oracles.split(chain))):
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
    old_stats = oracles.chain_stats(space, oracles.split(chain))
    assert rebuilt.stats == old_stats == chain.stats
    for a, b in zip(rebuilt.stats, old_stats):
        assert (type(a.delta), type(a.gamma)) == (type(b.delta), type(b.gamma))
    old_rho = outcome(oracles.ultrametric_from_chain, space, chain)
    if isinstance(old_rho, type):
        assert rho is old_rho
    elif space.exact:
        assert rho.shape == old_rho.shape and (rho == old_rho).all()
    else:
        assert rho.tobytes() == old_rho.astype(float).tobytes()


@CHECKS
@given(chains(), st.sampled_from(CHUNKS))
def test_runs_group_each_leaf_row_of_the_split_matrix(case, chunk):
    """Each run is one (row, level) group of the pairs (order[p], order[q]),
    q > p, of the split matrix, with that group's largest and least rank;
    its cut is the first least h between leaves p and q, where h is the
    pair's split level. Together the runs cover every pair once."""
    space, chain = case
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", chunk):
        blocks = list(partitions._pair_runs(space, chain.order, chain.h, len(chain)))
    groups, split, h = {}, oracles.split(chain), chain.h.tolist()
    for p, q in zip(*np.triu_indices(space.n, 1)):
        i, j = chain.order[p], chain.order[q]
        cut = p + int(np.argmin(h[p:q]))
        assert h[cut] == split[i, j]
        groups.setdefault((p, cut), []).append(space.rank[i, j])
    runs = [run for at, high, low in blocks
            for run in zip(at.tolist(), high.tolist(), low.tolist())]
    assert sorted(runs) == sorted((cut, max(r), min(r)) for (_, cut), r in groups.items())


def held(build):
    """build()'s result, and the bytes still allocated once it returns."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_built_chains_hold_no_pair_matrix():
    """A dendrogram chain at n = 400, and a zoo chain with its singleton
    terminal, hold under a quarter of the matrix once built."""
    space = euclidean_space(0, 400)
    chain, size = held(lambda: ml.dendrogram_chain(space))
    assert len(chain) > 300 and size < 0.25 * space.n ** 2 * 8
    family = ml.make_family("seq_polynomial", s=2)
    space, _ = ml.sample(family, 399, chain=False)

    def grown():
        chain = zoo._sequence_chain(space, family, 399)
        return chain, ml.with_singleton_terminal(space, chain)

    (chain, terminal), size = held(grown)
    assert space.n == 400 and len(terminal) == len(chain) + 1
    assert size < 0.25 * space.n ** 2 * 8
