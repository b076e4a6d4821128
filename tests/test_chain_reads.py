"""Each statistic reads a chain's (order, h) once: Property 6 over the
block tree (partitions._block_tree) against the chunk walk over the suffix
kernel before it (oracles.property6_by_chunks), with no labels table left
on the chain;
rho's ranks taken from the stats against those of the split matrix
(oracles.level_ranks), with no second pair stream; and partition_stats as
a one-level chain against the label-array kernel _label_stats; and the
threshold minimum's witness cut as one label row against the level of the
labels table (oracles.threshold_minimum), with no table left on the chain."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import cli, logratio, partitions, spaces
from metriclab.partitions import _label_stats
from oracles import partition_log_ratio
from metriclab.spaces import _gather
from metriclab.ultrametrize import ensure_trivial_head
from conftest import euclidean_space
from test_block_extents import CHECKS, EXACT_FAMILIES, chains, count_largest_gap, nested_chain
from test_ties import quantized_space

CHUNKS = (1, 7, spaces._BLOCK_ENTRIES)


def with_terminals(space, chain):
    return (chain, ml.with_singleton_terminal(space, chain))


@CHECKS
@given(chains(), st.sampled_from(CHUNKS))
def test_property6_equals_the_chunk_walk(case, chunk):
    space, chain = case
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", chunk):
        for ch in with_terminals(space, chain):
            assert (ml.profile(ch, space=space).property6
                    == oracles.property6_by_chunks(ch, space))


def test_property6_equals_the_chunk_walk_on_the_fallback(monkeypatch):
    """Nested chains that are not single-linkage, so largest_gap runs on
    blocks the spanning tree does not connect, at every chunk size."""
    calls = count_largest_gap(monkeypatch)
    for seed, n, coarsenings in ((0, 20, 3), (1, 30, 4), (2, 12, 2), (3, 40, 5)):
        space = euclidean_space(seed, n)
        chain = nested_chain(space, seed, coarsenings)
        for chunk in CHUNKS:
            with mock.patch.object(spaces, "_BLOCK_ENTRIES", chunk):
                for ch in with_terminals(space, chain):
                    new = ml.profile(ch, space=space).property6
                    assert new == oracles.property6_by_chunks(ch, space)
                    assert new == oracles.property6(ch, space)
    assert calls[0] > 0


def test_profile_leaves_no_labels_table_on_the_chain():
    space = euclidean_space(7, 400)
    n = space.n
    tracemalloc.start()
    chain = ml.dendrogram_chain(space)
    report = ml.profile(chain, space=space)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert report.property6["gap_constant"] is not None
    assert "labels" not in vars(chain)
    assert held < 0.5 * n * n * 8


def rho_cases():
    """(space, chain) pairs that separate points: dendrograms (trivial head
    included), the same without their trivial head, and float and exact
    zoo chains with the singleton terminal, with and without their head."""
    out = []
    for space in (euclidean_space(5, 40), quantized_space(6, 12, 3)):
        chain = ml.dendrogram_chain(space)
        out += [(space, chain),
                (space, ml.PartitionChain.from_partitions(space, chain.levels[1:]))]
    families = [(kind, {}, False) for kind in ("seq_geometric", "seq_polynomial",
                                                "cantor_factorial", "sqrt_ultra")]
    families += [(kind, params, True) for kind, params in EXACT_FAMILIES]
    for kind, params, exact in families:
        space, chain = ml.sample(ml.make_family(kind, **params), 4, exact=exact)
        full = ml.with_singleton_terminal(space, chain)
        out += [(space, full), (space, ml.PartitionChain.from_partitions(
            space, full.levels[1:], full.thresholds[1:], full.level_ids[1:]))]
    return out


def test_rho_takes_its_ranks_from_the_stats(monkeypatch):
    cases = rho_cases()
    heads = [oracles.ensure_trivial_head(space, chain) for space, chain in cases]
    expected = []
    for (space, _), (levels, thresholds, ids) in zip(cases, heads):
        head = ml.PartitionChain.from_partitions(space, levels, thresholds, ids)
        split = oracles.split(head)
        expected.append(oracles.level_ranks(space, split)[0][split - 1])
    calls = []
    stream = partitions._pair_runs
    monkeypatch.setattr(partitions, "_pair_runs", lambda *a: calls.append(1) or stream(*a))
    added = 0
    for (space, chain), rank in zip(cases, expected):
        rho = ml.ultrametric_space_from_chain(space, chain)
        assert rho.rank.dtype == rank.dtype and rho.rank.tobytes() == rank.tobytes()
        old = _gather(space.values, rank)
        if space.exact:
            assert all(type(a) is Fraction and a == b
                       for a, b in zip(rho.dist.ravel().tolist(), old.ravel().tolist()))
        else:
            assert rho.dist.tobytes() == old.tobytes()
        head = ensure_trivial_head(space, chain)
        added += len(head) > len(chain)
        assert not head.h.flags.writeable
        assert np.array_equal(ml.certificate(space, chain, 2.0, 0.5).rho, rho.dist)
    assert calls == [] and added == len(cases) // 2


@st.composite
def partitioned(draw):
    """(space, partition): a cloud of up to 300 points, a tie-heavy metric or
    an exact zoo sample, cut into random blocks, one block or singletons."""
    source = draw(st.sampled_from(("cloud", "ties", "exact")))
    seed = draw(st.integers(0, 2 ** 16))
    if source == "cloud":
        space = euclidean_space(seed, draw(st.sampled_from((2, 3, 17, 120, 300))))
    elif source == "ties":
        space = quantized_space(seed, draw(st.integers(2, 12)), draw(st.integers(1, 4)))
    else:
        kind, params = draw(st.sampled_from(EXACT_FAMILIES))
        depth = draw(st.integers(1, 6 if kind.startswith("seq") else 4))
        space, _ = ml.sample(ml.make_family(kind, **params), depth, exact=True, chain=False)
    how = draw(st.sampled_from(("random", "one", "singletons")))
    if how == "one":
        return space, ml.Partition.trivial(space.n)
    if how == "singletons":
        return space, ml.Partition.singletons(space.n)
    blocks = draw(st.integers(1, space.n))
    labels = np.random.default_rng(seed).integers(0, blocks, space.n)
    return space, ml.Partition.from_assignment(labels)


@settings(CHECKS, max_examples=60)
@given(partitioned())
@example((euclidean_space(9, 300), ml.Partition.trivial(300)))
@example((euclidean_space(9, 300), ml.Partition.singletons(300)))
@example((euclidean_space(9, 300), ml.Partition.from_assignment(np.arange(300) % 11)))
def test_partition_stats_equal_the_label_kernel(case):
    space, partition = case
    new = ml.partition_stats(space, partition)
    (delta,), (gamma,) = _label_stats(space, partition.block_of[None])
    assert (type(new.delta), type(new.gamma)) == (type(delta), type(gamma))
    assert (new.delta, new.gamma) == (delta, gamma)
    assert new.log_ratio == partition_log_ratio(delta, gamma)
    assert new.cardinality == partition.cardinality


def test_partition_stats_sort_no_pairs(monkeypatch):
    space = euclidean_space(8, 60)
    monkeypatch.setattr(partitions, "_label_stats", None)  # any call would raise
    for partition in (ml.Partition.trivial(60), ml.Partition.singletons(60),
                      ml.Partition.from_assignment(np.arange(60) % 7)):
        assert ml.partition_stats(space, partition).cardinality == partition.cardinality


def witness_chains():
    """Dendrograms of clouds and tie-heavy metrics, and exact zoo chains,
    each with and without the singleton terminal."""
    out = [(sp, ml.dendrogram_chain(sp)) for sp in
           [euclidean_space(seed, 5 + 7 * seed) for seed in range(3)]
           + [quantized_space(seed, 4 + seed, 1 + seed % 3) for seed in range(4)]]
    out += [ml.sample(ml.make_family(kind, **params), 4, exact=True)
            for kind, params in EXACT_FAMILIES]
    return out + [(sp, ml.with_singleton_terminal(sp, ch)) for sp, ch in out]


def test_threshold_minimum_cuts_the_witness_row_alone():
    """The witness of every level a radius can pick, from its one label row,
    equals the level read off the chain's labels table."""
    for space, chain in witness_chains():
        radii = {st.delta for st in chain.stats} | {st.gamma for st in chain.stats} | {1.1}
        cases = [(r, positive) for r in sorted(radii) for positive in (False, True)]
        # a copy with no cached table: a sampled chain may hold one already
        fresh = ml.PartitionChain(chain.order, chain.h, *chain.columns, chain.thresholds,
                                  chain.level_ids)
        found = [logratio._threshold_minimum(fresh, *case) for case in cases]
        assert "labels" not in vars(fresh)
        for case, new in zip(cases, found):
            old = oracles.threshold_minimum(chain, *case)
            assert (new.value, new.witness, new.delta, new.gamma) == \
                (old.value, old.witness, old.delta, old.gamma)
            assert new.witness.blocks == old.witness.blocks


def test_threshold_min_R_and_the_oracle_command_build_no_labels_table(monkeypatch, capsys):
    built = []

    def kept(space):
        built.append(partitions.dendrogram_chain(space))
        return built[-1]

    monkeypatch.setattr(logratio, "dendrogram_chain", kept)
    monkeypatch.setattr(cli, "dendrogram_chain", kept)
    assert ml.threshold_min_R(euclidean_space(2, 40), 0.5).witness.cardinality > 1
    assert cli.main(["oracle", "--zoo", "seq_geometric", "--depth", "5", "--radius", "0.5"]) == 0
    assert len(built) == 2 and all("labels" not in vars(chain) for chain in built)
