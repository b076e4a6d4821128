"""Each statistic reads a chain's (order, h) once: Property 6 in one pass
over _block_extents' output against the chunk walk it replaced
(oracles.property6_by_chunks), with no labels table left on the chain;
rho's ranks taken from the stats against those of the split matrix
(oracles.level_ranks), with no second pair stream; and partition_stats as
a one-level chain against the label-array kernel _label_stats."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import partitions
from metriclab.partitions import _label_stats, _log_ratio
from metriclab.spaces import _gather
from metriclab.ultrametrize import ensure_trivial_head
from conftest import euclidean_space
from test_block_extents import CHECKS, EXACT_FAMILIES, chains, count_largest_gap, nested_chain
from test_ties import quantized_space

CHUNKS = (1, 7, partitions._CHUNK_ENTRIES)


def with_terminals(space, chain):
    return (chain, ml.with_singleton_terminal(space, chain))


@CHECKS
@given(chains(), st.sampled_from(CHUNKS))
def test_property6_equals_the_chunk_walk(case, chunk):
    space, chain = case
    with mock.patch.object(partitions, "_CHUNK_ENTRIES", chunk):
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
            with mock.patch.object(partitions, "_CHUNK_ENTRIES", chunk):
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
        expected.append(oracles.level_ranks(space, head.split)[0][head.split - 1])
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
    assert new.log_ratio == _log_ratio(delta, gamma)
    assert new.cardinality == partition.cardinality


def test_partition_stats_sort_no_pairs(monkeypatch):
    space = euclidean_space(8, 60)
    monkeypatch.setattr(partitions, "_label_stats", None)  # any call would raise
    for partition in (ml.Partition.trivial(60), ml.Partition.singletons(60),
                      ml.Partition.from_assignment(np.arange(60) % 7)):
        assert ml.partition_stats(space, partition).cardinality == partition.cardinality
