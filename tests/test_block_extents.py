"""Every block's diameter and largest gap read off one spanning tree, the
one-level singleton terminal, the known diameters of trusted builders and
the ball-chain spectrum, against the code they replaced (kept in
oracles.py). Inputs are random Euclidean clouds, tie-heavy quantized
metrics, float and exact zoo samples, and random nested chains that are not
single-linkage, whose blocks the spanning tree need not connect."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import logratio, partitions
from metriclab._util import as_float
from metriclab.partitions import _block_extents
from metriclab.zoo import product_factors
from conftest import euclidean_space
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=40)

EXACT_FAMILIES = (("seq_factorial", {}), ("seq_power_tower", {"s": 0.5}),
                  ("seq_geometric", {}), ("cantor_factorial", {}), ("product_geometric", {}))


def nested_chain(space, seed, coarsenings):
    """Levels that coarsen random labels: nested, but not single-linkage."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, space.n, space.n)
    levels = [labels]
    for _ in range(coarsenings):
        top = int(labels.max()) + 1
        labels = rng.integers(0, top // 2 + 1, top)[labels]
        levels.append(labels)
    return ml.PartitionChain.from_partitions(
        space, [ml.Partition.from_assignment(a.tolist()) for a in reversed(levels)])


@st.composite
def chains(draw):
    """(space, chain): a dendrogram of a cloud or a tie-heavy metric, a float
    or exact zoo chain, then as is, as the ball chain of the subdominant
    ultrametric, traced on a random subset, or replaced by a random nested
    chain."""
    source = draw(st.sampled_from(("cloud", "ties", "zoo", "exact_zoo")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if source == "exact_zoo":
        kind, params = draw(st.sampled_from(EXACT_FAMILIES))
        depth = draw(st.integers(1, 6 if kind.startswith("seq") else 4))
        space, chain = ml.sample(ml.make_family(kind, **params), depth, exact=True)
    elif source == "zoo":
        kind = draw(st.sampled_from(ml.KINDS))
        # float seq_factorial values underflow from depth 7 on (DepthOverflow)
        top = 6 if kind == "seq_factorial" else 8 if kind.startswith(("seq", "sqrt")) else 4
        depth = draw(st.integers(1, top))
        space, chain = ml.sample(ml.make_family(kind), depth)
    else:
        if source == "cloud":
            space = euclidean_space(seed, draw(st.integers(2, 14)))
        else:
            space = quantized_space(seed, draw(st.integers(3, 10)), draw(st.integers(2, 4)))
        chain = ml.dendrogram_chain(space)
    how = draw(st.sampled_from(("as_is", "ball", "induced", "nested")))
    if how == "ball":
        space = ml.subdominant_ultrametric(space)
        chain = ml.ball_chain(space)
    elif how == "induced":
        keep = draw(st.lists(st.integers(0, space.n - 1), min_size=1, unique=True))
        space, chain = ml.induced_chain(space, chain, keep)
    elif how == "nested":
        chain = nested_chain(space, seed, draw(st.integers(0, 4)))
    return space, chain


@CHECKS
@given(chains())
def test_property6_equals_block_loop(case):
    space, chain = case
    for ch in (chain, ml.with_singleton_terminal(space, chain)):
        assert ml.profile(ch, space=space).property6 == oracles.property6(ch, space)


@CHECKS
@given(chains())
def test_block_extents_equal_block_loop(case):
    space, chain = case
    diameters, gaps, connected = _block_extents(space, chain)
    for level, diam, gap, joined, (old_diam, old_gap) in zip(
            chain.levels, diameters, gaps, connected, oracles.block_extents(space, chain)):
        assert list(diam) == old_diam
        for b, block in enumerate(level.blocks):
            assert joined[b] == oracles.tree_connects(space, block)
            if joined[b]:
                assert gap[b] == old_gap[b]
            if len(block) > 1:
                assert type(diam[b]) is type(old_diam[b])
                if joined[b]:
                    assert type(gap[b]) is type(old_gap[b])


def test_nested_chains_reach_the_fallback(monkeypatch):
    calls = count_largest_gap(monkeypatch)
    space = euclidean_space(0, 20)
    chain = nested_chain(space, 0, 3)
    assert (ml.profile(chain, space=space).property6
            == oracles.property6(chain, space))
    assert calls[0] > 0


def test_singletons_never_count_as_widest_blocks():
    # below 1e-15 the float tolerance would let a singleton's zero diameter
    # pass for delta; its zero gap must not become the level's constant
    sample, chain = ml.sample(ml.make_family("seq_geometric"), 8, exact=True)
    space = ml.FiniteMetricSpace(sample.labels, sample.dist * Fraction(1, 2 ** 60), exact=True)
    chain = ml.PartitionChain.from_partitions(space, chain.levels, chain.thresholds,
                                              chain.level_ids)
    report = ml.profile(chain, space=space).property6
    assert report == oracles.property6(chain, space)
    assert report["gap_constant"] == pytest.approx(1.0)


def count_largest_gap(monkeypatch):
    calls = [0]
    real = logratio.largest_gap

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(logratio, "largest_gap", counted)
    return calls


def spanned_chains():
    """Dendrogram, ball and zoo chains: the spanning tree connects every block."""
    out = []
    for space in (euclidean_space(1, 30), quantized_space(2, 12, 3)):
        ultra = ml.subdominant_ultrametric(space)
        out += [(space, ml.dendrogram_chain(space)), (ultra, ml.ball_chain(ultra))]
    for kind in ml.KINDS:
        out.append(ml.sample(ml.make_family(kind), 5))
    for kind, params in EXACT_FAMILIES:
        out.append(ml.sample(ml.make_family(kind, **params), 4, exact=True))
    return out + [(sp, ml.with_singleton_terminal(sp, ch)) for sp, ch in out]


def test_profile_makes_no_largest_gap_call_on_spanned_chains(monkeypatch):
    calls = count_largest_gap(monkeypatch)
    checked = 0
    for space, chain in spanned_chains():
        assert all(c.all() for c in _block_extents(space, chain)[2])
        report = ml.profile(chain, space=space).property6
        assert calls == [0]
        assert report == oracles.property6(chain, space)
        checked += report["gap_constant"] is not None
    assert checked > 20


# with_singleton_terminal appends one level.

@CHECKS
@given(chains())
def test_with_singleton_terminal_equals_rebuild(case):
    space, chain = case
    new = ml.with_singleton_terminal(space, chain)
    old = oracles.with_singleton_terminal(space, chain)
    assert new == old
    assert new.levels == old.levels
    assert new.thresholds == old.thresholds
    assert new.level_ids == old.level_ids
    assert new.stats == old.stats
    for a, b in zip(new.stats, old.stats):
        assert type(a.delta) is type(b.delta) and type(a.gamma) is type(b.gamma)
    assert np.array_equal(new.split, old.split) and not new.split.flags.writeable


def test_with_singleton_terminal_rejects_another_space():
    space, chain = ml.sample(ml.make_family("seq_geometric"), 5)
    other, _ = ml.sample(ml.make_family("seq_geometric"), 6)
    with pytest.raises(ValueError):
        ml.with_singleton_terminal(other, chain)


def terminal_cases():
    """Separating and non-separating chains: dendrograms and their first
    levels, float and exact zoo chains, and one-level chains."""
    cloud, ties = euclidean_space(4, 12), quantized_space(5, 9, 2)
    out = []
    for space in (cloud, ties):
        chain = ml.dendrogram_chain(space)
        out += [(space, chain)] + [
            (space, oracles.from_split(space, np.minimum(chain.split, k)))
            for k in (1, 2, len(chain) - 1)]
    for kind in ml.KINDS:
        out.append(ml.sample(ml.make_family(kind), 6 if kind.startswith(("seq", "sqrt")) else 3))
    for kind, params in EXACT_FAMILIES:
        out.append(ml.sample(ml.make_family(kind, **params),
                             6 if kind.startswith("seq") else 3, exact=True))
    for space in (cloud, ties, out[-1][0], out[-3][0]):
        halves = [range(space.n // 2), range(space.n // 2, space.n)]
        for level in (ml.Partition.trivial(space.n), ml.Partition(halves, space.n)):
            out.append((space, ml.PartitionChain.from_partitions(space, [level])))
    return out


def test_with_singleton_terminal_appends_the_stats_of_a_rebuild(monkeypatch):
    cases = terminal_cases()
    rebuilt = [oracles.with_singleton_terminal_from_split(space, chain)
               for space, chain in cases]
    calls = []
    stats = partitions._chain_stats
    monkeypatch.setattr(partitions, "_chain_stats", lambda *a: calls.append(1) or stats(*a))
    grown = 0
    for (space, chain), old in zip(cases, rebuilt):
        new = ml.with_singleton_terminal(space, chain)
        assert new == old and new.stats == old.stats
        for a, b in zip(new.stats, old.stats):
            assert type(a.delta) is type(b.delta) and type(a.gamma) is type(b.gamma)
        assert new.stats[:len(chain)] == chain.stats
        assert not new.split.flags.writeable
        grown += len(new) > len(chain)
    assert calls == [] and grown > 20


# Trusted builders pass the diameter they know.

def built_spaces():
    for kind in ml.KINDS:
        for exact in (False, True):
            fam = ml.make_family(kind)
            for depth in (1, 2, 5):
                try:
                    yield ml.sample(fam, depth, exact=exact, chain=False)[0]
                    if fam.chain_style == "sequence":
                        yield ml.comparison_ultrametric(fam, depth, exact=exact)
                    if kind == "product_geometric":
                        yield from product_factors(fam, depth, exact)
                except ValueError:  # no exact sampling for this kind
                    continue
    cloud = euclidean_space(4, 5)
    exact_factor = product_factors(ml.make_family("product_geometric"), 2, exact=True)[1]
    single = ml.validate([[0.0]])
    yield ml.sup_product([cloud, single, quantized_space(5, 3)])
    yield ml.sup_product([single, exact_factor, cloud])  # a float factor made exact
    yield ml.sup_product([single, single])


def test_trusted_builders_pass_the_matrix_diameter():
    seen = {False: 0, True: 0}
    for space in built_spaces():
        top = space.dist.max() if space.n > 1 else (Fraction(0) if space.exact else 0.0)
        assert space.diameter == top
        assert type(space.diameter) is type(top)
        seen[space.exact] += 1
    assert seen[False] > 20 and seen[True] > 10


def test_only_trusted_builders_pass_a_diameter():
    m = [[0.0, 0.5], [0.5, 0.0]]
    with pytest.raises(ValueError):
        ml.FiniteMetricSpace(["a", "b"], m, diameter=0.5)
    assert ml.FiniteMetricSpace(["a", "b"], m).diameter == 0.5


# ball_chain reads its spectrum from np.unique.

@CHECKS
@given(chains())
def test_ball_chain_spectrum_equals_set_of_entries(case):
    space, _ = case
    ultra = ml.subdominant_ultrametric(space)
    chain = ml.ball_chain(ultra)
    if ultra.n == 1:
        assert len(chain) == 1
        return
    spectrum = oracles.ball_spectrum(ultra)
    assert chain.thresholds == tuple(as_float(r) for r in spectrum)
    assert all(type(t) is float for t in chain.thresholds)
    assert chain.level_ids == tuple(range(1, len(spectrum) + 1))
    for level, r in zip(chain.levels, spectrum):  # the closed balls of radius r
        same = level.block_of[:, None] == level.block_of[None, :]
        assert np.array_equal(same, ultra.dist <= r)
