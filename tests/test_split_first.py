"""Split-first chains: every builder and transform writes the split matrix in
closed form, and the chain's labels and levels are read off it. Each is
compared with the Partition-per-level code it replaced (tests/oracles.py)
on clouds, tie-heavy quantized metrics and float and exact zoo samples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import embedding
from metriclab.errors import NotSeparating, PackingInfeasible
from metriclab.partitions import _require_separating
from metriclab.ultrametrize import ensure_trivial_head
from conftest import euclidean_space
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=40)

EXACT_KINDS = ("seq_factorial", "seq_power_tower", "seq_geometric", "cantor_factorial",
               "product_geometric")


@st.composite
def sources(draw):
    """(space, family, depth): a cloud or a tie-heavy metric (family None), or
    a float or exact zoo sample of depth 1-6."""
    source = draw(st.sampled_from(("cloud", "ties", "zoo", "exact_zoo")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if source == "cloud":
        n = draw(st.integers(1, 14))
        return (euclidean_space(seed, n) if n > 1 else ml.validate([[0.0]])), None, None
    if source == "ties":
        n = draw(st.integers(2, 10))
        return quantized_space(seed, n, draw(st.integers(1, 4))), None, None
    exact = source == "exact_zoo"
    family = ml.make_family(draw(st.sampled_from(EXACT_KINDS if exact else ml.KINDS)))
    depth = draw(st.integers(1, 6))
    return ml.sample(family, depth, exact=exact, chain=False)[0], family, depth


@st.composite
def chains(draw):
    """(space, chain) from a dendrogram, the ball chain of the subdominant
    ultrametric, or a zoo sample."""
    space, family, depth = draw(sources())
    if family is not None:
        return ml.sample(family, depth, exact=space.exact)
    if draw(st.booleans()):
        return space, ml.dendrogram_chain(space)
    ultra = ml.subdominant_ultrametric(space)
    return ultra, ml.ball_chain(ultra)


def assert_chain(new, space, expected):
    """new equals the chain of the oracle's (levels, thresholds, level_ids):
    levels, labels, stats (value and type), thresholds, level_ids, split,
    == and hash."""
    levels, thresholds, ids = expected
    levels = tuple(levels)
    old = ml.PartitionChain.from_partitions(space, levels, thresholds, ids)
    assert new.levels == levels
    assert np.array_equal(new.labels, np.array([p.block_of for p in levels]))
    assert new.stats == tuple(oracles.partition_stats(space, p) for p in levels)
    assert new.stats == old.stats
    for a, b in zip(new.stats, old.stats):
        assert type(a.delta) is type(b.delta) and type(a.gamma) is type(b.gamma)
    assert new.thresholds == old.thresholds
    assert [type(t) for t in new.thresholds] == [type(t) for t in old.thresholds]
    assert new.level_ids == old.level_ids
    assert [type(i) for i in new.level_ids] == [type(i) for i in old.level_ids]
    assert new.split.dtype == old.split.dtype and np.array_equal(new.split, old.split)
    assert not new.split.flags.writeable
    assert new == old and hash(new) == hash(old)


def outcome(fn, *args):
    """The result of a call, or the type and message of its chain error."""
    try:
        return fn(*args)
    except (NotSeparating, PackingInfeasible, ValueError) as exc:
        return type(exc).__name__, str(exc)


# Builders.

@CHECKS
@given(sources())
def test_builders_equal_partition_oracles(case):
    space, family, depth = case
    if family is not None:
        _, chain = ml.sample(family, depth, exact=space.exact)
        assert_chain(chain, space, oracles.sample_levels(family, depth, space))
        return
    assert_chain(ml.dendrogram_chain(space), space, oracles.dendrogram_levels(space))
    ultra = ml.subdominant_ultrametric(space)
    assert_chain(ml.ball_chain(ultra), ultra, oracles.ball_levels(ultra))


# Transforms.

@CHECKS
@given(chains(), st.data())
def test_transforms_equal_partition_oracles(case, data):
    space, chain = case
    singletons = ml.Partition.singletons(space.n)
    separating = chain.levels[-1] == singletons
    assert_chain(ml.with_singleton_terminal(space, chain), space,
                 (chain.levels, chain.thresholds, chain.level_ids) if separating else
                 (chain.levels + (singletons,), chain.thresholds + (None,),
                  chain.level_ids + (chain.level_ids[-1] + 1,)))
    assert_chain(ensure_trivial_head(space, chain), space,
                 oracles.ensure_trivial_head(space, chain))
    if len(chain) > 1:  # without its trivial head
        tail = ml.PartitionChain.from_partitions(space, chain.levels[1:], chain.thresholds[1:],
                                                 chain.level_ids[1:])
        assert_chain(ensure_trivial_head(space, tail), space,
                     oracles.ensure_trivial_head(space, tail))
    keep = data.draw(st.lists(st.integers(0, space.n - 1), min_size=1, unique=True))
    sub, induced = ml.induced_chain(space, chain, keep)
    assert_chain(induced, sub, oracles.induced_levels(chain, keep))
    chain = ml.with_singleton_terminal(space, chain)
    N = data.draw(st.integers(1, 4))
    new = outcome(embedding.select_embeddable_subchain, space, chain, N)
    old = outcome(oracles.select_embeddable_subchain, space, chain, N)
    if isinstance(new, ml.PartitionChain):
        assert_chain(new, space, old)
    else:
        assert new == old


@CHECKS
@given(chains(), st.sampled_from((0.5, 1.0)))
def test_pushforward_image_stats_equal_rebuild(case, power):
    space, chain = case
    if space.exact or sum(st.delta > 0 for st in chain.stats) < 2:
        return  # pushforward needs a decay witness
    image = ml.snowflake(space, power)
    report = ml.pushforward_chain(space, image, chain, 2.0)
    old = ml.PartitionChain.from_partitions(image, chain.levels, chain.thresholds,
                                            chain.level_ids)
    assert report.image_stats == old.stats


@pytest.mark.parametrize("kind", ["seq_geometric", "seq_polynomial", "product_geometric"])
def test_image_ratio_report_equals_rebuild(kind):
    space, chain = ml.sample(ml.make_family(kind), 5)
    chain = ml.with_singleton_terminal(space, chain)
    result = ml.embed_chain(space, ml.select_embeddable_subchain(space, chain, 6), 6, 2.0, 0.5)
    box = embedding._box_matrix(result.coords)
    image = ml.FiniteMetricSpace(space.labels, box / box.max(), _trusted=True)
    old = ml.PartitionChain.from_partitions(image, result.chain.levels,
                                            result.chain.thresholds, result.chain.level_ids)
    assert embedding.image_ratio_report(space, result)["profile"] == ml.profile(old).to_report()


# Views of split on untrusted chains, and the unseparated pair.

@CHECKS
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.integers(0, 5))
def test_levels_and_labels_read_off_split(seed, n, coarsenings):
    # random coarsenings of random labels: any head, repeated levels, and
    # blocks that no spanning tree connects
    rng = np.random.default_rng(seed)
    labels = [rng.integers(0, n, n)]
    for _ in range(coarsenings):
        top = labels[-1].max() + 1
        labels.append(rng.integers(0, top // 2 + 1, top)[labels[-1]])
    levels = [ml.Partition.from_assignment(row.tolist()) for row in reversed(labels)]
    space = euclidean_space(seed, n)
    chain = ml.PartitionChain.from_partitions(space, levels)
    assert_chain(chain, space, (levels, None, None))
    assert [st.cardinality for st in chain.stats] == [p.cardinality for p in levels]


@CHECKS
@given(chains())
def test_not_separating_reports_the_first_blocks_pair(case):
    space, chain = case
    assert outcome(_require_separating, chain) == outcome(oracles.require_separating, chain)
    if chain.levels[-1].cardinality < space.n:
        with pytest.raises(NotSeparating) as new:
            ml.ultrametric_from_chain(space, chain)
        with pytest.raises(NotSeparating) as old:
            oracles.require_separating(chain)
        assert new.value.pair == old.value.pair


# No builder, transform or profile makes a Partition.

def test_builders_transforms_and_profile_make_no_partition(monkeypatch):
    made = []
    real = ml.Partition.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ml.Partition, "__init__", counted)
    monkeypatch.setattr(ml.PartitionChain, "from_partitions", None)  # any call raises
    cases = []
    for space in (euclidean_space(3, 25), quantized_space(4, 12, 3)):
        ultra = ml.subdominant_ultrametric(space)
        cases += [(space, ml.dendrogram_chain(space)), (ultra, ml.ball_chain(ultra))]
    for kind in ml.KINDS:
        cases.append(ml.sample(ml.make_family(kind), 5))
    for kind in EXACT_KINDS:
        cases.append(ml.sample(ml.make_family(kind), 5, exact=True))
    for space, chain in cases:
        full = ml.with_singleton_terminal(space, chain)
        built = [(space, chain), (space, full), ml.induced_chain(space, full, range(1, space.n))]
        if not space.exact and full.proper_indices():  # a proper head, then {X} before it
            built.append((space, ensure_trivial_head(
                space, ml.select_embeddable_subchain(space, full, 8))))
        for sp, ch in built:
            ml.profile(ch, space=sp)
    assert made == []


# The embedding audit's minimum gap.

def test_audit_min_gap_equals_pair_loop(monkeypatch):
    real = embedding._audit_level
    seen = []

    def checked(chain, lvl, required, capacity, box_center, box_parent, deltas, gammas, tol):
        audit = real(chain, lvl, required, capacity, box_center, box_parent, deltas,
                     gammas, tol)
        seen.append((audit.realized_min_gap,
                     oracles.audit_min_gap(chain, lvl, box_center, deltas, gammas)))
        return audit

    monkeypatch.setattr(embedding, "_audit_level", checked)
    for kind, depth, N in (("seq_geometric", 12, 2), ("seq_polynomial", 40, 11),
                           ("product_geometric", 5, 3), ("sqrt_ultra", 30, 4)):
        space, chain = ml.sample(ml.make_family(kind), depth)
        chain = ml.with_singleton_terminal(space, chain)
        ml.embed_chain(space, ml.select_embeddable_subchain(space, chain, N), N, 2.0, 0.5)
    space = euclidean_space(7, 12)
    chain = ml.dendrogram_chain(space)
    ml.embed_chain(space, ml.select_embeddable_subchain(space, chain, 6), 6, 2.0, 0.5)
    assert len(seen) > 20
    for new, old in seen:
        assert type(new) is type(old) is float
        assert new == old and np.signbit(new) == np.signbit(old)
