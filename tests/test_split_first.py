"""Split-first chains: every builder and transform writes the split matrix in
closed form, and the chain's labels and levels are read off it. Each is
compared with the Partition-per-level code it replaced (tests/oracles.py)
on clouds, tie-heavy quantized metrics and float and exact zoo samples."""

import contextlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import embedding
from metriclab.errors import (DepthOverflow, MetricLabError, NotNested, NotSeparating,
                             PackingInfeasible)
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
    assert np.array_equal(oracles.split(new), oracles.split(old))
    assert new == old and hash(new) == hash(old)


def outcome(fn, *args):
    """The result of a call, or the type and message of its chain error."""
    try:
        return fn(*args)
    except (NotNested, NotSeparating, PackingInfeasible, ValueError) as exc:
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
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 5), st.booleans())
def test_from_partitions_nesting_equals_refines_loop(seed, n, count, nested):
    # random label sequences, coarsened (nested) or drawn afresh, and now and
    # then a level over a different number of points
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, n, n)]
    for _ in range(count - 1):
        top = rows[-1].max() + 1
        rows.append(rng.integers(0, top // 2 + 1, top)[rows[-1]] if nested
                    else rng.integers(0, n, n))
    if rng.random() < 0.2:
        rows[rng.integers(len(rows))] = rng.integers(0, n + 1, n + 1)
    levels = [ml.Partition.from_assignment(row.tolist()) for row in reversed(rows)]
    space = euclidean_space(seed, n) if n > 1 else ml.validate([[0.0]])
    new = outcome(ml.PartitionChain.from_partitions, space, levels)
    old = outcome(oracles.from_partitions, space, levels)
    if isinstance(old, ml.PartitionChain):
        assert new == old
        return
    assert new == old
    with pytest.raises(NotNested if old[0] == "NotNested" else ValueError) as a:
        ml.PartitionChain.from_partitions(space, levels)
    with pytest.raises(type(a.value)) as b:
        oracles.from_partitions(space, levels)
    assert vars(a.value) == vars(b.value)


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


# No builder, transform, profile, report or embedding makes a Partition.

def test_builders_transforms_and_profile_make_no_partition(monkeypatch):
    made = []
    real = ml.Partition._label  # every constructor numbers its blocks here

    def counted(self, *args, **kwargs):
        made.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ml.Partition, "_label", counted)
    monkeypatch.setattr(ml.PartitionChain, "from_partitions", None)  # any call raises
    cases = []
    for space in (euclidean_space(3, 25), quantized_space(4, 12, 3)):
        ultra = ml.subdominant_ultrametric(space)
        cases += [(space, ml.dendrogram_chain(space)), (ultra, ml.ball_chain(ultra))]
    for kind in ml.KINDS:
        cases.append(ml.sample(ml.make_family(kind), 5))
    for kind in EXACT_KINDS:
        cases.append(ml.sample(ml.make_family(kind), 5, exact=True))
    embedded = 0
    for space, chain in cases:
        full = ml.with_singleton_terminal(space, chain)
        built = [(space, chain), (space, full), ml.induced_chain(space, full, range(1, space.n))]
        if not space.exact and full.proper_indices():  # a proper head, then {X} before it
            thinned = ml.select_embeddable_subchain(space, full, 8)
            built.append((space, ensure_trivial_head(space, thinned)))
            with contextlib.suppress(DepthOverflow):  # raised once every level is placed
                ml.embed_chain(space, thinned, 8, 2.0, 0.5)
            embedded += 1
        for sp, ch in built:
            ml.profile(ch, space=sp)
            ch.to_report()
    assert made == [] and embedded >= 10


# The embedding, placed one array step per level.

def assert_embedding_equals_oracle(space, chain, N):
    """embed_chain equals the block-dict oracle: coords bytes, every
    LevelAudit (realized_min_gap also against the pair loop, with its type
    and sign bit), fitted, or the raised error's type and fields."""
    try:
        new = ml.embed_chain(space, chain, N, 2.0, 0.5)
    except (MetricLabError, ValueError) as exc:
        with pytest.raises(type(exc)) as old:
            oracles.embed_chain(space, chain, N, 2.0, 0.5)
        assert type(old.value) is type(exc)
        assert (str(old.value), vars(old.value)) == (str(exc), vars(exc))
        return None
    old = oracles.embed_chain(space, chain, N, 2.0, 0.5)
    assert new.coords.dtype == old.coords.dtype and new.coords.shape == old.coords.shape
    assert new.coords.tobytes() == old.coords.tobytes()
    assert not new.coords.flags.writeable
    assert new.level_audit == old.level_audit
    for a, b in zip(new.level_audit, old.level_audit):
        for name in ("level_id", "required", "capacity", "gamma", "nested", "commutes"):
            assert type(getattr(a, name)) is type(getattr(b, name))
        assert type(a.realized_min_gap) is type(b.realized_min_gap) is float
        assert np.signbit(a.realized_min_gap) == np.signbit(b.realized_min_gap)
    assert new.fitted == old.fitted
    assert (new.R_est, new.epsilon_warning) == (old.R_est, old.epsilon_warning)
    return new


def test_audit_min_gap_equals_pair_loop():
    checked = 0
    for kind, depth, N in (("seq_geometric", 12, 2), ("seq_polynomial", 40, 11),
                           ("product_geometric", 5, 3), ("sqrt_ultra", 30, 4)):
        space, chain = ml.sample(ml.make_family(kind), depth)
        chain = ml.with_singleton_terminal(space, chain)
        result = assert_embedding_equals_oracle(
            space, ml.select_embeddable_subchain(space, chain, N), N)
        checked += len(result.level_audit)
    space = euclidean_space(7, 12)
    chain = ml.dendrogram_chain(space)
    result = assert_embedding_equals_oracle(
        space, ml.select_embeddable_subchain(space, chain, 6), 6)
    assert checked + len(result.level_audit) > 20


@CHECKS
@given(chains().filter(lambda case: not case[0].exact), st.integers(1, 8),
       st.sampled_from((True, True, False)))
def test_embed_chain_equals_block_dict_oracle(case, N, thin):
    space, chain = case
    chain = ml.with_singleton_terminal(space, chain)
    if thin:
        chain = outcome(embedding.select_embeddable_subchain, space, chain, N)
        if not isinstance(chain, ml.PartitionChain):
            return
    assert_embedding_equals_oracle(space, chain, N)
    # an unseparated terminal level is refused alike
    if len(chain) > 1 and chain.stats[-2].cardinality < space.n:
        head = oracles.from_split(space, np.minimum(oracles.split(chain), len(chain) - 1),
                                  chain.thresholds[:-1], chain.level_ids[:-1])
        assert_embedding_equals_oracle(space, head, N)


@pytest.mark.parametrize("per_axis, N", [(1, 1), (3, 2), (2, 5), (7, 3), (40, 2)])
def test_grid_cells_are_the_lex_product(per_axis, N):
    count = min(per_axis ** N, 200)
    cells = embedding._grid_cells(np.arange(count), per_axis, N)
    lex = [cell for _, cell in zip(range(count), product(range(per_axis), repeat=N))]
    assert cells.dtype == float and cells.tolist() == [list(map(float, c)) for c in lex]


def test_grid_cells_past_int64_per_axis():
    # a base above every rank gives the last-axis digit alone; the
    # product walk of the oracle cannot even size such a range
    cells = embedding._grid_cells(np.arange(5), 10 ** 30, 3)
    assert cells.tolist() == [[0.0, 0.0, float(r)] for r in range(5)]
    space = ml.validate([[0, 1e-20, 0.5], [1e-20, 0, 0.5], [0.5, 0.5, 0]])
    chain = ml.PartitionChain.from_partitions(
        space, [ml.Partition.trivial(3), ml.Partition.singletons(3)])
    with pytest.raises(OverflowError):
        oracles.embed_chain(space, chain, 2, 2.0, 0.5)
    with pytest.raises(DepthOverflow):  # the 1e-20 pair is below the ulp of 0.5
        ml.embed_chain(space, chain, 2, 2.0, 0.5)
