"""The label-array kernel partitions._label_stats against the loops it
replaced (tests/oracles.py): partition_stats, the brute-force minimum and
both gap_bounds paths must agree with them value for value and, for delta
and gamma, type for type (np.float64, Python float or Fraction)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import spaces
from metriclab._util import as_float
from metriclab.logratio import set_partitions
from metriclab.partitions import _label_stats
from conftest import euclidean_space
from oracles import _two_block_splits, partition_log_ratio
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=30)

EXACT_FAMILIES = (("seq_geometric", {}, 7), ("seq_factorial", {}, 7),
                  ("seq_power_tower", {"s": 0.5}, 7), ("cantor_factorial", {"r": 0.5}, 3),
                  ("product_geometric", {"t": 0.5, "r1": 0.5}, 3))


@st.composite
def small_spaces(draw, max_n=8):
    """Clouds, tie-heavy quantized metrics and exact zoo samples of at most
    max_n points, down to n = 1."""
    source = draw(st.sampled_from(("cloud", "ties", "exact")))
    if source == "cloud":
        n = draw(st.integers(1, max_n))
        space = euclidean_space(draw(st.integers(0, 2 ** 16)), max(n, 2))
        return ml.subspace(space, range(n))  # a 1-point cloud cannot be normalized
    if source == "ties":
        n = draw(st.integers(2, max_n))
        return quantized_space(draw(st.integers(0, 2 ** 16)), n, draw(st.integers(1, 4)))
    kind, params, top = draw(st.sampled_from(EXACT_FAMILIES))
    space, _ = ml.sample(ml.make_family(kind, **params), draw(st.integers(1, top)),
                         exact=True, chain=False)
    keep = draw(st.sets(st.integers(0, space.n - 1), min_size=1, max_size=max_n))
    return ml.subspace(space, keep)


def tie_spaces():
    return st.builds(quantized_space, st.integers(0, 2 ** 16), st.integers(2, 7),
                     st.integers(1, 3))


def assert_same(new, old):
    assert type(new) is type(old) and new == old, (new, old)


def radii_of(space):
    """Every distance of the space, the midpoints between them, and one
    radius above the diameter."""
    values = sorted({as_float(x) for x in space.dist.ravel().tolist()} - {0.0})
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return values + mids + [as_float(space.diameter) * 1.1]


@CHECKS
@given(space=small_spaces())
def test_kernel_matches_assignment_loop(space):
    labels = np.array(list(set_partitions(space.n)))
    deltas, gammas = _label_stats(space, labels)
    assert deltas.shape == gammas.shape == (len(labels),)
    for row, delta, gamma in zip(labels, deltas, gammas):
        old_delta, old_gamma, _ = oracles._stats_of_assignment(space, tuple(row))
        assert_same(delta, old_delta)
        assert_same(gamma, old_gamma)


@CHECKS
@given(space=small_spaces(), data=st.data())
def test_partition_stats_matches_block_loop(space, data):
    rows = list(set_partitions(space.n))
    for assign in data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=20)):
        part = ml.Partition.from_assignment(assign)
        new, old = ml.partition_stats(space, part), oracles.partition_stats(space, part)
        assert_same(new.delta, old.delta)
        assert_same(new.gamma, old.gamma)
        assert new.log_ratio == old.log_ratio
        assert new.cardinality == old.cardinality


def test_partition_stats_boundary_values_are_the_mode_zero_and_the_diameter():
    for space in (euclidean_space(0, 5), ml.sample(ml.make_family("seq_geometric"), 4,
                                                   exact=True, chain=False)[0]):
        singles = ml.partition_stats(space, ml.Partition.singletons(space.n))
        assert_same(singles.delta, ml.spaces._zero(space.exact))
        assert ml.partition_stats(space, ml.Partition.trivial(space.n)).gamma is space.diameter


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("exact", [False, True])
def test_kernel_on_one_and_two_points(n, exact):
    if exact:
        space = ml.sample(ml.make_family("seq_geometric"), 1, exact=True, chain=False)[0]
        space = ml.subspace(space, range(n))
    else:
        space = ml.subspace(euclidean_space(7, 2), range(n))
    labels = np.array(list(set_partitions(n)))
    deltas, gammas = _label_stats(space, labels)
    zero = ml.spaces._zero(exact)
    if n == 1:
        assert_same(deltas[0], zero)
        assert gammas[0] is space.diameter
    else:
        d = space.dist[0, 1]
        assert_same(deltas[0], d)          # one block
        assert gammas[0] is space.diameter
        assert_same(deltas[1], zero)       # two singletons
        assert_same(gammas[1], d)


def test_kernel_on_no_rows():
    deltas, gammas = _label_stats(euclidean_space(1, 4), np.zeros((0, 4), dtype=int))
    assert deltas.shape == gammas.shape == (0,)
    # a one-point chain has no two-block split; the radius check still speaks
    one = ml.subspace(euclidean_space(1, 2), [0])
    assert _two_block_splits(ml.dendrogram_chain(one)).shape == (0, 1)
    with pytest.raises(ValueError, match="outside"):
        ml.gap_bounds(one, [0.5], exact=False)


@CHECKS
@given(space=small_spaces(max_n=7), chunk=st.integers(1, 40))
def test_chunked_rows_match_one_pass(space, chunk):
    labels = np.array(list(set_partitions(space.n)))
    whole = _label_stats(space, labels)
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", chunk):
        chunked = _label_stats(space, labels)
    for a, b in zip(whole, chunked):
        assert [type(x) for x in a] == [type(x) for x in b]
        assert list(a) == list(b)


def test_kernel_temporaries_do_not_grow_with_rows_times_pairs():
    space = euclidean_space(11, 400)
    labels = _two_block_splits(ml.dendrogram_chain(space))
    rows, pairs = len(labels), space.n * (space.n - 1) // 2
    tracemalloc.start()
    try:
        _label_stats(space, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows > space.n
    assert peak < rows * pairs // 4, (peak, rows * pairs)


@CHECKS
@given(space=st.one_of(tie_spaces(), small_spaces()), data=st.data(),
       positive=st.booleans())
def test_brute_force_matches_assignment_loop(space, data, positive):
    r = data.draw(st.sampled_from(radii_of(space) or [1.0]))
    new = ml.brute_force_min_R(space, r, require_positive_delta=positive)
    old = oracles.brute_force_min_R(space, r, require_positive_delta=positive)
    assert new.witness == old.witness
    for field in ("value", "delta", "gamma"):
        assert_same(getattr(new, field), getattr(old, field))


def test_brute_force_ties_keep_the_first_witness():
    shared = 0  # (space, r, positive) cases whose minimum several partitions reach
    for seed in range(12):
        space = quantized_space(seed, 6, 2)
        stats = [oracles._stats_of_assignment(space, a)[:2] for a in set_partitions(6)]
        for r in radii_of(space):
            for positive in (False, True):
                new = ml.brute_force_min_R(space, r, require_positive_delta=positive)
                old = oracles.brute_force_min_R(space, r, require_positive_delta=positive)
                assert (new.value, new.witness, new.delta, new.gamma) == \
                    (old.value, old.witness, old.delta, old.gamma)
                values = [partition_log_ratio(d, g) for d, g in stats
                          if d < r and not (positive and d == 0)]
                shared += values.count(old.value) > 1
    assert shared > 20


def assert_rows_match(report, rows, exact):
    assert report.exact == exact
    assert len(report.rows) == len(rows)
    for row, (r, g, G) in zip(report.rows, rows):
        assert (row.r, row.g, row.G, row.G_exact) == (r, g, G, exact)


@CHECKS
@given(space=small_spaces(), data=st.data(), exact=st.booleans())
def test_gap_bounds_rows_match_loops(space, data, exact):
    if space.n < 2:
        return
    diam = as_float(space.diameter)
    radii = data.draw(st.lists(st.sampled_from([r for r in radii_of(space) if r <= diam]),
                               min_size=1, max_size=4, unique=True))
    assert_rows_match(ml.gap_bounds(space, radii, exact=exact),
                      oracles.gap_bounds_rows(space, radii, exact), exact)


@CHECKS
@given(seed=st.integers(0, 2 ** 16), n=st.integers(9, 40), ties=st.booleans(),
       data=st.data())
def test_heuristic_gap_bounds_match_level_loop(seed, n, ties, data):
    space = quantized_space(seed, n, 3) if ties else euclidean_space(seed, n)
    diam = as_float(space.diameter)
    radii = data.draw(st.lists(st.sampled_from([r for r in radii_of(space) if r <= diam]),
                               min_size=1, max_size=4, unique=True))
    assert_rows_match(ml.gap_bounds(space, radii), oracles.gap_bounds_rows(space, radii, False),
                      False)
