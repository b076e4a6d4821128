"""The block tree of partitions._block_tree laid out level by level
(oracles.by_level) against the suffix reduction it replaced
(oracles.block_extents_suffix) and the level by level bottom-up kernel
before that (oracles.block_extents_by_level), bit for bit and in memory;
the one-scan burn-in of profile against the tail loop it replaced
(oracles.settled_from); and the memory _pair_logs takes to log every pair
of a matrix."""

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import logratio, partitions, spaces
from metriclab.partitions import _block_tree
from metriclab.ultrametrize import _pair_logs
from conftest import euclidean_space
from test_block_extents import CHECKS, chains


def same_array(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    if new.dtype == object:
        assert all(type(a) is type(b) and a == b for a, b in zip(new, old))
    else:
        assert new.tobytes() == old.tobytes()


@CHECKS
@given(chains(), st.sampled_from((1, 40, spaces._BLOCK_ENTRIES)))
def test_block_extents_equal_the_level_loop(case, chunk):
    """Every per-level array, diameters, gaps and connected, with pair
    blocks of one leaf row up to the default budget."""
    space, chain = case
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", chunk):
        for ch in (chain, ml.with_singleton_terminal(space, chain)):
            new = oracles.by_level(ch, _block_tree(space, ch))
            for old in (oracles.block_extents_suffix(space, ch),
                        oracles.block_extents_by_level(space, ch)):
                for new_levels, old_levels in zip(new, old, strict=True):
                    assert len(new_levels) == len(old_levels) == len(ch)
                    for a, b in zip(new_levels, old_levels):
                        same_array(a, b)


def test_block_extents_take_no_more_memory_than_the_level_loop():
    """At n = 400 the block tree, read in two pair blocks, peaks no higher
    than the suffix kernel or the level loop."""
    space = euclidean_space(3, 400)
    chain = ml.dendrogram_chain(space)
    assert len(list(partitions._pair_runs(space, chain.order, chain.h, len(chain)))) > 1
    peaks = []
    for kernel in (_block_tree, oracles.block_extents_suffix, oracles.block_extents_by_level):
        tracemalloc.start()
        kernel(space, chain)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= min(peaks[1:])


@st.composite
def r_sequences(draw):
    """(R values, estimate, epsilon): values that tie, sit exactly epsilon
    (or half of it) from a base, or are infinite; the estimate is the last
    value, as profile takes it, the base or inf."""
    epsilon = draw(st.sampled_from((0.0, 0.125, 0.25, 0.5, 1.0)))
    base = draw(st.sampled_from((0.0, 0.25, 0.5, 2.0)))
    pool = (base, base + epsilon, base - epsilon, base + epsilon / 2, 3.0,
            math.inf, -math.inf)
    r_vals = draw(st.lists(st.sampled_from(pool), max_size=12))
    estimate = draw(st.sampled_from((r_vals[-1] if r_vals else 0.0, base, math.inf)))
    return r_vals, estimate, epsilon


@CHECKS
@given(r_sequences())
def test_burn_in_scan_equals_the_tail_loop(case):
    assert logratio._settled_from(*case) == oracles.settled_from(*case)


def test_burn_in_excludes_values_exactly_epsilon_away():
    assert logratio._settled_from([0.75, 0.5, 0.25], 0.25, 0.5) == 1
    assert logratio._settled_from([0.75, 0.25], 0.75, 0.5) is None
    assert logratio._settled_from([1.0, math.inf, math.inf], math.inf, 0.5) == 1
    assert logratio._settled_from([], 0.0, 0.5) is None


@CHECKS
@given(chains(), st.sampled_from((0.01, 0.05, 0.5)))
def test_profile_burn_in_equals_the_tail_loop(case, epsilon):
    space, chain = case
    report = ml.profile(chain, epsilon)
    proper = [i for i, lv in enumerate(report.levels) if not lv.boundary]
    start = oracles.settled_from([report.levels[i].R for i in proper], report.estimate,
                                 epsilon)
    assert report.burn_in == (None if start is None else report.levels[proper[start]].level_id)


def test_pair_logs_build_no_list_of_entries():
    space, _ = ml.sample(ml.make_family("seq_polynomial", s=2), 300)
    n = space.n
    pairs = np.triu_indices(n, 1)
    tracemalloc.start()
    entries, logs = _pair_logs(space.dist, pairs)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert n == 301 and peak <= 1.5 * n * n * 8
    assert logs.tobytes() == np.array([math.log(x) for x in entries.tolist()]).tobytes()
