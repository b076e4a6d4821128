"""The one row-major pair scan, spaces._pair_blocks, against the n x n split
matrix it replaced (oracles.split): the split level of every pair of
dendrogram, ball, zoo, from_partitions, induced and thinned chains, in
blocks of 1, 7 and 97 entries and of the default budget. Then the reads
that compare every pair with the subdominant ultrametric: associated_endpoints,
through the scan on the space's Prim order, and is_ultrametric, whose
accept test the scan was before its row pass (test_ultrametric_pass), against
the whole-matrix oracles, on ultrametrics, subdominants and
spaces one entry away from them (1 ulp, tol/2 or 2 tol, up or down), in
float and exact mode; chain equality, which compares split levels block by
block, across leaf orders and at a single differing pair; and the
distortion check failing past the first block (test_chain_split runs it
against its pair loop at every budget). Last, the memory of the scan's
readers on a 2,000-point cloud."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import spaces
from metriclab._util import DEFAULT_TOL
from metriclab.ultrametrize import ultrametric_space_from_chain
from conftest import euclidean_space
from test_block_extents import chains as block_chains
from test_chain_split import distortion_oracle, outcome
from test_metamorphic import relabeled, relabeled_chain
from test_pair_runs import chains as run_chains
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=40)
BUDGETS = st.sampled_from((1, 7, 97, spaces._BLOCK_ENTRIES))
FLOAT_KINDS = (("seq_geometric", {}, 40), ("sqrt_ultra", {}, 30), ("seq_polynomial", {"s": 2}, 30),
               ("cantor_factorial", {"r": 0.5}, 4), ("product_geometric", {}, 4))
EXACT_KINDS = (("seq_geometric", {}, 40), ("seq_factorial", {}, 6),
               ("seq_power_tower", {"s": 0.5}, 8), ("cantor_factorial", {"r": 0.5}, 4),
               ("product_geometric", {}, 4))


def chains():
    """Dendrograms of clouds and tie-heavy metrics, float and exact zoo
    chains, ball chains of subdominants, random nested chains from
    from_partitions, and each as is, with its singleton terminal, thinned or
    traced on a subset."""
    return st.one_of(run_chains(), block_chains())


def scanned(order, h):
    """The split levels of the scan, concatenated, after checking that its
    blocks are consecutive runs of whole rows within the budget, that upper
    masks the pairs i < j of each, and that _pair_at names them."""
    n, rows, parts = len(order), 0, [np.zeros(0, dtype=np.asarray(h).dtype)]
    for a, b, split, upper in spaces._pair_blocks(order, h):
        assert a == rows and b - a <= max(1, spaces._BLOCK_ENTRIES // n)
        i, j = np.nonzero(upper)
        assert upper.shape == (b - a, n - a - 1) and len(split) == len(i)
        assert [spaces._pair_at(n, a, k) for k in range(len(i))] == \
            list(zip((i + a).tolist(), (j + a + 1).tolist()))
        parts.append(split)
        rows = b
    assert rows == max(n - 1, 0)
    return np.concatenate(parts)


@CHECKS
@given(chains(), BUDGETS)
def test_the_scan_reads_the_split_matrix_row_by_row(case, budget):
    space, chain = case
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        split = scanned(chain.order, chain.h)
    assert np.array_equal(split, oracles.split(chain)[np.triu_indices(space.n, 1)])


def moved(m, pair, move, down):
    """m with the entry at pair (both sides) moved by 1 ulp, tol/2 or 2 tol,
    down when asked and the entry stays positive: in float arithmetic on a
    float matrix, exactly on a Fraction one."""
    m = m.copy()
    x = m[pair]
    step = {"ulp": math.ulp(float(x)), "tol/2": DEFAULT_TOL / 2, "2tol": 2 * DEFAULT_TOL}[move]
    sign = -1 if down and x - step > 0 else 1
    if isinstance(x, Fraction):
        x += sign * Fraction(step)
    else:
        x = np.nextafter(x, sign * np.inf) if move == "ulp" else x + sign * step
    m[pair] = m[pair[::-1]] = x
    return m


@st.composite
def near_ultrametrics(draw):
    """A trusted space: a cloud, a tie-heavy metric or a zoo sample, float
    or exact, itself, its subdominant ultrametric or the rho of its chain
    with the singleton terminal; as is, or with one entry moved."""
    source = draw(st.sampled_from(("cloud", "ties", "zoo", "exact_zoo")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if source == "cloud":
        space = euclidean_space(seed, draw(st.integers(2, 30)))
    elif source == "ties":
        space = quantized_space(seed, draw(st.integers(3, 30)), draw(st.integers(1, 4)))
    else:
        exact = source == "exact_zoo"
        kind, params, top = draw(st.sampled_from(EXACT_KINDS if exact else FLOAT_KINDS))
        space, chain = ml.sample(ml.make_family(kind, **params), draw(st.integers(1, top)),
                                 exact=exact)
    form = draw(st.sampled_from(("space", "subdominant", "rho")))
    if form == "subdominant":
        space = ml.subdominant_ultrametric(space)
    elif form == "rho":
        chain = ml.with_singleton_terminal(space, ml.dendrogram_chain(space))
        space = ultrametric_space_from_chain(space, chain)
    move = draw(st.sampled_from((None, "ulp", "tol/2", "2tol")))
    if move is None or space.n < 2:
        return space
    pair = draw(st.sampled_from(list(combinations(range(space.n), 2))))
    m = moved(space.dist, pair, move, draw(st.booleans()))
    return ml.FiniteMetricSpace(space.labels, m, exact=space.exact, _trusted=True)


@CHECKS
@given(near_ultrametrics(), BUDGETS)
def test_ultrametric_reads_equal_the_whole_matrix_oracles(space, budget):
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        new, endpoints = ml.is_ultrametric(space), ml.associated_endpoints(space)
    old = oracles.is_ultrametric(space)
    assert (new.ok, new.witness, new.violation) == (old.ok, old.witness, old.violation)
    assert type(new.violation) is type(old.violation)
    expected = oracles.associated_endpoints(space)
    assert endpoints == expected
    assert [type(t) for _, t in endpoints] == [type(t) for _, t in expected]


def test_moved_entries_reach_both_verdicts():
    """The float cases of the strategy cover both sides of tol: a subdominant
    entry moved by tol/2 passes with its slack as violation, by 2 tol fails."""
    sub = ml.subdominant_ultrametric(euclidean_space(3, 12))
    i, j = max(combinations(range(12), 2), key=lambda p: sub.dist[p])  # a top-level pair
    for move, ok in (("tol/2", True), ("2tol", False)):
        bent = ml.FiniteMetricSpace(sub.labels, moved(sub.dist, (i, j), move, False),
                                    _trusted=True)
        check = ml.is_ultrametric(bent)
        assert check.ok is ok and (check.violation > 0) is True
        old = oracles.is_ultrametric(bent)
        assert (check.ok, check.witness, check.violation) == (old.ok, old.witness,
                                                              old.violation)


@CHECKS
@given(chains(), BUDGETS)
def test_chains_compare_by_split_levels_whatever_their_leaf_order(case, budget):
    space, chain = case
    reversed_leaves = ml.PartitionChain._of_leaves(space, chain.order[::-1], chain.h[::-1],
                                                   len(chain), chain.thresholds,
                                                   chain.level_ids)
    rebuilt = ml.PartitionChain.from_partitions(space, chain.levels, chain.thresholds,
                                                chain.level_ids)
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        for other in (reversed_leaves, rebuilt):
            assert other == chain and chain == other and hash(other) == hash(chain)
        assert space.n < 3 or not np.array_equal(reversed_leaves.order, chain.order)


@CHECKS
@given(chains(), BUDGETS, st.data())
def test_chains_differ_at_a_single_pair(case, budget, data):
    """h raised or lowered by one at a strict local maximum moves the split
    of that adjacent pair alone (every longer pair over it also spans a
    lower neighbour); the stats are kept, so only the scan can tell."""
    space, chain = case
    h = chain.h.astype(np.int64)
    padded = np.concatenate(([-1], h, [-1]))
    peaks = np.flatnonzero((h > padded[:-2]) & (h > padded[2:]))
    assume(len(peaks))
    p = data.draw(st.sampled_from(peaks.tolist()))
    bent_h = h.copy()
    bent_h[p] += 1 if h[p] < len(chain) else -1
    assume(bent_h[p] >= 0)
    bent = ml.PartitionChain(chain.order, bent_h.astype(np.int32), *chain.columns,
                             chain.thresholds, chain.level_ids)
    assert (oracles.split(bent) != oracles.split(chain)).sum() == 2
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        assert bent != chain and chain != bent


def test_the_distortion_check_fails_at_a_pair_past_the_first_block():
    """seq_polynomial depth 4 (p = 2, burn-in 1), its points rolled by 4:
    the first failing pair is (1, 2), so at one row per block the scan
    finds it in its second block."""
    space, chain = ml.sample(ml.make_family("seq_polynomial", s=2), 4)
    sigma = np.roll(np.arange(space.n), 4)
    space = relabeled(space, sigma)
    full = ml.with_singleton_terminal(space, relabeled_chain(space, chain, sigma))
    result = ml.embed_chain(space, ml.select_embeddable_subchain(space, full, 2), 2, 2.0, 0.5)
    old = outcome(distortion_oracle, space, result, 2.0, 0.5, 1)
    assert old[0] == "BoundViolated" and "at pair (1, 2) " in old[1]
    for budget in (1, 7, 97, spaces._BLOCK_ENTRIES):
        with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
            assert outcome(ml.verify_embedding_distortion, space, result, 2.0, 0.5, 1) == old


@pytest.fixture(scope="module")
def cloud():
    """A seeded 2,000-point cloud in the plane, as a trusted space."""
    pts = np.random.default_rng(0).random((2000, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d /= d.max()
    np.fill_diagonal(d, 0.0)
    return ml.FiniteMetricSpace([f"p{i}" for i in range(2000)], d, _trusted=True)


def peak_of(fn):
    """fn's result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_is_ultrametric_of_a_2000_point_subdominant_holds_blocks_of_pairs(cloud):
    """The accept test reads blocks of rows: 0.10x the matrix (0.23x with
    the subdominant's spanning tree and the pair scan, 3.00x when the
    whole subdominant was built and compared)."""
    sub = ml.subdominant_ultrametric(cloud)
    check, peak = peak_of(lambda: ml.is_ultrametric(sub))
    assert check.ok and peak <= 0.5 * cloud.dist.nbytes


def test_a_2000_point_dendrogram_and_its_profile_peak_below_two_matrices(cloud):
    """dendrogram_chain plus profile(chain, space=sp) on one block budget:
    1.71x the matrix (3.32x with blocks of 2^20 entries for the chain's
    level chunks and pair runs)."""
    space = ml.FiniteMetricSpace(cloud.labels, cloud.dist, _trusted=True)  # no tree yet
    prof, peak = peak_of(lambda: ml.profile(ml.dendrogram_chain(space), space=space))
    assert len(prof.to_report()["levels"]) == 2000 and peak <= 2.0 * cloud.dist.nbytes
