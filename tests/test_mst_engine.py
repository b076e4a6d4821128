"""The minimum-spanning-tree engine against the code it replaced. The
edge-sort dendrogram, the union-find threshold and ball partitions, the
per-pair associated endpoints and the triple-loop ultrametric check are kept
here as oracles, with a Kruskal bottleneck for the largest gap and a minimax
closure for the subdominant ultrametric. They run on random Euclidean clouds,
tie-heavy quantized metrics and exact zoo samples."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import spaces as spaces_module
from metriclab._util import as_float
from metriclab.spaces import UltrametricCheck
from conftest import euclidean_space
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=40)

EXACT_FAMILIES = (("seq_factorial", {}), ("seq_power_tower", {"s": 0.5}),
                  ("seq_geometric", {}), ("cantor_factorial", {}), ("product_geometric", {}))


@st.composite
def spaces(draw):
    """(space, chains): a cloud, a tie-heavy metric or an exact zoo sample,
    with the chains whose blocks the largest-gap check walks."""
    source = draw(st.sampled_from(("cloud", "ties", "zoo")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if source == "zoo":
        kind, params = draw(st.sampled_from(EXACT_FAMILIES))
        depth = draw(st.integers(1, 6 if kind.startswith("seq") else 4))
        space, chain = ml.sample(ml.make_family(kind, **params), depth, exact=True)
        return space, [chain]
    if source == "cloud":
        return euclidean_space(seed, draw(st.integers(2, 14))), []
    return quantized_space(seed, draw(st.integers(3, 10)), draw(st.integers(2, 4))), []


# Oracles: the code the engine replaced.

def partition_oracle(assign):
    """Partition.from_assignment as it was: one scan per block id."""
    ids = sorted(set(assign))
    return ml.Partition([[i for i, a in enumerate(assign) if a == want] for want in ids],
                        len(assign))


def union_find(n):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    return find, union


def threshold_oracle(space, t, closed=False):
    """Components of {d < t}, or of {d <= t} when closed, by union-find."""
    n = space.n
    find, union = union_find(n)
    m = space.dist
    for i, j in combinations(range(n), 2):
        if m[i, j] < t or (closed and m[i, j] == t):
            union(i, j)
    return partition_oracle([find(i) for i in range(n)])


def dendrogram_oracle(space):
    """Kruskal: sort every pair, merge equal lengths together."""
    n = space.n
    if n == 1:
        return ml.PartitionChain.from_partitions(space, [ml.Partition.trivial(1)])
    m = space.dist
    edges = sorted((m[i, j], i, j) for i, j in combinations(range(n), 2))
    find, union = union_find(n)
    snapshots = []
    pos = 0
    while pos < len(edges):
        w = edges[pos][0]
        group = []
        while pos < len(edges) and edges[pos][0] == w:
            group.append(edges[pos])
            pos += 1
        merges = [(i, j) for _, i, j in group if find(i) != find(j)]
        if not merges:
            continue
        snapshots.append((w, partition_oracle([find(i) for i in range(n)])))
        for i, j in merges:
            union(i, j)
    levels = [ml.Partition.trivial(n)] + [p for _, p in reversed(snapshots)]
    thresholds = [None] + [w for w, _ in reversed(snapshots)]
    return ml.PartitionChain.from_partitions(space, levels, thresholds)


def ball_levels_oracle(space):
    m = space.dist
    values = sorted({m[i, j] for i, j in combinations(range(space.n), 2)}, reverse=True)
    return [threshold_oracle(space, r, closed=True) for r in values]


def associated_oracle(space):
    m = space.dist
    cache = {}
    out = []
    for i, j in combinations(range(space.n), 2):
        t = m[i, j]
        if t not in cache:
            cache[t] = threshold_oracle(space, t).block_of
        if cache[t][i] != cache[t][j]:
            out.append(((i, j), t))
    out.sort(key=lambda item: (item[1], item[0]), reverse=True)
    return out


def largest_gap_oracle(space, indices):
    """The Kruskal bottleneck: the last merge radius of the sub-dendrogram."""
    sub = ml.subspace(space, indices)
    if sub.n < 2:
        return Fraction(0) if sub.exact else 0.0
    return dendrogram_oracle(sub).thresholds[1]


def minimax_oracle(matrix):
    """Subdominant ultrametric as a min-max path closure."""
    u = np.array(matrix)
    for k in range(len(u)):
        u = np.minimum(u, np.maximum(u[:, [k]], u[[k], :]))
    return u


def ultrametric_oracle(space, tol=1e-12):
    """is_ultrametric as it was: a triple loop on exact spaces, a hull sweep
    on float ones, both searching every space for its worst witness."""
    m = space.dist
    n = space.n
    if n < 3:
        return UltrametricCheck(True, None, Fraction(0) if space.exact else 0.0)
    if space.exact:
        worst = Fraction(0)
        witness = None
        for i, j in combinations(range(n), 2):
            hull = min(max(m[i, k], m[k, j]) for k in range(n) if k != i and k != j)
            gap = m[i, j] - hull
            if gap > worst:
                worst = gap
                k_best = min((k for k in range(n) if k != i and k != j),
                             key=lambda k: max(m[i, k], m[k, j]))
                witness = (i, j, k_best)
        return UltrametricCheck(worst <= 0, witness, worst)
    hull = np.full((n, n), np.inf)
    argk = np.zeros((n, n), dtype=int)
    for k in range(n):
        cand = np.maximum(m[:, k][:, None], m[k, :][None, :])
        cand[k, :] = np.inf
        cand[:, k] = np.inf
        better = cand < hull
        hull = np.where(better, cand, hull)
        argk[better] = k
    slack = m - hull
    np.fill_diagonal(slack, -np.inf)
    i, j = map(int, np.unravel_index(np.argmax(slack), slack.shape))
    worst = float(slack[i, j])
    if worst <= tol:
        return UltrametricCheck(True, None, max(worst, 0.0))
    return UltrametricCheck(False, (i, j, int(argk[i, j])), worst)


def same_check(new, old):
    assert new == old
    assert type(new.violation) is type(old.violation)


def same_values(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


# Properties.

@CHECKS
@given(spaces())
def test_dendrogram_equals_edge_sort(case):
    space, _ = case
    new = ml.dendrogram_chain(space)
    old = dendrogram_oracle(space)
    assert new.levels == old.levels
    assert new.thresholds == old.thresholds
    assert [type(t) for t in new.thresholds] == [type(t) for t in old.thresholds]
    assert new.stats == old.stats
    assert new.level_ids == old.level_ids
    assert np.array_equal(oracles.split(new), oracles.split(old))


@CHECKS
@given(spaces())
def test_threshold_and_ball_partitions_equal_union_find(case):
    space, _ = case
    m = space.dist
    values = sorted({m[i, j] for i, j in combinations(range(space.n), 2)})
    probes = values + [(a + b) / 2 for a, b in zip(values, values[1:])] + [2]
    for t in probes:
        assert ml.threshold_partition(space, t) == threshold_oracle(space, t)
    for assign in ([0] * space.n, list(range(space.n)), [i % 3 for i in range(space.n)]):
        assert ml.Partition.from_assignment(assign) == partition_oracle(assign)
    ultra = ml.subdominant_ultrametric(space)
    assert ml.ball_chain(ultra).levels == tuple(ball_levels_oracle(ultra))


@CHECKS
@given(spaces())
def test_subdominant_and_associated_endpoints_equal_oracles(case):
    space, _ = case
    same_values(ml.subdominant_ultrametric(space).dist, minimax_oracle(space.dist))
    new = ml.associated_endpoints(space)
    old = associated_oracle(space)
    assert new == old
    assert [type(t) for _, t in new] == [type(t) for _, t in old]


@CHECKS
@given(spaces())
def test_largest_gap_of_every_chain_block_equals_kruskal(case):
    space, chains = case
    blocks = {tuple(range(space.n))}
    for chain in chains + [ml.dendrogram_chain(space)]:
        blocks.update(b for level in chain.levels for b in level.blocks)
    for b in sorted(blocks):
        new = ml.largest_gap(space, b)
        old = largest_gap_oracle(space, b)
        assert new == old
        assert as_float(new) == as_float(old)


@CHECKS
@given(spaces())
def test_is_ultrametric_equals_triple_loop(case):
    space, chains = case
    cases = [space, ml.subdominant_ultrametric(space)]
    cases += [ml.ultrametric_space_from_chain(space, ml.with_singleton_terminal(space, c))
              for c in chains]
    for sp in cases:
        same_check(ml.is_ultrametric(sp), ultrametric_oracle(sp))


def test_non_ultrametric_inputs_reach_the_witness_search():
    # exact: a rational line and an exact zoo sample, both far from ultrametric
    line = ml.validate([[0, Fraction(1, 3), 1], [Fraction(1, 3), 0, Fraction(2, 3)],
                        [1, Fraction(2, 3), 0]], exact=True)
    geometric, _ = ml.sample(ml.make_family("seq_geometric"), 6, exact=True)
    # float: an ultrametric with one pair raised by less than tol, which
    # passes with its small violation, and by more, which fails
    base = ml.subdominant_ultrametric(euclidean_space(3, 9)).dist.copy()
    for bump, ok in ((4e-13, True), (1e-6, False)):
        bent = base.copy()
        bent[0, 5] = bent[5, 0] = base[0, 5] + bump
        sp = ml.FiniteMetricSpace([str(i) for i in range(len(bent))], bent, _trusted=True)
        check = ml.is_ultrametric(sp)
        assert check.ok is ok and check.violation > 0
        same_check(check, ultrametric_oracle(sp))
    for sp in (line, geometric):
        check = ml.is_ultrametric(sp)
        assert not check.ok and isinstance(check.violation, Fraction)
        same_check(check, ultrametric_oracle(sp))


@pytest.mark.parametrize("block", [(0, 7, 8, 9), (0, 8, 9)])
def test_largest_gap_exact_below_float_underflow(block):
    # r7, r8 and r9 underflow to 0.0, so ordering by float picked the edge
    # from the origin instead of the exact bottleneck
    space, _ = ml.sample(ml.make_family("seq_factorial"), 9, exact=True)
    assert all(as_float(space.dist[0, i]) == 0.0 for i in block[1:])
    gap = ml.largest_gap(space, block)
    assert gap == largest_gap_oracle(space, block)
    assert gap == space.dist[block[1], block[2]]  # r7 - r8, then r8 - r9


@CHECKS
@given(spaces(), st.booleans())
def test_prim_equals_the_masked_gather_loop(case, on_ranks):
    """The in-place Prim loop builds the tree of the loop that gathered the
    closer vertices by masks: order, parent, weight and their dtypes, on
    ranks (float64 for exact spaces too) and on the entries themselves."""
    space, _ = case
    matrix = space.rank if on_ranks else space.dist
    for new, old in zip(spaces_module._prim(matrix), oracles.prim(matrix)):
        assert new.dtype == old.dtype and new.tolist() == old.tolist()
        assert [type(x) for x in new.tolist()] == [type(x) for x in old.tolist()]
