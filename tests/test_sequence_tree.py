"""The spanning tree of a sequence sample against spaces._prim of the
rank, bit for bit (order, parent, weight). zoo._pair_space hands a |x - y|
sample's tree over in closed form once the rank passes the check that
Prim builds that tree, a replay of Prim's choices along the path of
consecutive values; a max(x, y) sample, an ultrametric, hands none, and
spaces._spanning_tree writes its tree by the ultrametric row pass. Every
sequence kind is drawn, float and exact, at depths 1 to 400, with the
comparison ultrametric, and so are sequences of small integers, which tie
often, and every small rank of a few entries, whose rows rise and fall,
through both the replay and the row pass; float samples whose rounding
ties change one of Prim's choices fall back to _prim, and those whose
ties do not are handed over. Then what the trees and a chain's cuts save:
profile --zoo on a sequence sample runs no _prim, and profile(chain,
space=sp) reads no pair of a chain that kept its cuts."""

import io
import itertools
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import metriclab as ml
from metriclab import cli, partitions, spaces, zoo
from metriclab.errors import DepthOverflow
from conftest import euclidean_space
from test_block_extents import nested_chain

CHECKS = settings(settings.get_profile("deterministic"), max_examples=60)

SEQUENCE_KINDS = ("seq_factorial", "seq_power_tower", "seq_geometric", "seq_polynomial",
                  "seq_log", "sqrt_ultra")
EXACT_DEPTHS = {"seq_factorial": 8, "seq_power_tower": 12, "seq_geometric": 400}


@st.composite
def samples(draw):
    """A float or exact sequence sample, or its comparison ultrametric."""
    kind = draw(st.sampled_from(SEQUENCE_KINDS))
    exact = kind in EXACT_DEPTHS and draw(st.booleans())
    depth = draw(st.integers(1, EXACT_DEPTHS[kind] if exact else 400))
    family = ml.make_family(kind)
    comparison = family.chain_style == "sequence" and draw(st.booleans())
    try:
        if comparison:
            return ml.comparison_ultrametric(family, depth, exact)
        return ml.sample(family, depth, exact, chain=False)[0]
    except DepthOverflow:  # float values underflow at this depth
        assume(False)


def same_tree(new, old):
    for a, b in zip(new, old, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@CHECKS
@given(samples())
def test_handed_trees_equal_prim(space):
    ultrametric = space._mst is None  # a max sample, whose tree the row pass writes
    handed = None if ultrametric else space._mst()
    event(f"handed over: {handed is not None}, ultrametric: {ultrametric}, "
          f"over 100 points: {space.n > 100}")
    if space.exact:  # exact ranks never tie
        assert ultrametric or handed is not None
    calls, prim = [], spaces._prim
    with mock.patch.object(spaces, "_prim", lambda m: calls.append(len(m)) or prim(m)):
        tree = spaces._spanning_tree(space)
        assert spaces._spanning_tree(space) is tree
        assert calls == ([] if ultrametric or handed else [space.n])
    assert not any(part.flags.writeable for part in tree)
    same_tree(tree, prim(space.rank))
    if handed:
        same_tree(tree, handed)


@pytest.mark.parametrize("kind, params, depth", [("seq_factorial", {}, 5),
                                                 ("seq_power_tower", {"s": 0.5}, 8)])
def test_rounding_ties_fall_back_to_prim(kind, params, depth, monkeypatch):
    """0.5 - 2^-120 rounds to 0.5 at seq_factorial depth 5, a tie with
    d(r_1, 0), and Prim's tree is no longer the path."""
    space, chain = ml.sample(ml.make_family(kind, **params), depth)
    assert space._mst() is None
    calls, prim = [], spaces._prim
    monkeypatch.setattr(spaces, "_prim", lambda m: calls.append(len(m)) or prim(m))
    order, parent, _ = spaces._spanning_tree(space)
    assert calls == [depth + 1]
    path = np.append(0, np.arange(depth, 0, -1))
    assert order.tolist() == path.tolist() and parent[2:].tolist() != path[1:-1].tolist()
    assert ml.profile(chain, space=space).property6["gap_constant"] is not None


@pytest.mark.parametrize("depth", [55, 60, 120, 400])
def test_rounding_ties_that_keep_prims_path_hand_it_over(depth):
    """From depth 55, d(r_1, r_d) = 2^-1 - 2^-d rounds to 2^-1 and ties
    d(r_1, 0), yet no tie decides one of Prim's choices: the path is
    handed over, bit for bit Prim's tree."""
    space = ml.sample(ml.make_family("seq_geometric"), depth, chain=False)[0]
    assert space.rank[1, depth] == space.rank[1, 0] == 0.5
    handed = space._mst()
    assert handed is not None
    same_tree(handed, spaces._prim(space.rank))


def hands_over_exactly_prims_tree(rank):
    """The replay hands over a tree exactly when Prim builds the path, and
    then Prim's tree bit for bit; True when it hands one over."""
    handed, prim = zoo._sequence_tree(rank), spaces._prim(rank)
    order = np.append(0, np.arange(len(rank) - 1, 0, -1))
    built = np.array_equal(prim[0], order) and np.array_equal(prim[1], np.append(0, order[:-1]))
    assert (handed is not None) == built
    if handed is not None:
        same_tree(handed, prim)
    return handed is not None


def writes_exactly_prims_tree(rank):
    """The row pass accepts exactly an ultrametric rank, and then writes
    Prim's tree bit for bit; True when it accepts."""
    parents, prim = spaces._ultrametric_parents(rank), spaces._prim(rank)
    ultrametric = np.array_equal(
        spaces._leaf_matrix(prim[0], prim[2][1:], np.maximum, prim[2][0]), rank)
    assert (parents is not None) == ultrametric
    if parents is not None:
        same_tree(spaces._ultrametric_tree(*parents), prim)
    return parents is not None


@CHECKS
@given(st.lists(st.integers(1, 12), min_size=1, max_size=30, unique=True), st.booleans())
def test_replayed_ties_hand_over_exactly_prims_tree(values, star):
    """Sequence ranks of small integers tie often, in every row; their max
    ranks are ultrametrics, whose tree the row pass writes."""
    x = np.array([0.0] + sorted(map(float, values), reverse=True))
    rank = np.maximum(x[:, None], x[None, :]) if star else np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(rank, 0.0)
    if star:
        assert writes_exactly_prims_tree(rank)
    else:
        event(f"handed over: {hands_over_exactly_prims_tree(rank)}")


@pytest.mark.parametrize("n, entries", [(3, (1, 2, 3)), (4, (1, 2, 3)), (5, (1, 2))])
def test_every_small_rank_hands_over_exactly_prims_tree(n, entries):
    """Every symmetric rank of n points with the given entries, whose rows
    rise and fall and tie: the replay reads each point's least entry to
    the tree from its row's prefix minima, and the row pass accepts the
    ultrametrics among them."""
    upper, handed, accepted = np.triu_indices(n, 1), 0, 0
    for row in itertools.product(entries, repeat=len(upper[0])):
        rank = np.zeros((n, n))
        rank[upper] = row
        rank += rank.T
        handed += hands_over_exactly_prims_tree(rank)
        accepted += writes_exactly_prims_tree(rank)
    assert handed > 0 and accepted > 0


def test_a_row_that_rises_keeps_prims_path():
    """Row 3 rises from column 0 to column 1 in attach order, yet its least
    entry to the tree stays below row 2's: Prim builds the path, and the
    replay hands it over."""
    rank = np.array([[0.0, 2, 2.5, 1], [2, 0, 1, 3], [2.5, 1, 0, 1], [1, 3, 1, 0]])
    order, parent, _ = spaces._prim(rank)
    assert order.tolist() == [0, 3, 2, 1] and parent.tolist() == [0, 0, 3, 2]
    assert hands_over_exactly_prims_tree(rank)


def test_only_trusted_builders_hand_over_a_tree():
    m = [[0.0, 0.5], [0.5, 0.0]]
    tree = (np.array([0, 1]), np.array([0, 0]), np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        ml.FiniteMetricSpace(["a", "b"], m, _tree=lambda: tree)
    assert ml.FiniteMetricSpace(["a", "b"], m)._mst is None


def test_profile_of_a_sequence_sample_runs_no_prim(monkeypatch):
    """The |x - y| samples replay Prim's choices and sqrt_ultra, a max
    sample, takes the row pass's tree. A space that reads no tree, as
    ultrametrize's sample, runs no check either."""
    calls, prim = [], spaces._prim
    monkeypatch.setattr(spaces, "_prim", lambda m: calls.append(len(m)) or prim(m))
    checks, check = [], zoo._sequence_tree
    monkeypatch.setattr(zoo, "_sequence_tree", lambda *a: checks.append(1) or check(*a))
    written, write = [], spaces._ultrametric_tree
    monkeypatch.setattr(spaces, "_ultrametric_tree", lambda *a: written.append(1) or write(*a))
    for argv in (["profile", "--zoo", "seq_polynomial", "--s", "2", "--depth", "140"],
                 ["profile", "--zoo", "sqrt_ultra", "--depth", "120"],
                 ["profile", "--zoo", "seq_geometric", "--depth", "60", "--exact"]):
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert calls == [] and len(checks) == 2 and len(written) == 1
    with redirect_stdout(io.StringIO()):
        assert cli.main(["ultrametrize", "--zoo", "seq_polynomial", "--s", "2", "--depth",
                         "140", "--p", "3", "--epsilon", "0.5"]) == 0
    assert len(checks) == 2 and len(written) == 1


def test_profile_reads_no_pair_of_a_chain_that_kept_its_cuts(monkeypatch):
    """Dendrogram, ball, zoo, induced and nested chains, and their singleton
    terminals, keep the cuts of their one pair pass; a chain made by hand
    without them reads its pairs once, for the same report."""
    cloud = euclidean_space(7, 30)
    ultra = ml.subdominant_ultrametric(cloud)
    cases = [(cloud, ml.dendrogram_chain(cloud)), (ultra, ml.ball_chain(ultra)),
             (cloud, nested_chain(cloud, 7, 3)),
             ml.induced_chain(cloud, ml.dendrogram_chain(cloud), range(0, 30, 2)),
             ml.sample(ml.make_family("seq_polynomial"), 40),
             ml.sample(ml.make_family("seq_geometric"), 30, exact=True),
             ml.sample(ml.make_family("cantor_factorial"), 4)]
    cases += [(space, ml.with_singleton_terminal(space, chain)) for space, chain in cases]
    reports = [ml.profile(chain, space=space) for space, chain in cases]
    calls, stream = [], partitions._pair_runs
    monkeypatch.setattr(partitions, "_pair_runs", lambda *a: calls.append(1) or stream(*a))
    for (space, chain), report in zip(cases, reports):
        assert ml.profile(chain, space=space) == report
    assert calls == []
    for (space, chain), report in zip(cases, reports):
        bare = ml.PartitionChain(chain.order, chain.h, *chain.columns, chain.thresholds,
                                 chain.level_ids)
        assert ml.profile(bare, space=space) == report
    assert len(calls) == len(cases)
