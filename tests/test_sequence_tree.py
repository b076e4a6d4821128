"""The spanning tree a trusted builder hands its space against spaces._prim
of the rank, bit for bit (order, parent, weight). zoo._pair_space writes a
sequence sample's tree in closed form once the rank passes the check that
Prim builds that tree: the path of consecutive values for |x - y|, the
star at 0 for max(x, y). Every sequence kind is drawn, float and exact,
at depths 1 to 400, with the comparison ultrametric; float samples whose
rounding ties two entries of a row fall back to _prim. Then what the
handed tree and a chain's cuts save: profile --zoo on a sequence sample
runs no _prim, and profile(chain, space=sp) reads no pair of a chain that
kept its cuts."""

import io
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
    handed = space._mst()
    event(f"handed over: {handed is not None}, over 100 points: {space.n > 100}")
    if space.exact:  # exact ranks never tie
        assert handed is not None
    calls, prim = [], spaces._prim
    with mock.patch.object(spaces, "_prim", lambda m: calls.append(len(m)) or prim(m)):
        tree = spaces._spanning_tree(space)
        assert spaces._spanning_tree(space) is tree and calls == ([] if handed else [space.n])
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


def test_only_trusted_builders_hand_over_a_tree():
    m = [[0.0, 0.5], [0.5, 0.0]]
    tree = (np.array([0, 1]), np.array([0, 0]), np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        ml.FiniteMetricSpace(["a", "b"], m, _tree=lambda: tree)
    assert ml.FiniteMetricSpace(["a", "b"], m)._mst is None


def test_profile_of_a_sequence_sample_runs_no_prim(monkeypatch):
    """And a space that reads no tree, as ultrametrize's sample, runs no
    check either."""
    calls, prim = [], spaces._prim
    monkeypatch.setattr(spaces, "_prim", lambda m: calls.append(len(m)) or prim(m))
    checks, check = [], zoo._sequence_tree
    monkeypatch.setattr(zoo, "_sequence_tree", lambda *a: checks.append(1) or check(*a))
    for argv in (["profile", "--zoo", "seq_polynomial", "--s", "2", "--depth", "140"],
                 ["profile", "--zoo", "sqrt_ultra", "--depth", "120"],
                 ["profile", "--zoo", "seq_geometric", "--depth", "60", "--exact"]):
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert calls == [] and len(checks) == 3
    with redirect_stdout(io.StringIO()):
        assert cli.main(["ultrametrize", "--zoo", "seq_polynomial", "--s", "2", "--depth",
                         "140", "--p", "3", "--epsilon", "0.5"]) == 0
    assert len(checks) == 3


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
        bare = ml.PartitionChain(chain.order, chain.h, chain.stats, chain.thresholds,
                                 chain.level_ids)
        assert ml.profile(bare, space=space) == report
    assert len(calls) == len(cases)
