"""Metamorphic relations that need no oracle, so they hold at any size.

Relabeling: a permutation sigma of the points moves no statistic. Chain
stats and thresholds, profile reports, certificate constants, gap bounds
and ultrametric verdicts stay equal, and split is permuted exactly by
sigma. Closure: rho and the subdominant ultrametric are ultrametric, so
is_ultrametric accepts them and ball_chain builds on them. Inputs are
clouds, tie-heavy quantized metrics and zoo samples, float and exact, up to
about 300 points."""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import metriclab as ml
from metriclab.errors import DepthOverflow, MetricLabError
from conftest import euclidean_space
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=60)

EXACT_KINDS = (("seq_factorial", {}, 8), ("seq_power_tower", {"s": 0.5}, 10),
               ("seq_geometric", {}, 40), ("cantor_factorial", {}, 6),
               ("product_geometric", {}, 6))


@st.composite
def spaces(draw):
    """A space with a chain to relabel: a cloud, a tie-heavy metric, an exact
    copy of a small one, or a float or exact zoo sample with its chain
    (None for the others, which take their dendrogram)."""
    source = draw(st.sampled_from(("cloud", "ties", "exact_ties", "zoo", "exact_zoo")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if source == "cloud":
        return euclidean_space(seed, draw(st.integers(2, 300))), None
    if source == "ties":
        return quantized_space(seed, draw(st.integers(3, 300)), draw(st.integers(1, 4))), None
    if source == "exact_ties":
        space = quantized_space(seed, draw(st.integers(3, 24)), draw(st.integers(1, 4)))
        # shortest paths of weights 1..4 over their largest: quarters and thirds
        exact = [[Fraction(x).limit_denominator(4) for x in row] for row in space.dist.tolist()]
        return ml.validate(exact, exact=True), None
    if source == "exact_zoo":
        kind, params, top = draw(st.sampled_from(EXACT_KINDS))
        return ml.sample(ml.make_family(kind, **params), draw(st.integers(1, top)), exact=True)
    kind = draw(st.sampled_from(ml.KINDS))
    top = 8 if kind in ("product_geometric", "cantor_factorial") else 300
    try:
        return ml.sample(ml.make_family(kind), draw(st.integers(1, top)))
    except DepthOverflow:  # float values underflow at this depth
        assume(False)


def relabeled(space, sigma):
    """The space whose point k is the point sigma[k] of space."""
    at = np.ix_(sigma, sigma)
    ranks = (space.values, space.rank[at]) if space.exact else None
    return ml.FiniteMetricSpace([space.labels[i] for i in sigma], space.dist[at],
                                exact=space.exact, _trusted=True, diameter=space.diameter,
                                _ranks=ranks)


def relabeled_chain(space, chain, sigma):
    """The chain on the relabeled space whose levels are chain's levels."""
    levels = [ml.Partition.from_assignment(row[sigma]) for row in chain.labels]
    return ml.PartitionChain.from_partitions(space, levels, chain.thresholds, chain.level_ids)


def outcome(fn, *args, **kwargs):
    """fn's result, or its error type: a relation compares what both sides do."""
    try:
        return fn(*args, **kwargs)
    except (MetricLabError, ValueError) as exc:
        return type(exc)


def certificate_constants(space, chain):
    cert = outcome(ml.certificate, space, ml.with_singleton_terminal(space, chain), 2.0, 0.5)
    if isinstance(cert, type):
        return cert
    report = cert.to_report()
    for key in ("worst_lower_pair", "worst_upper_pair"):  # a pair moves with the points
        del report[key]
    return report


@CHECKS
@given(spaces(), st.randoms(use_true_random=False))
def test_relabeling_moves_no_statistic(case, rng):
    space, chain = case
    sigma = np.array(rng.sample(range(space.n), space.n))
    moved = relabeled(space, sigma)
    if chain is None:
        chain, moved_chain = ml.dendrogram_chain(space), ml.dendrogram_chain(moved)
    else:
        moved_chain = relabeled_chain(moved, chain, sigma)
    assert moved_chain.stats == chain.stats and moved_chain.thresholds == chain.thresholds
    assert np.array_equal(moved_chain.split, chain.split[np.ix_(sigma, sigma)])
    assert (ml.profile(moved_chain, space=moved).to_report()
            == ml.profile(chain, space=space).to_report())
    assert certificate_constants(moved, moved_chain) == certificate_constants(space, chain)
    if space.n > 1:
        radii = [ml.largest_gap(space), space.diameter / 3]
        assert (ml.gap_bounds(moved, radii, exact=False).to_report()
                == ml.gap_bounds(space, radii, exact=False).to_report())
    check, moved_check = ml.is_ultrametric(space), ml.is_ultrametric(moved)
    assert (moved_check.ok, moved_check.violation) == (check.ok, check.violation)


@CHECKS
@given(spaces())
def test_rho_and_the_subdominant_are_ultrametric(case):
    space, chain = case
    chain = ml.dendrogram_chain(space) if chain is None else chain
    rho = ml.ultrametric_space_from_chain(space, ml.with_singleton_terminal(space, chain))
    for ultra in (rho, ml.subdominant_ultrametric(space)):
        check = ml.is_ultrametric(ultra)
        assert check.ok and check.violation == 0
        balls = ml.ball_chain(ultra)  # one level per distance the space takes
        assert len(balls) == max(len(np.unique(ultra.rank)) - 1, 1)
        if space.exact:
            assert all(isinstance(st.delta, Fraction) for st in balls.stats)
