"""The certificate read from per-level extremes against the per-pair tail
it replaced (oracles.certificate_per_pair): every report field with its
type, or the error with its pair and slack, bit for bit. The cases are the
ones a per-level reading could get wrong: self-similar chains, where every
level ties; an exact sample whose logs are out of order over a level's
ranks; pairs of one level a few ulps apart below 1e-100, which share a
log; the truncated chains of ROADMAP item 1; a scaled rho, below d or
far above it; and scans in blocks small enough that a pair is found, or
fails, past the first block. Then the calls the certificate no longer
makes, and its memory on a 2,000-point cloud."""

import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import logratio, partitions, spaces, ultrametrize
from metriclab.errors import CertificateRefused, CertificateViolated
from test_chain_split import chains, distortion_oracle, outcome, scaled_rho

CHECKS = settings(settings.get_profile("deterministic"), max_examples=40)
SCALES = st.sampled_from((1, 16, Fraction(1, 2)))


def outcome_of(fn, *args):
    """The certificate, or the error's type, pair and slack."""
    try:
        return fn(*args)
    except CertificateViolated as exc:
        return type(exc).__name__, exc.pair, exc.inequality, exc.slack
    except CertificateRefused as exc:
        return type(exc).__name__, str(exc)


def same_as_per_pair(space, chain, p, epsilon, scale=1):
    """Assert the certificate equals the per-pair one; return its outcome."""
    with scaled_rho(scale if space.exact else float(scale)):
        new = outcome_of(ml.certificate, space, chain, p, epsilon)
        old = outcome_of(oracles.certificate_per_pair, space, chain, p, epsilon)
    if isinstance(old, tuple):
        assert new == old
        if old[0] == "CertificateViolated":  # slack bits and type too
            assert type(new[3]) is type(old[3]) is float
            assert math.copysign(1, new[3]) == math.copysign(1, old[3])
        return old[0]
    for field in fields(old):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if field.name == "rho":
            assert a.dtype == b.dtype and np.array_equal(a, b)
            continue
        assert type(a) is type(b), field.name
        assert a == b or (a != a and b != b), field.name
        if type(a) is float:
            assert math.copysign(1, a) == math.copysign(1, b)
    assert all(type(x) is int for x in new.worst_lower_pair + new.worst_upper_pair)
    return "ok"


@settings(CHECKS, max_examples=25)
@given(st.integers(1, 200), st.booleans(), st.sampled_from((1.5, 2.0, 3.0)),
       st.sampled_from((0.05, 0.1, 0.5)), SCALES)
def test_self_similar_chains_equal_the_per_pair_tail(depth, exact, p, epsilon, scale):
    """seq_geometric: every level splits its point at the same ratios, so
    every level can tie for a residual and the scan must stop at the first
    tying pair in row-major order."""
    space, chain = ml.sample(ml.make_family("seq_geometric"), depth, exact=exact)
    same_as_per_pair(space, ml.with_singleton_terminal(space, chain), p, epsilon, scale)


@CHECKS
@given(chains(), st.sampled_from((1, 7, 97)), st.sampled_from((1.5, 2.0, 3.0)),
       st.sampled_from((0.05, 0.5)), SCALES)
def test_scans_of_small_blocks_name_the_same_pairs(case, budget, p, epsilon, scale):
    """The scan at one row per block and at two primes, so that a pair may
    be found, or fail, in any block but the first."""
    space, chain = case
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        same_as_per_pair(space, chain, p, epsilon, scale)


def test_exact_logs_out_of_order_are_read_from_the_pairs():
    """At depth 60 flog of a smaller gap can exceed flog of rho: the upper
    residual is above 1, and only the pairs' own logs give it."""
    space, chain = ml.sample(ml.make_family("seq_geometric"), 60, exact=True)
    chain = ml.with_singleton_terminal(space, chain)
    logs = ultrametrize._value_logs(space.values)
    assert (logs[1:] < logs[:-1]).any()
    assert same_as_per_pair(space, chain, 2.0, 0.5) == "ok"
    assert ml.certificate(space, chain, 2.0, 0.5).upper_residual == 1.0000000000000053


@st.composite
def ulp_spaces(draw):
    """(space, chain): clusters of two or three points whose pairs are x
    plus a few ulps, x below 1e-100, the clusters at one distance apart,
    under the chain {X}, the clusters, the singletons; distinct distances
    of the last level then share one log."""
    x = draw(st.sampled_from((1e-300, 3e-200, 1e-150, 7e-120)))
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    n = sum(sizes)
    m = np.full((n, n), draw(st.sampled_from((0.5, 0.25))))
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(i + 1, start + size):
                m[i, j] = m[j, i] = x + draw(st.integers(0, 8)) * math.ulp(x)
        start += size
    np.fill_diagonal(m, 0.0)
    space = ml.validate(m)
    clusters = ml.Partition.from_assignment(np.repeat(np.arange(len(sizes)), sizes))
    levels = [ml.Partition.trivial(n), clusters, ml.Partition.singletons(n)]
    return space, ml.PartitionChain.from_partitions(space, levels)


@CHECKS
@given(ulp_spaces(), st.sampled_from((1.5, 2.0, 3.0)), st.sampled_from((0.05, 0.5)), SCALES)
def test_pairs_that_share_a_log_go_by_row_major_order(case, p, epsilon, scale):
    space, chain = case
    same_as_per_pair(space, chain, p, epsilon, scale)


@CHECKS
@given(ulp_spaces(), st.sampled_from((1, 7)))
def test_a_rho_one_ulp_low_fails_past_the_pairs_that_reach_the_residuals(case, budget):
    """rho one ulp below delta: the pairs at delta fail d <= rho, yet share
    rho's log, so a pair that does not fail can reach the upper residual
    first and the scan must go on to the failing one."""
    space, chain = case
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        assert same_as_per_pair(space, chain, 2.0, 0.5, 1 - Fraction(1, 2 ** 52)) == \
            "CertificateViolated"


def test_a_shared_log_reports_the_first_pair_not_the_largest_distance():
    """rho of the last level is x + 2 ulps, the largest distance there; x
    has the same log, so (0, 1) already reaches the upper residual, 1."""
    x = 1e-150
    m = np.full((4, 4), 0.5)
    m[0, 1] = m[1, 0] = x
    m[2, 3] = m[3, 2] = x + 2 * math.ulp(x)
    np.fill_diagonal(m, 0.0)
    space = ml.validate(m)
    assert math.log(m[2, 3]) == math.log(x)
    levels = [ml.Partition.trivial(4), ml.Partition([[0, 1], [2, 3]], 4),
              ml.Partition.singletons(4)]
    chain = ml.PartitionChain.from_partitions(space, levels)
    assert same_as_per_pair(space, chain, 2.0, 0.5) == "ok"
    cert = ml.certificate(space, chain, 2.0, 0.5)
    assert cert.upper_residual == 1.0 and cert.worst_upper_pair == (0, 1)


@pytest.mark.parametrize("kind,params,depth,exact", [
    ("cantor_factorial", {"r": 0.5}, 7, False), ("seq_factorial", {}, 7, True)])
@pytest.mark.parametrize("scale", [1, 16, Fraction(1, 2)])
def test_truncated_chains_fail_at_the_pair_of_the_per_pair_tail(kind, params, depth, exact,
                                                                  scale):
    """ROADMAP item 1's two ultrametrize runs (p = 3, eps = 0.1): they fail
    the lower bound at a pair first split at the singleton terminal."""
    space, chain = ml.sample(ml.make_family(kind, **params), depth, exact=exact)
    chain = ml.with_singleton_terminal(space, chain)
    found = same_as_per_pair(space, chain, 3.0, 0.1, scale)
    assert scale != 1 or found == "CertificateViolated"


def test_the_truncated_embedding_reads_the_profile_estimate():
    """ROADMAP item 1's embed run (seq_polynomial depth 8, N = 1): the
    estimate is the profile's and the distortion check fails as its
    per-pair loop does."""
    space, chain = ml.sample(ml.make_family("seq_polynomial", s=2), 8)
    full = ml.with_singleton_terminal(space, chain)
    sub = ml.select_embeddable_subchain(space, full, 1)
    result = ml.embed_chain(space, sub, 1, 2.0, 0.5)
    assert result.R_est == ml.profile(sub).estimate
    new = outcome(ml.verify_embedding_distortion, space, result, 2.0, 0.5)
    assert new[0] == "BoundViolated"
    assert new == outcome(distortion_oracle, space, result, 2.0, 0.5)


def test_the_estimate_helper_is_the_profile_estimate():
    cases = [ml.sample(ml.make_family(kind, **params), depth)
             for kind, params in (("seq_polynomial", {"s": 2}), ("sqrt_ultra", {}),
                                  ("seq_log", {}), ("seq_geometric", {}))
             for depth in (1, 2, 5, 30)]
    cases += [ml.sample(ml.make_family("cantor_factorial", r=0.5), depth, exact=True)
              for depth in (1, 3, 5)]
    for space, chain in cases:
        for ch in (chain, ml.with_singleton_terminal(space, chain),
                   ml.dendrogram_chain(space)):
            assert logratio.r_estimate(ch) == ml.profile(ch).estimate


def counting_certificate_calls(calls):
    """Patches that count calls of profile, np.triu_indices and the pair
    stream _pair_runs."""
    def counted(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)
    return [mock.patch.object(logratio, "profile", counted("profile", logratio.profile)),
            mock.patch.object(ultrametrize, "profile", counted("profile", logratio.profile)),
            mock.patch.object(np, "triu_indices", counted("triu_indices", np.triu_indices)),
            mock.patch.object(partitions, "_pair_runs",
                              counted("_pair_runs", partitions._pair_runs))]


def test_the_certificate_logs_no_pair_and_streams_none():
    cases = []
    for kind, params, depth, exact in (("seq_polynomial", {"s": 2}, 40, False),
                                       ("seq_geometric", {}, 60, True),
                                       ("cantor_factorial", {"r": 0.5}, 5, True),
                                       ("seq_factorial", {}, 7, True)):
        space, chain = ml.sample(ml.make_family(kind, **params), depth, exact=exact)
        cases.append((space, ml.with_singleton_terminal(space, chain)))
    cloud = ml.FiniteMetricSpace(range(3), [[0, 0.5, 1], [0.5, 0, 0.75], [1, 0.75, 0]],
                                 _trusted=True)
    cases.append((cloud, ml.dendrogram_chain(cloud)))
    calls = []
    patches = counting_certificate_calls(calls)
    for patch in patches:
        patch.start()
    try:
        outcomes = [outcome_of(ml.certificate, space, chain, p, eps) for space, chain in cases
                    for p, eps in ((2.0, 0.5), (3.0, 0.1))]
    finally:
        for patch in patches:
            patch.stop()
    assert calls == []
    assert {o[0] if isinstance(o, tuple) else "ok" for o in outcomes} == \
        {"ok", "CertificateViolated"}


def test_the_certificate_of_a_2000_point_cloud_peaks_near_three_matrices():
    """The scan holds blocks of rows, and so does is_ultrametric(rho); the
    peak is rho, about three copies of the matrix (rho's ranks, its
    entries and a temporary of _leaf_matrix)."""
    rng = np.random.default_rng(0)
    pts = rng.random((2000, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d /= d.max()
    np.fill_diagonal(d, 0.0)
    space = ml.FiniteMetricSpace([f"p{i}" for i in range(2000)], d, _trusted=True)
    chain = ml.with_singleton_terminal(space, ml.dendrogram_chain(space))
    del pts
    tracemalloc.start()
    try:
        cert = ml.certificate(space, chain, 2.0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * d.nbytes  # 4.00x with a whole subdominant of rho, 6.08x logging every pair
    assert (cert.worst_lower_pair, cert.worst_upper_pair) == ((128, 491), (11, 1676))
