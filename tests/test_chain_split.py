"""The chain's split matrix and the vectorised pairwise checks, against the
per-pair loops they replaced. The loops are kept here as oracles and run on
random Euclidean clouds, tie-heavy quantized metrics and exact zoo samples."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import metriclab as ml
from metriclab import embedding, spaces, ultrametrize
from metriclab._util import as_float, dumps, flog
from metriclab.errors import (BoundViolated, CertificateRefused, CertificateViolated,
                              DepthOverflow, DistortionBoundsViolated, PackingInfeasible)
from metriclab.ultrametrize import LOG_SLACK, _safe_exp, _window_start, ensure_trivial_head
import oracles
from conftest import euclidean_space
from test_ties import quantized_space

CHECKS = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

EXACT_FAMILIES = (("seq_factorial", {}), ("seq_power_tower", {"s": 0.5}),
                  ("seq_geometric", {}), ("cantor_factorial", {}),
                  ("product_geometric", {}))


@st.composite
def chains(draw):
    """(space, chain) with a separating terminal level, from a dendrogram,
    a ball chain of the subdominant ultrametric, a sampled zoo chain, or the
    trace of one of these on a random subset."""
    source = draw(st.sampled_from(("cloud", "ties", "zoo")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if source == "zoo":
        kind, params = draw(st.sampled_from(EXACT_FAMILIES))
        depth = draw(st.integers(1, 4))
        space, chain = ml.sample(ml.make_family(kind, **params), depth, exact=True)
        chain = ml.with_singleton_terminal(space, chain)
    else:
        if source == "cloud":
            space = euclidean_space(seed, draw(st.integers(2, 12)))
        else:
            space = quantized_space(seed, draw(st.integers(3, 9)), draw(st.integers(2, 4)))
        chain = ml.dendrogram_chain(space)
    how = draw(st.sampled_from(("as_is", "ball", "induced")))
    if how == "ball":
        space = ml.subdominant_ultrametric(space)
        chain = ml.with_singleton_terminal(space, ml.ball_chain(space))
    elif how == "induced":
        keep = draw(st.lists(st.integers(0, space.n - 1), min_size=1, unique=True))
        space, chain = ml.induced_chain(space, chain, keep)
    return space, chain


def outcome(fn, *args, **kwargs):
    """A comparable record of a call: its result, or the name and message
    of the verification error it raised."""
    try:
        value = fn(*args, **kwargs)
    except (CertificateRefused, CertificateViolated, DistortionBoundsViolated,
            BoundViolated) as exc:
        return type(exc).__name__, str(exc)
    return value


def upper_pairs(n):
    for i in range(n):
        for j in range(i + 1, n):
            yield i, j


# Oracles: the per-pair loops the split matrix and the pair checks replaced.

def split_oracle(chain, n):
    split = [[len(chain.levels)] * n for _ in range(n)]
    prev = chain.levels[0].block_of
    for i, j in upper_pairs(n):
        if prev[i] != prev[j]:
            split[i][j] = 0
    for lvl in range(1, len(chain.levels)):
        cur = chain.levels[lvl].block_of
        for i, j in upper_pairs(n):
            if split[i][j] == len(chain.levels) and cur[i] != cur[j]:
                split[i][j] = lvl
    return split


def rho_oracle(space, chain, height):
    n = space.n
    rho = np.zeros((n, n), dtype=object if space.exact else float)
    if space.exact:
        rho[:] = Fraction(0)
    prev = chain.levels[0].block_of
    for level in range(1, len(chain.levels)):
        cur = chain.levels[level].block_of
        for i, j in upper_pairs(n):
            if prev[i] == prev[j] and cur[i] != cur[j]:
                rho[i, j] = rho[j, i] = height(level)
        prev = cur
    return rho


def window_oracle(chain, r_est, epsilon):
    proper = chain.proper_indices()
    two_sided = r_est > epsilon
    for start_at, idx in enumerate(proper):
        ok = True
        for later in proper[start_at:]:
            log_d = flog(chain.stats[later].delta)
            log_g = flog(chain.stats[later].gamma)
            if not log_g > (r_est + epsilon) * log_d:
                ok = False
                break
            if two_sided and not log_g < (r_est - epsilon) * log_d:
                ok = False
                break
        if ok:
            return idx
    return None


def certificate_oracle(space, chain, p, epsilon, tol=1e-12):
    chain = ensure_trivial_head(space, chain)
    if len([st for st in chain.stats if st.delta > 0]) >= 2:
        report = ml.classify_chain(chain, p, tol=tol)
        witness, log_witness = report.p_witness, report.log_p_witness
    else:
        witness = log_witness = math.inf
    if math.isnan(log_witness) or log_witness == -math.inf:
        raise CertificateRefused("chain has no positive decay witness a")
    r_est = ml.profile(chain).estimate
    if not math.isfinite(r_est):
        raise CertificateRefused("R estimate is infinite; no finite exponent exists")
    proper = chain.proper_indices()
    m_pos = window_oracle(chain, r_est, epsilon)
    if m_pos is None and not proper:
        with_blocks = [i for i, st in enumerate(chain.stats) if st.cardinality >= 2]
        if not with_blocks:
            raise CertificateRefused("space has a single point; nothing to certify")
        m_pos = with_blocks[-1]
    if m_pos is None:
        raise CertificateRefused(
            "no level index supports delta^(R+eps) < gamma < delta^(R-eps) "
            f"on the computed tail (R_est={r_est}, eps={epsilon})"
        )
    exponent = p * (r_est + epsilon)
    log_delta0 = flog(chain.stats[0].delta)
    log_gamma_m = flog(chain.stats[m_pos].gamma)
    first_term = (r_est + epsilon) * log_witness if math.isfinite(log_witness) else math.inf
    log_k = min(first_term, log_gamma_m - exponent * log_delta0)
    rho = ultrametrize.ultrametric_from_chain(space, chain)
    check = ml.is_ultrametric(
        ml.FiniteMetricSpace(space.labels, rho, exact=space.exact, _trusted=True), tol)
    if not check.ok:
        raise CertificateViolated(check.witness, "strong triangle", as_float(check.violation))
    d = space.dist
    worst_low = (math.inf, (0, 0))
    worst_up = (-math.inf, (0, 0))
    for i, j in upper_pairs(space.n):
        if d[i, j] > rho[i, j]:
            raise CertificateViolated((i, j), "d <= rho", as_float(d[i, j] - rho[i, j]))
        log_d = flog(d[i, j])
        log_r = flog(rho[i, j])
        up = log_d - log_r
        if up > worst_up[0]:
            worst_up = (up, (i, j))
        low = log_d - exponent * log_r
        if low < worst_low[0]:
            worst_low = (low, (i, j))
        if low < log_k - LOG_SLACK:
            raise CertificateViolated((i, j), "K rho^exp <= d", low - log_k)
    return ultrametrize.UltrametricCertificate(
        rho=rho, p=p, epsilon=epsilon, R_est=r_est, m_index=m_pos,
        m_level_id=int(chain.level_ids[m_pos]), a=witness, K=_safe_exp(log_k),
        log_K=log_k, exponent=exponent, lower_residual=_safe_exp(worst_low[0]),
        upper_residual=_safe_exp(worst_up[0]), lower_sandwich_skipped=r_est <= epsilon,
        worst_lower_pair=worst_low[1], worst_upper_pair=worst_up[1],
    )


def fit_oracle(d1, d2):
    n = d1.shape[0]
    slopes = []
    for i, j in upper_pairs(n):
        u = flog(d1[i, j])
        v = flog(d2[i, j])
        if u < 0 and v < 0:
            slopes.append(v / u)
    s, t = (min(slopes), max(slopes)) if slopes else (1.0, 1.0)
    log_c2 = -math.inf
    log_c1 = math.inf
    for i, j in upper_pairs(n):
        u = flog(d1[i, j])
        v = flog(d2[i, j])
        log_c2 = max(log_c2, v - s * u)
        log_c1 = min(log_c1, v - t * u)
    return ml.HolderFit(s, t, math.exp(log_c1), math.exp(log_c2))


def verify_fit_oracle(d1, d2, fit):
    for i, j in upper_pairs(d1.shape[0]):
        u = flog(d1[i, j])
        v = flog(d2[i, j])
        if v > math.log(fit.c2) + fit.s * u + LOG_SLACK:
            raise DistortionBoundsViolated((i, j), "upper bound")
        if v < math.log(fit.c1) + fit.t * u - LOG_SLACK:
            raise DistortionBoundsViolated((i, j), "lower bound")


def distortion_oracle(space, result, p, epsilon, burn_in=None, tol=1e-12):
    chain = result.chain
    if len([st for st in chain.stats if st.delta > 0]) >= 2:
        log_a = ml.classify_chain(chain, p).log_p_witness
    else:
        log_a = math.inf
    r_est = result.R_est
    exponent = p * (r_est + epsilon)
    if burn_in is None:
        burn_in = window_oracle(chain, r_est, epsilon)
    deltas = [as_float(st.delta) for st in chain.stats]
    gammas = [as_float(st.gamma) for st in chain.stats]
    split = split_oracle(chain, space.n)
    box_ok = True
    worst_low = worst_up = math.inf
    asserted = checked = 0
    for i, j in upper_pairs(space.n):
        lvl = split[i][j]
        checked += 1
        norm = result.box_distance(i, j)
        log_norm = math.log(norm)
        if norm < gammas[lvl] - tol:
            box_ok = False
        if lvl > 0 and norm > 2 * deltas[lvl - 1] + tol:
            box_ok = False
        if burn_in is None or lvl < burn_in:
            continue
        asserted += 1
        log_d = flog(space.dist[i, j])
        low_slack = log_norm - ((r_est + epsilon) * log_a + exponent * log_d)
        up_slack = (math.log(2) - log_a / p + log_d / exponent) - log_norm
        worst_low = min(worst_low, low_slack)
        worst_up = min(worst_up, up_slack)
        if low_slack < -LOG_SLACK:
            raise BoundViolated((i, j), int(chain.level_ids[lvl]), low_slack)
        if up_slack < -LOG_SLACK:
            raise BoundViolated((i, j), int(chain.level_ids[lvl]), up_slack)
    return embedding.DistortionReport(
        ok=box_ok, burn_in=burn_in,
        burn_in_level_id=None if burn_in is None else int(chain.level_ids[burn_in]),
        pairs_checked=checked, pairs_asserted=asserted, box_sandwich_ok=box_ok,
        worst_lower_slack=worst_low if math.isfinite(worst_low) else math.nan,
        worst_upper_slack=worst_up if math.isfinite(worst_up) else math.nan,
        target_exponent=1.0 / exponent if exponent else math.nan,
        fitted=result.fitted,
    )


def same_matrix(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert [type(x) for x in a.ravel()] == [type(x) for x in b.ravel()]


# Properties.

@CHECKS
@given(chains())
def test_chain_stats_equal_partition_stats(case):
    space, chain = case
    for level, stats in zip(chain.levels, chain.stats):
        ref = ml.partition_stats(space, level)
        assert stats == ref
        assert type(stats.delta) is type(ref.delta)
        assert type(stats.gamma) is type(ref.gamma)
        if space.exact:
            assert isinstance(stats.gamma, Fraction)


@CHECKS
@given(chains())
def test_split_equals_level_loop(case):
    space, chain = case
    split = oracles.split(chain)
    old = split_oracle(chain, space.n)
    assert np.array_equal(split, split.T)
    assert (np.diag(split) == len(chain)).all()
    for i, j in upper_pairs(space.n):
        assert split[i, j] == old[i][j]


@CHECKS
@given(chains())
def test_rho_matrices_equal_pair_loops(case):
    space, chain = case
    head = ensure_trivial_head(space, chain)
    same_matrix(ml.ultrametric_from_chain(space, chain),
                rho_oracle(space, head, lambda level: head.stats[level - 1].delta))
    dend = ml.dendrogram_chain(space)
    same_matrix(ml.subdominant_ultrametric(space).dist,
                rho_oracle(space, dend, lambda level: dend.thresholds[level]))


@CHECKS
@given(chains(), st.floats(-1.0, 1.0), st.floats(0.01, 2.0))
def test_window_start_equals_nested_loop(case, r_shift, epsilon):
    space, chain = case
    r_est = ml.profile(chain).estimate
    r_est = r_est + r_shift if math.isfinite(r_est) else 1.0 + r_shift
    assert _window_start(chain, r_est, epsilon) == window_oracle(chain, r_est, epsilon)


@CHECKS
@given(chains(), st.sampled_from((1.5, 2.0, 3.0)), st.sampled_from((0.05, 0.3, 1.0)),
       st.sampled_from((1, 2, 16, Fraction(1, 2))))
def test_certificate_equals_pair_loop(case, p, epsilon, scale):
    # scaling rho keeps it ultrametric; below 1 it drops under d, above 1 it
    # can break the lower bound, so both raising paths are exercised
    space, chain = case
    with scaled_rho(scale if space.exact else float(scale)):
        new = outcome(ml.certificate, space, chain, p, epsilon)
        old = outcome(certificate_oracle, space, chain, p, epsilon)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert dumps(new.to_report()) == dumps(old.to_report())
        same_matrix(new.rho, old.rho)


@CHECKS
@given(chains(), st.sampled_from((1.0, 1.01, 0.99)), st.sampled_from((1.0, 1.01, 0.99)))
def test_holder_fit_and_check_equal_pair_loops(case, c1_factor, c2_factor):
    space, chain = case
    d1 = space.dist
    d2 = ml.ultrametric_from_chain(space, chain)
    fit = ml.fit_holder_exponents(d1, d2)
    ref = fit_oracle(d1, d2)
    assert fit == ref
    assert all(type(x) is float for x in (fit.s, fit.t, fit.c1, fit.c2))
    if space.n < 2:
        return
    bent = ml.HolderFit(fit.s, fit.t, fit.c1 * c1_factor, fit.c2 * c2_factor)
    assert outcome(ultrametrize.verify_holder_fit, d1, d2, bent) == \
        outcome(verify_fit_oracle, d1, d2, bent)


@CHECKS
@given(st.sampled_from((("seq_polynomial", {"s": 2}), ("seq_power_tower", {"s": 0.5}),
                        ("seq_geometric", {}), ("seq_factorial", {}))),
       st.integers(2, 9), st.sampled_from((1, 2, 3, 11)), st.sampled_from((1.5, 2.0, 3.0)),
       st.sampled_from((0.1, 0.5)), st.one_of(st.none(), st.integers(0, 12)),
       st.sampled_from((1, 7, 97, spaces._BLOCK_ENTRIES)), st.booleans())
def test_distortion_check_equals_pair_loop(family, depth, N, p, epsilon, burn_in, budget,
                                           twin):
    """At block budgets down to one row, so that a pair fails, or sets a
    worst slack, past the first block; on the embedded matrix, whose logs
    the fit kept, or on an equal twin, logged block by block."""
    kind, params = family
    try:
        space, chain = ml.sample(ml.make_family(kind, **params), depth)
        full = ml.with_singleton_terminal(space, chain)
        sub = ml.select_embeddable_subchain(space, full, N)
        result = ml.embed_chain(space, sub, N, p, epsilon)
    except (PackingInfeasible, DepthOverflow):
        assume(False)
    if burn_in is not None:
        burn_in = min(burn_in, len(sub) - 1)
    if twin:
        space = ml.FiniteMetricSpace(space.labels, space.dist.copy(), _trusted=True)
    with mock.patch.object(spaces, "_BLOCK_ENTRIES", budget):
        new = outcome(ml.verify_embedding_distortion, space, result, p, epsilon, burn_in)
    old = outcome(distortion_oracle, space, result, p, epsilon, burn_in)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert dumps(new.to_report()) == dumps(old.to_report())


def scaled_rho(factor):
    """Patch the chain ultrametric to factor * rho, a space of its own
    values, which ultrametric_from_chain (read by the oracles) returns too."""
    build = ultrametrize.ultrametric_space_from_chain

    def scaled(sp, ch):
        return ml.FiniteMetricSpace(sp.labels, build(sp, ch).dist * factor, exact=sp.exact,
                                    _trusted=True)

    return mock.patch.object(ultrametrize, "ultrametric_space_from_chain", scaled)


def test_failing_inputs_raise_at_the_loops_pair():
    # fixed inputs where each vectorised check must raise, as the loop did
    space, chain = ml.sample(ml.make_family("seq_geometric"), 8, exact=True)
    full = ml.with_singleton_terminal(space, chain)
    with scaled_rho(Fraction(1, 2)):
        new = outcome(ml.certificate, space, full, 2.0, 0.5)
        assert new[0] == "CertificateViolated"
        assert new == outcome(certificate_oracle, space, full, 2.0, 0.5)
    d2 = ml.ultrametric_from_chain(space, full)
    fit = ml.fit_holder_exponents(space.dist, d2)
    for bent in (ml.HolderFit(fit.s, fit.t, fit.c1 * 1.01, fit.c2),
                 ml.HolderFit(fit.s, fit.t, fit.c1, fit.c2 * 0.99)):
        new = outcome(ultrametrize.verify_holder_fit, space.dist, d2, bent)
        assert new[0] == "DistortionBoundsViolated"
        assert new == outcome(verify_fit_oracle, space.dist, d2, bent)
    for depth, p, burn_in in ((5, 4.0, 0), (4, 2.0, 1)):  # finite and -inf slack
        space, chain = ml.sample(ml.make_family("seq_polynomial", s=2), depth)
        full = ml.with_singleton_terminal(space, chain)
        result = ml.embed_chain(space, ml.select_embeddable_subchain(space, full, 2),
                                2, p, 0.5)
        new = outcome(ml.verify_embedding_distortion, space, result, p, 0.5, burn_in)
        assert new[0] == "BoundViolated"
        assert new == outcome(distortion_oracle, space, result, p, 0.5, burn_in)
