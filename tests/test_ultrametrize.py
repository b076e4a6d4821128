import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import metriclab as ml
from metriclab.errors import CertificateRefused, NotSeparating
from conftest import euclidean_space


def test_rho_two_point_chain():
    sp = ml.validate([[0, 0.8], [0.8, 0]])
    chain = ml.dendrogram_chain(sp)
    rho = ml.ultrametric_from_chain(sp, chain)
    assert rho[0, 1] == 0.8  # delta of the trivial head = the diameter


def test_rho_requires_separation():
    fam = ml.make_family("seq_geometric")
    space, chain = ml.sample(fam, 6)
    with pytest.raises(NotSeparating):
        ml.ultrametric_from_chain(space, chain)


def test_rho_equals_comparison_ultrametric_on_sequence_families():
    # pairs (r_m, r_n) join deepest at level min(m, n), so rho = max value
    for kind, kwargs in (("seq_power_tower", {"s": 0.5}), ("seq_factorial", {}),
                         ("seq_geometric", {})):
        fam = ml.make_family(kind, **kwargs)
        depth = 6
        space, chain = ml.sample(fam, depth)
        full = ml.with_singleton_terminal(space, chain)
        rho = ml.ultrametric_from_chain(space, full)
        expected = ml.comparison_ultrametric(fam, depth)
        assert np.array_equal(rho, expected.dist)
        assert (space.dist <= rho).all()


def test_comparison_ultrametric_bi_lipschitz_factorial_exact():
    # |x - y| <= max(x, y) <= 2 |x - y| checked in exact rational arithmetic
    fam = ml.make_family("seq_factorial")
    depth = 8
    space, _ = ml.sample(fam, depth, exact=True, chain=False)
    rho = ml.comparison_ultrametric(fam, depth, exact=True)
    assert ml.is_ultrametric(rho).ok
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            d = space.dist[i, j]
            u = rho.dist[i, j]
            assert d <= u
            assert u <= 2 * d


def test_certificate_geometric():
    fam = ml.make_family("seq_geometric")
    space, chain = ml.sample(fam, 12)
    full = ml.with_singleton_terminal(space, chain)
    cert = ml.certificate(space, full, 2.0, 0.5)
    assert cert.R_est == pytest.approx(1.0, abs=1e-12)
    assert cert.exponent == pytest.approx(3.0, abs=1e-12)
    assert cert.a == pytest.approx(1.0, abs=1e-12)
    assert cert.K == pytest.approx(1.0, abs=1e-12)
    assert cert.upper_residual <= 1.0 + 1e-12
    assert cert.lower_residual >= cert.K - 1e-12


def test_certificate_power_tower_float_depth_10():
    fam = ml.make_family("seq_power_tower", s=0.5)
    space, chain = ml.sample(fam, 10)
    full = ml.with_singleton_terminal(space, chain)
    cert = ml.certificate(space, full, 3.0, 0.1)
    assert cert.exponent == pytest.approx(3 * (cert.R_est + 0.1), abs=1e-12)
    assert cert.exponent == pytest.approx(1.8, abs=1e-2)
    assert not cert.lower_sandwich_skipped


def test_certificate_single_pair_degenerate():
    sp = ml.validate([[0, 0.6], [0.6, 0]])
    chain = ml.dendrogram_chain(sp)
    cert = ml.certificate(sp, chain, 2.0, 0.3)
    assert cert.rho[0, 1] == 0.6
    assert cert.upper_residual == pytest.approx(1.0)


def test_certificate_refused_on_infinite_estimate():
    # gamma = 1 at the deepest proper level makes R infinite: no exponent
    sp = ml.validate([[0, 0.1, 1], [0.1, 0, 1], [1, 1, 0]])
    chain = ml.dendrogram_chain(sp)
    assert ml.profile(chain).estimate == math.inf
    with pytest.raises(CertificateRefused):
        ml.certificate(sp, chain, 2.0, 0.1)


def test_certificate_on_log_family_truncation_still_verifies():
    # the truncation cannot know the limit is infinite; the certificate it
    # emits is for the finite sample and must still verify on every pair
    fam = ml.make_family("seq_log")
    space, chain = ml.sample(fam, 30)
    full = ml.with_singleton_terminal(space, chain)
    cert = ml.certificate(space, full, 2.0, 0.1)
    assert cert.upper_residual <= 1.0 + 1e-12
    assert math.log(cert.lower_residual) >= cert.log_K - 1e-9


def test_certificate_footnote_bound():
    # R_est / (p (R_est + eps)) <= R(X, rho) <= 1 on zoo families
    for kind, kwargs, p, eps in (("seq_geometric", {}, 2.0, 0.5),
                                 ("seq_power_tower", {"s": 0.5}, 3.0, 0.1),
                                 ("seq_polynomial", {"s": 2.0}, 2.0, 0.5)):
        fam = ml.make_family(kind, **kwargs)
        space, chain = ml.sample(fam, 9)
        full = ml.with_singleton_terminal(space, chain)
        cert = ml.certificate(space, full, p, eps)
        rho_space = ml.FiniteMetricSpace(space.labels, cert.rho, _trusted=True)
        rho_prof = ml.profile(ml.ball_chain(rho_space))
        assert cert.R_est / cert.exponent <= rho_prof.estimate + 1e-9
        assert rho_prof.estimate <= 1.0 + 1e-12


def test_rho_and_d_share_dendrogram_topology():
    # rho built from the space's own single-linkage chain reproduces the
    # merge tree, with thresholds relabeled to level diameters; chains that
    # are not single-linkage (the slowly decaying families) need not
    # levels whose diameters tie collapse into one rho merge, so rho's tree
    # is the d tree with equal-diameter plateaus merged
    for seed in range(5):
        space = euclidean_space(seed + 90, 7)
        dend = ml.dendrogram_chain(space)
        rho = ml.ultrametric_space_from_chain(space, dend)
        d_levels = [p.blocks for p in dend.levels]
        r_levels = [p.blocks for p in ml.dendrogram_chain(rho).levels]
        positions = [d_levels.index(lv) for lv in r_levels]
        assert positions == sorted(positions)
        deltas = [float(st.delta) for st in dend.stats]
        if all(b < a for a, b in zip(deltas[:-1], deltas[1:-1])):
            assert d_levels == r_levels
    fam = ml.make_family("seq_power_tower", s=0.5)
    space = ml.sample(fam, 7)[0]
    dend = ml.dendrogram_chain(space)
    rho = ml.ultrametric_space_from_chain(space, dend)
    assert [p.blocks for p in dend.levels] == \
        [p.blocks for p in ml.dendrogram_chain(rho).levels]


def test_lemma_sandwich_proxy_levelwise():
    # (s/t) R_rho <= R_d <= (t/s) R_rho on proper levels of zoo chains
    fam = ml.make_family("seq_power_tower", s=0.5)
    space, chain = ml.sample(fam, 9)
    full = ml.with_singleton_terminal(space, chain)
    rho = ml.ultrametric_space_from_chain(space, full)
    fit = ml.fit_holder_exponents(space.dist, rho.dist)
    assert 0 < fit.s <= fit.t
    rho_chain = ml.PartitionChain.from_partitions(rho, full.levels, full.thresholds,
                                                  full.level_ids)
    for st_d, st_r in zip(full.stats, rho_chain.stats):
        if math.isfinite(st_d.log_ratio) and math.isfinite(st_r.log_ratio) \
                and st_d.log_ratio > 0 and st_r.log_ratio > 0:
            assert (fit.s / fit.t) * st_r.log_ratio <= st_d.log_ratio + 1e-9
            assert st_d.log_ratio <= (fit.t / fit.s) * st_r.log_ratio + 1e-9


def test_fit_holder_identity_and_power_law():
    sp = euclidean_space(31, 8, scale=0.9)
    fit = ml.fit_holder_exponents(sp.dist, sp.dist)
    assert fit.s == fit.t == 1.0
    assert fit.c1 == fit.c2 == 1.0
    snow = ml.snowflake(sp, 0.37)
    fit = ml.fit_holder_exponents(sp.dist, snow.dist)
    assert fit.s == pytest.approx(0.37, abs=1e-12)
    assert fit.t == pytest.approx(0.37, abs=1e-12)


def test_fit_holder_lemma_52_pair():
    sqrt_fam = ml.make_family("sqrt_ultra")
    abs_fam = ml.make_family("seq_polynomial", s=2)
    d_sqrt, _ = ml.sample(sqrt_fam, 200, chain=False)
    d_abs, _ = ml.sample(abs_fam, 200, chain=False)
    fit = ml.fit_holder_exponents(d_sqrt.dist, d_abs.dist)
    assert fit.t >= 1.5
    # the identity map toward the euclidean metric is 1-Lipschitz
    assert (d_abs.dist <= d_sqrt.dist + 1e-15).all()


def test_subdominant_ultrametric_brackets_d():
    sp = euclidean_space(77, 8)
    below = ml.subdominant_ultrametric(sp)
    above = ml.ultrametric_space_from_chain(sp, ml.dendrogram_chain(sp))
    assert ml.is_ultrametric(below).ok
    assert ml.is_ultrametric(above).ok
    assert (below.dist <= sp.dist + 1e-15).all()
    assert (sp.dist <= above.dist + 1e-15).all()


@pytest.mark.parametrize("exact", [False, True])
def test_certificate_refuses_an_exponent_past_the_log_scale(exact):
    """exponent * log delta overflows at some level: refused, with no numpy
    overflow warning; a p just small enough still gets its certificate."""
    space, chain = ml.sample(ml.make_family("seq_geometric"), 6, exact=exact)
    chain = ml.with_singleton_terminal(space, chain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CertificateRefused, match="overflows the log scale"):
            ml.certificate(space, chain, 1e308, 0.5)
        with pytest.raises(CertificateRefused, match="overflows the log scale"):
            ml.certificate(space, chain, math.inf, 0.5)
        cert = ml.certificate(space, chain, 1e300, 0.5)
    assert math.isfinite(cert.log_K)
