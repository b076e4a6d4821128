import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import embedding
from metriclab._util import as_float
from metriclab.embedding import grid_capacity
from metriclab.errors import EmptyWindow, PackingInfeasible
from conftest import euclidean_space
from oracles import cube_gap as _cube_gap
from test_ties import quantized_space


def brute_force_separated(space, center, r1, r2):
    """Oracle: maximum subset of the closed r1-ball with pairwise d > r2."""
    m = space.dist
    ball = [i for i in range(space.n) if m[center, i] <= r1]
    best = 0
    for mask in range(1, 2 ** len(ball)):
        chosen = [ball[k] for k in range(len(ball)) if (mask >> k) & 1]
        if all(m[i, j] > r2 for i, j in combinations(chosen, 2)):
            best = max(best, len(chosen))
    return best


def test_separated_count_examples(line3):
    one = ml.validate([[0.0]])
    assert ml.separated_count(one, 0, 0.5, 0.2) == 1
    assert ml.separated_count(line3, 0, 1.0, 0.4) == 3
    fam = ml.make_family("seq_geometric")
    sp, _ = ml.sample(fam, 12)
    assert ml.separated_count(sp, 0, 2.0 ** -3, 2.0 ** -8) == 6


def test_separated_count_matches_brute_force():
    for seed in range(6):
        sp = euclidean_space(seed + 500, 9)
        for center in (0, 4):
            for r1, r2 in ((0.8, 0.3), (0.5, 0.2), (0.9, 0.45)):
                expected = brute_force_separated(sp, center, r1, r2)
                assert ml.separated_count(sp, center, r1, r2) == expected


@settings(settings.get_profile("deterministic"), max_examples=40)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 60), levels=st.integers(1, 5),
       source=st.sampled_from(("ties", "tower", "cantor")), data=st.data())
def test_separated_count_ball_matches_pointwise_comprehension(seed, n, levels, source,
                                                              data):
    if source == "ties":
        space = quantized_space(seed, n, levels)
    elif source == "tower":  # exact distances down to 2^-2048, below float underflow
        space, _ = ml.sample(ml.make_family("seq_power_tower", s=0.5),
                             data.draw(st.integers(1, 12)), exact=True, chain=False)
    else:
        space, _ = ml.sample(ml.make_family("cantor_factorial"),
                             data.draw(st.integers(1, 5)), exact=True, chain=False)
    center = data.draw(st.integers(0, space.n - 1))
    values = sorted(set(space.dist.ravel().tolist()) - {0})
    r1 = data.draw(st.sampled_from(values))
    if as_float(r1) > 0:
        r1 = data.draw(st.sampled_from((r1, as_float(r1))))
    # below every distance each ball point is separated: the count is the ball size
    r2 = data.draw(st.sampled_from([v for v in values if v < r1] + [values[0] / 2]))
    assert ml.separated_count(space, center, r1, r2) == \
        oracles.separated_count(space, center, r1, r2)


def test_estimate_dimension_single_point_and_empty_window():
    one = ml.validate([[0.0]])
    est = ml.estimate_metric_dimension(one, 0.5, 4.0)
    assert est.estimate == 0.0
    sp = euclidean_space(1, 5)
    with pytest.raises(EmptyWindow):
        ml.estimate_metric_dimension(sp, 1e-9, 1e9)


def test_estimate_dimension_snowflake_per_sample_identity():
    # J is invariant under d -> d^s while log(r1/r2) scales by s, so each
    # sample's ratio scales by exactly 1/s
    sp = euclidean_space(13, 20, scale=0.9)
    snow = ml.snowflake(sp, 0.5)
    centers = list(range(sp.n))
    base = ml.estimate_metric_dimension(sp, 0.5, 2.0, centers=centers)
    for r1, r2, J, ratio in base.samples:
        Jmax = max(ml.separated_count(snow, c, r1 ** 0.5, r2 ** 0.5)
                   for c in centers)
        assert Jmax == J
        scaled = math.log(Jmax) / math.log(r1 ** 0.5 / r2 ** 0.5) if Jmax > 1 else 0.0
        assert scaled == pytest.approx(2.0 * ratio, abs=1e-12)


def test_min_embedding_dimension_values_and_special_case():
    assert ml.min_embedding_dimension(1, 2, 1) == 11
    assert ml.min_embedding_dimension(0, 2, 1) == 6
    rng = np.random.default_rng(5)
    for _ in range(20):
        D = float(rng.uniform(0, 4))
        R = float(rng.uniform(1.05, 5))
        s = R - 1
        general = (D + R - 1) * ((1 + s) * (2 * R - 1) - 1) / s
        special = (D + R - 1) * (2 * R + 1)
        assert general == pytest.approx(special, rel=1e-12)
    with pytest.raises(ValueError):
        ml.min_embedding_dimension(1, 1.0, 1)
    with pytest.raises(ValueError):
        ml.min_embedding_dimension(1, math.inf, 1)


def test_grid_capacity_formula_and_realized_packing():
    per_axis, cap = grid_capacity(0.5, 0.1, 0.05, 2)
    assert per_axis == 4 and cap == 16
    centers = oracles.place_children(np.zeros(2), 0.5, 0.1, 0.05, 2, 16)
    assert len(centers) == 16
    for a, b in combinations(centers, 2):
        assert _cube_gap(a, 0.1, b, 0.1) >= 0.05 - 1e-12
    for c in centers:
        assert np.abs(c).max() + 0.1 <= 0.5 + 1e-12


def test_embed_two_points_line():
    sp = ml.validate([[0, 0.7], [0.7, 0]])
    chain = ml.dendrogram_chain(sp)
    res = ml.embed_chain(sp, chain, 1, 2.0, 0.5)
    assert res.coords.shape == (2, 1)
    assert res.box_distance(0, 1) >= float(chain.stats[0].gamma) - 1e-12


def test_embed_consecutive_levels_infeasible():
    # consecutive levels of the slowly decaying families never fit the grid
    fam = ml.make_family("seq_polynomial", s=2)
    space, chain = ml.sample(fam, 8)
    full = ml.with_singleton_terminal(space, chain)
    with pytest.raises(PackingInfeasible):
        ml.embed_chain(space, full, 11, 2.0, 0.5)


def test_embed_polynomial_with_thinned_chain():
    fam = ml.make_family("seq_polynomial", s=2)
    space, chain = ml.sample(fam, 8)
    full = ml.with_singleton_terminal(space, chain)
    sub = ml.select_embeddable_subchain(space, full, 11)
    res = ml.embed_chain(space, sub, 11, 2.0, 0.5)
    for audit in res.level_audit:
        assert audit.ok()
        if audit.capacity is not None:
            assert audit.required <= audit.capacity
        assert audit.realized_min_gap >= audit.gamma - 1e-12
    report = ml.verify_embedding_distortion(space, res, 2.0, 0.5)
    assert report.box_sandwich_ok
    assert report.pairs_asserted > 0
    assert report.worst_lower_slack >= -1e-9
    assert report.worst_upper_slack >= -1e-9


def test_embed_power_tower_native_chain():
    # the fast-decaying family satisfies the decay hypothesis on its own
    # chain, so no thinning is needed
    fam = ml.make_family("seq_power_tower", s=0.5)
    space, chain = ml.sample(fam, 5)
    full = ml.with_singleton_terminal(space, chain)
    sub = ml.select_embeddable_subchain(space, full, 3)
    assert list(sub.level_ids)[: len(full.level_ids) - 2] == \
        list(full.level_ids)[1: len(full.level_ids) - 1]
    res = ml.embed_chain(space, sub, 3, 2.0, 0.1)
    assert all(a.ok() for a in res.level_audit)


def test_embed_rejects_scales_below_float_resolution():
    fam = ml.make_family("seq_power_tower", s=0.5)
    space, chain = ml.sample(fam, 7)
    full = ml.with_singleton_terminal(space, chain)
    sub = ml.select_embeddable_subchain(space, full, 3)
    from metriclab.errors import DepthOverflow
    with pytest.raises(DepthOverflow):
        ml.embed_chain(space, sub, 3, 2.0, 0.1)


def test_embed_monotone_capacity_in_N():
    fam = ml.make_family("seq_polynomial", s=2)
    space, chain = ml.sample(fam, 8)
    full = ml.with_singleton_terminal(space, chain)
    sub11 = ml.select_embeddable_subchain(space, full, 11)
    sub20 = ml.select_embeddable_subchain(space, full, 20)
    res = ml.embed_chain(space, sub11, 20, 2.0, 0.5)  # N up never breaks feasibility
    assert all(a.ok() for a in res.level_audit)
    assert len(sub20) >= len(sub11)


def test_embed_deterministic_coordinates():
    fam = ml.make_family("seq_polynomial", s=2)
    space, chain = ml.sample(fam, 8)
    full = ml.with_singleton_terminal(space, chain)
    sub = ml.select_embeddable_subchain(space, full, 11)
    a = ml.embed_chain(space, sub, 11, 2.0, 0.5)
    b = ml.embed_chain(space, sub, 11, 2.0, 0.5)
    assert np.array_equal(a.coords, b.coords)


def test_embed_box_sandwich_per_split_level():
    fam = ml.make_family("seq_power_tower", s=0.5)
    space, chain = ml.sample(fam, 5)
    full = ml.with_singleton_terminal(space, chain)
    sub = ml.select_embeddable_subchain(space, full, 2)
    res = ml.embed_chain(space, sub, 2, 2.0, 0.1)
    split = oracles.split(sub)
    gammas = [float(st.gamma) for st in sub.stats]
    deltas = [float(st.delta) for st in sub.stats]
    for i in range(space.n):
        for j in range(i + 1, space.n):
            lvl = split[i][j]
            norm = res.box_distance(i, j)
            assert norm >= gammas[lvl] - 1e-12
            if lvl > 0:
                assert norm <= 2 * deltas[lvl - 1] + 1e-12


def test_image_ratio_report_structure():
    fam = ml.make_family("seq_polynomial", s=2)
    space, chain = ml.sample(fam, 8)
    full = ml.with_singleton_terminal(space, chain)
    sub = ml.select_embeddable_subchain(space, full, 11)
    res = ml.embed_chain(space, sub, 11, 2.0, 0.5)
    from metriclab.embedding import image_ratio_report
    report = image_ratio_report(space, res)
    lo, hi = report["interval"]
    assert lo <= res.R_est <= hi
    assert report["image_rescaled"]
    assert report["profile"]["levels"]


def test_verify_two_point_embedding_trivial():
    sp = ml.validate([[0, 0.7], [0.7, 0]])
    chain = ml.dendrogram_chain(sp)
    res = ml.embed_chain(sp, chain, 1, 2.0, 0.3)
    report = ml.verify_embedding_distortion(sp, res, 2.0, 0.3)
    assert report.box_sandwich_ok


def test_distortion_check_and_image_report_reuse_the_box_matrix(monkeypatch):
    space, chain = ml.sample(ml.make_family("seq_polynomial", s=2), 8)
    chain = ml.with_singleton_terminal(space, chain)
    result = ml.embed_chain(space, ml.select_embeddable_subchain(space, chain, 11), 11, 2.0, 0.5)
    assert np.array_equal(result.box_dist, embedding._box_matrix(result.coords))
    assert not result.box_dist.flags.writeable
    before = (ml.verify_embedding_distortion(space, result, 2.0, 0.5).to_report(),
              embedding.image_ratio_report(space, result))
    built = []
    monkeypatch.setattr(embedding, "_box_matrix", lambda coords: built.append(coords))
    after = (ml.verify_embedding_distortion(space, result, 2.0, 0.5).to_report(),
             embedding.image_ratio_report(space, result))
    assert built == [] and after == before
