"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated budget. Random inputs are seeded; all
expected values come from closed forms or the enumeration oracles."""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import metriclab as ml
from metriclab.logratio import set_partitions
import oracles
from oracles import _stats_of_assignment
from conftest import euclidean_space


class stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeds budget {self.budget}s"
            )


def report(num, label, watch):
    print(f"ACCEPTANCE {num:>2} PASS ({watch.elapsed:6.2f}s / {watch.budget}s): {label}")


def test_criterion_01_case_formulas_exact(capsys):
    with stopwatch(1.0) as w1:
        fam = ml.make_family("seq_geometric")
        space, chain = ml.sample(fam, 20)
        for lid, st in zip(chain.level_ids, chain.stats):
            if lid >= 2:
                assert abs(st.log_ratio - 1.0) < 1e-12
    with stopwatch(1.0) as w2:
        poly = ml.make_family("seq_polynomial", s=2)
        assert abs(poly.R_level(10 ** 4) - 2.0) < 1e-4
        sp, ch = ml.sample(poly, 200)
        for lid, st in zip(ch.level_ids, ch.stats):
            if lid >= 2:
                assert abs(st.log_ratio - poly.R_level(lid)) < 1e-12
    with stopwatch(1.0) as w3:
        cantor = ml.make_family("cantor_factorial", r=0.5)
        for n in range(2, 9):
            assert abs(cantor.R_level(n) - 1.0 / n) < 1e-12
        sp, ch = ml.sample(cantor, 6)
        for lid, st in zip(ch.level_ids, ch.stats):
            if lid >= 2:
                assert abs(st.log_ratio - 1.0 / lid) < 1e-12
    with capsys.disabled():
        report(1, "geometric R=1, polynomial R->2, cantor R_n=1/n", w1)


def test_criterion_02_divergence_and_vanishing(capsys):
    with stopwatch(1.0) as w:
        lg = ml.make_family("seq_log")
        assert lg.R_level(10 ** 3) > 3.0
        assert lg.R_level(10 ** 3) > lg.R_level(10 ** 2)
        sp, ch = ml.sample(lg, 100)  # engine agrees with the closed form
        by_id = {lid: st for lid, st in zip(ch.level_ids, ch.stats)}
        assert abs(by_id[100].log_ratio - lg.R_level(100)) < 1e-9
        fac = ml.make_family("seq_factorial")
        values = [fac.R_level(n) for n in range(3, 9)]
        assert values[-1] < 0.15
        assert all(b < a for a, b in zip(values, values[1:]))
    with capsys.disabled():
        report(2, "log family R_1000 > 3 rising, factorial R_8 < 0.15 falling", w)


def _certificate_checks(space, chain, p, eps):
    full = ml.with_singleton_terminal(space, chain)
    cert = ml.certificate(space, full, p, eps)
    rho_space = ml.FiniteMetricSpace(space.labels, cert.rho, exact=space.exact,
                                     _trusted=True)
    assert ml.is_ultrametric(rho_space).ok
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            assert space.dist[i, j] <= cert.rho[i, j]
    # K from the stated formula, recomputed independently
    from metriclab._util import flog
    stats = full.stats
    proper = full.proper_indices()
    a_terms = []
    positive = [i for i, st in enumerate(stats) if st.delta > 0]
    for i, j in zip(positive, positive[1:]):
        if j == i + 1:
            a_terms.append(flog(stats[j].delta) - p * flog(stats[i].delta))
    log_a = min(a_terms)
    expected_first = (cert.R_est + eps) * log_a
    expected_second = flog(stats[cert.m_index].gamma) - cert.exponent * flog(stats[0].delta)
    assert cert.log_K == pytest.approx(min(expected_first, expected_second), abs=1e-9)
    # the lower certificate inequality, per pair, in log space
    for i in range(n):
        for j in range(i + 1, n):
            lhs = cert.log_K + cert.exponent * flog(cert.rho[i, j])
            assert lhs <= flog(space.dist[i, j]) + 1e-9
    return cert


def test_criterion_03_ultrametrization_certificates(capsys):
    with stopwatch(1.0) as w1:
        pw = ml.make_family("seq_power_tower", s=0.5)
        space, chain = ml.sample(pw, 12, exact=True)
        cert = _certificate_checks(space, chain, 3.0, 0.1)
        assert cert.exponent == pytest.approx(3 * (cert.R_est + 0.1), abs=1e-12)
    with stopwatch(1.0) as w2:
        geo = ml.make_family("seq_geometric")
        space, chain = ml.sample(geo, 12)
        cert = _certificate_checks(space, chain, 2.0, 0.5)
        assert cert.K == pytest.approx(1.0, abs=1e-12)
    with capsys.disabled():
        report(3, "certificates: power tower depth 12 (exact), geometric depth 12", w2)


def test_criterion_04_factorial_comparison_ultrametric(capsys):
    with stopwatch(1.0) as w:
        fam = ml.make_family("seq_factorial")
        space, _ = ml.sample(fam, 8, exact=True, chain=False)
        rho = ml.comparison_ultrametric(fam, 8, exact=True)
        assert ml.is_ultrametric(rho).ok
        n = space.n
        for i in range(n):
            for j in range(i + 1, n):
                d = space.dist[i, j]
                u = rho.dist[i, j]
                assert d <= u and u <= 2 * d  # exact rational comparisons
        # float cross-check at the float-safe depth
        fspace, _ = ml.sample(fam, 6, chain=False)
        frho = ml.comparison_ultrametric(fam, 6)
        assert ml.is_ultrametric(frho).ok
        assert (fspace.dist <= frho.dist).all()
        assert (frho.dist <= 2 * fspace.dist).all()
    with capsys.disabled():
        report(4, "factorial depth 8: |.| <= rho <= 2|.| exactly", w)


def test_criterion_05_threshold_dominance_oracle(capsys):
    with stopwatch(60.0) as w:
        total = 0
        for seed in range(100):
            sp = euclidean_space(seed, 7)
            chain = ml.dendrogram_chain(sp)
            cache = {}

            def threshold_stats(t):
                if t not in cache:
                    cache[t] = ml.partition_stats(sp, ml.threshold_partition(sp, t))
                return cache[t]

            brute_min = math.inf
            brute_min_pos = math.inf
            for assign in set_partitions(7):
                total += 1
                delta, gamma, card = _stats_of_assignment(sp, assign)
                R = oracles.partition_log_ratio(delta, gamma)
                brute_min = min(brute_min, R)
                if delta > 0:
                    brute_min_pos = min(brute_min_pos, R)
                if 0 < delta < 1 and 0 < gamma < 1:
                    st = threshold_stats(gamma)
                    assert float(st.gamma) >= gamma - 1e-12
                    assert float(st.delta) <= delta + 1e-12
                    assert st.log_ratio <= R + 1e-12
            assert brute_min == 0.0
            thresh = ml.threshold_min_R(sp, 1.1)
            oracle = ml.brute_force_min_R(sp, 1.1)
            assert oracle.value == thresh.value == brute_min
        assert total == 100 * 877
    with capsys.disabled():
        report(5, "100 x 877 partitions: gamma up, delta down, R down; minima agree", w)


def test_criterion_06_product_laws(capsys):
    with stopwatch(30.0) as w:
        for seed in range(10):
            X = euclidean_space(seed, 4)
            Y = euclidean_space(seed + 100, 4)
            prod = ml.sup_product([X, Y])
            for a_assign in set_partitions(4):
                pa = ml.Partition.from_assignment(a_assign)
                sa = ml.partition_stats(X, pa)
                for b_assign in set_partitions(4):
                    pb = ml.Partition.from_assignment(b_assign)
                    sb = ml.partition_stats(Y, pb)
                    blocks = [[i * 4 + j for i in A for j in B]
                              for A in pa.blocks for B in pb.blocks]
                    st = ml.partition_stats(prod, ml.Partition(blocks, 16))
                    assert float(st.delta) == max(float(sa.delta), float(sb.delta))
                    if pa.cardinality > 1 and pb.cardinality > 1:
                        assert float(st.gamma) == min(float(sa.gamma), float(sb.gamma))
        fam = ml.make_family("product_geometric", t=0.5)
        space, chain = ml.sample(fam, 6)
        prod_est = ml.profile(chain).estimate
        assert prod_est == pytest.approx(0.5, abs=1e-12)
        factor_ests = []
        for f in ml.product_factors(fam, 6):
            factor_ests.append(ml.profile(ml.dendrogram_chain(f)).estimate)
        assert prod_est >= max(factor_ests)
    with capsys.disabled():
        report(6, "product delta = max, gamma = min; product estimate >= factors", w)


def test_criterion_07_subspace_monotonicity(capsys):
    with stopwatch(10.0) as w:
        compared = 0
        for seed in range(50):
            rng = np.random.default_rng(seed + 5000)
            n = int(rng.integers(6, 13))
            X = euclidean_space(seed + 7777, n)
            k = int(rng.integers(3, n))
            sub_idx = sorted(rng.choice(n, size=k, replace=False).tolist())
            chain = ml.dendrogram_chain(X)
            sub, subchain = ml.induced_chain(X, chain, sub_idx)
            for st_x, st_y, py in zip(chain.stats, subchain.stats, subchain.levels):
                finite_x = 0 < float(st_x.delta) < 1 and 0 < float(st_x.gamma) < 1
                finite_y = 0 < float(st_y.delta) < 1 and 0 < float(st_y.gamma) < 1
                if finite_x and finite_y and py.cardinality >= 2:
                    assert st_y.log_ratio <= st_x.log_ratio + 1e-12
                    compared += 1
        assert compared > 100
    with capsys.disabled():
        report(7, f"induced chains: R(beta) <= R(alpha) on {compared} levels", w)


def test_criterion_08_snowflake_invariances(capsys):
    with stopwatch(10.0) as w:
        rng = np.random.default_rng(2024)
        spaces = [euclidean_space(seed + 900, 7, scale=0.9) for seed in range(25)]
        done = 0
        while done < 1000:
            sp = spaces[done % len(spaces)]
            assign = rng.integers(0, 4, size=7)
            part = ml.Partition.from_assignment(assign)
            s = float(rng.uniform(0.1, 1.0))
            before = ml.partition_stats(sp, part).log_ratio
            after = ml.partition_stats(ml.snowflake(sp, s), part).log_ratio
            if math.isfinite(before):
                assert abs(after - before) < 1e-12
            else:
                assert after == before
            done += 1
        # per-sample dimension identity under a snowflake
        sp = euclidean_space(13, 20, scale=0.9)
        s = 0.5
        snow = ml.snowflake(sp, s)
        centers = list(range(sp.n))
        base = ml.estimate_metric_dimension(sp, 0.5, 2.0, centers=centers)
        for r1, r2, J, ratio in base.samples:
            J2 = max(ml.separated_count(snow, c, r1 ** s, r2 ** s) for c in centers)
            assert J2 == J
            scaled = math.log(J2) / math.log(r1 ** s / r2 ** s) if J2 > 1 else 0.0
            assert abs(scaled - ratio / s) < 1e-12
    with capsys.disabled():
        report(8, "R(alpha) invariant under d^s (1000 draws); dim samples scale by 1/s", w)


def test_criterion_09_embedding(capsys):
    with stopwatch(5.0) as w:
        assert ml.min_embedding_dimension(1, 2, 1) == 11
        fam = ml.make_family("seq_polynomial", s=2)
        space, chain = ml.sample(fam, 8)
        full = ml.with_singleton_terminal(space, chain)
        sub = ml.select_embeddable_subchain(space, full, 11)
        result = ml.embed_chain(space, sub, 11, 2.0, 0.5)
        for audit in result.level_audit:
            if audit.capacity is not None:
                assert audit.required <= audit.capacity
            assert audit.realized_min_gap >= audit.gamma - 1e-12
            assert audit.nested and audit.commutes
        verify = ml.verify_embedding_distortion(space, result, 2.0, 0.5)
        assert verify.box_sandwich_ok
        assert verify.pairs_asserted > 0
        assert verify.worst_lower_slack >= -1e-9
        assert verify.worst_upper_slack >= -1e-9
        # box sandwich explicitly on every pair
        split = oracles.split(sub)
        gammas = [float(st.gamma) for st in sub.stats]
        deltas = [float(st.delta) for st in sub.stats]
        for i in range(space.n):
            for j in range(i + 1, space.n):
                lvl = split[i][j]
                norm = result.box_distance(i, j)
                assert norm >= gammas[lvl] - 1e-12
                if lvl > 0:
                    assert norm <= 2 * deltas[lvl - 1] + 1e-12
    with capsys.disabled():
        report(9, "N=11 from the bound; packing audits and distortion bounds pass", w)


def test_criterion_10_dimension_estimator(capsys):
    with stopwatch(30.0) as w:
        geo = ml.make_family("seq_geometric")
        gs, _ = ml.sample(geo, 40)
        est = ml.estimate_metric_dimension(gs, 2.0 ** -4, 16.0)
        assert est.estimate <= 0.25
        harmonic = ml.make_family("seq_polynomial", s=2)
        hs, _ = ml.sample(harmonic, 5000, chain=False)
        loose = ml.estimate_metric_dimension(hs, 2.0 ** -4, 16.0, centers=[0])
        tight = ml.estimate_metric_dimension(hs, 2.0 ** -6, 64.0, centers=[0])
        assert loose.estimate >= 0.5
        assert tight.estimate >= loose.estimate - 1e-12
    with capsys.disabled():
        report(10, f"geometric {est.estimate:.3f} <= 0.25; 1/n "
                   f"{loose.estimate:.3f} -> {tight.estimate:.3f} >= 0.5", w)


def test_criterion_11_lemma_52_reproduction(capsys):
    with stopwatch(5.0) as w:
        sqrt_fam = ml.make_family("sqrt_ultra")
        abs_fam = ml.make_family("seq_polynomial", s=2)
        assert abs(sqrt_fam.R_level(10 ** 4) - 1.0) < 1e-3
        assert abs(abs_fam.R_level(10 ** 4) - 2.0) < 1e-3
        # engine agreement at a matrix-feasible depth, same tolerance
        sq_sp, sq_ch = ml.sample(sqrt_fam, 250)
        ab_sp, ab_ch = ml.sample(abs_fam, 250)
        assert abs(ml.profile(sq_ch).estimate - 1.0) < 1e-3
        assert abs(ml.profile(ab_ch).estimate - 2.0) < 1e-3
        # identity map is 1-Lipschitz on all pairs at depth 10^4: points are
        # sorted descending past the leading 0, so row i covers its pairs
        # (i, j > i) with the constant bound sqrt(x_i) = max height
        n = 10 ** 4
        pts = np.concatenate([[0.0], 1.0 / np.arange(1, n + 1)])
        heights = np.sqrt(pts)
        assert (pts[1:] <= heights[1:] + 1e-15).all()  # pairs against the point 0
        for i in range(1, n + 1):
            assert ((pts[i] - pts[i + 1:]) <= heights[i] + 1e-15).all()
    with capsys.disabled():
        report(11, "sqrt ultrametric R -> 1, euclidean twin R -> 2, 1-Lipschitz", w)


def test_criterion_12_hyperspace_ultrametric(capsys):
    with stopwatch(10.0) as w:
        fam = ml.make_family("cantor_factorial", r=0.5)
        base, _ = ml.sample(fam, 3)  # 8-point ultrametric
        assert ml.is_ultrametric(base).ok
        hyper = ml.hausdorff_hyperspace(base)
        assert hyper.n == 255
        assert ml.is_ultrametric(hyper).ok
    with capsys.disabled():
        report(12, "Hausdorff hyperspace of an 8-point ultrametric is ultrametric", w)
