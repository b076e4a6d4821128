import math

import numpy as np
import pytest

import metriclab as ml
import oracles
from metriclab import logratio, partitions
from metriclab.errors import ExactModeSizeExceeded
from metriclab.logratio import set_partitions
from oracles import _stats_of_assignment
from conftest import euclidean_space
from test_ties import quantized_space

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def test_set_partitions_counts_and_order():
    for n in range(1, 8):
        parts = list(set_partitions(n))
        assert len(parts) == BELL[n]
        assert parts == sorted(parts)  # lexicographic restricted-growth strings
        assert len(set(parts)) == len(parts)


def test_profile_geometric_is_constant_one():
    fam = ml.make_family("seq_geometric")
    space, chain = ml.sample(fam, 20)
    prof = ml.profile(chain, space=space)
    for lv in prof.levels:
        if lv.level_id >= 2:
            assert lv.R == pytest.approx(1.0, abs=1e-12)
    assert prof.estimate == pytest.approx(1.0, abs=1e-12)
    assert prof.property6["delta_strictly_decreasing"]
    assert prof.property6["gap_constant"] == pytest.approx(1.0, abs=1e-9)


def test_profile_polynomial_level_values():
    fam = ml.make_family("seq_polynomial", s=2)
    space, chain = ml.sample(fam, 10)
    prof = ml.profile(chain)
    by_id = {lv.level_id: lv for lv in prof.levels}
    expected = math.log(1.0 / 90) / math.log(0.1)
    assert by_id[10].R == pytest.approx(expected, abs=1e-12)
    assert prof.running_liminf[-1] == prof.estimate


def test_profile_factorial_ratio_drops():
    fam = ml.make_family("seq_factorial")
    space, chain = ml.sample(fam, 6)
    prof = ml.profile(chain)
    rs = [lv.R for lv in prof.levels if lv.level_id >= 3]
    assert all(b < a for a, b in zip(rs, rs[1:]))
    assert prof.estimate == pytest.approx(1.0 / 6, abs=1e-12)


def test_profile_burn_in_and_boundary_levels():
    fam = ml.make_family("seq_geometric")
    space, chain = ml.sample(fam, 8)
    full = ml.with_singleton_terminal(space, chain)
    prof = ml.profile(full)
    assert prof.discrete_terminal
    assert prof.levels[-1].boundary
    assert prof.burn_in == 2  # constant sequence locks in at the first proper level
    assert prof.estimate == pytest.approx(1.0, abs=1e-12)


def test_nondiscreteness_check():
    pw = ml.make_family("seq_power_tower", s=0.5)
    space, chain = ml.sample(pw, 8)
    report = ml.nondiscreteness_check(chain)
    assert report.gamma_decreasing and not report.discrete_terminal
    sp = euclidean_space(2, 7)
    dend = ml.dendrogram_chain(sp)
    report = ml.nondiscreteness_check(dend)
    assert report.discrete_terminal
    assert report.terminal_gamma > 0
    lg = ml.make_family("seq_log")
    space, chain = ml.sample(lg, 40)
    report = ml.nondiscreteness_check(chain)
    assert report.gamma_decreasing  # gamma -> 0 even though R -> infinity
    prof = ml.profile(chain)
    assert prof.estimate > 2.5


@pytest.mark.parametrize("depth", [6, 9])
def test_nondiscreteness_compares_exact_gammas(depth):
    # from depth 7 on, gammas 2^-n! lie below the smallest float
    space, chain = ml.sample(ml.make_family("seq_factorial"), depth, exact=True)
    report = ml.nondiscreteness_check(chain)
    assert report.gamma_decreasing and not report.discrete_terminal
    assert type(report.terminal_gamma) is float


def test_gap_bounds_trivial_radius():
    sp = euclidean_space(21, 6, scale=0.8)
    report = ml.gap_bounds(sp, [float(sp.diameter)])
    assert report.rows[0].g == pytest.approx(float(sp.diameter))


def test_gap_bounds_g_matches_brute_force_and_G_heuristic_upper():
    for seed in range(8):
        sp = euclidean_space(seed + 300, 7, scale=0.95)
        radii = [0.6, 0.3, 0.15]
        exact = ml.gap_bounds(sp, radii, exact=True)
        heur = ml.gap_bounds(sp, radii, exact=False)
        stats = [_stats_of_assignment(sp, a) for a in set_partitions(7)]
        for row, hrow, r in zip(exact.rows, heur.rows, sorted(radii, reverse=True)):
            g_oracle = max((g for d, g, _ in stats if d <= r), default=0.0)
            G_oracle = min((g for d, g, _ in stats if d >= r), default=math.inf)
            assert row.g == pytest.approx(float(g_oracle), abs=1e-15)
            assert row.G == pytest.approx(float(G_oracle), abs=1e-15)
            assert hrow.g == row.g  # threshold chain alone is already exact for g
            assert hrow.G >= row.G - 1e-15  # two-block heuristic upper-bounds G
            assert not hrow.G_exact


def test_gap_bounds_sandwich_on_zoo_family():
    fam = ml.make_family("seq_polynomial", s=2)
    space, chain = ml.sample(fam, 8)
    prof = ml.profile(chain)
    report = ml.gap_bounds(space, [fam.r(8)])
    assert report.lower_estimate <= prof.estimate + 1e-9
    assert prof.estimate <= report.upper_estimate + 1e-9


def test_gap_bounds_exact_size_guard():
    sp = euclidean_space(1, 9)
    with pytest.raises(ExactModeSizeExceeded):
        ml.gap_bounds(sp, [0.5], exact=True)


@pytest.mark.parametrize("space", [quantized_space(3, 6, 2), euclidean_space(5, 20)],
                         ids=["ties6", "cloud20"])
@pytest.mark.parametrize("exact", [None, True, False])
def test_gap_bounds_reads_G_off_the_chain_without_enumeration(monkeypatch, space, exact):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (partitions, logratio):
        monkeypatch.setattr(module, "_label_stats",
                            counted("_label_stats", partitions._label_stats))
    monkeypatch.setattr(logratio, "set_partitions",
                        counted("set_partitions", logratio.set_partitions))
    monkeypatch.setattr(logratio, "_rgs_table", counted("_rgs_table", logratio._rgs_table))
    radii = [0.5, 0.25, 0.125]
    if exact and space.n > logratio.ORACLE_SIZE_LIMIT:
        with pytest.raises(ExactModeSizeExceeded, match="^20 points exceeds exact limit 8$"):
            ml.gap_bounds(space, radii, exact=exact)
    else:
        report = ml.gap_bounds(space, radii, exact=exact)
        closest = float(space.dist[~np.eye(space.n, dtype=bool)].min())
        assert [row.G for row in report.rows] == [closest] * 3
        expect_exact = space.n <= logratio.ORACLE_SIZE_LIMIT if exact is None else exact
        assert report.exact is expect_exact
        assert [(row.r, row.g, row.G) for row in report.rows] == \
            oracles.gap_bounds_rows(space, radii, expect_exact)
    assert calls == []


def test_brute_force_min_R_trivial_and_line(line3):
    res = ml.brute_force_min_R(line3, 0.6)
    assert res.value == 0.0
    assert all(len(b) == 1 for b in res.witness.blocks)
    pos = ml.brute_force_min_R(line3, 0.6, require_positive_delta=True)
    assert pos.value == pytest.approx(1.0)
    assert pos.witness.cardinality == 2


def test_brute_force_threads_deterministic(line3):
    sp = euclidean_space(11, 7)
    first = ml.brute_force_min_R(sp, 0.5, require_positive_delta=True)
    again = ml.brute_force_min_R(sp, 0.5, require_positive_delta=True)
    assert first.value == again.value


def test_brute_force_size_guard():
    sp = euclidean_space(1, 9)
    with pytest.raises(ExactModeSizeExceeded):
        ml.brute_force_min_R(sp, 0.5)


def test_threshold_restriction_is_exact_for_min_R():
    # the defining minimum restricted to single-linkage partitions agrees
    # with the unrestricted minimum at every radius
    for seed in range(10):
        sp = euclidean_space(seed + 200, 6)
        for r in (0.3, 0.7, 1.1):
            bf = ml.brute_force_min_R(sp, r)
            tm = ml.threshold_min_R(sp, r)
            assert bf.value == tm.value
