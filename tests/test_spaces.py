import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import metriclab as ml
from metriclab.errors import CapExceeded, DiameterExceedsOne, MetricViolation
from conftest import euclidean_space


def test_validate_two_point_space():
    sp = ml.validate([[0, 1], [1, 0]], ["a", "b"])
    assert sp.n == 2
    assert sp.diameter == 1.0


def test_validate_rejects_duplicate_points():
    with pytest.raises(MetricViolation) as err:
        ml.validate([[0, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0]])
    assert err.value.kind == "positivity"


def test_validate_rejects_duplicate_labels():
    with pytest.raises(MetricViolation) as exc:
        ml.validate([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]], ["a", "b", "a"])
    assert exc.value.kind == "labels"
    assert exc.value.witness == "a"
    assert "duplicate label" in str(exc.value)


def test_validate_reports_triangle_witness():
    # all three triples checked by hand: 1 > 0.4 + 0.5 fails at (0, 1, 2)
    problems = ml.violations([[0, 1, 0.4], [1, 0, 0.5], [0.4, 0.5, 0]])
    kinds = [p.kind for p in problems]
    assert "triangle" in kinds
    witness = problems[kinds.index("triangle")].witness
    assert set(witness) == {0, 1, 2}


def test_validate_rejects_asymmetry_and_nonzero_diagonal():
    assert any(p.kind == "symmetry" for p in ml.violations([[0, 1], [0.5, 0]]))
    assert any(p.kind == "diagonal" for p in ml.violations([[0.1, 1], [1, 0]]))


def test_untrusted_space_and_validate_store_one_symmetric_matrix():
    # asymmetric within tol: both entry points mirror the upper triangle
    m = [[0, .5, .6], [.5 + 1e-13, 0, .4], [.6, .4, 0]]
    untrusted = ml.FiniteMetricSpace(["a", "b", "c"], m)
    validated = ml.validate(m, ["a", "b", "c"])
    assert np.array_equal(untrusted.dist, untrusted.dist.T)
    assert np.array_equal(untrusted.dist, validated.dist)
    assert untrusted.dist[1, 0] == 0.5


def test_empty_matrix_is_a_shape_error():
    empty = np.zeros((0, 0))
    for build in (ml.validate, lambda m: ml.FiniteMetricSpace([], m)):
        with pytest.raises(MetricViolation) as exc:
            build(empty)
        assert exc.value.kind == "shape"
    assert [p.kind for p in ml.violations(empty)] == ["shape"]


@pytest.mark.parametrize("entry", ["true", "false", '"0.5"', "null"])
def test_json_entries_must_be_numbers(entry):
    with pytest.raises(MetricViolation) as exc:
        ml.from_json('{"dist": [[0, %s], [%s, 0]]}' % (entry, entry))
    assert exc.value.kind == "parse" and exc.value.witness == (0, 1)


def test_float_entry_beyond_float_range_is_a_parse_error():
    big = "1" + "0" * 400
    with pytest.raises(MetricViolation) as exc:
        ml.from_json('{"dist": [[0, %s], [%s, 0]]}' % (big, big))
    assert exc.value.kind == "parse"


def test_diameter_above_one_needs_rescale():
    with pytest.raises(DiameterExceedsOne):
        ml.validate([[0, 2], [2, 0]])
    sp = ml.validate([[0, 2], [2, 0]], rescale=True)
    assert sp.rescaled
    assert sp.diameter == 1.0


def test_serialization_round_trips_bit_exactly():
    sp = euclidean_space(3, 6)
    again = ml.from_csv(ml.to_csv(sp))
    assert np.array_equal(again.dist, sp.dist)
    assert again.labels == sp.labels
    jagain = ml.from_json(ml.to_json(sp))
    assert np.array_equal(jagain.dist, sp.dist)


def test_snowflake_identity_and_arithmetic():
    sp = ml.validate([[0, 0.25], [0.25, 0]])
    assert ml.snowflake(sp, 1.0) is sp
    half = ml.snowflake(sp, 0.5)
    assert half.dist[0, 1] == 0.5
    with pytest.raises(ValueError):
        ml.snowflake(sp, 1.5)
    with pytest.raises(ValueError):
        ml.snowflake(sp, 0.0)


def test_snowflake_preserves_log_ratio():
    sp = euclidean_space(11, 7, scale=0.9)
    rng = np.random.default_rng(0)
    for _ in range(50):
        assign = rng.integers(0, 3, size=7)
        part = ml.Partition.from_assignment(assign)
        s = float(rng.uniform(0.1, 1.0))
        before = ml.partition_stats(sp, part).log_ratio
        after = ml.partition_stats(ml.snowflake(sp, s), part).log_ratio
        if math.isfinite(before):
            assert after == pytest.approx(before, abs=1e-12)
        else:
            assert before == after


def test_sup_product_with_single_point_is_isometric():
    one = ml.validate([[0.0]], ["x"])
    sp = euclidean_space(5, 4)
    prod = ml.sup_product([one, sp])
    assert np.array_equal(prod.dist, sp.dist)


def test_sup_product_gap_law_on_two_point_factors():
    # gaps 0.3 and 0.5; singleton partitions give gamma = min = 0.3
    a = ml.validate([[0, 0.3], [0.3, 0]])
    b = ml.validate([[0, 0.5], [0.5, 0]])
    prod = ml.sup_product([a, b])
    singles = ml.Partition.singletons(4)
    st = ml.partition_stats(prod, singles)
    assert float(st.gamma) == 0.3


def test_sup_product_delta_gamma_laws_brute_forced():
    from metriclab.logratio import set_partitions

    for seed in (0, 1):
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


def test_sup_product_cap():
    sp = euclidean_space(2, 10)
    with pytest.raises(CapExceeded):
        ml.sup_product([sp] * 5, cap=1000)


def test_is_ultrametric_two_points_and_witness(line3):
    assert ml.is_ultrametric(ml.validate([[0, 1], [1, 0]])).ok
    bad = ml.validate([[0, 0.4, 1], [0.4, 0, 0.6], [1, 0.6, 0]])
    check = ml.is_ultrametric(bad)
    assert not check.ok
    i, j, k = check.witness
    assert {i, j} == {0, 2} and k == 1
    assert check.violation == pytest.approx(0.4)


def test_comparison_metric_is_ultrametric():
    fam = ml.make_family("seq_factorial")
    rho = ml.comparison_ultrametric(fam, 6)
    assert ml.is_ultrametric(rho).ok


def test_hyperspace_singletons_are_isometric():
    sp = euclidean_space(9, 5)
    hyper = ml.hausdorff_hyperspace(sp, max_subset_size=1)
    assert np.allclose(hyper.dist, sp.dist)


def test_hyperspace_two_point_base():
    base = ml.validate([[0, 1], [1, 0]], ["0", "1"])
    hyper = ml.hausdorff_hyperspace(base)
    assert hyper.labels == ("{0}", "{1}", "{0,1}")
    # d_H({0},{0,1}) = 1: the far point 1 is at distance 1 from {0}
    assert hyper.dist[0, 2] == 1.0
    assert hyper.dist[1, 2] == 1.0
    assert hyper.dist[0, 1] == 1.0


def test_hyperspace_of_ultrametric_is_ultrametric():
    fam = ml.make_family("cantor_factorial", r=0.5)
    space, _ = ml.sample(fam, 3)  # 8 points
    hyper = ml.hausdorff_hyperspace(space)
    assert hyper.n == 255
    assert ml.is_ultrametric(hyper).ok


def test_hyperspace_cap():
    sp = euclidean_space(4, 10)
    with pytest.raises(CapExceeded):
        ml.hausdorff_hyperspace(sp, cap=100)


def test_exact_mode_space_and_checks():
    m = [[Fraction(0), Fraction(1, 2 ** 1200)], [Fraction(1, 2 ** 1200), Fraction(0)]]
    sp = ml.validate(m, exact=True)
    assert sp.exact
    assert sp.diameter == Fraction(1, 2 ** 1200)
    assert ml.is_ultrametric(sp).ok


def test_subspace_restriction():
    sp = euclidean_space(8, 6)
    sub = ml.subspace(sp, [1, 3, 5])
    assert sub.n == 3
    for a, i in enumerate([1, 3, 5]):
        for b, j in enumerate([1, 3, 5]):
            assert sub.dist[a, b] == sp.dist[i, j]


@pytest.mark.parametrize("index", [-1, -5, 5, 99])
def test_subspace_index_out_of_range_is_a_value_error(index):
    sp = ml.sample(ml.make_family("seq_geometric"), 4, chain=False)[0]
    assert sp.n == 5
    with pytest.raises(ValueError, match=f"index {index} is outside 0..4"):
        ml.subspace(sp, [0, index, 2])
    chain = ml.dendrogram_chain(sp)
    with pytest.raises(ValueError, match=f"index {index} is outside 0..4"):
        ml.induced_chain(sp, chain, [index, 1])


def test_validate_respects_env_point_cap(monkeypatch):
    monkeypatch.setenv("METRICLAB_MAX_POINTS", "3")
    problems = ml.violations(np.zeros((5, 5)) + 0.5 - 0.5 * np.eye(5))
    assert any(isinstance(p, CapExceeded) for p in problems)


def test_hyperspace_ultrametric_for_random_ultrametrics():
    # subdominant ultrametrics of random spaces give varied test subjects
    for seed in range(5):
        base = ml.subdominant_ultrametric(euclidean_space(seed + 70, 6))
        assert ml.is_ultrametric(base).ok
        hyper = ml.hausdorff_hyperspace(base)
        assert ml.is_ultrametric(hyper).ok


def test_sup_product_is_a_valid_metric():
    prod = ml.sup_product([euclidean_space(0, 4), euclidean_space(1, 3)])
    assert ml.violations(prod.dist, prod.labels) == []
