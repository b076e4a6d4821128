"""Every space spaces.py builds takes about two copies of its matrix:
sup_product grows the product by one broadcast per factor, _checked mirrors
float input in one copy, _worst_triple folds the slack of one hull row at a
time, and from_csv frees the text's lines before validate runs. Each is
checked against the whole-array code it replaced (oracles.sup_product,
oracles.worst_triple, oracles.mirrored) and under a tracemalloc bound at
n = 300."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab._util import dyadic_numerators
from metriclab.spaces import _worst_triple
from conftest import euclidean_space
from test_numeric_path import bumped
from test_ranks import bent_metrics, check_table, same_entries
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=60)


def triangle_inputs():
    """(m, exact): a float cloud, a tie-heavy metric or a dyadic Fraction
    metric with one pair raised or not (bumped), or a k/8 or k/9 Fraction
    metric, bent or not (bent_metrics)."""
    return st.one_of(bumped(), bent_metrics().map(lambda case: (case[0], True)))


@CHECKS
@given(triangle_inputs(), st.sampled_from((np.add, np.maximum)))
def test_worst_triple_equals_the_whole_array_search(case, combine):
    m, exact = case
    keyed = [m]
    shifted = dyadic_numerators(m.ravel().tolist()) if exact else None
    if shifted is not None:  # the integers _checked sums in place of dyadic Fractions
        keyed.append(np.array(shifted[0], dtype=object).reshape(m.shape))
    for matrix in keyed:
        new, old = _worst_triple(matrix, combine), oracles.worst_triple(matrix, combine)
        assert new == old
        assert type(new[0]) is type(old[0])
        assert all(type(x) is int for x in new[1])


FACTORS = (
    ml.validate([[0.0]], ["o"]),
    ml.validate([[0]], ["e"], exact=True),
    ml.validate([[0, 0.5], [0.5, 0]], ["x", "y"]),
    euclidean_space(4, 3),
    quantized_space(5, 4, 2),
    ml.sample(ml.make_family("seq_geometric"), 2, exact=True)[0],
    ml.sample(ml.make_family("cantor_factorial"), 1, exact=True)[0],
)


@CHECKS
@given(st.lists(st.sampled_from(FACTORS), min_size=3, max_size=4))
def test_sup_product_equals_the_grown_and_tiled_product(factors):
    """Three or four factors, one-point ones and float factors of exact
    products among them."""
    prod = ml.sup_product(factors)
    same_entries(prod.dist, oracles.sup_product(factors))
    assert prod.n == np.prod([sp.n for sp in factors])
    assert prod.diameter == max(sp.diameter for sp in factors)
    if prod.exact:
        check_table(prod)
    else:
        assert prod.rank is prod.dist


def test_a_negative_zero_diagonal_is_stored_as_before():
    m = euclidean_space(3, 6, scale=0.5).dist.copy()
    m[0, 1] += 1e-13  # within tolerance: the upper triangle is kept
    np.fill_diagonal(m, -0.0)
    space = ml.validate(m, [str(i) for i in range(6)])
    old = oracles.mirrored(m)
    assert space.dist.tobytes() == old.tobytes()
    assert ml.to_csv(space) == ml.to_csv(ml.FiniteMetricSpace(space.labels, old, _trusted=True))
    assert "-0.0" not in ml.to_csv(space)
    assert np.signbit(m.diagonal()).all() and m.flags.writeable  # the input is left alone
    assert space.dist[1, 0] == space.dist[0, 1] == m[0, 1] != m[1, 0]


def peak(fn, *args):
    """fn(*args) and the most tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_peaks_at_about_two_copies_of_the_matrix():
    m = euclidean_space(0, 300).dist.copy()
    space, top = peak(ml.validate, m)
    assert space.n == 300 and top <= 3.5 * m.nbytes  # 4.7x before the one-copy mirror


def test_from_csv_peaks_at_about_four_copies_of_the_matrix():
    text = ml.to_csv(euclidean_space(0, 300))
    space, top = peak(ml.from_csv, text)
    assert space.n == 300 and top <= 5 * space.dist.nbytes  # 8.1x while the lines lived


def test_sup_product_peaks_at_about_its_output():
    prod, top = peak(ml.sup_product, [euclidean_space(0, 300), FACTORS[2]])
    assert prod.n == 600 and top <= 1.5 * prod.dist.nbytes  # 3.6x with np.repeat and np.tile
