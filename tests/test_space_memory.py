"""Every space spaces.py builds takes about two copies of its matrix:
sup_product grows the product by one broadcast per factor, _checked mirrors
float input in one copy (in place when from_csv owns it), _worst_triple
folds the slack of one block of hull rows at a time, made a block of
candidates at a time, _gather turns ranks into entries a block of rows at a time, and
from_csv reads its text one line at a time. Each is checked against the
whole-array code it replaced (oracles.sup_product, oracles.worst_triple,
oracles.mirrored), at block budgets down to one entry, and under a
tracemalloc bound at n = 300, at n = 1,000 for from_csv and at 1,281
points for an exact product."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab._util import dyadic_numerators
from metriclab import spaces
from metriclab.spaces import _gather, _worst_triple
from conftest import euclidean_space
from test_nearest_bound import near_bound
from test_numeric_path import bumped
from test_ranks import bent_metrics, check_table, same_entries
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=60)


def triangle_inputs():
    """(m, exact): a float cloud, a tie-heavy metric or a dyadic Fraction
    metric with one pair raised or not (bumped), a k/8 or k/9 Fraction
    metric, bent or not (bent_metrics), or a (1,2)-metric, a quantized
    closure or a cloud with one pair on or just off its nearest-neighbour
    bound (near_bound), whose many tied slacks span several row blocks."""
    return st.one_of(bumped(), bent_metrics().map(lambda case: (case[0], True)), near_bound())


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


@CHECKS
@given(triangle_inputs(), st.sampled_from((np.add, np.maximum)),
       st.sampled_from((1, 7, 97, spaces._BLOCK_ENTRIES)))
def test_block_passes_equal_the_whole_array_code(case, combine, budget):
    """The hull, the float mirror and the gather, at a budget of one entry
    (a block of one row or column), two primes (97 makes blocks of several
    hull rows on the small inputs) and the default."""
    m, exact = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_BLOCK_ENTRIES", budget)
        assert _worst_triple(m, combine) == oracles.worst_triple(m, combine)
        if exact:
            space = ml.FiniteMetricSpace(range(len(m)), m, exact=True, _trusted=True)
            same_entries(_gather(space.values, space.rank), m)
        else:  # the lower triangle off by up to 1.5e-13, within tolerance
            m = m + np.tril(m, -1) * 1e-13
            for owned in (False, True):  # what _checked stores, violations or not
                stored = spaces._checked(m.copy() if owned else m, None, 1e-12, False, owned)[0]
                assert stored.tobytes() == oracles.mirrored(m).tobytes()


def test_from_csv_holds_one_line_of_its_text_at_a_time():
    """The matrix, mirrored in place, and one block of hull candidates."""
    text = ml.to_csv(euclidean_space(0, 1000))
    space, top = peak(ml.from_csv, text)
    assert space.n == 1000 and top <= 2.0 * space.dist.nbytes  # 3.61x with the lines list


def test_an_exact_product_is_gathered_without_an_index_copy():
    family = ml.make_family("seq_geometric")
    factors = [ml.sample(family, depth, exact=True, chain=False)[0] for depth in (60, 20)]
    ml.sup_product(factors)  # what numpy imports on first use is not the product's
    prod, top = peak(ml.sup_product, factors)
    assert prod.n == 1281 and top <= 2.2 * prod.n ** 2 * 8  # 3.09x with the intp copy
