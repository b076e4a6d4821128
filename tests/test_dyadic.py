"""Exact sequence samples took |a - b| of dyadic values by shifts
(`_util.dyadic_numerators`, then `oracles.dyadic_fractions` of the distinct
differences) instead of Fraction subtraction, whose two gcds ran on integers
of up to 2^(n!) bits. Every entry must be the Fraction the subtraction gave,
with the same numerator, denominator and hash; the subtraction is kept as
`oracles.sequence_gaps`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab._util import dyadic_numerators
from oracles import dyadic_fractions
from metriclab.zoo import _sequence_points

CHECKS = settings(settings.get_profile("deterministic"), max_examples=200)


def dyadic_gap(a, b):
    """|a - b| through the two helpers, as the sequence samples take it, or
    by subtraction when a denominator is not a power of two."""
    shifted = dyadic_numerators((a, b))
    if shifted is None:
        return abs(a - b)
    (x, y), q = shifted
    return dyadic_fractions([abs(x - y)], q)[0]


def same_fraction(new, old):
    assert type(new) is Fraction
    assert (new.numerator, new.denominator, hash(new)) == (old.numerator, old.denominator,
                                                           hash(old))
    assert new == old


@st.composite
def dyadics(draw):
    """0, or n / 2^e with n odd or even, of either sign, e up to 600."""
    if draw(st.integers(0, 9)) == 0:
        return Fraction(0)
    return Fraction(draw(st.integers(-(2 ** 70), 2 ** 70)), 2 ** draw(st.integers(0, 600)))


@CHECKS
@given(dyadics(), dyadics(), st.booleans())
def test_dyadic_gap_equals_subtraction(a, b, equal):
    if equal:
        b = Fraction(a.numerator, a.denominator)
    same_fraction(dyadic_gap(a, b), abs(a - b))
    same_fraction(dyadic_gap(b, a), abs(a - b))


@CHECKS
@given(dyadics(), st.integers(-50, 50), st.integers(1, 10 ** 6))
def test_other_denominators_fall_back_to_subtraction(a, num, den):
    b = Fraction(num, den)
    same_fraction(dyadic_gap(a, b), abs(a - b))
    same_fraction(dyadic_gap(b, a), abs(a - b))


def test_dyadic_gap_edge_values():
    zero = Fraction(0)
    for a, b in [(zero, zero), (Fraction(1, 2), Fraction(1, 2)), (zero, Fraction(1, 2 ** 720)),
                 (Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 3)),
                 (Fraction(5), Fraction(-3, 8))]:
        same_fraction(dyadic_gap(a, b), abs(a - b))
    assert dyadic_gap(Fraction(1, 2), Fraction(1, 2)) == 0


@pytest.mark.parametrize("kind,params,depths", [
    ("seq_factorial", {}, range(1, 10)),
    ("seq_geometric", {}, (1, 2, 7, 60)),
    ("seq_power_tower", {"s": 0.5}, (1, 2, 7, 12)),
])
def test_exact_sequence_samples_equal_subtraction(kind, params, depths):
    fam = ml.make_family(kind, **params)
    for depth in depths:
        space, _ = ml.sample(fam, depth, exact=True, chain=False)
        old = oracles.sequence_gaps(_sequence_points(fam, depth, True)[1])
        assert space.dist.shape == old.shape
        for new_entry, old_entry in zip(space.dist.ravel().tolist(), old.ravel().tolist()):
            same_fraction(new_entry, old_entry)
