"""Exact sequence samples and their comparison ultrametric are written in
closed form from the exponents e_n of r_n = 2^-e_n (`zoo._dyadic_ranks`):
every table value, with its type, numerator and denominator, the rank, the
matrix, the diameter and the chain stats must equal those of the builder it
replaced, `oracles.pair_space`, which ranked the values' numerators with
np.unique. Float samples are one outer pair, bit for bit the row loop's.
An exact sample whose table holds more than `zoo.EXACT_BITS` bits is
refused before any value is built: ExactModeSizeExceeded, exit 1 with no
traceback, in a child process with a bounded address space."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import zoo
from metriclab.errors import ExactModeSizeExceeded
from metriclab.zoo import _exact_values, _gap, _sequence_chain, _sequence_points

CHECKS = settings(settings.get_profile("deterministic"), max_examples=80)

EXACT_DEPTHS = {("seq_factorial", ()): 9, ("seq_geometric", ()): 200,
                ("seq_power_tower", (("s", 0.5),)): 12}


@st.composite
def exact_samples(draw):
    """(family, depth, ultra): an exact sequence kind at a depth it reaches,
    and whether the comparison ultrametric is built in place of |x - y|."""
    (kind, params), top = draw(st.sampled_from(sorted(EXACT_DEPTHS.items())))
    depth = draw(st.integers(1, top))
    return ml.make_family(kind, **dict(params)), depth, draw(st.booleans())


def same_fractions(new, old):
    assert len(new) == len(old)
    for a, b in zip(new.tolist(), old.tolist()):
        assert type(a) is Fraction
        assert (a.numerator, a.denominator) == (b.numerator, b.denominator)


@CHECKS
@given(exact_samples())
def test_exact_samples_equal_the_numerator_ranks(case):
    family, depth, ultra = case
    if ultra:
        new = ml.comparison_ultrametric(family, depth, exact=True)
    else:
        new = ml.sample(family, depth, exact=True, chain=False)[0]
    old = oracles.pair_space(*_sequence_points(family, depth, True),
                             np.maximum if ultra else _gap, True)
    same_fractions(new.values, old.values)
    assert new.rank.dtype == old.rank.dtype and np.array_equal(new.rank, old.rank)
    same_fractions(new.dist.ravel(), old.dist.ravel())
    assert new.diameter == old.diameter and type(new.diameter) is Fraction
    new_stats = _sequence_chain(new, family, depth).stats
    assert new_stats == _sequence_chain(old, family, depth).stats


FLOAT_SAMPLES = [("seq_factorial", {}, 6), ("seq_power_tower", {"s": 0.5}, 10),
                 ("seq_geometric", {}, 60), ("seq_polynomial", {"s": 2}, 140),
                 ("seq_polynomial", {"s": 1.5}, 3), ("seq_log", {}, 50),
                 ("sqrt_ultra", {}, 120), ("sqrt_ultra", {}, 1)]


@pytest.mark.parametrize("kind,params,depth", FLOAT_SAMPLES)
def test_float_samples_are_the_row_loop_bit_for_bit(kind, params, depth):
    family = ml.make_family(kind, **params)
    pairs = [(ml.sample(family, depth, chain=False)[0],
              np.maximum if kind == "sqrt_ultra" else _gap)]
    if kind != "sqrt_ultra":
        pairs.append((ml.comparison_ultrametric(family, depth), np.maximum))
    for new, pair in pairs:
        old = oracles.pair_space(*_sequence_points(family, depth, False), pair, False)
        assert new.dist.view(np.uint64).tobytes() == old.dist.view(np.uint64).tobytes()
        assert new.diameter == old.diameter


def test_the_budget_takes_factorial_depth_12_and_refuses_13():
    family = ml.make_family("seq_factorial")
    assert [x.denominator.bit_length() - 1 for x in _exact_values(family, 12)][-1] == 479001600
    with pytest.raises(ExactModeSizeExceeded, match="at depth 13 needs at least 2\\^36 bits"):
        _exact_values(family, 13)


@pytest.mark.parametrize("kind,params,depth", [
    ("cantor_factorial", {"r": 1e-300}, 12),  # 11! times the 1,103 bits of r
    ("product_geometric", {"t": 2.0 ** -20}, 3),  # r_3 = 2^-(2^40)
    ("seq_geometric", {}, 5999),  # about 2^35 bits of gaps at 6,000 points
])
def test_other_kinds_are_refused_before_a_value_is_built(kind, params, depth):
    with pytest.raises(ExactModeSizeExceeded):
        ml.sample(ml.make_family(kind, **params), depth, exact=True, chain=False)


def test_a_product_under_the_budget_is_sampled():
    space, _ = ml.sample(ml.make_family("product_geometric", t=2.0 ** -20), 2, exact=True)
    assert space.diameter == Fraction(1, 2) and space.values[1] == Fraction(1, 2 ** (2 ** 20))


CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from metriclab.cli import main
start = time.perf_counter()
try:
    sys.exit(main(sys.argv[1:]))
finally:
    print(f"main took {time.perf_counter() - start} s", file=sys.stderr)
"""


@pytest.mark.parametrize("args", [
    ["profile", "--zoo", "seq_factorial", "--depth", "13"],
    ["zoo", "--zoo", "seq_factorial", "--depth", "30"],
    ["profile", "--zoo", "seq_power_tower", "--s", "0.5", "--depth", "40"],
    ["profile", "--zoo", "product_geometric", "--t", repr(2.0 ** -20), "--depth", "4"],
])
def test_oversized_exact_samples_exit_1_without_a_traceback(args):
    """In a 1 GiB address space, building any of these tables would fail
    with MemoryError or run for minutes; the command exits 1 in under a
    second (the interpreter's start-up aside), so the guard ran first."""
    env = dict(os.environ, PYTHONPATH=str(Path(ml.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, *args, "--exact"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr and "over the 2^33-bit budget" in done.stderr
    assert float(done.stderr.rsplit("main took ", 1)[1].split()[0]) < 1.0


@pytest.mark.parametrize("kind,params,depth", [
    ("seq_factorial", {}, 5), ("seq_factorial", {}, 9), ("seq_geometric", {}, 40),
    ("seq_power_tower", {"s": 0.5}, 8)])
def test_the_max_table_is_guarded_by_the_sum_of_its_exponents(kind, params, depth):
    """The comparison ultrametric's table holds only the r_n, sum e_n bits,
    where the |x - y| sample's also holds the gaps, sum (2q - d) e_q; each
    is sampled at exactly its count and refused one bit below it."""
    family = ml.make_family(kind, **params)
    e = [family.exponent(n) for n in range(1, depth + 1)]
    counts = {True: sum(e), False: sum((2 * q - depth) * x for q, x in enumerate(e, 1))}
    assert counts[True] < counts[False]
    for ultra, bits in counts.items():
        def build():
            if ultra:
                return ml.comparison_ultrametric(family, depth, exact=True)
            return ml.sample(family, depth, exact=True, chain=False)[0]
        with mock.patch.object(zoo, "EXACT_BITS", bits):
            assert build().n == depth + 1
        with mock.patch.object(zoo, "EXACT_BITS", bits - 1):
            with pytest.raises(ExactModeSizeExceeded):
                build()
