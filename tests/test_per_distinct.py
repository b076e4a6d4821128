"""Scalar work done once per distinct value against the per-entry and
per-partition paths it replaced, bit for bit: the text of to_csv and the
logs of rho and of box-norm matrices against tests/oracles.py, the
oracle's restricted-growth table against the set_partitions generator,
and its log ratios against oracles.partition_log_ratio of each partition."""

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import embedding, logratio
from metriclab._util import dumps, per_distinct
from metriclab.errors import DepthOverflow, PackingInfeasible
from metriclab.partitions import _label_stats, _log_ratios
from oracles import partition_log_ratio
from metriclab.spaces import _gather
from test_chain_split import chains, outcome
from test_label_stats import small_spaces

CHECKS = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

# ties, subnormals, one-ulp neighbours and both zeros
TRICKY = (0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 0.1,
          float(np.nextafter(0.1, 1.0)), float(np.nextafter(0.1, 0.0)), 1 / 3, 0.5,
          float(np.nextafter(1.0, 0.0)), 1.0, 123456.789)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@st.composite
def trusted_spaces(draw):
    """Trusted float spaces, n = 1 included, whose entries come from a small
    pool (so values repeat), with a 0.0 or -0.0 diagonal; symmetric or not,
    so that a transposed row order shows."""
    n = draw(st.integers(1, 7))
    pool = draw(st.lists(st.sampled_from(TRICKY) | st.floats(0.0, 1.0), min_size=1,
                         max_size=5))
    m = np.array([[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)])
    if draw(st.booleans()):
        m = np.triu(m, 1) + np.triu(m, 1).T
    np.fill_diagonal(m, draw(st.sampled_from((0.0, -0.0))))
    labels = [f"p{i}" for i in range(n - 1)] + ["last, quoted"]
    return ml.FiniteMetricSpace(labels, m, _trusted=True)


@CHECKS
@given(trusted_spaces())
def test_to_csv_equals_per_entry_repr(space):
    assert ml.to_csv(space) == oracles.to_csv(space)


@CHECKS
@given(st.lists(st.sampled_from(TRICKY) | st.floats(allow_nan=False), max_size=30),
       st.sampled_from((repr, abs)))
def test_per_distinct_calls_fn_once_per_bit_pattern(values, fn):
    calls = []

    def counted(v):
        calls.append(v)
        return fn(v)

    x = np.array(values, dtype=float).reshape(-1, 1)
    dtype = object if fn is repr else float
    out = per_distinct(counted, x, dtype)
    assert out.shape == x.shape
    assert out.ravel().tolist() == [fn(v) for v in values]
    assert sorted(bits(calls).tolist()) == sorted(set(bits(values).tolist()))


def test_per_distinct_keeps_signed_zeros_and_ulps_apart():
    x = np.array([[0.0, -0.0], [0.1, float(np.nextafter(0.1, 1.0))]])
    assert per_distinct(repr, x, object).tolist() == \
        [["0.0", "-0.0"], ["0.1", "0.10000000000000002"]]
    logs = per_distinct(math.log, np.array([0.1, float(np.nextafter(0.1, 1.0)), 0.1]))
    assert bits(logs).tolist() == bits([math.log(0.1), math.log(np.nextafter(0.1, 1.0)),
                                        math.log(0.1)]).tolist()


def test_rgs_table_equals_the_recursive_generator():
    assert list(ml.set_partitions(0)) == []
    for n in range(1, 10):
        assert logratio._rgs_table(n).tolist() == [list(a) for a in ml.set_partitions(n)]


def test_set_partitions_streams():
    """The public generator yields its first rows in O(n) memory, where
    the Bell(11) x 11 table takes 60 MB."""
    tracemalloc.start()
    try:
        rows = ml.set_partitions(11)
        assert next(rows) == (0,) * 11
        assert next(rows) == (0,) * 10 + (1,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=60, deadline=None)
@given(small_spaces())
def test_log_ratios_equal_the_per_partition_loop(space):
    """Ranks gather the entries _label_stats reads, and R of every
    partition is oracles.partition_log_ratio of them, bit for bit."""
    _, labels, d_rank, g_rank = logratio._enumerated_stats(space)
    deltas, gammas = _label_stats(space, labels)
    assert list(_gather(space.values, d_rank)) == list(deltas)
    assert list(_gather(space.values, g_rank)) == list(gammas)
    ratios = _log_ratios(space, d_rank, g_rank)
    loop = [partition_log_ratio(d, g) for d, g in zip(deltas, gammas)]
    assert bits(ratios).tolist() == bits(loop).tolist()


def per_entry_logs(fn, calls):
    """fn with every box-norm matrix of the embedding logged per entry, as
    before; calls gets the function of each call that would have taken the
    per-distinct path."""
    def old(f, x, dtype=float):
        calls.append(f)
        return oracles.per_entry(f, x, dtype)

    def wrapped(*args):
        with mock.patch.object(embedding, "per_distinct", old):
            return fn(*args)
    return wrapped


@CHECKS
@given(chains(), st.sampled_from((1.5, 2.0, 3.0)), st.sampled_from((0.05, 0.1, 0.5)))
def test_certificate_equals_per_entry_logs(case, p, epsilon):
    """The certificate, which logs each distinct value of d and rho once
    per split level, against the one that logged every pair of the upper
    triangle (oracles.certificate_per_pair)."""
    space, chain = case
    new = outcome(ml.certificate, space, chain, p, epsilon)
    old = outcome(oracles.certificate_per_pair, space, chain, p, epsilon)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert dumps(new.to_report()) == dumps(old.to_report())
        assert new.rho.dtype == old.rho.dtype and np.array_equal(new.rho, old.rho)


@CHECKS
@given(st.sampled_from((("seq_polynomial", {"s": 2}), ("seq_power_tower", {"s": 0.5}),
                        ("seq_geometric", {}), ("seq_factorial", {}))),
       st.integers(2, 9), st.sampled_from((1, 2, 3, 11)), st.sampled_from((1.5, 2.0, 3.0)),
       st.sampled_from((0.1, 0.5)))
def test_embedding_fit_and_distortion_equal_per_entry_logs(family, depth, N, p, epsilon):
    kind, params = family
    try:
        space, chain = ml.sample(ml.make_family(kind, **params), depth)
        full = ml.with_singleton_terminal(space, chain)
        sub = ml.select_embeddable_subchain(space, full, N)
        result = ml.embed_chain(space, sub, N, p, epsilon)
        calls = []
        old = per_entry_logs(ml.embed_chain, calls)(space, sub, N, p, epsilon)
    except (PackingInfeasible, DepthOverflow):
        assume(False)
    assert calls == [math.log]  # the box-norm logs of the fit
    assert result.fitted == old.fitted
    new = outcome(ml.verify_embedding_distortion, space, result, p, epsilon)
    old = outcome(per_entry_logs(ml.verify_embedding_distortion, calls), space, result, p,
                  epsilon)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert dumps(new.to_report()) == dumps(old.to_report())
        assert calls == [math.log, math.log]  # and those of the distortion check
