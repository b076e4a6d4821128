"""Exact spaces on ranks. An exact space carries `values`, its distinct
Fractions ascending, and `rank`, the float64 matrix with values[rank] ==
dist; every order-only kernel reads the ranks. Each exact builder and
transform is checked for that pair, and the kernels against the
Fraction-comparison code they replaced (kept in oracles.py), on zoo samples,
products (one with a float factor), subspaces, hyperspaces, rho, the
subdominant ultrametric and validated tie-heavy k/8 and non-dyadic k/9
metrics. The exact triangle check, on integers when every denominator is a
power of two, is checked against the Fraction hull; a counting test makes
sure no Fraction comparison comes back into the rank kernels."""

import io
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import cli, embedding, logratio, partitions, spaces, ultrametrize
from metriclab._util import dumps
from metriclab.errors import EmptyWindow
from metriclab.partitions import _block_extents
from metriclab.spaces import _worst_triple
from metriclab.zoo import _sequence_points, product_factors
from conftest import euclidean_space
from test_chain_split import certificate_oracle, outcome, same_matrix

CHECKS = settings(settings.get_profile("deterministic"), max_examples=60)

EXACT_FAMILIES = (("seq_factorial", {}), ("seq_power_tower", {"s": 0.5}),
                  ("seq_geometric", {}), ("cantor_factorial", {}), ("product_geometric", {}))
SOURCES = ("zoo", "comparison", "product", "mixed", "subspace", "hyperspace", "rho",
           "subdominant", "dyadic", "non_dyadic")


def integer_metric(seed, n, top=8):
    """A tie-heavy metric with integer entries in 1..top: the shortest-path
    closure of random symmetric weights."""
    rng = np.random.default_rng(seed)
    w = rng.integers(1, top + 1, size=(n, n))
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0)
    for k in range(n):
        w = np.minimum(w, w[:, [k]] + w[[k], :])
    return w


def fractions_over(w, den):
    out = np.empty(w.shape, dtype=object)
    out[:] = [[Fraction(int(x), den) for x in row] for row in w]
    return out


@st.composite
def exact_spaces(draw):
    """(space, chain or None): an exact space from one of SOURCES."""
    source = draw(st.sampled_from(SOURCES))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if source in ("dyadic", "non_dyadic"):
        w = integer_metric(seed, draw(st.integers(2, 9)))
        return ml.validate(fractions_over(w, 8 if source == "dyadic" else 9), exact=True), None
    kind, params = draw(st.sampled_from(EXACT_FAMILIES[:3] if source == "comparison"
                                        else EXACT_FAMILIES))
    family = ml.make_family(kind, **params)
    depth = draw(st.integers(1, 6))
    if source == "comparison":
        return ml.comparison_ultrametric(family, depth, exact=True), None
    if source == "product":
        factors = product_factors(ml.make_family("product_geometric"), draw(st.integers(1, 3)),
                                  exact=True)
        return ml.sup_product(factors + [ml.sample(family, min(depth, 2), exact=True)[0]]), None
    if source == "mixed":
        exact_factor = ml.sample(family, min(depth, 2), exact=True)[0]
        float_factor = euclidean_space(seed, draw(st.integers(2, 4)))
        return ml.sup_product([float_factor, exact_factor]), None
    if source == "hyperspace":
        small = ml.sample(family, min(depth, 2), exact=True)[0]
        return ml.hausdorff_hyperspace(small, draw(st.integers(1, 3))), None
    space, chain = ml.sample(family, depth, exact=True)
    if source == "subspace":
        keep = draw(st.lists(st.integers(0, space.n - 1), min_size=1, unique=True))
        return ml.induced_chain(space, chain, keep)
    if source == "rho":
        return ml.ultrametric_space_from_chain(space, ml.with_singleton_terminal(space, chain)), None
    if source == "subdominant":
        return ml.subdominant_ultrametric(space), None
    return space, chain


def check_table(space):
    """values strictly ascending from 0, values[rank] == dist, and equal
    ranks exactly where entries are equal."""
    values, rank = space.values, space.rank
    assert rank.dtype == np.float64 and rank.shape == space.dist.shape
    assert all(type(v) is Fraction for v in values)
    assert values[0] == 0 and all(a < b for a, b in zip(values, values[1:]))
    assert (values[rank.astype(np.intp)] == space.dist).all()
    entry_of = {}
    for r, x in zip(rank.ravel().tolist(), space.dist.ravel().tolist()):
        assert entry_of.setdefault(r, x) == x
    assert len(set(entry_of.values())) == len(entry_of)
    assert space.diameter == space.dist.max()


def same_entries(new, old):
    """Equal values of equal types, entry by entry."""
    new, old = list(np.ravel(new, order="K")), list(np.ravel(old, order="K"))
    assert [(type(a), a) for a in new] == [(type(b), b) for b in old]


def same_chain(new, old):
    assert np.array_equal(new.split, old.split)
    assert new.stats == old.stats
    for a, b in zip(new.stats, old.stats):
        assert (type(a.delta), type(a.gamma), type(a.log_ratio)) == \
            (type(b.delta), type(b.gamma), type(b.log_ratio))
    assert new.thresholds == old.thresholds
    assert [type(t) for t in new.thresholds] == [type(t) for t in old.thresholds]
    assert new.level_ids == old.level_ids


@CHECKS
@given(exact_spaces())
def test_builders_carry_their_ranks(case):
    space, _ = case
    check_table(space)
    check_table(ml.subdominant_ultrametric(space))
    check_table(ml.subspace(space, range(0, space.n, 2)))


@CHECKS
@given(exact_spaces(), st.sampled_from((2.0, 3.0)), st.sampled_from((0.1, 0.5)))
def test_rank_kernels_equal_fraction_comparisons(case, p, epsilon):
    space, chain = case
    check = ml.is_ultrametric(space)
    old = oracles.is_ultrametric(space)
    assert (check, type(check.violation)) == (old, type(old.violation))
    dendrogram = ml.dendrogram_chain(space)
    same_chain(dendrogram, oracles.dendrogram_chain_on_values(space))
    if check.ok:
        same_chain(ml.ball_chain(space), oracles.ball_chain_on_values(space))
    same_entries([ml.largest_gap(space)], [oracles.tree_gap(space)])
    assert ml.associated_endpoints(space) == oracles.associated_endpoints(space)
    for t in [*space.values[1:], *(space.values[1:] + space.values[:-1]) / 2, 2]:
        assert ml.threshold_partition(space, t) == oracles.threshold_partition(space, t)
    subdominant = ml.subdominant_ultrametric(space)
    same_entries(subdominant.dist, spaces._subdominant(spaces._prim(space.dist)))
    for given_chain in (dendrogram, chain):
        if given_chain is None:
            continue
        same_chain(given_chain, oracles.chain_on_values(space, given_chain.split,
                                                        given_chain.thresholds,
                                                        given_chain.level_ids))
        full = ml.with_singleton_terminal(space, given_chain)
        same_chain(full, oracles.chain_on_values(space, full.split, full.thresholds,
                                                 full.level_ids))
        diameters, gaps, connected = _block_extents(space, full)
        for lvl, (old_diameters, old_gaps) in enumerate(oracles.block_extents(space, full)):
            same_entries(diameters[lvl], old_diameters)
            same_entries(gaps[lvl][connected[lvl]],
                         [g for g, c in zip(old_gaps, connected[lvl]) if c])
        rho = ml.ultrametric_space_from_chain(space, full)
        check_table(rho)
        same_entries(rho.dist, oracles.ultrametric_from_chain(space, full))
        new_cert = outcome(ml.certificate, space, full, p, epsilon)
        old_cert = outcome(certificate_oracle, space, full, p, epsilon)
        if isinstance(old_cert, tuple):
            assert new_cert == old_cert
        else:
            assert dumps(new_cert.to_report()) == dumps(old_cert.to_report())
            same_matrix(new_cert.rho, old_cert.rho)


@CHECKS
@given(st.sampled_from(EXACT_FAMILIES), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_transforms_equal_their_value_code(family, depth, k, seed):
    kind, params = family
    space = ml.sample(ml.make_family(kind, **params), depth, exact=True)[0]
    factors = [euclidean_space(seed, 3), space] if seed % 2 else [space, space]
    same_entries(ml.sup_product(factors).dist, oracles.sup_product(factors))
    small = ml.subspace(space, range(min(space.n, 5)))
    same_entries(ml.hausdorff_hyperspace(small, k).dist, oracles.hausdorff_dist(small, k))


def test_comparison_ultrametric_equals_fraction_max():
    for kind, params in EXACT_FAMILIES[:3]:
        family = ml.make_family(kind, **params)
        for depth in range(1, 8):
            pts = np.array(_sequence_points(family, depth, True)[1], dtype=object)
            old = np.maximum.outer(pts, pts)
            np.fill_diagonal(old, Fraction(0))
            same_entries(ml.comparison_ultrametric(family, depth, exact=True).dist, old)


@st.composite
def bent_metrics(draw):
    """(matrix, dyadic): a k/8 or k/9 Fraction metric with one pair raised
    on both sides by 0 to 4 units, which may break the triangle inequality."""
    dyadic = draw(st.booleans())
    n = draw(st.integers(3, 10))
    w = integer_metric(draw(st.integers(0, 2 ** 32 - 1)), n, 4)
    i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
    w[i, j] = w[j, i] = w[i, j] + draw(st.integers(0, 4))
    return fractions_over(w, 8 if dyadic else 9), dyadic


@CHECKS
@given(bent_metrics())
def test_exact_triangle_check_on_integers(case):
    m, dyadic = case
    found = [p.witness for p in ml.violations(m, exact=True)
             if getattr(p, "kind", None) == "triangle"]
    assert bool(found) == bool(oracles.triangle_violations(m, len(m), 0, True))
    slack, witness = _worst_triple(m, np.add)  # the Fraction hull
    assert found == ([witness] if slack > 0 else [])
    if not found:
        check_table(ml.validate(m, exact=True))


def test_no_fraction_comparison_in_the_rank_kernels(monkeypatch):
    """Exact ultrametrize on Cantor depth 6, profile on seq_factorial depth
    9 and on Cantor depth 6, oracle on seq_geometric depth 6, dimension on
    seq_geometric depth 60 and Cantor depth 6, partition_stats and
    associated_endpoints compare no Fraction inside _chain_stats, _prim,
    _leaf_matrix, _block_extents, is_ultrametric's accept test (a passing
    rho), the certificate's d <= rho check, whose operands are float64
    ranks, _label_stats, separated_count, estimate_metric_dimension or
    associated_endpoints."""
    inside = [0]
    counts = {"inside": 0, "outside": 0}
    calls = {}

    def counting(method):
        def compare(*args):
            counts["inside" if inside[0] else "outside"] += 1
            return method(*args)
        return compare

    monkeypatch.setattr(Fraction, "_richcmp", counting(Fraction._richcmp))
    monkeypatch.setattr(Fraction, "__eq__", counting(Fraction.__eq__))

    def watched(module, name, check=None):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            inside[0] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                inside[0] -= 1
            calls[name] = calls.get(name, 0) + 1
            if check:
                check(out)
            return out
        monkeypatch.setattr(module, name, wrapper)

    def float_ranks(out):
        assert out[0].dtype == np.float64

    def accepts(out):
        assert out.ok

    watched(spaces, "_prim")  # _spanning_tree's one call per space
    for module in (spaces, partitions, ultrametrize):
        watched(module, "_leaf_matrix")
    watched(partitions, "_chain_stats")
    watched(logratio, "_block_extents")
    watched(ultrametrize, "is_ultrametric", accepts)
    watched(ultrametrize, "_union")
    watched(ultrametrize, "_pair_logs", float_ranks)
    watched(ultrametrize, "_first_failure")
    for module in (partitions, logratio):
        watched(module, "_label_stats")
    watched(embedding, "separated_count")
    watched(cli, "estimate_metric_dimension")
    watched(partitions, "associated_endpoints")
    for argv in (["ultrametrize", "--zoo", "cantor_factorial", "--r", "0.5", "--depth", "6",
                  "--exact", "--p", "2", "--epsilon", "0.5"],
                 ["profile", "--zoo", "seq_factorial", "--depth", "9", "--exact"],
                 ["profile", "--zoo", "cantor_factorial", "--r", "0.5", "--depth", "6",
                  "--exact"],
                 ["oracle", "--zoo", "seq_geometric", "--depth", "6", "--exact",
                  "--radius", "0.5"],
                 ["dimension", "--zoo", "seq_geometric", "--depth", "60", "--exact",
                  "--window-r", "0.0625", "--ratio-floor", "16"],
                 ["dimension", "--zoo", "cantor_factorial", "--r", "0.5", "--depth", "6",
                  "--exact", "--window-r", "0.5", "--ratio-floor", "2"]):
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    space, chain = ml.sample(ml.make_family("cantor_factorial", r=0.5), 6, exact=True)
    for level in chain.levels:
        partitions.partition_stats(space, level)
    partitions.associated_endpoints(space)
    assert counts["inside"] == 0
    assert counts["outside"] > 0  # the patch sees the comparisons made elsewhere
    assert set(calls) == {"_prim", "_leaf_matrix", "_chain_stats", "_block_extents",
                          "is_ultrametric", "_union", "_pair_logs", "_first_failure",
                          "_label_stats", "separated_count", "estimate_metric_dimension",
                          "associated_endpoints"}


def test_exact_dimension_equals_float_where_float_is_exact():
    """Down to 2^-60 (seq_geometric) and 2^-120 (Cantor depth 6) float64
    holds every distance exactly, so the exact estimate, on ranks, is the
    float one; also on every other point, a subspace whose shared table
    holds distances that none of its pairs takes."""
    cases = [("seq_geometric", {}, depth) for depth in (2, 5, 20, 60)]
    cases += [("cantor_factorial", {"r": 0.5}, depth) for depth in range(1, 7)]
    for kind, params, depth in cases:
        family = ml.make_family(kind, **params)
        exact = ml.sample(family, depth, exact=True, chain=False)[0]
        flt = ml.sample(family, depth, chain=False)[0]
        half = range(0, exact.n, 2)
        for r, t in ((0.0625, 16), (0.5, 2), (1.0, 1.5)):
            assert dimension(exact, r, t) == dimension(flt, r, t)
            assert dimension(ml.subspace(exact, half), r, t) == \
                dimension(ml.subspace(flt, half), r, t)


def dimension(space, r, t):
    try:
        return ml.estimate_metric_dimension(space, r, t)
    except EmptyWindow as exc:
        return str(exc)


@CHECKS
@given(exact_spaces(), exact_spaces())
def test_union_equals_the_renumbering_it_replaced(case, other_case):
    space, other = case[0], other_case[0]
    sub = ml.subspace(space, range(0, space.n, 2))
    rho = ml.subdominant_ultrametric(space)
    for spaces_ in ((space, other), (space, sub, rho), (space, space), (other, space, sub)):
        pairs = [(sp.values, sp.rank) for sp in spaces_]
        table, ranks = spaces._union(*pairs)
        old_table, old_ranks = oracles.union_ranks(pairs)
        same_entries(table, old_table)
        for sp, rank, old_rank in zip(spaces_, ranks, old_ranks):
            assert np.array_equal(rank, old_rank)
            same_entries(table[rank.astype(np.intp)], sp.dist)
        if all(sp.values is space.values for sp in spaces_):
            assert table is space.values  # shared: no values sorted
    rank = euclidean_space(1, 3).rank
    table, ranks = spaces._union((None, rank), (None, rank))
    assert table is None and all(r is rank for r in ranks)


def test_associated_endpoints_order_exact_distances_below_float():
    """On Cantor depth 9, r = 0.5, distances reach 2^-40320: pairs come by
    exact decreasing distance, then decreasing pair, though as_float ties
    every distance under 2^-1074 at 0.0."""
    space, _ = ml.sample(ml.make_family("cantor_factorial", r=0.5), 9, exact=True, chain=False)
    found = ml.associated_endpoints(space)
    assert len(found) == space.n * (space.n - 1) // 2  # an ultrametric: every pair
    keys = [(d, pair) for pair, d in found]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert all(d == space.dist[pair] for pair, d in found)
    # (510, 511) first differ at the last coordinate, 2^-8!, (509, 511) at 2^-7!
    where = {pair: k for k, (pair, _) in enumerate(found)}
    assert where[(509, 511)] < where[(510, 511)]
