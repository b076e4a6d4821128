"""Float and exact spaces share one numeric path. The dtype-specific loops it
replaced are kept here as oracles: both sequence-sample loops (the exact
one through oracles.sequence_gaps), the Cantor double loop, the
comparison-ultrametric loop, the exact Hausdorff triple loop, the symmetry
and positivity loops of violations() and the Python greedy separated set.
Each must agree with the shared code entry for entry, in value and in type
(Fraction or float). The triangle and strong-triangle checks share one hull
kernel; the dtype-forked loops it replaced (oracles.triangle_violations,
oracles.is_ultrametric) must give the same verdicts. Exact input is
converted to Fraction once, and bad entries get typed errors."""

import json
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import spaces
from metriclab._util import DEFAULT_TOL, as_float
from metriclab.cli import main
from metriclab.embedding import _greedy_separated
from metriclab.errors import DiameterExceedsOne, MetricViolation
from metriclab.zoo import _TINY_LOG2, _sequence_values
from conftest import euclidean_space
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=40)

SEQUENCE_KINDS = (("seq_factorial", {}), ("seq_power_tower", {"s": 0.5}),
                  ("seq_geometric", {}), ("seq_polynomial", {"s": 2.0}), ("seq_log", {}),
                  ("sqrt_ultra", {}))
DYADIC = ("seq_factorial", "seq_power_tower", "seq_geometric")


def kind_of(x):
    return Fraction if isinstance(x, Fraction) else float if isinstance(x, float) else type(x)


def assert_same(new, old):
    """Same shape, and every entry the same value of the same type."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    for x, y in zip(new.ravel().tolist(), old.ravel().tolist()):
        assert kind_of(x) is kind_of(y) and x == y, (x, y)


# Oracles: the loops the shared path replaced.

def sequence_space_oracle(family, depth, exact):
    vals = _sequence_values(family, depth, exact)
    first = family.first_index
    labels = ["0"] + [f"r{n}" for n in range(first, first + depth)]
    pts = [Fraction(0) if exact else 0.0] + list(vals)
    n_pts = depth + 1
    if family.kind == "sqrt_ultra":
        if exact:
            raise ValueError("sqrt_ultra has irrational distances; no exact mode")
        heights = [0.0] + list(vals)
        dist = np.zeros((n_pts, n_pts))
        for i in range(n_pts):
            for j in range(i + 1, n_pts):
                dist[i, j] = dist[j, i] = max(heights[i], heights[j])
    elif exact:
        dist = oracles.sequence_gaps(pts)
    else:
        arr = np.asarray(pts)
        dist = np.abs(arr[:, None] - arr[None, :])
    return labels, dist


def comparison_oracle(family, depth, exact):
    vals = _sequence_values(family, depth, exact)
    pts = [Fraction(0) if exact else 0.0] + list(vals)
    n_pts = depth + 1
    dist = np.zeros((n_pts, n_pts), dtype=object if exact else float)
    if exact:
        dist[:] = Fraction(0)
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            dist[i, j] = dist[j, i] = max(pts[i], pts[j])
    return dist


def cantor_oracle(family, depth, exact):
    r = family.params["r"]
    vals = []
    for k in range(1, depth + 1):
        if exact:
            vals.append(Fraction(r) ** math.factorial(k - 1))
        else:
            lg = math.factorial(k - 1) * math.log2(r)
            assert lg >= _TINY_LOG2
            vals.append(2.0 ** lg)
    n_pts = 2 ** depth
    labels = [format(i, f"0{depth}b") for i in range(n_pts)]
    dist = np.zeros((n_pts, n_pts), dtype=object if exact else float)
    if exact:
        dist[:] = Fraction(0)
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            first_diff = depth - (i ^ j).bit_length() + 1
            dist[i, j] = dist[j, i] = vals[first_diff - 1]
    return labels, dist


def hyperspace_oracle(space, k):
    """The exact-mode Hausdorff triple loop; it runs on float entries too."""
    n = space.n
    members = [list(c) for j in range(1, k + 1) for c in combinations(range(n), j)]
    m = space.dist
    so = len(members)
    dist = np.empty((so, so), dtype=object)
    mind = [[min(m[a, b] for a in c) for b in range(n)] for c in members]
    for p in range(so):
        for q in range(so):
            left = max(mind[p][b] for b in members[q])
            right = max(mind[q][a] for a in members[p])
            dist[p, q] = max(left, right)
    return dist


def violations_oracle(matrix, tol, exact):
    """violations() with its dtype-forked symmetry check, positivity loop and
    triangle loop (labels and the size cap left out). The triangle loop reads
    the float matrix mirrored from its upper triangle, as violations() does."""
    m = np.asarray(matrix, dtype=object if exact else float)
    n = m.shape[0]
    out = []
    if not exact and not np.isfinite(m).all():
        i, j = map(int, np.argwhere(~np.isfinite(m))[0])
        return [MetricViolation("finite", (i, j), "non-finite entry")]
    for i in range(n):
        if m[i, i] != 0:
            out.append(MetricViolation("diagonal", (i, i), "nonzero diagonal"))
    if exact:
        sym_bad = [(i, j) for i in range(n) for j in range(i) if m[i, j] != m[j, i]]
    else:
        asym = np.abs(m - m.T) > tol
        sym_bad = [tuple(map(int, w)) for w in np.argwhere(asym) if w[0] > w[1]]
    for i, j in sym_bad:
        out.append(MetricViolation("symmetry", (i, j)))
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j] <= 0:
                out.append(
                    MetricViolation("positivity", (i, j), "duplicate point (zero distance)")
                )
    if out:
        return out
    if not exact:
        m = np.triu(m) + np.triu(m, 1).T
    out.extend(oracles.triangle_violations(m, n, tol, exact))
    diam = m.max() if n > 1 else 0
    if diam > 1:
        out.append(DiameterExceedsOne(diam))
    return out


def greedy_oracle(m, ball, r2):
    chosen = []
    for i in ball:
        if all(m[i, j] > r2 for j in chosen):
            chosen.append(i)
    return len(chosen)


def described(problems):
    return [(type(p).__name__, getattr(p, "kind", None), getattr(p, "witness", None))
            for p in problems]


def verdict(problems):
    """described() without the triangle witness: the kernel names the pair
    with the largest slack, the old loops the first violated triple they met."""
    return [(name, kind, None if kind == "triangle" else witness)
            for name, kind, witness in described(problems)]


# Zoo builders.

@pytest.mark.parametrize("kind,params", SEQUENCE_KINDS)
@pytest.mark.parametrize("exact", [False, True])
def test_sequence_space_matches_loops(kind, params, exact):
    fam = ml.make_family(kind, **params)
    depths = (1, 2, 5, 9) if kind != "seq_factorial" or exact else (1, 2, 5, 6)
    for depth in depths:
        if exact and kind not in DYADIC:
            for build in (ml.sample, sequence_space_oracle):
                with pytest.raises(ValueError):
                    build(fam, depth, exact=True)
            continue
        space, _ = ml.sample(fam, depth, exact=exact, chain=False)
        labels, dist = sequence_space_oracle(fam, depth, exact)
        assert list(space.labels) == labels
        assert space.dist.dtype == (object if exact else float)
        assert_same(space.dist, dist)


@pytest.mark.parametrize("kind,params", [kp for kp in SEQUENCE_KINDS if kp[0] != "sqrt_ultra"])
@pytest.mark.parametrize("exact", [False, True])
def test_comparison_ultrametric_matches_loop(kind, params, exact):
    fam = ml.make_family(kind, **params)
    if exact and kind not in DYADIC:
        for build in (ml.comparison_ultrametric, comparison_oracle):
            with pytest.raises(ValueError):
                build(fam, 3, exact=True)
        return
    for depth in (1, 3, 6):
        rho = ml.comparison_ultrametric(fam, depth, exact=exact)
        assert rho.dist.dtype == (object if exact else float)
        assert_same(rho.dist, comparison_oracle(fam, depth, exact))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("r", [0.5, 0.3])
def test_cantor_space_matches_double_loop(exact, r):
    fam = ml.make_family("cantor_factorial", r=r)
    for depth in range(1, 7):
        space, _ = ml.sample(fam, depth, exact=exact, chain=False)
        labels, dist = cantor_oracle(fam, depth, exact)
        assert list(space.labels) == labels
        assert space.dist.dtype == (object if exact else float)
        assert_same(space.dist, dist)


@pytest.mark.parametrize("kind,params,depth", [
    ("seq_factorial", {}, 6), ("seq_power_tower", {"s": 0.5}, 10), ("seq_geometric", {}, 40),
    ("cantor_factorial", {"r": 0.5}, 6), ("product_geometric", {"t": 0.5}, 5)])
def test_dyadic_exact_samples_round_to_float_samples(kind, params, depth):
    # the dyadic values are exact floats at these depths, so each float
    # distance is the correctly rounded exact one
    fam = ml.make_family(kind, **params)
    exact, exact_chain = ml.sample(fam, depth, exact=True)
    flt, flt_chain = ml.sample(fam, depth)
    assert exact.labels == flt.labels
    assert all(isinstance(x, Fraction) for x in exact.dist.ravel())
    assert flt.dist.dtype == float
    assert np.array_equal(np.vectorize(as_float, otypes=[float])(exact.dist), flt.dist)
    assert exact_chain.levels == flt_chain.levels


# Spaces.

@pytest.mark.parametrize("exact", [False, True])
def test_hyperspace_matches_triple_loop(exact):
    bases = [ml.sample(ml.make_family("cantor_factorial"), 3, exact=exact, chain=False)[0],
             ml.sample(ml.make_family("seq_geometric"), 4, exact=exact, chain=False)[0]]
    if not exact:
        bases.append(euclidean_space(5, 5))
    for base in bases:
        for k in (1, 2, base.n):
            hyper = ml.hausdorff_hyperspace(base, k)
            assert hyper.exact == exact
            assert hyper.dist.dtype == (object if exact else float)
            assert_same(hyper.dist, hyperspace_oracle(base, k))


def broken(seed, n, levels, edits, exact):
    """A tie-heavy metric with edits: asymmetric bumps, zeroed pairs,
    nonzero diagonals; exact ones become Fraction matrices."""
    m = quantized_space(seed, n, levels).dist.copy()
    if exact:
        m = np.vectorize(Fraction, otypes=[object])(m)
    for what, i, j, size in edits:
        i, j = i % n, j % n
        bump = Fraction(size) if exact else size
        if what == "bump" and i != j:
            m[i, j] = m[i, j] + bump
        elif what == "zero" and i != j:
            m[i, j] = m[j, i] = m[i, j] * 0
        elif what == "diagonal":
            m[i, i] = bump
    return m


edit = st.tuples(st.sampled_from(("bump", "zero", "diagonal")), st.integers(0, 9),
                 st.integers(0, 9), st.sampled_from((1e-13, 1e-6, 0.25, -0.1)))


@CHECKS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 9), levels=st.integers(1, 4),
       edits=st.lists(edit, max_size=4), exact=st.booleans(),
       budget=st.sampled_from((1, 7, 97, spaces._BLOCK_ENTRIES)))
def test_violations_match_dtype_loops(seed, n, levels, edits, exact, budget):
    """At row blocks of one entry's budget up to the default: the symmetry
    and positivity masks, made a block of rows at a time, report in the
    order of the whole-matrix loops."""
    m = broken(seed, n, levels, edits, exact)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_BLOCK_ENTRIES", budget)
        new = ml.violations(m, exact=exact)
    assert verdict(new) == verdict(violations_oracle(m, DEFAULT_TOL, exact))


def dyadic_metric(seed, n):
    """A tie-heavy metric of Fractions k/8: every entry, and every sum of two,
    is exact in float64 too."""
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 9, size=(n, n))
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0)
    for k in range(n):
        w = np.minimum(w, w[:, [k]] + w[[k], :])
    return np.vectorize(lambda x: Fraction(int(x), 8), otypes=[object])(w)


@st.composite
def bumped(draw):
    """(m, exact): a float cloud, a tie-heavy quantized metric or an exact
    dyadic metric, with one pair raised on both sides (or none)."""
    source = draw(st.sampled_from(("cloud", "ties", "dyadic")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(3, 12))
    i, j = draw(st.sampled_from(list(combinations(range(n), 2))))
    if source == "dyadic":
        m = dyadic_metric(seed, n)
        bump = draw(st.sampled_from((0, 1, 2, 4))) * Fraction(1, 8)
    else:
        m = (euclidean_space(seed, n) if source == "cloud"
             else quantized_space(seed, n, draw(st.integers(1, 5)))).dist.copy()
        bump = draw(st.sampled_from((0.0, 1e-13, 1e-6, 0.25, 0.5)))
    m[i, j] = m[j, i] = m[i, j] + bump
    return m, source == "dyadic"


def worst_triangle_slack(m):
    """max m[a, b] - (m[a, c] + m[c, b]) over all triples of distinct points."""
    return max(m[a, b] - (m[a, c] + m[c, b])
               for a, b, c in product(range(len(m)), repeat=3) if len({a, b, c}) == 3)


def triangle_witness(m, exact):
    found = [p.witness for p in ml.violations(m, exact=exact)
             if getattr(p, "kind", None) == "triangle"]
    return found[0] if found else None


def ultrametric_check(m, exact):
    sp = ml.FiniteMetricSpace([str(i) for i in range(len(m))], m, exact=exact, _trusted=True)
    new, old = ml.is_ultrametric(sp), oracles.is_ultrametric(sp)
    assert (new, type(new.violation)) == (old, type(old.violation))
    return new


@CHECKS
@given(bumped())
def test_hull_checks_match_the_old_loops(case):
    m, exact = case
    assert verdict(ml.violations(m, exact=exact)) == \
        verdict(violations_oracle(m, DEFAULT_TOL, exact))
    check = ultrametric_check(m, exact)
    witness = triangle_witness(m, exact)
    if witness is not None:
        a, b, c = witness
        assert len({a, b, c}) == 3
        assert m[a, b] - (m[a, c] + m[c, b]) == worst_triangle_slack(m) > 0
    if exact:  # the same matrix in float64 names the same triples
        flt = m.astype(float)
        assert triangle_witness(flt, False) == witness
        assert ultrametric_check(flt, False).witness == check.witness


@CHECKS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 80), levels=st.integers(1, 5),
       exact=st.booleans(), data=st.data())
def test_greedy_separated_matches_python_loop(seed, n, levels, exact, data):
    if exact:
        space, _ = ml.sample(ml.make_family("cantor_factorial"),
                             data.draw(st.integers(1, 5)), exact=True, chain=False)
    else:
        space = quantized_space(seed, n, levels)
    ball = sorted(data.draw(st.sets(st.integers(0, space.n - 1), min_size=1)))
    r2 = data.draw(st.sampled_from(sorted(set(space.dist.ravel().tolist()) - {0})))
    for threshold in (r2, as_float(r2)):
        assert _greedy_separated(space.dist, ball, threshold) == \
            greedy_oracle(space.dist, ball, threshold)


def test_dimension_on_exact_space_matches_float():
    fam = ml.make_family("seq_geometric")
    exact, _ = ml.sample(fam, 20, exact=True, chain=False)
    flt, _ = ml.sample(fam, 20, chain=False)
    assert ml.estimate_metric_dimension(exact, 0.25, 4) == \
        ml.estimate_metric_dimension(flt, 0.25, 4)


# Exact input is exact.

def test_exact_validate_converts_float_entries():
    sp = ml.validate([[0, 0.5], [0.5, 0.0]], exact=True)
    assert sp.dist[0, 1] == Fraction(1, 2)
    assert all(type(x) is Fraction for x in sp.dist.ravel())
    assert type(sp.diameter) is Fraction
    untrusted = ml.FiniteMetricSpace(["a", "b"], [[0, 0.5], [np.float32(0.5), 0]], exact=True)
    assert all(type(x) is Fraction for x in untrusted.dist.ravel())
    assert untrusted.dist[1, 0] == Fraction(1, 2)
    rescaled = ml.validate([[0, 3], [3, 0]], exact=True, rescale=True)
    assert rescaled.rescaled and rescaled.dist[0, 1] == Fraction(1)


@pytest.mark.parametrize("bad,kind", [(math.nan, "finite"), (math.inf, "finite"),
                                      (-math.inf, "finite"), (np.float32("nan"), "finite"),
                                      (None, "parse"), ("abc", "parse"), (1j, "parse")])
def test_exact_bad_entries_are_typed_errors(bad, kind):
    m = [[0, 0.5, 0.5], [0.5, 0, bad], [0.5, 0.5, 0]]
    with pytest.raises(MetricViolation) as info:
        ml.validate(m, exact=True)
    assert info.value.kind == kind and info.value.witness == (1, 2)
    with pytest.raises(MetricViolation) as info:
        ml.FiniteMetricSpace(["a", "b", "c"], m, exact=True)
    assert info.value.kind == kind
    assert described(ml.violations(m, exact=True)) == [("MetricViolation", kind, (1, 2))]


def test_float_non_finite_entries_keep_their_witness():
    m = [[0, 0.5, 0.5], [0.5, 0, math.nan], [0.5, 0.5, 0]]
    assert described(ml.violations(m)) == [("MetricViolation", "finite", (1, 2))]


def test_exact_symmetry_has_no_tolerance():
    m = [[0, Fraction(1, 2)], [Fraction(1, 2) + Fraction(1, 10 ** 15), 0]]
    assert [p.kind for p in ml.violations(m, exact=True)] == ["symmetry"]
    assert ml.violations([[0, 0.5], [0.5 + 1e-15, 0]]) == []


def test_mixed_float_and_exact_product_is_exact():
    flt = ml.validate([[0, 0.1], [0.1, 0]], ["a", "b"])
    exact, _ = ml.sample(ml.make_family("seq_geometric"), 2, exact=True, chain=False)
    prod = ml.sup_product([flt, exact])
    assert prod.exact
    assert all(type(x) is Fraction for x in prod.dist.ravel())
    assert prod.dist[0, 3] == Fraction(0.1)  # the float's exact binary value
    assert prod.dist[0, 1] == Fraction(1, 2)


def test_cli_exact_cantor_hyperspace(capsys):
    rc = main(["hyperspace", "--zoo", "cantor_factorial", "--r", "0.5", "--depth", "3",
               "--exact"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] == 255 and doc["config"]["exact"] is True
