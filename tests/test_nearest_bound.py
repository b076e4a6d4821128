"""The triangle check of validate and violations() first tries an O(n^2)
proof, spaces._within_nearest_sums: every pair's entry is at most the sum of
its endpoints' nearest-neighbour entries (near[i] + near[j]), within tol.
When it holds, no triangle slack can exceed tol, and the cubic search
(_worst_triple) is skipped. Its verdicts, witnesses and errors must equal
those of the cubic search (oracles.worst_triple) on (1,2)-metrics,
tie-heavy quantized closures and clouds, in float and exact mode (dyadic
and non-dyadic Fractions), with one entry moved onto the bound or just off
it. The stored matrix keeps its +0.0 or Fraction(0) diagonal. The search
folds one block of hull rows at a time; a worst-slack tie across two row
blocks goes to the first pair in row-major order; test_space_memory
compares the fold with oracles.worst_triple on these inputs at several
budgets. The symmetry and positivity masks are made a block of rows at a
time and report in the old order (here, and against
test_numeric_path.violations_oracle at several budgets there)."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import spaces
from metriclab._util import DEFAULT_TOL
from metriclab.errors import MetricViolation
from conftest import euclidean_space
from test_numeric_path import described
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=80)
BUDGETS = (1, 7, 97, spaces._BLOCK_ENTRIES)


def one_two_metric(seed, n):
    """A seeded (1,2)-metric scaled by 1/2: every entry is 1/2 or 1, so
    every pair is within its nearest-neighbour bound."""
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 3, size=(n, n)).astype(float)
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    return w / 2


def nearest(m):
    """near[i], the least off-diagonal entry of row i, by a Python loop."""
    return [min(m[i, k] for k in range(len(m)) if k != i) for i in range(len(m))]


def as_fractions(m, scale):
    out = np.empty(m.shape, dtype=object)
    out[:] = [[Fraction(x) * scale for x in row] for row in m.tolist()]
    return out


@st.composite
def near_bound(draw):
    """(m, exact): a (1,2)-metric, a quantized closure or a cloud, as
    floats, dyadic Fractions or non-dyadic ones (scaled by 2/3), with one
    pair left as it is, or set on both sides to its nearest-neighbour bound
    near[i] + near[j] (as near() reads it before the move), moved off it by
    0, 1 ulp, tol/2 or 2 tol."""
    source = draw(st.sampled_from(("one_two", "ties", "cloud")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(3, 12))
    m = (one_two_metric(seed, n) if source == "one_two"
         else quantized_space(seed, n, draw(st.integers(1, 5))).dist.copy() if source == "ties"
         else euclidean_space(seed, n).dist.copy())
    mode = draw(st.sampled_from(("float", "dyadic", "non_dyadic")))
    if mode != "float":
        m = as_fractions(m, Fraction(2, 3) if mode == "non_dyadic" else 1)
    move = draw(st.sampled_from((None, "0", "ulp", "tol/2", "2tol")))
    if move is not None:
        i, j = draw(st.sampled_from(list(combinations(range(n), 2))))
        near = nearest(m)
        m[i, j] = m[j, i] = off(near[i] + near[j], move)
    return m, mode != "float"


def off(bound, move):
    """bound moved up by 0, 1 ulp, tol/2 or 2 tol: in float arithmetic on
    a float bound, exactly on a Fraction."""
    step = {"0": 0.0, "ulp": np.spacing(float(bound)), "tol/2": DEFAULT_TOL / 2,
            "2tol": 2 * DEFAULT_TOL}[move]
    if isinstance(bound, Fraction):
        return bound + Fraction(step)
    return np.nextafter(bound, np.inf) if move == "ulp" else bound + step


def searched(m, exact):
    """The triangle witnesses the cubic search alone reports: the worst pair
    of oracles.worst_triple, when its slack exceeds the tolerance."""
    slack, witness = oracles.worst_triple(m, np.add)
    return [witness] if slack > (0 if exact else DEFAULT_TOL) else []


def triangles(problems):
    return [p.witness for p in problems if getattr(p, "kind", None) == "triangle"]


def check_diagonal(space):
    diagonal = space.dist.diagonal().tolist()
    if space.exact:
        assert all(type(x) is Fraction and x == 0 for x in diagonal)
    else:
        assert all(x == 0 and not np.signbit(x) for x in diagonal)


@CHECKS
@given(near_bound())
def test_the_bound_keeps_the_verdicts_of_the_cubic_search(case):
    m, exact = case
    problems = ml.violations(m, exact=exact)
    assert triangles(problems) == searched(m, exact)
    with pytest.MonkeyPatch.context() as patch:  # the search on every input
        patch.setattr(spaces, "_within_nearest_sums", lambda summed, tol: False)
        assert described(ml.violations(m, exact=exact)) == described(problems)
    if problems:
        with pytest.raises(type(problems[0])) as raised:
            ml.validate(m, exact=exact)
        assert described([raised.value]) == described(problems[:1])
    else:
        space = ml.validate(m, exact=exact)
        check_diagonal(space)
        assert (space.dist == m).all()


@CHECKS
@given(near_bound())
def test_a_pair_within_the_bound_has_no_larger_slack(case):
    """Wherever _within_nearest_sums holds, the worst slack of the search is
    within the tolerance, and the bound equals its loop."""
    m, exact = case
    tol = 0 if exact else DEFAULT_TOL
    near = nearest(m)
    loop = all(m[i, j] - (near[i] + near[j]) <= tol for i, j in combinations(range(len(m)), 2))
    assert spaces._within_nearest_sums(m, tol) == loop
    if loop:
        assert oracles.worst_triple(m, np.add)[0] <= tol


@pytest.mark.parametrize("mode", ("float", "dyadic", "non_dyadic"))
@pytest.mark.parametrize("move", ("0", "ulp", "tol/2", "2tol"))
def test_one_entry_off_the_bound(mode, move):
    """Five points 1/4 apart (1/6 when non-dyadic), the pair (0, 1) set to
    its bound 1/2 (1/3) and moved off it: its hull is the bound, so its
    slack is the move. The bound holds up to tol (0 in exact mode), and
    the search then names the pair exactly when the move exceeds tol."""
    unit = {"float": 0.25, "dyadic": Fraction(1, 4), "non_dyadic": Fraction(1, 6)}[mode]
    m = np.full((5, 5), unit, dtype=float if mode == "float" else object)
    np.fill_diagonal(m, 0.0 if mode == "float" else Fraction(0))
    m[0, 1] = m[1, 0] = off(2 * unit, move)
    exact, tol = mode != "float", 0 if mode != "float" else DEFAULT_TOL
    fails = move == "2tol" or (exact and move != "0")
    assert spaces._within_nearest_sums(m, tol) == (not fails)
    assert searched(m, exact) == ([(0, 1, 2)] if fails else [])
    if fails:
        with pytest.raises(MetricViolation, match="triangle") as raised:
            ml.validate(m, exact=exact)
        assert raised.value.witness == (0, 1, 2)
    else:
        check_diagonal(ml.validate(m, exact=exact))


def counted(monkeypatch):
    calls = []
    search = spaces._worst_triple

    def counting(m, combine):
        calls.append(len(m))
        return search(m, combine)

    monkeypatch.setattr(spaces, "_worst_triple", counting)
    return calls


def test_a_tie_heavy_input_skips_the_search_and_a_cloud_runs_it(monkeypatch):
    """A 200-point quantized closure with four weights, like the benchmark's
    quant200, passes the bound; a 60-point cloud does not."""
    quant = quantized_space(0, 200, 4).dist.copy()
    cloud = euclidean_space(0, 60).dist.copy()
    calls = counted(monkeypatch)
    for exact in (False, True):
        m = as_fractions(quant, 1) if exact else quant
        check_diagonal(ml.validate(m, exact=exact))
    assert calls == []
    space = ml.validate(cloud)
    check_diagonal(space)
    assert calls == [60]
    assert not np.signbit(cloud.diagonal()).any() and cloud.flags.writeable


def test_the_bound_writes_nothing():
    """The diagonal the bound leaves out is set in a copy of each row
    block, never in the matrix it reads."""
    for m in (quantized_space(3, 40, 3).dist.copy(),
              as_fractions(one_two_metric(3, 40), Fraction(2, 3))):
        before = m.copy()
        m.setflags(write=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spaces, "_BLOCK_ENTRIES", 97)
            assert spaces._within_nearest_sums(m, DEFAULT_TOL)
        assert [(type(a), a) for a in m.ravel().tolist()] == \
            [(type(b), b) for b in before.ravel().tolist()]


def tie_across_blocks():
    """Six points, all entries 1 but the pairs (0, 1) and (3, 4), raised to 3: both
    exceed their hull by 1 under np.add and by 2 under np.maximum."""
    m = np.ones((6, 6))
    np.fill_diagonal(m, 0.0)
    m[0, 1] = m[1, 0] = m[3, 4] = m[4, 3] = 3.0
    return m


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("combine", (np.add, np.maximum))
@pytest.mark.parametrize("exact", (False, True))
def test_a_worst_slack_tie_goes_to_the_first_row_block(budget, combine, exact):
    """At a budget of 1 (one hull row per block) and 97 (rows 0..2, then 3
    and 4) the tied pairs lie in two row blocks; by default in one."""
    m = tie_across_blocks()
    if exact:
        m = as_fractions(m, Fraction(1, 3))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_BLOCK_ENTRIES", budget)
        new, old = spaces._worst_triple(m, combine), oracles.worst_triple(m, combine)
    assert new == old
    assert type(new[0]) is type(old[0])
    assert new[1] == (0, 1, 2)


def test_every_asymmetric_and_duplicate_pair_is_reported():
    """Every pair of both kinds, at one row per block."""
    m = one_two_metric(5, 9)
    m[np.triu_indices(9, 1)] = 0.0  # every pair duplicate above the diagonal...
    m[np.tril_indices(9, -1)] += 0.25  # ...and asymmetric below it
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_BLOCK_ENTRIES", 1)
        new = ml.violations(m)
    kinds = [(p.kind, p.witness) for p in new]
    below = [(i, j) for i in range(9) for j in range(i)]
    above = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    assert kinds == [("symmetry", w) for w in below] + [("positivity", w) for w in above]
