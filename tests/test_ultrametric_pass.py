"""The ultrametric row pass, spaces._ultrametric_parents, and the spanning
tree it writes in closed form, spaces._ultrametric_tree, against what they
replaced: is_ultrametric's accept test that built the space's Prim tree and
scanned every pair against its subdominant rank
(oracles.is_ultrametric_by_scan), the whole-matrix oracles.is_ultrametric,
and spaces._prim, bit for bit (order, parent, weight and dtypes). Inputs
are random leaf-matrix ultrametrics with many ties, the rho of dendrogram
and zoo chains, subdominants, Cantor, product and sqrt_ultra samples and
sup-products of ultrametrics, each as is or with one entry moved by 1 ulp,
tol/2 or 2 tol, in float and exact mode, at several block budgets. Then
validate and from_csv, which try the same pass before the cubic search:
the same matrix, tree or error as the cubic path, no _hull call on an
ultrametric, and a cloud that leaves after its first few points. Last,
the Prim loops and hull searches the pass saves in the CLI and in the
chains and profiles of ultrametric samples and files, whose trees
spaces._spanning_tree alone picks, and its memory on a 2,000-point
subdominant."""

import io
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import cli, spaces
from metriclab._util import DEFAULT_TOL
from metriclab.errors import MetricLabError
from metriclab.ultrametrize import ultrametric_space_from_chain
from conftest import euclidean_space
from test_pair_scan import moved, near_ultrametrics

CHECKS = settings(settings.get_profile("deterministic"), max_examples=200)
BUDGETS = st.sampled_from((1, 7, 97, spaces._BLOCK_ENTRIES))


def leaf_ultrametric(seed, n, levels, exact):
    """The max of random heights 1..levels over a random leaf order, divided
    by levels (so the diameter is at most 1), as a trusted space."""
    rng = np.random.default_rng(seed)
    heights = rng.integers(1, levels + 1, size=max(n - 1, 0)).astype(float)
    rank = spaces._leaf_matrix(rng.permutation(n), heights, np.maximum, 0.0)
    if exact:
        m = np.empty(rank.shape, dtype=object)
        m[:] = [[Fraction(int(x), levels) for x in row] for row in rank.tolist()]
    else:
        m = rank / levels
    return ml.FiniteMetricSpace([f"u{i}" for i in range(n)], m, exact=exact, _trusted=True)


@st.composite
def ultrametric_spaces(draw):
    """A random leaf-matrix ultrametric, the rho of a zoo sample's own
    chain, a Cantor, product or sqrt_ultra sample, or a sup-product of two
    leaf ultrametrics; float or exact, as is or with one entry moved."""
    source = draw(st.sampled_from(("leaf", "zoo_rho", "spectrum", "product")))
    exact = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if source == "leaf":
        space = leaf_ultrametric(seed, draw(st.integers(1, 30)), draw(st.integers(1, 4)), exact)
    elif source == "product":
        space = ml.sup_product([leaf_ultrametric(seed, draw(st.integers(1, 6)), 3, exact),
                                leaf_ultrametric(seed + 1, draw(st.integers(1, 6)), 2, exact)])
    elif source == "spectrum":
        kind, params, top = draw(st.sampled_from((
            ("cantor_factorial", {"r": 0.5}, 4), ("product_geometric", {}, 4),
            ("sqrt_ultra", {}, 30))))
        exact = exact and kind != "sqrt_ultra"
        space = ml.sample(ml.make_family(kind, **params), draw(st.integers(1, top)),
                          exact=exact, chain=False)[0]
    else:
        kind, params, top = draw(st.sampled_from((
            ("seq_geometric", {}, 30), ("seq_polynomial", {"s": 2}, 30),
            ("cantor_factorial", {"r": 0.5}, 4))))
        exact = exact and kind != "seq_polynomial"
        space, chain = ml.sample(ml.make_family(kind, **params), draw(st.integers(1, top)),
                                 exact=exact)
        space = ultrametric_space_from_chain(space, ml.with_singleton_terminal(space, chain))
    move = draw(st.sampled_from((None, "ulp", "tol/2", "2tol")))
    if move is None or space.n < 2:
        return space
    pair = draw(st.sampled_from(list(combinations(range(space.n), 2))))
    m = moved(space.dist, pair, move, draw(st.booleans()))
    return ml.FiniteMetricSpace(space.labels, m, exact=space.exact, _trusted=True)


def any_spaces():
    """The strategy above, and near_ultrametrics of the pair scan's tests:
    clouds, tie-heavy metrics and zoo samples, their subdominants and the
    rho of their dendrograms, as is or with one entry moved."""
    return st.one_of(ultrametric_spaces(), near_ultrametrics())


def fresh(space):
    """The space rebuilt as trusted with no spanning tree, so nothing read
    before (a builder's tree, an earlier check) is reused."""
    return ml.FiniteMetricSpace(space.labels, space.dist, exact=space.exact, _trusted=True,
                                _ranks=(space.values, space.rank) if space.exact else None)


def exactly_ultrametric(rank):
    """Whether the rank equals its subdominant, written from Prim's tree."""
    order, _, weight = spaces._prim(rank)
    return np.array_equal(spaces._leaf_matrix(order, weight[1:], np.maximum, weight[0]), rank)


def same_tree(new, old):
    for a, b in zip(new, old, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_check(new, old):
    assert (new.ok, new.witness, new.violation) == (old.ok, old.witness, old.violation)
    assert type(new.violation) is type(old.violation)


@CHECKS
@given(any_spaces(), BUDGETS)
def test_the_row_pass_equals_the_scan_and_writes_prims_tree(space, budget):
    accepted = exactly_ultrametric(space.rank)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_BLOCK_ENTRIES", budget)
        parents = spaces._ultrametric_parents(space.rank)
        checked = fresh(space)
        check = ml.is_ultrametric(checked)
    same_check(check, oracles.is_ultrametric_by_scan(fresh(space)))
    same_check(check, oracles.is_ultrametric(space))
    assert (parents is not None) == accepted
    assert checked._mst is None  # is_ultrametric writes nothing to its argument
    event(f"accepted: {accepted}, ok: {check.ok}")
    if accepted:
        same_tree(spaces._ultrametric_tree(*parents), spaces._prim(space.rank))
    same_tree(spaces._spanning_tree(checked), spaces._prim(space.rank))


def test_one_and_two_points():
    for exact in (False, True):
        for m in ([[0]], [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]):
            space = ml.validate(m, exact=exact)
            parents = spaces._ultrametric_parents(space.rank)
            same_tree(spaces._ultrametric_tree(*parents), spaces._prim(space.rank))
            checked = fresh(space)
            assert ml.is_ultrametric(checked).ok
            same_tree(spaces._spanning_tree(checked), spaces._prim(space.rank))


def test_a_builders_tree_is_kept():
    """A |x - y| zoo sample hands its own tree function, which is_ultrametric
    keeps and _spanning_tree reads first; a max sample hands none, and
    is_ultrametric, which accepts it, leaves it none."""
    space = ml.sample(ml.make_family("seq_polynomial"), 20, chain=False)[0]
    builder = space._mst
    assert builder is not None
    assert not ml.is_ultrametric(space).ok and space._mst is builder
    with pytest.MonkeyPatch.context() as patch:
        passes = counted(patch, "_ultrametric_parents")
        same_tree(spaces._spanning_tree(space), builder())
    assert passes == []
    space = ml.sample(ml.make_family("sqrt_ultra"), 20, chain=False)[0]
    assert space._mst is None
    assert ml.is_ultrametric(space).ok and space._mst is None


def described(fn, *args, **kwargs):
    """What a validating call gives: its space's matrix, ranks, tree,
    diameter and rescale flag, or the type, kind, witness and message of
    the error it raised."""
    try:
        space = fn(*args, **kwargs)
    except MetricLabError as exc:
        return type(exc).__name__, getattr(exc, "kind", None), getattr(exc, "witness", None), \
            str(exc)
    stored = (space.dist.tobytes() if not space.exact
              else [(type(x), x) for x in space.dist.ravel().tolist()])
    values = None if space.values is None else space.values.tolist()
    tree = [(a.dtype, a.tobytes()) for a in spaces._spanning_tree(space)]
    return stored, values, space.rank.tobytes(), tree, str(space.diameter), space.rescaled


def counted(patch, name):
    calls = []
    fn = getattr(spaces, name)
    patch.setattr(spaces, name, lambda *args: calls.append(len(args[0])) or fn(*args))
    return calls


@CHECKS
@given(any_spaces(), st.booleans(), BUDGETS)
def test_validate_equals_the_cubic_path(space, rescale, budget):
    """validate (and from_csv in float) of the matrix, and of it doubled
    (over the diameter bound), against the same calls with the row pass
    refusing every matrix; on an exact ultrametric neither _worst_triple
    nor _hull runs."""
    accepted = exactly_ultrametric(space.rank)
    inputs = [space.dist, space.dist * (2 if space.exact else 2.0)]
    for m in inputs:
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spaces, "_BLOCK_ENTRIES", budget)
            hulls, searches = counted(patch, "_hull"), counted(patch, "_worst_triple")
            calls.append(described(ml.validate, m, space.labels, rescale=rescale,
                                   exact=space.exact))
            if not space.exact:
                text = ml.to_csv(ml.FiniteMetricSpace(space.labels, m, _trusted=True))
                calls.append(described(ml.from_csv, text, rescale=rescale))
        if accepted:
            assert hulls == searches == []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spaces, "_ultrametric_parents", lambda rank: None)
            cubic = [described(ml.validate, m, space.labels, rescale=rescale, exact=space.exact)]
            if not space.exact:
                cubic.append(described(ml.from_csv, text, rescale=rescale))
        assert calls == cubic


def test_a_cloud_leaves_the_pass_after_its_first_points(monkeypatch):
    """The pass reads the leading 8 x 8 block first, which a cloud fails, in
    every caller: validate, is_ultrametric and _spanning_tree, which then
    runs _prim; an ultrametric passes it, then the whole matrix, with no
    search and no Prim loop."""
    reached = []  # (rows, columns) up to which each read of the rank reaches

    class Read(np.ndarray):
        def __getitem__(self, key):
            if self.ndim == 2:
                reached.append(tuple(int(k.stop) if isinstance(k, slice) else int(np.max(k)) + 1
                                     for k in key))
            return np.asarray(self)[key]

    parents = spaces._ultrametric_parents
    monkeypatch.setattr(spaces, "_ultrametric_parents", lambda rank: parents(rank.view(Read)))
    searches, prims = counted(monkeypatch, "_worst_triple"), counted(monkeypatch, "_prim")
    for n in (60, 300):
        m = euclidean_space(n, n).dist.copy()
        for calls in (reached, searches, prims):
            calls.clear()
        space = ml.validate(m)
        assert not ml.is_ultrametric(space).ok
        spaces._spanning_tree(space)
        assert searches == [n, n] and prims == [n] and len(reached) == 6  # two per caller
        assert np.max(reached, axis=0).tolist() == [spaces._SCREEN_POINTS] * 2
    ultra = ml.subdominant_ultrametric(euclidean_space(1, 60))
    for calls in (reached, searches, prims):
        calls.clear()
    space = ml.validate(ultra.dist.copy())
    tree = spaces._spanning_tree(space)
    assert np.max(reached, axis=0).tolist() == [60, 60] and searches == prims == []
    same_tree(tree, spaces._prim(ultra.rank))


def cli_calls(monkeypatch, argv):
    """The sizes of the trees one CLI run builds by _prim and by
    _ultrametric_tree, of its _hull calls, and its report."""
    with pytest.MonkeyPatch.context() as patch:
        prims, trees = counted(patch, "_prim"), counted(patch, "_ultrametric_tree")
        hulls = counted(patch, "_hull")
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
    return prims, trees, hulls, out.getvalue()


def test_ultrametrize_builds_no_tree_for_rho(monkeypatch, tmp_path):
    """Zoo samples come with their chains, so no tree at all; a cloud
    builds its own Prim tree for its dendrogram, and no other. The rho it
    writes is read back with neither a Prim loop nor a hull search, its
    tree written by the row pass, and gives the report the cubic path
    gives."""
    for argv in (["--zoo", "seq_polynomial", "--s", "2", "--depth", "140"],
                 ["--zoo", "cantor_factorial", "--r", "0.5", "--depth", "6", "--exact"],
                 ["--zoo", "seq_factorial", "--depth", "9", "--exact"]):
        prims, trees, hulls, _ = cli_calls(monkeypatch, ["ultrametrize", *argv, "--p", "2",
                                                         "--epsilon", "0.5"])
        assert prims == trees == hulls == []
    cloud, rho = tmp_path / "cloud.csv", tmp_path / "rho.csv"
    cloud.write_text(ml.to_csv(euclidean_space(5, 40)))
    prims, trees, hulls, _ = cli_calls(monkeypatch, ["ultrametrize", "--input", str(cloud),
                                                     "--p", "2", "--epsilon", "0.5",
                                                     "--rho-out", str(rho)])
    assert prims == hulls == [40] and trees == []
    prims, trees, hulls, report = cli_calls(monkeypatch, ["profile", "--input", str(rho)])
    assert prims == hulls == [] and trees == [40]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_ultrametric_parents", lambda rank: None)
        prims, trees, hulls, cubic = cli_calls(monkeypatch, ["profile", "--input", str(rho)])
    assert prims == hulls == [40] and trees == [] and report == cubic


def test_chains_and_profiles_of_ultrametrics_run_no_prim(monkeypatch, tmp_path):
    """dendrogram_chain plus profile(chain, space=sp) on an ultrametric runs
    no Prim loop, wherever the space comes from: a CSV whose triangle
    inequality the nearest-sum bound proves (so validate runs no row pass),
    float and exact Cantor and product samples, a comparison ultrametric;
    a cloud runs one. Every tree is Prim's, bit for bit."""
    with redirect_stdout(io.StringIO()):
        assert cli.main(["zoo", "--zoo", "sqrt_ultra", "--depth", "60", "--out",
                         str(tmp_path)]) == 0
    read = ml.from_csv((tmp_path / "space.csv").read_text())
    assert spaces._within_nearest_sums(read.dist, DEFAULT_TOL)
    cases = [(read, 0), (euclidean_space(4, 60), 1),
             (ml.comparison_ultrametric(ml.make_family("seq_geometric"), 30), 0)]
    for exact in (False, True):
        cases += [(ml.sample(ml.make_family(kind, **params), 6, exact, chain=False)[0], 0)
                  for kind, params in (("cantor_factorial", {"r": 0.5}),
                                       ("product_geometric", {"t": 0.5, "r1": 0.5}))]
    for space, runs in cases:
        with pytest.MonkeyPatch.context() as patch:
            prims = counted(patch, "_prim")
            ml.profile(ml.dendrogram_chain(space), space=space)
        assert prims == [space.n] * runs
        same_tree(spaces._spanning_tree(space), spaces._prim(space.rank))


def test_ball_chain_on_an_ultrametric_runs_no_prim(monkeypatch):
    """An accepted is_ultrametric builds no Prim tree and runs no pair scan,
    and ball_chain then reads the closed-form tree: the same chain as on
    Prim's tree."""
    for space in (ml.subdominant_ultrametric(euclidean_space(2, 50)),
                  leaf_ultrametric(3, 40, 3, True)):
        prims, scans = counted(monkeypatch, "_prim"), counted(monkeypatch, "_pair_blocks")
        checked = fresh(space)
        assert ml.is_ultrametric(checked).ok and scans == []
        chain = ml.ball_chain(checked)
        assert prims == []
        monkeypatch.undo()
        with_prim = fresh(space)
        with_prim._mst = spaces._prim(space.rank)  # Prim's tree, kept before the check
        assert ml.ball_chain(with_prim) == chain
        assert np.array_equal(ml.ball_chain(with_prim).order, chain.order)


def test_the_accept_pass_on_a_2000_point_subdominant_peaks_below_a_quarter_matrix():
    pts = np.random.default_rng(0).random((2000, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d /= d.max()
    np.fill_diagonal(d, 0.0)
    sub = ml.subdominant_ultrametric(ml.FiniteMetricSpace([f"p{i}" for i in range(2000)], d,
                                                          _trusted=True))
    del pts, d
    space = fresh(sub)
    tracemalloc.start()
    try:
        check = ml.is_ultrametric(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.ok and peak <= 0.25 * sub.dist.nbytes
    with pytest.MonkeyPatch.context() as patch:
        hulls = counted(patch, "_hull")
        validated = ml.validate(sub.dist.copy())
        prims = counted(patch, "_prim")
        assert validated._mst is None  # validate hands over no tree
        tree = spaces._spanning_tree(validated)
    assert hulls == prims == []
    same_tree(tree, spaces._prim(sub.rank))
