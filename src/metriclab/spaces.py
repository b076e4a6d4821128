"""Finite metric spaces: validation, snowflake, sup-products, hyperspace.

A space is a labeled point set with a symmetric distance matrix, normalized
so the diameter is at most 1. Entries are float64 by default; an exact mode
backs the matrix with Fractions for spaces whose distances underflow float64
(deep sampled families). All operations are pure; instances never mutate,
but for the spanning tree a space keeps once it has built it.

Single linkage and every arg-extremum depend only on the order of the
distances (Carlsson & Memoli 2010), so each space also carries `rank`, a
float64 matrix in the order of `dist`, and `values`, the table it indexes:
an exact space holds its distinct Fractions ascending in values, with
values[rank] == dist, and a float space is its own rank (values is None).
Order-only code reads rank and gathers a value only where one is read.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from ._util import DEFAULT_TOL, dyadic_numerators, max_points, per_distinct
from .errors import CapExceeded, DiameterExceedsOne, MetricViolation


class FiniteMetricSpace:
    """Immutable labeled point set with a validated distance matrix."""

    __slots__ = ("labels", "dist", "diameter", "exact", "rescaled", "values", "rank", "_mst")

    def __init__(self, labels, dist, *, exact=False, rescaled=False, _trusted=False,
                 diameter=None, _ranks=None, _tree=None):
        """diameter, _ranks and _tree, accepted only with _trusted, are what
        the builder already knows: the largest entry, an exact space's
        (values, rank) pair, and a function that returns _prim(rank), bit
        for bit, or None where it cannot, run by _spanning_tree on first
        use. values may hold more Fractions than the matrix does (a table
        shared with the space it came from); an exact space built without
        the pair is ranked here, by _ranked."""
        labels = tuple(str(x) for x in labels)
        if (diameter is not None or _ranks is not None or _tree is not None) and not _trusted:
            raise ValueError("only a trusted builder may pass the diameter, ranks or tree")
        if _trusted:
            matrix = np.asarray(dist, dtype=object if exact else float)
        else:
            matrix, _ranks, problems = _checked(dist, labels, DEFAULT_TOL, exact)
            if problems:
                raise problems[0]
        matrix.setflags(write=False)
        self.labels = labels
        self.dist = matrix
        self.exact = exact
        self.rescaled = rescaled
        if not exact:
            _ranks = (None, matrix)
        elif _ranks is None:
            _ranks = _ranked(matrix)
        self.values, self.rank = _ranks
        for table in _ranks:
            if table is not None:
                table.setflags(write=False)
        if diameter is None:
            diameter = _gather(self.values, self.rank.max()) if len(labels) > 1 else _zero(exact)
        self.diameter = diameter
        self._mst = _tree  # its spanning tree once _spanning_tree has run

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(str(label))

    def d(self, i: int, j: int):
        return self.dist[i, j]

    def __repr__(self):
        mode = "exact" if self.exact else "float"
        return f"FiniteMetricSpace(n={self.n}, diameter={self.diameter}, {mode})"


def _ranked(matrix, keys=None):
    """(values, rank) of an exact array, by np.unique over keys, one per
    entry in the same order (such as its dyadic_numerators), or else over
    the entries themselves, by Fraction comparisons."""
    flat = matrix.ravel()
    _, first, rank = np.unique(flat if keys is None else keys, return_index=True,
                               return_inverse=True)
    return flat[first], rank.reshape(matrix.shape).astype(float)


def _union(*pairs):
    """(table, ranks): (table, rank) pairs renumbered into the union of their
    tables, so that ranks from different tables compare. Pairs that share
    one table object (a space and the rho or subspace built on it, or float
    spaces, whose table is None) keep their ranks, with no sort of values."""
    tables = [table for table, _ in pairs]
    if all(table is tables[0] for table in tables):
        return tables[0], [rank for _, rank in pairs]
    union = np.unique(np.concatenate(tables))
    return union, [np.searchsorted(union, table).astype(float)[rank.astype(np.intp)]
                   for table, rank in pairs]


def _rank_bound(space, t, inclusive=False, key=None):
    """Threshold t on the rank scale: an entry is below t (at most t when
    inclusive) exactly when its rank is below (at most) the bound; t itself
    on a float space. On an exact space, the count of values below t (the
    index of the last value at most t), by a bisection that compares
    key(value) with t, or else the value with a finite t as cross-multiplied
    integers, without a Fraction comparison."""
    if space.values is None:
        return t
    if key is None and not math.isinf(t):
        q = Fraction(t)
        t, key = 0, lambda v: v.numerator * q.denominator - q.numerator * v.denominator  # v - t
    if inclusive:
        return float(bisect.bisect_right(space.values, t, key=key) - 1)
    return float(bisect.bisect_left(space.values, t, key=key))


_BLOCK_ENTRIES = 1 << 17  # entries made at once by _hull and every pass over pairs or levels


def _gather(values, ranks):
    """The entries of the given ranks: values[ranks] for an exact space's
    table, the ranks themselves for a float space's (values is None), a
    block of rows at a time, so no index array of a matrix's size is made."""
    if values is None:
        return ranks
    if np.ndim(ranks) < 2:
        return values[np.asarray(ranks, dtype=np.intp)]
    out = np.empty(ranks.shape, dtype=object)
    for a, b in _row_blocks(*ranks.shape):
        np.take(values, ranks[a:b].astype(np.intp), out=out[a:b],
                mode="clip")  # ranks index the table; clip, unlike raise, needs no buffer
    return out


def _row_blocks(rows, width):
    """(a, b) for rows a..b - 1 of a matrix with rows rows of width entries,
    in turn, about _BLOCK_ENTRIES entries (and at least one row) at a time."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    for a in range(0, rows, step):
        yield a, min(a + step, rows)


def _pair_blocks(order, h):
    """(a, b, split, upper): the pairs i < j of an n x n matrix, row-major,
    for rows a..b - 1 in the blocks of _row_blocks(n - 1, n), where upper
    masks them in the block m[a:b, a + 1:], and split holds the least h
    between the leaf positions of each, off a sparse table of the minima of
    h over runs of 2^k leaves (Bender & Farach-Colton 2000). On a chain's
    (order, h), split is the level that first splits the pair."""
    n, where, runs = len(order), np.argsort(order), [np.asarray(h)]
    while 2 ** len(runs) <= len(h):  # runs[k][p]: the least h over leaves p.. p + 2^k
        half = 2 ** (len(runs) - 1)
        runs.append(np.minimum(runs[-1][:-half], runs[-1][half:]))
    table, start = np.concatenate(runs), np.cumsum([0] + [len(x) for x in runs[:-1]])
    for a, b in _row_blocks(n - 1, n):
        upper = np.arange(a + 1, n) > np.arange(a, b)[:, None]
        i, j = where[a:b, None], where[a + 1:]
        lo, hi = np.minimum(i, j)[upper], np.maximum(i, j)[upper]
        k = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo))
        yield a, b, np.minimum(table[start[k] + lo], table[start[k] + hi - (1 << k)]), upper


def _pair_at(n, a, k):
    """The k-th pair i < j in row-major order from row a on, as a block of
    _pair_blocks holds them: row a + r has n - a - 1 - r of them."""
    r = np.arange(n - a - 1)
    before = r * (n - a - 1) - r * (r - 1) // 2  # the pairs of the rows above row a + r
    r = int(np.searchsorted(before, k, side="right")) - 1
    return a + r, a + 1 + r + k - int(before[r])


def _zero(exact: bool):
    return Fraction(0) if exact else 0.0


def _zeros(shape, exact: bool) -> np.ndarray:
    """A zero matrix of the mode's dtype; an exact one holds Fraction(0)."""
    return np.full(shape, _zero(exact), dtype=object if exact else float)


def _entries(m: np.ndarray, exact: bool) -> np.ndarray:
    """The entries of an untrusted matrix, each a finite number of the mode.

    Exact entries are converted once with Fraction(x), so a float 0.5
    becomes Fraction(1, 2) and no float is left in an exact matrix. NaN or
    inf raises MetricViolation("finite"), an entry that is not a number
    ("parse").
    """
    if not exact:
        bad = ~np.isfinite(m)
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            raise MetricViolation("finite", (i, j), "non-finite entry")
        return m
    out = np.empty(m.shape, dtype=object)
    for where, x in np.ndenumerate(m):
        x = x.item() if isinstance(x, np.generic) else x  # numpy scalars as Python ones
        try:
            out[where] = Fraction(x)
        except (TypeError, ValueError, OverflowError) as exc:
            if isinstance(x, float):  # NaN or inf
                raise MetricViolation("finite", where, "non-finite entry") from exc
            raise MetricViolation("parse", where, str(exc)) from exc
    return out


def violations(matrix, labels=None, tol: float = DEFAULT_TOL, exact: bool = False):
    """Collect metric-axiom violations instead of raising.

    Checks squareness, finite numeric entries, zero diagonal, symmetry,
    positive off-diagonal entries (duplicate points are rejected, not
    merged), the triangle inequality on every triple, and diameter <= 1.
    Exact entries are compared exactly; tol only absorbs float rounding.
    The triangle inequality is accepted in O(n^2) when every entry is at
    most the sum of its endpoints' nearest-neighbour entries, and is
    otherwise searched in O(n^3) for the worst triple.
    A ragged or non-numeric matrix raises MetricViolation("parse").
    """
    return _checked(matrix, labels, tol, exact)[2]


def _checked(matrix, labels, tol, exact, owned=False):
    """(entries, ranks, violations): the matrix as stored, in the mode's
    dtype (exact entries converted to Fraction, a float matrix mirrored from
    its upper triangle), an exact space's (values, rank) pair when there is
    no violation (None otherwise), and what violations() reports on it.
    Symmetry and positivity are checked a block of rows at a time, and the
    triangle inequality by _within_nearest_sums, then, only where that
    bound fails, by the cubic _worst_triple. Dyadic exact entries are
    checked as integers over their common power-of-two denominator, which
    the ranks then sort. Raises MetricViolation("parse") on a ragged or
    non-numeric matrix. An owned float matrix (one no caller reads again)
    is mirrored in place."""
    try:
        m = np.asarray(matrix, dtype=object if exact else float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MetricViolation("parse", None, str(exc)) from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return m, None, [MetricViolation("shape", m.shape, "matrix must be square")]
    n = m.shape[0]
    if n == 0:
        return m, None, [MetricViolation("shape", m.shape, "matrix has no points")]
    if labels is not None and len(labels) != n:
        return m, None, [MetricViolation("labels", len(labels), f"expected {n} labels")]
    if labels is not None:
        seen = set()
        for label in map(str, labels):
            if label in seen:
                return m, None, [MetricViolation("labels", label, "duplicate label")]
            seen.add(label)
    if n > max_points():
        return m, None, [CapExceeded(f"{n} points exceeds METRICLAB_MAX_POINTS cap")]
    try:
        m = _entries(m, exact)
    except MetricViolation as exc:
        return m, None, [exc]
    if exact:
        tol = 0
    out = [MetricViolation("diagonal", (i, i), "nonzero diagonal")
           for i in range(n) if m[i, i] != 0]
    asymmetric, duplicate = [], []
    for a, b in _row_blocks(n, n):  # pairs j < i, then pairs j > i, of rows a..b - 1
        # exact comparisons first, so only unequal pairs pay for a subtraction
        rows, cols = np.nonzero((m[a:b, :b] != m[:b, a:b].T) & np.tri(b - a, b, a - 1, dtype=bool))
        rows += a
        far = np.abs(m[rows, cols] - m[cols, rows]) > tol
        asymmetric.extend(zip(rows[far].tolist(), cols[far].tolist()))
        rows, cols = np.nonzero(np.triu(m[a:b, a:] <= 0, 1))
        duplicate.extend(zip((rows + a).tolist(), (cols + a).tolist()))
    out.extend(MetricViolation("symmetry", pair) for pair in asymmetric)
    out.extend(MetricViolation("positivity", pair, "duplicate point (zero distance)")
               for pair in duplicate)
    if out:
        return m, None, out
    keys = None
    if exact:  # integers scaled by 2^q sum and compare as the Fractions do
        shifted = dyadic_numerators(m.ravel().tolist())
        if shifted is not None:
            keys = np.array(shifted[0], dtype=object)
    else:  # canonicalize within-tolerance asymmetry: the upper triangle, mirrored
        upper, m = m, m if owned else np.empty_like(m)
        for a, b in _row_blocks(n, n):  # rows a..b - 1 read only entries above the diagonal
            m[a:b] = upper[a:b]
            np.copyto(m[a:b, :b], upper[:b, a:b].T, where=np.tri(b - a, b, a - 1, dtype=bool))
        np.fill_diagonal(m, 0.0)  # +0.0, where the input may hold -0.0
    summed = m if keys is None else keys.reshape(m.shape)
    if n > 2 and not _within_nearest_sums(summed, tol):
        slack, witness = _worst_triple(summed, np.add)
        if slack > tol:
            out.append(MetricViolation("triangle", witness))
    ranks = _ranked(m, keys) if exact else None
    diam = ranks[0][-1] if exact else m.max() if n > 1 else 0
    if diam > 1:
        out.append(DiameterExceedsOne(diam))
    return m, None if out else ranks, out


def _within_nearest_sums(m, tol):
    """Whether every pair has m[i, j] - (near[i] + near[j]) <= tol, where
    near[i] is the least off-diagonal entry of row i: an O(n^2) proof that
    no triangle slack exceeds tol. For k not in {i, j}, m[i, k] + m[k, j]
    is at least near[i] + near[j], and float addition and subtraction round
    monotonically, so no slack _worst_triple could find is above the pair's
    bound; integer and Fraction entries compare exactly. m must be exactly
    symmetric. It is read a block of rows at a time and never written, and
    the scan stops at the first block holding a pair above its bound."""
    n, near = len(m), _nearest(m)
    for a, b in _row_blocks(n, n):
        excess = near[a:b, None] + near[a:]
        if (np.subtract(m[a:b, a:], excess, out=excess) > tol).any():
            return False
    return True


def _nearest(m):
    """The least off-diagonal entry of each row of a square matrix of n >= 2
    rows, read a block of rows at a time, each copied to set its diagonal."""
    near = np.empty(len(m), dtype=m.dtype)
    for a, b in _row_blocks(len(m), len(m)):
        block = m[a:b].copy()
        block[np.arange(b - a), np.arange(a, b)] = np.inf  # the diagonal, in the copy only
        near[a:b] = block.min(axis=1)
        del block  # before the next block's copy is made
    return near


def _hull(m, combine):
    """Yields (i, hull) for blocks of rows i..i + len(hull) - 1 in turn:
    hull[r, c] is the least combine(m[i + r, k], m[k, j]) over k not in
    {i + r, j}, for j = i + 1 + c, where c >= r (the pairs j > i + r).
    np.add gives the triangle inequality, np.maximum the strong one. m must
    be exactly symmetric; the same code runs on float64 and Fraction
    entries. The candidates are made for blocks of about _BLOCK_ENTRIES
    (row, k, j): part of a row, or several whole rows, each read from its
    own diagonal on."""
    n, i = len(m), 0
    while i < n - 1:
        width = n - i - 1
        rows = max(1, min(_BLOCK_ENTRIES // (n * width), width))
        step = max(1, _BLOCK_ENTRIES // (n * rows))
        hull = np.empty((rows, width), dtype=m.dtype)
        for a in range(i + 1, n, step):
            cand = combine(m[i:i + rows, :, None], m[:, a:a + step])  # cand[r, k, j - a]
            r, c = np.arange(rows), np.arange(cand.shape[2])
            cand[r, i + r] = np.inf
            cand[:, a + c, c] = np.inf  # k = j
            hull[:, a - i - 1:a - i - 1 + step] = cand.min(axis=1)
            del cand  # before the next block's is made
        yield i, hull
        i += rows


def _worst_triple(m, combine):
    """(slack, (i, j, k)) for n >= 3: the pair i < j where m[i, j] exceeds its
    _hull by the most, first in row-major order, and the first k whose
    combine(m[i, k], m[k, j]) is that hull. Each row block's slack is folded
    into the running worst as it comes, by one argmax with the entries that
    are no pair (j <= i) set to -inf."""
    worst, i, j = None, 0, 0
    for top, hull in _hull(m, combine):
        rows, width = hull.shape
        slack = np.subtract(m[top:top + rows, top + 1:], hull, out=hull)
        slack[np.tri(rows, width, -1, dtype=bool)] = -np.inf
        r, c = divmod(int(np.argmax(slack)), width)  # (0, 0) is a pair, should all be -inf
        if worst is None or slack[r, c] > worst:
            worst, i, j = slack[r, c], top + r, top + 1 + c
    via = combine(m[i], m[:, j])
    via[[i, j]] = np.inf
    return worst, (i, j, int(np.argmin(via)))


def validate(matrix, labels=None, *, tol: float = DEFAULT_TOL, rescale: bool = False,
             exact: bool = False, _owned: bool = False) -> FiniteMetricSpace:
    """Validate a raw matrix into a FiniteMetricSpace; raise on violations.

    The checks are those of violations(): a tie-heavy matrix whose every
    entry is at most the sum of its endpoints' nearest-neighbour entries
    is accepted in O(n^2), any other pays the O(n^3) triangle search.
    With rescale=True, a diameter above 1 divides the whole matrix by the
    diameter instead of raising; the result is flagged so reports can note
    that per-partition ratios changed under the rescale. _owned: matrix
    is read by no caller again and may be changed."""
    m, ranks, problems = _checked(matrix, labels, tol, exact, _owned)
    if labels is None:
        labels = [f"p{i}" for i in range(m.shape[0] if m.ndim == 2 else 0)]
    rescaled = False
    if problems and rescale and all(isinstance(p, DiameterExceedsOne) for p in problems):
        m, ranks, problems = _checked(m / m.max(), labels, tol, exact, True)
        rescaled = True
    if problems:
        raise problems[0]
    return FiniteMetricSpace(labels, m, exact=exact, rescaled=rescaled, _trusted=True,
                             _ranks=ranks)


def snowflake(space: FiniteMetricSpace, s: float) -> FiniteMetricSpace:
    """Replace d by d^s for 0 < s <= 1 (concavity keeps the triangle inequality)."""
    if not 0 < s <= 1:
        raise ValueError(f"snowflake exponent must lie in (0, 1], got {s}")
    if space.exact:
        raise ValueError("snowflake is not supported on exact-mode spaces")
    if s == 1:
        return space
    powered = np.power(space.dist, s)
    np.fill_diagonal(powered, 0.0)
    return FiniteMetricSpace(space.labels, powered, rescaled=space.rescaled, _trusted=True)


def subspace(space: FiniteMetricSpace, indices) -> FiniteMetricSpace:
    """Restriction to a nonempty index subset (order preserved, deduplicated)."""
    idx = sorted(dict.fromkeys(int(i) for i in indices))
    if not idx:
        raise ValueError("subspace needs at least one index")
    if not 0 <= idx[0] <= idx[-1] < space.n:  # a bare gather would wrap negative indices
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise ValueError(f"index {bad} is outside 0..{space.n - 1}")
    sub = np.ix_(idx, idx)
    return FiniteMetricSpace([space.labels[i] for i in idx], space.dist[sub],
                             exact=space.exact, _trusted=True,
                             _ranks=(space.values, space.rank[sub]) if space.exact else None)


def sup_product(spaces, cap: int | None = None) -> FiniteMetricSpace:
    """Metric product: Cartesian points under the sup of coordinate distances."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("sup_product needs at least one factor")
    cap = max_points() if cap is None else cap
    total = 1
    for sp in spaces:
        total *= sp.n
        if total > cap:
            raise CapExceeded(f"product cardinality exceeds cap {cap}")
    exact = any(sp.exact for sp in spaces)
    values, ranks = _union(*(_factor_table(sp, exact) for sp in spaces))
    labels = [""]
    rank = np.zeros((1, 1))
    diameter = _zero(exact)
    for sp, f in zip(spaces, ranks):
        diameter = max(diameter, sp.diameter if sp.exact == exact else Fraction(sp.diameter))
        n, nf = len(rank), sp.n  # one broadcast into the grown product; the old one is freed
        rank = np.maximum(rank[:, None, :, None], f[None, :, None, :]).reshape(n * nf, n * nf)
        labels = [f"{a}|{b}" if a else str(b) for a in labels for b in sp.labels]
    labels = [f"({x})" for x in labels] if len(spaces) > 1 else list(spaces[0].labels)
    # the sup of the coordinate distances peaks at the largest factor diameter
    return FiniteMetricSpace(labels, _gather(values, rank), exact=exact, _trusted=True, diameter=diameter,
                             _ranks=(values, rank))


def _factor_table(space, exact):
    """(table, rank) of a product factor in the product's mode: its values
    and rank, or, for a float factor of an exact product, its distinct
    floats as Fractions (conversion keeps their order) and their indices."""
    if space.exact or not exact:
        return space.values, space.rank
    floats, inverse = np.unique(space.dist, return_inverse=True)
    table = np.empty(len(floats), dtype=object)
    table[:] = [Fraction(x) for x in floats.tolist()]
    return table, inverse.reshape(space.dist.shape).astype(float)


@dataclass(frozen=True)
class UltrametricCheck:
    ok: bool
    witness: tuple[int, int, int] | None
    violation: object  # worst d(i,j) - max(d(i,k), d(k,j)); 0 when ok

    def __bool__(self) -> bool:
        return self.ok


def is_ultrametric(space: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> UltrametricCheck:
    """Strong triangle inequality over all triples, with the worst witness.

    A space is ultrametric iff it equals its subdominant ultrametric
    (Carlsson & Memoli 2010), so a passing space is accepted by one scan of
    its pairs, a block of rows at a time (_at_subdominant); only a failing
    one pays for the O(n^3) search of its worst triple, on the entries.
    Exact spaces fail on any positive violation, float ones above tol.
    """
    if space.n < 3 or all(same.all() for _, _, same in _at_subdominant(space)):
        return UltrametricCheck(True, None, _zero(space.exact))
    worst, witness = _worst_triple(space.dist, np.maximum)
    if not space.exact and worst <= tol:
        return UltrametricCheck(True, None, max(float(worst), 0.0))
    return UltrametricCheck(False, witness, worst if space.exact else float(worst))


# Single linkage. The components of {d < t} (or {d <= t}) are those of the
# minimum-spanning-tree edges below t (Gower & Ross 1969), so one tree
# answers every single-linkage question, and a space builds it once. Its
# Prim order is a leaf order: every cluster is a run of it, so a pair's
# subdominant distance is the largest weight attached between its leaves,
# which the pair scan reads (_at_subdominant) and _leaf_matrix writes.

def _spanning_tree(space: FiniteMetricSpace):
    """_prim of the space's rank, from a trusted builder's _tree or else
    _prim, on the first call, kept on the space, which never changes: every
    later call returns the same arrays, read-only."""
    if not isinstance(space._mst, tuple):  # None, or the builder's function
        space._mst = (space._mst and space._mst()) or _prim(space.rank)
    for part in space._mst:
        part.setflags(write=False)
    return space._mst


def _prim(matrix):
    """Prim's minimum spanning tree of a dense distance matrix, from vertex 0.

    Returns arrays (order, parent, weight): step k attaches vertex order[k]
    through the edge to parent[k] of length weight[k], and every parent was
    attached at an earlier step. Step 0 is the root, its own parent, with
    the diagonal entry as weight. Entries are only compared, so the float64
    rank of an exact space gives the tree of its Fractions.
    """
    n = len(matrix)
    order = np.zeros(n, dtype=np.intp)
    parent = np.zeros(n, dtype=np.intp)
    weight = matrix.diagonal().copy()
    # the shortest edge from each free vertex into the tree; the root's 0
    # makes it the first vertex attached, as its own parent
    best = np.full(n, np.inf, dtype=matrix.dtype)
    best[:1] = weight[:1]
    free = np.ones(n, dtype=bool)
    link = np.zeros(n, dtype=np.intp)
    closer = np.empty(n, dtype=bool)
    for k in range(n):
        v = int(best.argmin())
        order[k], parent[k], weight[k] = v, link[v], best[v]
        free[v] = False
        best[v] = np.inf
        np.less(matrix[v], best, out=closer)
        closer &= free
        np.copyto(best, matrix[v], where=closer)
        np.copyto(link, v, where=closer)
    return order, parent, weight


def _at_subdominant(space: FiniteMetricSpace):
    """(a, upper, same) per block of _pair_blocks on the space's Prim order:
    same marks the pairs of rows a.. whose rank is their subdominant one,
    the largest weight between their leaves, read as the least h = -weight."""
    order, _, weight = _spanning_tree(space)
    for a, b, split, upper in _pair_blocks(order, -weight[1:]):
        yield a, upper, space.rank[a:b, a + 1:][upper] == -split


def _leaf_matrix(order, h, ufunc, fill) -> np.ndarray:
    """The read-only M[order[p], order[q]] = ufunc.reduce(h[p..q-1]) of a leaf
    order and the values h of its adjacent leaves, fill (ufunc's identity on
    h) on the diagonal: its _leaf_rows, the transpose and a gather through
    the inverse order."""
    m = _leaf_rows(h, ufunc, fill, len(order))
    out = ufunc(m, m.T)
    back = np.argsort(order)
    np.take(out, back, axis=0, out=m)
    np.take(m, back, axis=1, out=out).setflags(write=False)
    return out


def _leaf_rows(h, ufunc, fill, rows) -> np.ndarray:
    """The first rows of that matrix in leaf order, upper part only: row p
    holds fill up to column p, then the running ufunc of h[p..]."""
    m = np.where(np.tri(rows, len(h) + 1, dtype=bool), fill, np.insert(h, 0, fill))
    ufunc.accumulate(m, axis=1, out=m)
    return m


def hausdorff_hyperspace(space: FiniteMetricSpace, max_subset_size: int | None = None,
                         cap: int = 5000) -> FiniteMetricSpace:
    """Space of nonempty subsets (size-capped) under the Hausdorff metric."""
    n = space.n
    k = n if max_subset_size is None else min(max_subset_size, n)
    if k < 1:
        raise ValueError("max_subset_size must be at least 1")
    count = sum(math.comb(n, j) for j in range(1, k + 1))
    if count > cap:
        raise CapExceeded(f"{count} subsets exceeds hyperspace cap {cap}")
    members = [list(c) for j in range(1, k + 1) for c in combinations(range(n), j)]
    labels = ["{" + ",".join(space.labels[i] for i in c) + "}" for c in members]
    m = space.rank  # the Hausdorff distance is a max of mins: order only
    so = len(members)
    mind = np.empty((so, n))
    for p, c in enumerate(members):
        mind[p] = m[c].min(axis=0)
    directed = np.empty((so, so))
    for q, c in enumerate(members):
        directed[:, q] = mind[:, c].max(axis=1)
    rank = np.maximum(directed, directed.T)
    np.fill_diagonal(rank, 0.0)
    return FiniteMetricSpace(labels, _gather(space.values, rank), exact=space.exact, _trusted=True,
                             _ranks=(space.values, rank))


# Serialization. CSV: first row labels, then the full symmetric matrix.

def to_csv(space: FiniteMetricSpace) -> str:
    if space.exact:
        raise ValueError("exact-mode spaces do not serialize to CSV")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(space.labels)  # quotes labels as needed
    rows = per_distinct(repr, space.dist, object).tolist()
    buf.writelines(",".join(row) + "\n" for row in rows)
    return buf.getvalue()


def from_csv(text: str, *, tol: float = DEFAULT_TOL, rescale: bool = False) -> FiniteMetricSpace:
    """The space of a CSV text: the first nonblank row labels, then the rows.

    csv.reader reads the label row, so a quoted label may hold commas and
    line breaks; np.loadtxt then parses the matrix rows in one C pass. Both
    read one generator of the text's lines, split at LF and sliced from the
    text one at a time, so no copy of the whole text is held.
    Fields may be quoted with '"', padded with whitespace, and spelled as
    Python's float() spells them (nan and inf included), less digit-group
    underscores and non-ASCII digits; blank lines are skipped. A bare CR
    inside a line is refused, as csv.reader refuses it (the CLI reads files
    in universal newline mode). Raises MetricViolation("parse") on any text
    loadtxt refuses.
    """
    _require_short_fields(text)
    tail = text[text.rfind("\n") + 1:] + "\n"  # each line split at LF, with an LF
    last = len(text) - len(tail) + 1  # past the last LF; a scan on retries the tail per character
    lines = chain(map(re.Match.group, re.compile("[^\n]*\n").finditer(text, 0, last)), [tail])
    reader = csv.reader(lines)
    try:
        labels = next((row for row in reader if row), None)
    except csv.Error as exc:  # such as a bare CR in a label
        raise MetricViolation("parse", None, str(exc)) from exc
    rest = f"(?:[^\n]*\n){{{reader.line_num}}}[\r\n]*[^\r\n]"  # a nonblank row after them
    if labels is None or not re.match(rest, text):
        raise MetricViolation("parse", None, "need a label row plus matrix rows")
    try:  # the rest of the lines, from where the reader stopped
        matrix = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2,
                            dtype=float)
    except ValueError as exc:
        raise MetricViolation("parse", None, str(exc)) from exc
    return validate(matrix, labels, tol=tol, rescale=rescale, _owned=True)


def _require_short_fields(text: str) -> None:
    """Refuse a field over csv.field_size_limit(), as csv.reader does;
    loadtxt has no such limit and reads a long run of digits as inf.

    A field with a comma in it is no number, so loadtxt refuses it anyway;
    any other field lies in one run of characters between commas. A run
    over the limit (csv counts characters) covers a whole aligned block of
    limit // 2 + 1 characters, so when every block holds a comma, one find
    per block clears the text, with no copy of it; otherwise csv.reader
    decides.
    """
    size = csv.field_size_limit() // 2 + 1
    if all(text.find(",", s, s + size) >= 0 for s in range(0, len(text) - size + 1, size)):
        return
    try:
        for _ in csv.reader(io.StringIO(text)):
            pass
    except csv.Error as exc:
        raise MetricViolation("parse", None, str(exc)) from exc


def to_json(space: FiniteMetricSpace) -> str:
    if space.exact:
        raise ValueError("exact-mode spaces do not serialize to JSON")
    return json.dumps(
        {"labels": list(space.labels), "dist": [[float(x) for x in row] for row in space.dist]}
    )


def from_json(text: str, *, tol: float = DEFAULT_TOL, rescale: bool = False) -> FiniteMetricSpace:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # not JSON, or nested too deeply
        raise MetricViolation("parse", None, str(exc)) from exc
    if not isinstance(doc, dict) or "dist" not in doc:
        raise MetricViolation("parse", None, 'need a JSON object with a "dist" matrix')
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise MetricViolation("parse", None, '"labels" must be a list')
    dist = doc["dist"]
    for i, row in enumerate(dist if isinstance(dist, list) else ()):
        for j, x in enumerate(row if isinstance(row, list) else ()):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise MetricViolation("parse", (i, j), "entry is not a JSON number")
    return validate(dist, labels, tol=tol, rescale=rescale)
