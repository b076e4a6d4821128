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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._util import DEFAULT_TOL, dyadic_numerators, max_points, per_distinct
from .errors import CapExceeded, DiameterExceedsOne, MetricViolation


class FiniteMetricSpace:
    """Immutable labeled point set with a validated distance matrix."""

    __slots__ = ("labels", "dist", "diameter", "exact", "rescaled", "values", "rank", "_mst")

    def __init__(self, labels, dist, *, exact=False, rescaled=False, _trusted=False,
                 diameter=None, _ranks=None):
        """diameter and _ranks, accepted only with _trusted, are what the
        builder already knows: the largest entry, and an exact space's
        (values, rank) pair. values may hold more Fractions than the matrix
        does (a table shared with the space it came from); an exact space
        built without the pair is ranked here, by _ranked."""
        labels = tuple(str(x) for x in labels)
        if (diameter is not None or _ranks is not None) and not _trusted:
            raise ValueError("only a trusted builder may pass the diameter or ranks")
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
        self._mst = None  # its spanning tree, built on first use by _spanning_tree

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


def _gather(values, ranks):
    """The entries of the given ranks: values[ranks] for an exact space's
    table, the ranks themselves for a float space's (values is None)."""
    return ranks if values is None else values[np.asarray(ranks, dtype=np.intp)]


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
    A ragged or non-numeric matrix raises MetricViolation("parse").
    """
    return _checked(matrix, labels, tol, exact)[2]


def _checked(matrix, labels, tol, exact):
    """(entries, ranks, violations): the matrix as stored, in the mode's
    dtype (exact entries converted to Fraction, a float matrix mirrored from
    its upper triangle), an exact space's (values, rank) pair when there is
    no violation (None otherwise), and what violations() reports on it.
    Dyadic exact entries are checked as integers over their common
    power-of-two denominator, which the ranks then sort. Raises
    MetricViolation("parse") on a ragged or non-numeric matrix."""
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
    # exact comparisons first, so only unequal pairs pay for a subtraction
    rows, cols = np.nonzero(np.tril(m != m.T, -1))
    far = np.abs(m[rows, cols] - m[cols, rows]) > tol
    out.extend(MetricViolation("symmetry", (i, j))
               for i, j in zip(rows[far].tolist(), cols[far].tolist()))
    rows, cols = np.nonzero(np.triu(m <= 0, 1))
    out.extend(MetricViolation("positivity", (i, j), "duplicate point (zero distance)")
               for i, j in zip(rows.tolist(), cols.tolist()))
    if out:
        return m, None, out
    keys = None
    if exact:  # integers scaled by 2^q sum and compare as the Fractions do
        shifted = dyadic_numerators(m.ravel().tolist())
        if shifted is not None:
            keys = np.array(shifted[0], dtype=object)
    else:
        m = np.triu(m) + np.triu(m, 1).T  # canonicalize within-tolerance asymmetry
    summed = m if keys is None else keys.reshape(m.shape)
    slack, witness = _worst_triple(summed, np.add) if n > 2 else (0, None)
    if slack > tol:
        out.append(MetricViolation("triangle", witness))
    ranks = _ranked(m, keys) if exact else None
    diam = ranks[0][-1] if exact else m.max() if n > 1 else 0
    if diam > 1:
        out.append(DiameterExceedsOne(diam))
    return m, None if out else ranks, out


def _hull(m, combine):
    """For each pair i < j in row-major order, the least combine(m[i, k],
    m[k, j]) over k not in {i, j}: np.add for the triangle inequality,
    np.maximum for the strong one. m must be exactly symmetric; the same
    code runs on float64 and Fraction entries, one row at a time."""
    n = len(m)
    rows = []
    for i in range(n - 1):
        cand = combine(m[i, :, None], m[:, i + 1:])  # cand[k, j - i - 1]
        cand[i] = np.inf
        cand[np.arange(i + 1, n), np.arange(n - i - 1)] = np.inf
        rows.append(cand.min(axis=0))
    return np.concatenate(rows)


def _worst_triple(m, combine):
    """(slack, (i, j, k)) for n >= 3: the pair i < j where m[i, j] exceeds its
    _hull by the most, first in row-major order, and the first k whose
    combine(m[i, k], m[k, j]) is that hull."""
    rows, cols = np.triu_indices(len(m), 1)
    slack = m[rows, cols] - _hull(m, combine)
    p = int(np.argmax(slack))
    i, j = int(rows[p]), int(cols[p])
    via = combine(m[i], m[:, j])
    via[[i, j]] = np.inf
    return slack[p], (i, j, int(np.argmin(via)))


def validate(matrix, labels=None, *, tol: float = DEFAULT_TOL,
             rescale: bool = False, exact: bool = False) -> FiniteMetricSpace:
    """Validate a raw matrix into a FiniteMetricSpace; raise on violations.

    With rescale=True, a diameter above 1 divides the whole matrix by the
    diameter instead of raising; the result is flagged so reports can note
    that per-partition ratios changed under the rescale.
    """
    m, ranks, problems = _checked(matrix, labels, tol, exact)
    if labels is None:
        labels = [f"p{i}" for i in range(m.shape[0] if m.ndim == 2 else 0)]
    rescaled = False
    if problems and rescale and all(isinstance(p, DiameterExceedsOne) for p in problems):
        m, ranks, problems = _checked(m / m.max(), labels, tol, exact)
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
        nf = sp.n
        grown = np.repeat(np.repeat(rank, nf, axis=0), nf, axis=1)
        rank = np.maximum(grown, np.tile(f, rank.shape))
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
    (Carlsson & Memoli 2010), so a passing space is accepted in O(n^2)
    comparisons of its ranks; only a failing one pays for the O(n^3) search
    of its worst triple, on the entries. Exact spaces fail on any positive
    violation, float ones above tol.
    """
    if space.n < 3 or (space.rank == _subdominant(_spanning_tree(space))).all():
        return UltrametricCheck(True, None, _zero(space.exact))
    worst, witness = _worst_triple(space.dist, np.maximum)
    if not space.exact and worst <= tol:
        return UltrametricCheck(True, None, max(float(worst), 0.0))
    return UltrametricCheck(False, witness, worst if space.exact else float(worst))


# Single linkage. The components of {d < t} (or {d <= t}) are those of the
# minimum-spanning-tree edges below t (Gower & Ross 1969), so one tree
# answers every single-linkage question, and a space builds it once. Its
# Prim order is a leaf order: every cluster is a run of it, so _leaf_matrix
# writes the subdominant, like every chain's split, from n - 1 adjacent values.

def _spanning_tree(space: FiniteMetricSpace):
    """_prim of the space's rank, built on the first call and kept on the
    space, which never changes: every later call returns the same arrays,
    read-only."""
    if space._mst is None:
        tree = _prim(space.rank)
        for part in tree:
            part.setflags(write=False)
        space._mst = tree
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
    for k in range(n):
        v = int(np.argmin(best))
        order[k], parent[k], weight[k] = v, link[v], best[v]
        free[v] = False
        best[v] = np.inf
        closer = free & (matrix[v] < best)
        best[closer] = matrix[v][closer]
        link[closer] = v
    return order, parent, weight


def _subdominant(tree) -> np.ndarray:
    """Single-linkage merge heights of a matrix, the largest ultrametric below
    it, from its _prim tree: the tree path from order[p] to order[q] peaks
    at the largest weight attached after p, up to q."""
    order, _, weight = tree
    return _leaf_matrix(order, weight[1:], np.maximum, weight[0])


def _leaf_matrix(order, h, ufunc, fill) -> np.ndarray:
    """The read-only M[order[p], order[q]] = ufunc.reduce(h[p..q-1]) of a leaf
    order and the values h of its adjacent leaves, fill (ufunc's identity on
    h) on the diagonal. Row p holds fill up to column p, then h[p..]: one
    accumulate, the transpose and a gather through the inverse order."""
    m = np.where(np.tri(len(order), dtype=bool), fill, np.insert(h, 0, fill))
    ufunc.accumulate(m, axis=1, out=m)
    out = ufunc(m, m.T)
    back = np.argsort(order)
    np.take(out, back, axis=0, out=m)
    np.take(m, back, axis=1, out=out).setflags(write=False)
    return out


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
    read the text's lines, split at LF, with no wider copy of the text.
    Fields may be quoted with '"', padded with whitespace, and spelled as
    Python's float() spells them (nan and inf included), less digit-group
    underscores and non-ASCII digits; blank lines are skipped. A bare CR
    inside a line is refused, as csv.reader refuses it (the CLI reads files
    in universal newline mode). Raises MetricViolation("parse") on any text
    loadtxt refuses.
    """
    _require_short_fields(text)
    lines = text.split("\n")
    reader = csv.reader(line + "\n" for line in lines)  # the LF of a quoted line break
    try:
        labels = next((row for row in reader if row), None)
    except csv.Error as exc:  # such as a bare CR in a label
        raise MetricViolation("parse", None, str(exc)) from exc
    rows = lines[reader.line_num:]
    if labels is None or not any(row.strip("\r") for row in rows):
        raise MetricViolation("parse", None, "need a label row plus matrix rows")
    try:
        matrix = np.loadtxt((row + "\n" for row in rows), delimiter=",", quotechar='"',
                            comments=None, ndmin=2, dtype=float)
    except ValueError as exc:
        raise MetricViolation("parse", None, str(exc)) from exc
    return validate(matrix, labels, tol=tol, rescale=rescale)


def _require_short_fields(text: str) -> None:
    """Refuse a field over csv.field_size_limit(), as csv.reader does;
    loadtxt has no such limit and reads a long run of digits as inf.

    A field with a comma in it is no number, so loadtxt refuses it anyway;
    any other field lies in one run of characters between commas. A run
    over the limit covers a whole aligned block of limit // 2 + 1 of the
    text's UTF-8 bytes (at least one per character), so when every block
    holds a comma, one numpy pass clears the text; otherwise csv.reader
    decides.
    """
    limit = csv.field_size_limit()
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    size = limit // 2 + 1
    blocks = raw[:len(raw) // size * size].reshape(-1, size)
    if (blocks == ord(",")).any(axis=1).all():
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
