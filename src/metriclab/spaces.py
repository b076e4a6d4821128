"""Finite metric spaces: validation, snowflake, sup-products, hyperspace.

A space is a labeled point set with a symmetric distance matrix, normalized
so the diameter is at most 1. Entries are float64 by default; an exact mode
backs the matrix with Fractions for spaces whose distances underflow float64
(deep sampled families). All operations are pure; instances never mutate.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._util import DEFAULT_TOL, max_points
from .errors import CapExceeded, DiameterExceedsOne, MetricViolation


class FiniteMetricSpace:
    """Immutable labeled point set with a validated distance matrix."""

    __slots__ = ("labels", "dist", "diameter", "exact", "rescaled")

    def __init__(self, labels, dist, *, exact=False, rescaled=False, _trusted=False,
                 diameter=None):
        """diameter, accepted only with _trusted, is the largest entry as the
        builder already knows it, which spares a scan of all n^2 entries."""
        labels = tuple(str(x) for x in labels)
        if diameter is not None and not _trusted:
            raise ValueError("only a trusted builder may pass the diameter")
        if _trusted:
            matrix = np.asarray(dist, dtype=object if exact else float)
        else:
            matrix, problems = _checked(dist, labels, DEFAULT_TOL, exact)
            if problems:
                raise problems[0]
        matrix.setflags(write=False)
        self.labels = labels
        self.dist = matrix
        self.exact = exact
        self.rescaled = rescaled
        if diameter is None:
            diameter = matrix.max() if len(labels) > 1 else _zero(exact)
        self.diameter = diameter

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
    return _checked(matrix, labels, tol, exact)[1]


def _checked(matrix, labels, tol, exact):
    """(entries, violations): the matrix in the mode's dtype, its exact
    entries converted to Fraction, and what violations() reports on it.
    Raises MetricViolation("parse") on a ragged or non-numeric matrix."""
    try:
        m = np.asarray(matrix, dtype=object if exact else float)
    except (TypeError, ValueError) as exc:
        raise MetricViolation("parse", None, str(exc)) from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return m, [MetricViolation("shape", m.shape, "matrix must be square")]
    n = m.shape[0]
    if labels is not None and len(labels) != n:
        return m, [MetricViolation("labels", len(labels), f"expected {n} labels")]
    if labels is not None:
        seen = set()
        for label in map(str, labels):
            if label in seen:
                return m, [MetricViolation("labels", label, "duplicate label")]
            seen.add(label)
    if n > max_points():
        return m, [CapExceeded(f"{n} points exceeds METRICLAB_MAX_POINTS cap")]
    try:
        m = _entries(m, exact)
    except MetricViolation as exc:
        return m, [exc]
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
        return m, out
    out.extend(_triangle_violations(m, n, tol, exact))
    diam = m.max() if n > 1 else 0
    if diam > 1:
        out.append(DiameterExceedsOne(diam))
    return m, out


def _triangle_violations(m, n, tol, exact):
    if exact:
        for i, j, k in combinations(range(n), 3):
            for a, b, c in ((i, j, k), (i, k, j), (j, k, i)):
                if m[a, b] > m[a, c] + m[c, b]:
                    return [MetricViolation("triangle", (a, b, c))]
        return []
    for k in range(n):
        slack = m - (m[:, k][:, None] + m[k, :][None, :])
        bad = slack > tol
        bad[k, :] = False
        bad[:, k] = False
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            return [MetricViolation("triangle", (i, j, k))]
    return []


def validate(matrix, labels=None, *, tol: float = DEFAULT_TOL,
             rescale: bool = False, exact: bool = False) -> FiniteMetricSpace:
    """Validate a raw matrix into a FiniteMetricSpace; raise on violations.

    With rescale=True, a diameter above 1 divides the whole matrix by the
    diameter instead of raising; the result is flagged so reports can note
    that per-partition ratios changed under the rescale.
    """
    m, problems = _checked(matrix, labels, tol, exact)
    if labels is None:
        labels = [f"p{i}" for i in range(m.shape[0] if m.ndim == 2 else 0)]
    rescaled = False
    if problems and rescale and all(isinstance(p, DiameterExceedsOne) for p in problems):
        m, problems = _checked(m / m.max(), labels, tol, exact)
        rescaled = True
    if problems:
        raise problems[0]
    if not exact:
        m = np.triu(m) + np.triu(m, 1).T  # canonicalize within-tolerance asymmetry
    return FiniteMetricSpace(labels, m, exact=exact, rescaled=rescaled, _trusted=True)


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
    sub = space.dist[np.ix_(idx, idx)]
    return FiniteMetricSpace([space.labels[i] for i in idx], sub,
                             exact=space.exact, _trusted=True)


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
    labels = [""]
    dist = _zeros((1, 1), exact)
    diameter = _zero(exact)
    for sp in spaces:
        f = sp.dist if sp.exact == exact else _entries(sp.dist, exact)
        diameter = max(diameter, sp.diameter if sp.exact == exact else Fraction(sp.diameter))
        nf = sp.n
        grown = np.repeat(np.repeat(dist, nf, axis=0), nf, axis=1)
        tiled = np.tile(f, dist.shape)
        dist = np.maximum(grown, tiled)
        labels = [f"{a}|{b}" if a else str(b) for a in labels for b in sp.labels]
    labels = [f"({x})" for x in labels] if len(spaces) > 1 else list(spaces[0].labels)
    # the sup of the coordinate distances peaks at the largest factor diameter
    return FiniteMetricSpace(labels, dist, exact=exact, _trusted=True, diameter=diameter)


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
    (Carlsson & Memoli 2010), so a passing space is accepted in O(n^2) exact
    comparisons; only a failing one pays for the O(n^3) search of its worst
    triple. Exact spaces fail on any positive violation, float ones above tol.
    """
    m = space.dist
    n = space.n
    if n < 3 or (m == _subdominant(m)).all():
        return UltrametricCheck(True, None, _zero(space.exact))
    hull = np.full((n, n), np.inf, dtype=m.dtype)
    argk = np.zeros((n, n), dtype=int)
    for k in range(n):
        cand = np.maximum(m[:, k][:, None], m[k, :][None, :])
        cand[k, :] = np.inf
        cand[:, k] = np.inf
        better = cand < hull
        hull = np.where(better, cand, hull)
        argk[better] = k
    slack = m - hull
    np.fill_diagonal(slack, -np.inf)
    i, j = map(int, np.unravel_index(np.argmax(slack), slack.shape))
    worst = slack[i, j] if space.exact else float(slack[i, j])
    if not space.exact and worst <= tol:
        return UltrametricCheck(True, None, max(worst, 0.0))
    return UltrametricCheck(False, (i, j, int(argk[i, j])), worst)


# Single linkage. The components of {d < t} (or {d <= t}) are those of the
# minimum-spanning-tree edges below t (Gower & Ross 1969), so one tree
# answers every single-linkage question.

def _prim(matrix):
    """Prim's minimum spanning tree of a dense distance matrix, from vertex 0.

    Returns arrays (order, parent, weight): step k attaches vertex order[k]
    through the edge to parent[k] of length weight[k], and every parent was
    attached at an earlier step. Step 0 is the root, its own parent, with
    the diagonal entry as weight. Entries are only compared, never converted,
    so Fraction matrices are ordered exactly.
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


def _subdominant(matrix) -> np.ndarray:
    """Single-linkage merge heights: u[i, j] is the longest edge on the tree
    path from i to j, the largest ultrametric below the matrix."""
    heights, top = _merge_ranks(matrix)
    return heights[top]


def _merge_ranks(matrix):
    """(heights, top): the distinct spanning-tree weights, ascending from the
    diagonal's zero, and top[i, j] the index in heights of u[i, j].

    Walking the Prim order, u[v, seen] = max(weight_v, u[parent_v, seen]),
    on the ranks of the weights: a Fraction matrix adds only the exact
    comparisons of one sort, and heights are entries of the matrix.
    """
    order, parent, weight = _prim(matrix)
    heights, rank = np.unique(weight, return_inverse=True)
    top = np.zeros(matrix.shape, dtype=np.intp)
    for k in range(1, len(order)):
        seen = order[:k]
        top[order[k], seen] = top[seen, order[k]] = np.maximum(top[parent[k], seen], rank[k])
    return heights, top


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
    m = space.dist
    so = len(members)
    mind = np.empty((so, n), dtype=m.dtype)
    for p, c in enumerate(members):
        mind[p] = m[c].min(axis=0)
    directed = np.empty((so, so), dtype=m.dtype)
    for q, c in enumerate(members):
        directed[:, q] = mind[:, c].max(axis=1)
    dist = np.maximum(directed, directed.T)
    np.fill_diagonal(dist, _zero(space.exact))
    return FiniteMetricSpace(labels, dist, exact=space.exact, _trusted=True)


# Serialization. CSV: first row labels, then the full symmetric matrix.

def to_csv(space: FiniteMetricSpace) -> str:
    if space.exact:
        raise ValueError("exact-mode spaces do not serialize to CSV")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(space.labels)
    for row in space.dist:
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


def from_csv(text: str, *, tol: float = DEFAULT_TOL, rescale: bool = False) -> FiniteMetricSpace:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if len(rows) < 2:
        raise MetricViolation("parse", None, "need a label row plus matrix rows")
    labels = rows[0]
    try:
        matrix = [[float(x) for x in row] for row in rows[1:]]
    except ValueError as exc:
        raise MetricViolation("parse", None, str(exc)) from exc
    return validate(matrix, labels, tol=tol, rescale=rescale)


def to_json(space: FiniteMetricSpace) -> str:
    if space.exact:
        raise ValueError("exact-mode spaces do not serialize to JSON")
    return json.dumps(
        {"labels": list(space.labels), "dist": [[float(x) for x in row] for row in space.dist]}
    )


def from_json(text: str, *, tol: float = DEFAULT_TOL, rescale: bool = False) -> FiniteMetricSpace:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "dist" not in doc:
        raise MetricViolation("parse", None, 'need a JSON object with a "dist" matrix')
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise MetricViolation("parse", None, '"labels" must be a list')
    return validate(doc["dist"], labels, tol=tol, rescale=rescale)
