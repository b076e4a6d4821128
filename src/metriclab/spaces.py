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

    def __init__(self, labels, dist, *, exact=False, rescaled=False, _trusted=False):
        labels = tuple(str(x) for x in labels)
        if exact:
            matrix = np.asarray(dist, dtype=object)
        else:
            matrix = np.asarray(dist, dtype=float)
        matrix.setflags(write=False)
        self.labels = labels
        self.dist = matrix
        self.exact = exact
        self.rescaled = rescaled
        self.diameter = matrix.max() if len(labels) > 1 else _zero(exact)
        if not _trusted:
            problems = violations(matrix, labels, exact=exact)
            if problems:
                raise problems[0]

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


def violations(matrix, labels=None, tol: float = DEFAULT_TOL, exact: bool = False):
    """Collect metric-axiom violations instead of raising.

    Checks squareness, finiteness, zero diagonal, symmetry, positive
    off-diagonal entries (duplicate points are rejected, not merged),
    the triangle inequality on every triple, and diameter <= 1.
    """
    m = np.asarray(matrix, dtype=object if exact else float)
    out = []
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return [MetricViolation("shape", m.shape, "matrix must be square")]
    n = m.shape[0]
    if labels is not None and len(labels) != n:
        return [MetricViolation("labels", len(labels), f"expected {n} labels")]
    if labels is not None:
        seen = set()
        for label in map(str, labels):
            if label in seen:
                return [MetricViolation("labels", label, "duplicate label")]
            seen.add(label)
    if n > max_points():
        return [CapExceeded(f"{n} points exceeds METRICLAB_MAX_POINTS cap")]
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
    out.extend(_triangle_violations(m, n, tol, exact))
    diam = m.max() if n > 1 else 0
    if diam > 1:
        out.append(DiameterExceedsOne(diam))
    return out


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
    m = np.asarray(matrix, dtype=object if exact else float)
    if labels is None:
        labels = [f"p{i}" for i in range(m.shape[0] if m.ndim == 2 else 0)]
    problems = violations(m, labels, tol=tol, exact=exact)
    rescaled = False
    if problems and rescale and all(isinstance(p, DiameterExceedsOne) for p in problems):
        diam = m.max()
        m = m / diam
        rescaled = True
        problems = violations(m, labels, tol=tol, exact=exact)
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
    dist = np.zeros((1, 1), dtype=object if exact else float)
    if exact:
        dist[0, 0] = Fraction(0)
    for sp in spaces:
        f = sp.dist.astype(object) if exact and not sp.exact else sp.dist
        nf = sp.n
        grown = np.repeat(np.repeat(dist, nf, axis=0), nf, axis=1)
        tiled = np.tile(f, dist.shape)
        dist = np.maximum(grown, tiled)
        labels = [f"{a}|{b}" if a else str(b) for a in labels for b in sp.labels]
    labels = [f"({x})" for x in labels] if len(spaces) > 1 else list(spaces[0].labels)
    return FiniteMetricSpace(labels, dist, exact=exact, _trusted=True)


@dataclass(frozen=True)
class UltrametricCheck:
    ok: bool
    witness: tuple[int, int, int] | None
    violation: object  # worst d(i,j) - max(d(i,k), d(k,j)); 0 when ok

    def __bool__(self) -> bool:
        return self.ok


def is_ultrametric(space: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> UltrametricCheck:
    """Strong triangle inequality over all triples, with the worst witness."""
    m = space.dist
    n = space.n
    if n < 3:
        return UltrametricCheck(True, None, _zero(space.exact))
    if space.exact:
        worst = Fraction(0)
        witness = None
        for i, j in combinations(range(n), 2):
            hull = min(max(m[i, k], m[k, j]) for k in range(n) if k != i and k != j)
            gap = m[i, j] - hull
            if gap > worst:
                worst, witness = gap, None
                k_best = min(
                    (k for k in range(n) if k != i and k != j),
                    key=lambda k: max(m[i, k], m[k, j]),
                )
                witness = (i, j, k_best)
        return UltrametricCheck(worst <= 0, witness, worst)
    hull = np.full((n, n), np.inf)
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
    worst = float(slack[i, j])
    if worst <= tol:
        return UltrametricCheck(True, None, max(worst, 0.0))
    return UltrametricCheck(False, (i, j, int(argk[i, j])), worst)


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
    if space.exact:
        so = len(members)
        dist = np.empty((so, so), dtype=object)
        mind = [[min(m[a, b] for a in c) for b in range(n)] for c in members]
        for p in range(so):
            for q in range(so):
                left = max(mind[p][b] for b in members[q])
                right = max(mind[q][a] for a in members[p])
                dist[p, q] = max(left, right)
        return FiniteMetricSpace(labels, dist, exact=True, _trusted=True)
    so = len(members)
    mind = np.empty((so, n))
    for p, c in enumerate(members):
        mind[p] = m[c].min(axis=0)
    directed = np.empty((so, so))
    for q, c in enumerate(members):
        directed[:, q] = mind[:, c].max(axis=1)
    dist = np.maximum(directed, directed.T)
    np.fill_diagonal(dist, 0.0)
    return FiniteMetricSpace(labels, dist, _trusted=True)


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
    return validate(doc["dist"], doc.get("labels"), tol=tol, rescale=rescale)
