"""Log-ratio profiles of chains, gap-bound functions G and g, and a
brute-force oracle over all set partitions of tiny spaces.

The profile reports the per-level ratio sequence and its running tail
infima. Boundary levels (a single block, or all singletons) carry the
conventional values R = 1-ish or R = 0 but no scale information, so they
are listed yet excluded from the estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import as_float, as_floats, field_report, report_keys
from .errors import ExactModeSizeExceeded
from .partitions import (
    Partition,
    PartitionChain,
    _block_tree,
    _label_stats,
    _log_ratios,
    _run_labels,
    dendrogram_chain,
    largest_gap,
    r_estimate,
)
from .spaces import FiniteMetricSpace, _gather, _rank_bound

ORACLE_SIZE_LIMIT = 8


def set_partitions(n: int):
    """All partitions of {0..n-1} as restricted-growth strings, lex order.

    A restricted-growth string a satisfies a[0] = 0 and
    a[i] <= max(a[:i]) + 1; block ids appear in first-seen order, which makes
    the enumeration deterministic. Rows are yielded one at a time, in O(n)
    memory; the oracle reads the same strings as one table (_rgs_table).
    """
    if n == 0:
        return
    a = [0] * n

    def rec(i, top):
        if i == n:
            yield tuple(a)
            return
        for v in range(top + 2):
            a[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


def _rgs_table(n: int) -> np.ndarray:
    """The Bell(n) x n table of every restricted-growth string of length
    n >= 1, in set_partitions order, built one column at a time: a row
    whose largest id so far is m gets m + 2 children, which append
    0..m + 1 in order."""
    table = np.zeros((1, n), dtype=np.intp)
    top = np.zeros(1, dtype=np.intp)
    for i in range(1, n):
        counts = top + 2
        parent = np.repeat(np.arange(len(table)), counts)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        table = table[parent]
        table[:, i] = value
        top = np.maximum(top[parent], value)
    return table


@dataclass(frozen=True)
class ProfileLevel:
    level_id: int = field(metadata={"key": "id"})
    delta: float
    gamma: float
    R: float
    boundary: bool  # single block or all singletons; excluded from the estimate

    to_report = field_report


@dataclass(frozen=True)
class LogRatioProfile:
    """The profile, its levels as columns: level_id, delta, gamma, R and
    boundary, one entry per level. levels is a view of them as ProfileLevel
    rows, built on each read, and to_report writes the level records
    straight from the columns."""

    level_id: tuple = field(repr=False)
    delta: tuple = field(repr=False)
    gamma: tuple = field(repr=False)
    R: tuple = field(repr=False)
    boundary: tuple = field(repr=False)
    running_liminf: tuple
    estimate: float
    burn_in: int | None
    epsilon: float
    discrete_terminal: bool
    property6: dict = field(metadata={"key": "property6_hypotheses"})

    @property
    def levels(self) -> tuple:
        return tuple(map(ProfileLevel, *self._columns()))

    def _columns(self) -> tuple:
        return self.level_id, self.delta, self.gamma, self.R, self.boundary

    def to_report(self) -> dict:
        keys = [key for _, key in report_keys(ProfileLevel)]
        return {"levels": [dict(zip(keys, row)) for row in zip(*self._columns())],
                **field_report(self, ("level_id", "delta", "gamma", "R", "boundary"))}


def profile(chain: PartitionChain, epsilon: float = 0.05,
            space: FiniteMetricSpace | None = None) -> LogRatioProfile:
    """Per-level R with tail infima; estimate is the last tail value.

    Every column is read off the chain's stats columns at once. burn_in is
    the first proper level from which every later computed R sits
    within epsilon of the estimate. When the space is supplied, the
    computation-rule hypotheses are checked: delta strictly decreasing, and
    for each level a maximal-diameter block A whose largest gap is within a
    constant multiple of the next level's gamma (the smallest such constant
    is reported).
    """
    delta = as_floats(chain.delta)
    boundary = (chain.cardinality <= 1) | (chain.delta_rank == 0)
    proper = np.flatnonzero(~boundary).tolist()
    r_vals = chain.log_ratio[proper].tolist()
    liminf = list(itertools.accumulate(reversed(r_vals), min))[::-1]
    estimate = r_estimate(chain)
    start = _settled_from(r_vals, estimate, epsilon)
    burn_in = None if start is None else int(chain.level_ids[proper[start]])
    prop6 = _property6(chain, space, proper, delta)
    return LogRatioProfile(tuple(map(int, chain.level_ids)), tuple(delta.tolist()),
                           tuple(as_floats(chain.gamma).tolist()), tuple(chain.log_ratio.tolist()),
                           tuple(boundary.tolist()), tuple(liminf), estimate, burn_in, epsilon,
                           bool(chain.delta_rank[-1] == 0), prop6)


def _settled_from(r_vals, estimate: float, epsilon: float) -> int | None:
    """The first position from which every R sits within epsilon of the
    estimate, finite exactly when it is, found by one scan back from the
    end: the position after the last R that does not; None when the last
    does not, or there is none."""
    finite = math.isfinite(estimate)
    start = len(r_vals)
    while start and (math.isfinite(r_vals[start - 1]) == finite and (
            not finite or abs(r_vals[start - 1] - estimate) < epsilon)):
        start -= 1
    return start if start < len(r_vals) else None


def _property6(chain, space, proper, level_delta):
    """delta strictly decreasing over the proper levels and, with a space,
    the gap constant: the largest, over consecutive proper levels i and j,
    of the least largest gap of a widest block of level i (a nonzero
    diameter, so two members or more, within tolerance of delta_i) over
    gamma_j, in one grouped minimum over the nodes of _block_tree. As delta
    does not grow along the chain, and a block is no wider than delta at
    any level that has it, a node is widest on a tail of its life: levels
    from the first whose delta comes near its diameter are tested, and
    largest_gap runs once per widest node that the spanning tree does not
    connect. level_delta is the chain's delta column as floats."""
    deltas = level_delta[proper].tolist()
    decreasing = all(b < a for a, b in zip(deltas, deltas[1:]))
    report = {"delta_strictly_decreasing": bool(decreasing), "gap_constant": None}
    if space is None or len(proper) < 2:
        return report
    # delta_i and the next proper gamma, nan where i has no next proper level
    delta, gamma = np.full(len(chain), np.nan), np.full(len(chain), np.nan)
    delta[proper[:-1]] = deltas[:-1]
    gamma[proper[:-1]] = as_floats(chain.gamma[proper[1:]])
    if (gamma <= 0).any():
        return report  # a gap ratio over an underflowed gamma is undefined
    start, end, born, dies, diameters, gaps, connected = _block_tree(space, chain)
    wide = np.flatnonzero(diameters)
    diameter = as_floats(diameters[wide])
    # from the first level whose delta is below a bound past the tolerance
    first = np.maximum(born[wide], np.searchsorted(-level_delta, -diameter * (1 + 4e-9) - 4e-15))
    count = np.maximum(dies[wide] - first, 0)
    node = np.repeat(np.arange(len(wide)), count)
    level = first[node] + np.arange(len(node)) - np.repeat(np.cumsum(count) - count, count)
    widest = np.abs(diameter[node] - delta[level]) <= 1e-15 + 1e-9 * np.abs(delta[level])
    node, level = node[widest], level[widest]
    gap = as_floats(gaps[wide])
    for k in np.unique(node[~connected[wide[node]]]).tolist():
        gap[k] = as_float(largest_gap(space, np.sort(chain.order[start[wide[k]]:end[wide[k]]])))
    best = np.full(len(chain), np.inf)
    with np.errstate(over="ignore"):  # a gap over a tiny gamma may overflow to inf
        np.minimum.at(best, level, gap[node] / gamma[level])
    worst = float(np.max(best, where=np.isfinite(best), initial=0.0))  # ratios are >= 0
    report["gap_constant"] = worst if worst > 0 else None
    return report


@dataclass(frozen=True)
class NondiscretenessReport:
    gamma_decreasing: bool
    discrete_terminal: bool
    terminal_gamma: float

    def __bool__(self) -> bool:
        return self.gamma_decreasing and not self.discrete_terminal


def nondiscreteness_check(chain: PartitionChain) -> NondiscretenessReport:
    """Whether gamma trends to 0 along the chain, flagging a discrete floor.

    A finite sample always bottoms out at its minimum pairwise distance; a
    terminal all-singleton level marks that the space was fully resolved.
    """
    split = chain.cardinality >= 2
    decreasing = bool((np.diff(chain.gamma_rank[split]) < 0).all())  # ranks order the gammas
    terminal = as_float(chain.gamma[split][-1]) if split.any() else 0.0
    return NondiscretenessReport(decreasing, bool(chain.delta_rank[-1] == 0), terminal)


@dataclass(frozen=True)
class OracleResult:
    value: float
    witness: Partition
    delta: float
    gamma: float


def brute_force_min_R(space: FiniteMetricSpace, r, *,
                      require_positive_delta: bool = False) -> OracleResult:
    """Minimal R(a) over all partitions with delta(a) < r, by enumeration.

    The unrestricted minimum is 0 for any r > 0 because the all-singleton
    partition qualifies with delta = 0; require_positive_delta restricts to
    partitions with delta > 0, the informative slice. Ties go to the first
    partition in set_partitions order.
    """
    _require_radius(r)
    return _brute_minimum(_enumerated_stats(space), r, require_positive_delta)


def _enumerated_stats(space: FiniteMetricSpace):
    """(space, labels, delta ranks, gamma ranks) of every partition, in
    set_partitions order. The stats of the rank matrix are the ranks of
    the stats, since its entries are ordered as the space's are."""
    _within_oracle_limit(space.n, "oracle")
    labels = _rgs_table(space.n)
    ranks = FiniteMetricSpace(space.labels, space.rank, _trusted=True)
    deltas, gammas = _label_stats(ranks, labels)
    return space, labels, deltas.astype(float), gammas.astype(float)


def _brute_minimum(enumerated, r, require_positive_delta: bool) -> OracleResult:
    space, labels, deltas, gammas = enumerated
    keep = deltas < _rank_bound(space, r)
    if require_positive_delta:
        keep &= deltas != 0  # rank 0 is the zero of the space
    if not keep.any():
        return OracleResult(math.inf, Partition.trivial(labels.shape[1]), math.inf, math.inf)
    labels, deltas, gammas = labels[keep], deltas[keep], gammas[keep]
    values = _log_ratios(space, deltas, gammas)
    best = int(np.argmin(values))
    delta, gamma = _gather(space.values, [deltas[best], gammas[best]])
    return OracleResult(float(values[best]), Partition.from_assignment(labels[best]),
                        as_float(delta), as_float(gamma))


def _require_radius(r) -> None:
    """Refuse a negative (or nan) radius. The minima over delta < r are
    taken for any r >= 0; r = 0 selects no partition and gives inf."""
    if not r >= 0:
        raise ValueError(f"radius {r} is not at least 0")


def _within_oracle_limit(n: int, what: str) -> None:
    if n > ORACLE_SIZE_LIMIT:
        raise ExactModeSizeExceeded(f"{n} points exceeds {what} limit {ORACLE_SIZE_LIMIT}")


def threshold_min_R(space: FiniteMetricSpace, r, *,
                    require_positive_delta: bool = False) -> OracleResult:
    """Same minimum restricted to single-linkage (threshold) partitions."""
    _require_radius(r)
    return _threshold_minimum(dendrogram_chain(space), r, require_positive_delta)


def _threshold_minimum(chain: PartitionChain, r, require_positive_delta: bool) -> OracleResult:
    """The first level of least R among those with delta < r (an exact
    delta compared as a Fraction)."""
    keep = chain.delta < r
    if require_positive_delta:
        keep &= chain.delta_rank > 0
    if not keep.any():
        return OracleResult(math.inf, Partition.trivial(len(chain.order)), math.inf, math.inf)
    kept = np.flatnonzero(keep)
    best = int(kept[np.argmin(chain.log_ratio[kept])])
    witness = _run_labels(chain.order, chain.h, [best])[0]  # one row, not the whole table
    return OracleResult(float(chain.log_ratio[best]), Partition.from_assignment(witness),
                        as_float(chain.delta[best]), as_float(chain.gamma[best]))


@dataclass(frozen=True)
class GapBoundsRow:
    r: float
    g: float
    G: float
    G_exact: bool
    lower_ratio: float
    upper_ratio: float

    to_report = field_report


@dataclass(frozen=True)
class GapBoundsReport:
    rows: tuple
    lower_estimate: float
    upper_estimate: float
    exact: bool

    to_report = field_report


def gap_bounds(space: FiniteMetricSpace, radii, *,
               exact: bool | None = None) -> GapBoundsReport:
    """G(r) = inf gamma over partitions with delta >= r, g(r) = sup gamma over
    partitions with delta <= r, plus the log-ratio bounds they induce.

    Both are read off the single-linkage chain. g(r) is the largest gamma of
    a level with delta <= r: the threshold partition at gamma(a) refines a,
    so it dominates any partition a (Gower & Ross 1969). G(r) is the
    closest-pair distance m, the gamma of the chain's all-singleton last
    level, for every r in (0, diam]. Every partition with two or more blocks
    has gamma >= m, and the trivial one has gamma = diam. For a closest pair
    (x, y) with n >= 3, one of the splits {{x}, X - x} and {{y}, X - y} keeps
    a diametral pair, so it has delta = diam >= r and gamma = m; for n = 2
    only the trivial partition qualifies, and m = diam. exact, which
    defaults to n <= ORACLE_SIZE_LIMIT and raises above it, only sets the
    report's exact and G_exact flags: the rows' values do not depend on it.
    """
    radii = sorted((as_float(x) for x in radii), reverse=True)
    if not radii:
        raise ValueError("need at least one radius")
    use_exact = space.n <= ORACLE_SIZE_LIMIT if exact is None else exact
    if use_exact:
        _within_oracle_limit(space.n, "exact")
    chain = dendrogram_chain(space)
    diam = as_float(space.diameter)
    deltas, gammas = as_floats(chain.delta), as_floats(chain.gamma).tolist()
    G_val = gammas[-1]
    rows = []
    for r in radii:
        if not 0 < r <= diam:
            raise ValueError(f"radius {r} outside (0, diam] = (0, {diam}]")
        g_val = max((g for g, low in zip(gammas, (deltas <= r).tolist()) if low), default=0.0)
        lower = math.log(g_val) / math.log(r) if 0 < g_val < 1 and r < 1 else math.nan
        upper = math.log(G_val) / math.log(r) if 0 < G_val < 1 and r < 1 else math.nan
        rows.append(GapBoundsRow(r, g_val, G_val, bool(use_exact), lower, upper))
    smallest = rows[-1]
    return GapBoundsReport(tuple(rows), smallest.lower_ratio, smallest.upper_ratio,
                           use_exact)
