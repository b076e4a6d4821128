"""Log-ratio profiles of chains, gap-bound functions G and g, and a
brute-force oracle over all set partitions of tiny spaces.

The profile reports the per-level ratio sequence and its running tail
infima. Boundary levels (a single block, or all singletons) carry the
conventional values R = 1-ish or R = 0 but no scale information, so they
are listed yet excluded from the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import as_float, as_floats, flog, per_distinct
from .errors import ExactModeSizeExceeded
from .partitions import (
    Partition,
    PartitionChain,
    _at_least_one,
    _block_extents,
    _block_offsets,
    _label_stats,
    _level_chunks,
    dendrogram_chain,
    largest_gap,
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
    level_id: int
    delta: float
    gamma: float
    R: float
    boundary: bool  # single block or all singletons; excluded from the estimate


@dataclass(frozen=True)
class LogRatioProfile:
    levels: tuple
    running_liminf: tuple
    estimate: float
    burn_in: int | None
    epsilon: float
    discrete_terminal: bool
    property6: dict

    def to_report(self) -> dict:
        return {
            "levels": [
                {"id": lv.level_id, "delta": lv.delta, "gamma": lv.gamma,
                 "R": lv.R, "boundary": lv.boundary}
                for lv in self.levels
            ],
            "running_liminf": list(self.running_liminf),
            "estimate": self.estimate,
            "burn_in": self.burn_in,
            "epsilon": self.epsilon,
            "discrete_terminal": self.discrete_terminal,
            "property6_hypotheses": self.property6,
        }


def profile(chain: PartitionChain, epsilon: float = 0.05,
            space: FiniteMetricSpace | None = None) -> LogRatioProfile:
    """Per-level R with tail infima; estimate is the last tail value.

    burn_in is the first proper level from which every later computed R sits
    within epsilon of the estimate. When the space is supplied, the
    computation-rule hypotheses are checked: delta strictly decreasing, and
    for each level a maximal-diameter block A whose largest gap is within a
    constant multiple of the next level's gamma (the smallest such constant
    is reported).
    """
    rows = []
    for i, st in enumerate(chain.stats):
        boundary = st.cardinality <= 1 or st.delta == 0
        rows.append(ProfileLevel(int(chain.level_ids[i]), as_float(st.delta),
                                 as_float(st.gamma), st.log_ratio, boundary))
    proper = [i for i, lv in enumerate(rows) if not lv.boundary]
    r_vals = [rows[i].R for i in proper]
    liminf = []
    if r_vals:
        running = math.inf
        for r in reversed(r_vals):
            running = min(running, r)
            liminf.append(running)
        liminf.reverse()
    estimate = liminf[-1] if liminf else 0.0
    start = _settled_from(r_vals, estimate, epsilon)
    burn_in = None if start is None else int(chain.level_ids[proper[start]])
    discrete_terminal = bool(chain.stats[-1].delta == 0)
    prop6 = _property6(chain, space, proper)
    return LogRatioProfile(tuple(rows), tuple(liminf), estimate, burn_in,
                           epsilon, discrete_terminal, prop6)


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


def _property6(chain, space, proper):
    """delta strictly decreasing over the proper levels and, with a space,
    the gap constant: the largest, over consecutive proper levels i and j,
    of the least largest gap of a widest block of level i (at least two
    members, diameter within tolerance of delta_i) over gamma_j. One pass
    over the level chunks of _block_extents' output reduces every widest
    block at once; largest_gap runs only on the widest blocks that the
    spanning tree does not connect."""
    deltas = [as_float(chain.stats[i].delta) for i in proper]
    decreasing = all(b < a for a, b in zip(deltas, deltas[1:]))
    report = {"delta_strictly_decreasing": bool(decreasing), "gap_constant": None}
    if space is None or len(proper) < 2:
        return report
    gammas = np.array([as_float(chain.stats[j].gamma) for j in proper[1:]])
    if (gammas <= 0).any():
        return report  # a gap ratio over an underflowed gamma is undefined
    deltas = np.array(deltas[:-1])  # deltas[s] and gammas[s] pair up, s a level's slot
    diameters, gaps, connected = _block_extents(space, chain)
    offsets = _block_offsets(chain)
    slot = np.full(len(chain), -1)
    slot[proper[:-1]] = np.arange(len(deltas))
    best = np.full(len(deltas), np.inf)
    for lo, hi, block in _level_chunks(chain, offsets):
        at = np.repeat(slot[lo:hi], np.diff(offsets[lo:hi + 1]))  # each block's slot
        widest = np.flatnonzero((at >= 0) & (np.bincount(block, minlength=len(at)) >= 2))
        delta = deltas[at[widest]]
        diam = as_floats(np.concatenate(diameters[lo:hi])[widest])
        widest = widest[np.abs(diam - delta) <= 1e-15 + 1e-9 * np.abs(delta)]
        gap = as_floats(np.concatenate(gaps[lo:hi])[widest])
        for k in np.flatnonzero(~np.concatenate(connected[lo:hi])[widest]).tolist():
            number = offsets[lo] + widest[k]
            level = int(np.searchsorted(offsets, number, side="right")) - 1
            members = np.flatnonzero(chain.labels[level] == number - offsets[level])
            gap[k] = as_float(largest_gap(space, members))
        with np.errstate(over="ignore"):  # a gap over a tiny gamma may overflow to inf
            np.minimum.at(best, at[widest], gap / gammas[at[widest]])
    best = best[np.isfinite(best)]
    worst = float(best.max()) if len(best) else 0.0
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
    gammas = [st.gamma for st in chain.stats if st.cardinality >= 2]
    decreasing = all(b < a for a, b in zip(gammas, gammas[1:]))
    discrete = bool(chain.stats[-1].delta == 0)
    terminal = as_float(gammas[-1]) if gammas else 0.0
    return NondiscretenessReport(decreasing, discrete, terminal)


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


def _log_ratios(space: FiniteMetricSpace, deltas, gammas) -> np.ndarray:
    """_log_ratio of each (delta, gamma) pair given by ranks: the flog of
    each distinct value, +inf for one of at least 1 and -inf for zero,
    then one division."""
    def log(rank):
        if not rank:
            return -math.inf
        value = _gather(space.values, rank)
        return math.inf if _at_least_one(value) else flog(value)

    log_d = per_distinct(log, deltas)
    log_g = per_distinct(log, gammas)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = log_g / log_d
    ratios[(log_d == math.inf) | (log_g == math.inf)] = math.inf
    ratios[deltas == 0] = 0.0
    return ratios


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
    best = None
    for lvl, st in enumerate(chain.stats):
        if not st.delta < r or (require_positive_delta and st.delta == 0):
            continue
        if best is None or st.log_ratio < chain.stats[best].log_ratio:
            best = lvl
    if best is None:
        return OracleResult(math.inf, Partition.trivial(len(chain.order)), math.inf, math.inf)
    st = chain.stats[best]
    return OracleResult(st.log_ratio, Partition.from_assignment(chain.labels[best]),
                        as_float(st.delta), as_float(st.gamma))


@dataclass(frozen=True)
class GapBoundsRow:
    r: float
    g: float
    G: float
    G_exact: bool
    lower_ratio: float
    upper_ratio: float


@dataclass(frozen=True)
class GapBoundsReport:
    rows: tuple
    lower_estimate: float
    upper_estimate: float
    exact: bool

    def to_report(self) -> dict:
        return {
            "rows": [
                {"r": w.r, "g": w.g, "G": w.G, "G_exact": w.G_exact,
                 "lower_ratio": w.lower_ratio, "upper_ratio": w.upper_ratio}
                for w in self.rows
            ],
            "lower_estimate": self.lower_estimate,
            "upper_estimate": self.upper_estimate,
            "exact": self.exact,
        }


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
    G_val = as_float(chain.stats[-1].gamma)
    rows = []
    for r in radii:
        if not 0 < r <= diam:
            raise ValueError(f"radius {r} outside (0, diam] = (0, {diam}]")
        g_val = max(
            (as_float(st.gamma) for st in chain.stats if as_float(st.delta) <= r),
            default=0.0,
        )
        lower = math.log(g_val) / math.log(r) if 0 < g_val < 1 and r < 1 else math.nan
        upper = math.log(G_val) / math.log(r) if 0 < G_val < 1 and r < 1 else math.nan
        rows.append(GapBoundsRow(r, g_val, G_val, bool(use_exact), lower, upper))
    smallest = rows[-1]
    return GapBoundsReport(tuple(rows), smallest.lower_ratio, smallest.upper_ratio,
                           use_exact)
