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

from ._util import as_float, as_floats
from .errors import ExactModeSizeExceeded
from .partitions import (
    Partition,
    PartitionChain,
    _block_extents,
    _label_stats,
    _log_ratio,
    dendrogram_chain,
    largest_gap,
)
from .spaces import FiniteMetricSpace

ORACLE_SIZE_LIMIT = 8


def set_partitions(n: int):
    """All partitions of {0..n-1} as restricted-growth strings, lex order.

    A restricted-growth string a satisfies a[0] = 0 and
    a[i] <= max(a[:i]) + 1; block ids appear in first-seen order, which makes
    the enumeration deterministic.
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
    burn_in = None
    for pos, i in enumerate(proper):
        tail = r_vals[pos:]
        if all(abs(r - estimate) < epsilon for r in tail if math.isfinite(r)) and all(
            math.isfinite(r) == math.isfinite(estimate) for r in tail
        ):
            burn_in = int(chain.level_ids[i])
            break
    discrete_terminal = bool(chain.stats[-1].delta == 0)
    prop6 = _property6(chain, space, proper)
    return LogRatioProfile(tuple(rows), tuple(liminf), estimate, burn_in,
                           epsilon, discrete_terminal, prop6)


def _property6(chain, space, proper):
    deltas = [as_float(chain.stats[i].delta) for i in proper]
    decreasing = all(b < a for a, b in zip(deltas, deltas[1:]))
    report = {"delta_strictly_decreasing": bool(decreasing), "gap_constant": None}
    if space is None or len(proper) < 2:
        return report
    if any(as_float(chain.stats[j].gamma) <= 0 for j in proper[1:]):
        return report  # a gap ratio over an underflowed gamma is undefined
    diameters, gaps, connected = _block_extents(space, chain)
    worst = 0.0
    for i, j in zip(proper, proper[1:]):
        delta_i = as_float(chain.stats[i].delta)
        gamma_next = as_float(chain.stats[j].gamma)
        sizes = np.bincount(chain.labels[i])
        near = np.abs(as_floats(diameters[i]) - delta_i) <= 1e-15 + 1e-9 * abs(delta_i)
        widest = np.flatnonzero((sizes >= 2) & near)
        if not len(widest):
            continue
        gap = as_floats(gaps[i][widest])
        for k in np.flatnonzero(~connected[i][widest]).tolist():
            gap[k] = as_float(largest_gap(space, np.flatnonzero(chain.labels[i] == widest[k])))
        with np.errstate(over="ignore"):  # a gap over a tiny gamma may overflow to inf
            best = float((gap / gamma_next).min())
        if math.isfinite(best):
            worst = max(worst, best)
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
    gammas = [as_float(st.gamma) for st in chain.stats if st.cardinality >= 2]
    decreasing = all(b < a for a, b in zip(gammas, gammas[1:]))
    discrete = bool(chain.stats[-1].delta == 0)
    terminal = gammas[-1] if gammas else 0.0
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
    labels = _all_partitions(space.n, "oracle")
    deltas, gammas = _label_stats(space, labels)
    keep = deltas < r
    if require_positive_delta:
        keep &= deltas != 0
    if not keep.any():
        return OracleResult(math.inf, Partition.trivial(space.n), math.inf, math.inf)
    labels, deltas, gammas = labels[keep], deltas[keep], gammas[keep]
    values = [_log_ratio(d, g) for d, g in zip(deltas, gammas)]
    best = int(np.argmin(values))
    return OracleResult(values[best], Partition.from_assignment(labels[best]),
                        as_float(deltas[best]), as_float(gammas[best]))


def _all_partitions(n: int, what: str) -> np.ndarray:
    """The (Bell(n), n) label array of set_partitions(n), within the size limit."""
    if n > ORACLE_SIZE_LIMIT:
        raise ExactModeSizeExceeded(f"{n} points exceeds {what} limit {ORACLE_SIZE_LIMIT}")
    return np.array(list(set_partitions(n)), dtype=np.intp)


def threshold_min_R(space: FiniteMetricSpace, r, *,
                    require_positive_delta: bool = False) -> OracleResult:
    """Same minimum restricted to single-linkage (threshold) partitions."""
    chain = dendrogram_chain(space)
    best = None
    for part, st in zip(chain.levels, chain.stats):
        if not st.delta < r:
            continue
        if require_positive_delta and st.delta == 0:
            continue
        if best is None or st.log_ratio < best[0]:
            best = (st.log_ratio, part, st.delta, st.gamma)
    if best is None:
        return OracleResult(math.inf, Partition.trivial(space.n), math.inf, math.inf)
    return OracleResult(best[0], best[1], as_float(best[2]), as_float(best[3]))


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

    g comes from the single-linkage chain, which is exact: the threshold
    partition at gamma(a) dominates any partition a. G is exact by full
    enumeration up to ORACLE_SIZE_LIMIT points; beyond it, the two-block
    splits {b, X - b} of the chain's blocks give an upper bound for G and the
    row is flagged.
    """
    n = space.n
    use_exact = n <= ORACLE_SIZE_LIMIT if exact is None else exact
    chain = dendrogram_chain(space)
    labels = _all_partitions(n, "exact") if use_exact else _two_block_splits(chain)
    diam = as_float(space.diameter)
    deltas, gammas = map(as_floats, _label_stats(space, labels))
    rows = []
    for r in sorted((as_float(x) for x in radii), reverse=True):
        if not 0 < r <= diam:
            raise ValueError(f"radius {r} outside (0, diam] = (0, {diam}]")
        g_val = max(
            (as_float(st.gamma) for st in chain.stats if as_float(st.delta) <= r),
            default=0.0,
        )
        if use_exact:
            # equal by threshold dominance
            g_val = max(g_val, float(gammas[deltas <= r].max(initial=0.0)))
        # the trivial partition always qualifies, with gamma = diam
        G_val = min(diam, float(gammas[deltas >= r].min(initial=math.inf)))
        lower = math.log(g_val) / math.log(r) if 0 < g_val < 1 and r < 1 else math.nan
        upper = math.log(G_val) / math.log(r) if 0 < G_val < 1 and r < 1 else math.nan
        rows.append(GapBoundsRow(r, g_val, G_val, bool(use_exact), lower, upper))
    smallest = rows[-1]
    return GapBoundsReport(tuple(rows), smallest.lower_ratio, smallest.upper_ratio,
                           use_exact)


def _two_block_splits(chain: PartitionChain) -> np.ndarray:
    """Labels of the splits {b, X - b} over the distinct blocks b of the
    chain's levels with at least two blocks: the heuristic G candidates."""
    blocks = sorted({b for p in chain.levels if p.cardinality > 1 for b in p.blocks})
    labels = np.zeros((len(blocks), chain.levels[0].n_points), dtype=np.int8)
    for row, b in zip(labels, blocks):
        row[list(b)] = 1
    return labels
