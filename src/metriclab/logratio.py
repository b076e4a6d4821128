"""Log-ratio profiles of chains, gap-bound functions G and g, and a
brute-force oracle over all set partitions of tiny spaces.

The profile reports the per-level ratio sequence and its running tail
infima. Boundary levels (a single block, or all singletons) carry the
conventional values R = 1-ish or R = 0 but no scale information, so they
are listed yet excluded from the estimate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._util import as_float
from .errors import ExactModeSizeExceeded
from .partitions import (
    Partition,
    PartitionChain,
    _log_ratio,
    dendrogram_chain,
    largest_gap,
)
from .spaces import FiniteMetricSpace

ORACLE_SIZE_LIMIT = 8


def set_partitions(n: int, prefix=None):
    """All partitions of {0..n-1} as restricted-growth strings, lex order.

    A restricted-growth string a satisfies a[0] = 0 and
    a[i] <= max(a[:i]) + 1; block ids appear in first-seen order, which makes
    the enumeration deterministic. ``prefix`` fixes the first symbols, which
    lets callers split the enumeration into independent chunks.
    """
    if n == 0:
        return
    a = [0] * n
    if prefix is not None:
        a[: len(prefix)] = list(prefix)
    start = len(prefix) if prefix is not None else 1
    maxes = [0] * n
    for i in range(1, n):
        maxes[i] = max(maxes[i - 1], a[i - 1])

    def rec(i):
        if i == n:
            yield tuple(a)
            return
        top = max(maxes[i - 1], a[i - 1]) if i else 0
        maxes[i] = top
        for v in range(top + 2):
            a[i] = v
            yield from rec(i + 1)
        a[i] = 0

    yield from rec(start)


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
    worst = 0.0
    for pos in range(len(proper) - 1):
        i, j = proper[pos], proper[pos + 1]
        delta_i = as_float(chain.stats[i].delta)
        gamma_next = as_float(chain.stats[j].gamma)
        if gamma_next <= 0:
            return report
        best = math.inf
        for b in chain.levels[i].blocks:
            if len(b) < 2:
                continue
            diam = as_float(space.dist[np.ix_(b, b)].max())
            if abs(diam - delta_i) <= 1e-15 + 1e-9 * abs(delta_i):
                best = min(best, as_float(largest_gap(space, b)) / gamma_next)
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


def _stats_of_assignment(space, assign):
    """delta and gamma of a partition given as an assignment tuple."""
    m = space.dist
    n = space.n
    card = max(assign) + 1
    if card == 1:
        return space.diameter, space.diameter, 1
    delta = None
    gamma = None
    for i in range(n):
        for j in range(i + 1, n):
            d = m[i, j]
            if assign[i] == assign[j]:
                if delta is None or d > delta:
                    delta = d
            else:
                if gamma is None or d < gamma:
                    gamma = d
    if delta is None:
        delta = 0.0 if not space.exact else 0
    return delta, gamma, card


@dataclass(frozen=True)
class OracleResult:
    value: float
    witness: Partition
    delta: float
    gamma: float


def brute_force_min_R(space: FiniteMetricSpace, r, *,
                      require_positive_delta: bool = False,
                      size_limit: int = ORACLE_SIZE_LIMIT,
                      threads: int = 1) -> OracleResult:
    """Minimal R(a) over all partitions with delta(a) < r, by enumeration.

    The unrestricted minimum is 0 for any r > 0 because the all-singleton
    partition qualifies with delta = 0; require_positive_delta restricts to
    partitions with delta > 0, the informative slice.
    """
    n = space.n
    if n > size_limit:
        raise ExactModeSizeExceeded(f"{n} points exceeds oracle limit {size_limit}")

    def scan(prefix):
        best = None
        for assign in set_partitions(n, prefix=prefix):
            delta, gamma, _ = _stats_of_assignment(space, assign)
            if not delta < r:
                continue
            if require_positive_delta and delta == 0:
                continue
            value = _log_ratio(delta, gamma)
            if best is None or value < best[0]:
                best = (value, assign, delta, gamma)
        return best

    if threads > 1 and n >= 2:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(scan, ([0, v] for v in (0, 1))))
        candidates = [b for b in results if b is not None]
        best = min(candidates, key=lambda b: b[0]) if candidates else None
    else:
        best = scan(None)
    if best is None:
        return OracleResult(math.inf, Partition.trivial(n), math.inf, math.inf)
    value, assign, delta, gamma = best
    return OracleResult(value, Partition.from_assignment(assign),
                        as_float(delta), as_float(gamma))


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


def gap_bounds(space: FiniteMetricSpace, radii, *, exact: bool | None = None,
               size_limit: int = ORACLE_SIZE_LIMIT) -> GapBoundsReport:
    """G(r) = inf gamma over partitions with delta >= r, g(r) = sup gamma over
    partitions with delta <= r, plus the log-ratio bounds they induce.

    g comes from the single-linkage chain, which is exact: the threshold
    partition at gamma(a) dominates any partition a. G is exact by full
    enumeration up to the size limit; beyond it, a two-block split heuristic
    gives an upper bound for G and the row is flagged.
    """
    n = space.n
    if exact is True and n > size_limit:
        raise ExactModeSizeExceeded(f"{n} points exceeds exact limit {size_limit}")
    use_exact = n <= size_limit if exact is None else exact
    chain = dendrogram_chain(space)
    diam = as_float(space.diameter)
    enum_stats = None
    if use_exact:
        enum_stats = []
        for assign in set_partitions(n):
            delta, gamma, card = _stats_of_assignment(space, assign)
            enum_stats.append((as_float(delta), as_float(gamma)))
    rows = []
    for r in sorted((as_float(x) for x in radii), reverse=True):
        if not 0 < r <= diam:
            raise ValueError(f"radius {r} outside (0, diam] = (0, {diam}]")
        g_val = max(
            (as_float(st.gamma) for st in chain.stats if as_float(st.delta) <= r),
            default=0.0,
        )
        if use_exact:
            g_check = max((g for d, g in enum_stats if d <= r), default=0.0)
            g_val = max(g_val, g_check)  # equal by threshold dominance
            G_val = min((g for d, g in enum_stats if d >= r), default=math.inf)
            G_is_exact = True
        else:
            G_val = _heuristic_G(space, chain, r)
            G_is_exact = False
        lower = math.log(g_val) / math.log(r) if 0 < g_val < 1 and r < 1 else math.nan
        upper = math.log(G_val) / math.log(r) if 0 < G_val < 1 and r < 1 else math.nan
        rows.append(GapBoundsRow(r, g_val, G_val, G_is_exact, lower, upper))
    smallest = rows[-1]
    return GapBoundsReport(tuple(rows), smallest.lower_ratio, smallest.upper_ratio,
                           use_exact)


def _heuristic_G(space, chain, r):
    """Upper bound for G(r): best gamma among two-block splits of chain blocks."""
    m = space.dist
    n = space.n
    best = as_float(space.diameter)  # the trivial partition always qualifies
    for part in chain.levels:
        if part.cardinality < 2:
            continue
        for b in part.blocks:
            rest = [i for i in range(n) if i not in b]
            if not rest:
                continue
            diam_b = as_float(m[np.ix_(b, b)].max()) if len(b) > 1 else 0.0
            diam_rest = as_float(m[np.ix_(rest, rest)].max()) if len(rest) > 1 else 0.0
            if max(diam_b, diam_rest) >= r:
                gap = as_float(m[np.ix_(b, rest)].min())
                best = min(best, gap)
    return best
