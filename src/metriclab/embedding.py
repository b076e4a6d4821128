"""Box-norm embedding of chain hierarchies into R^N, plus the metric
(Assouad-type) dimension estimator that feeds the dimension bound.

The construction places one axis-aligned cube per block, level by level:
level-1 cubes of radius delta_1 sit on a free grid with pitch
2 delta_1 + gamma_1; inside each parent cube of radius delta_n, child cubes
of radius delta_{n+1} sit on a grid with pitch 2 delta_{n+1} + gamma_{n+1},
so a parent holds floor((delta_n + gamma_{n+1}/2) / (delta_{n+1} +
gamma_{n+1}/2))^N children. Blocks are assigned to cells by least point
index against lexicographic cell order, which pins the bijections the
construction leaves free and makes coordinates bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import DEFAULT_TOL, as_float, per_distinct
from .errors import BoundViolated, DepthOverflow, EmptyWindow, PackingInfeasible
from .logratio import profile
from .partitions import PartitionChain, _decay_witness, _require_separating
from .spaces import FiniteMetricSpace, _gather, _rank_bound
from .ultrametrize import LOG_SLACK, _first_failure, _holder_fit, _pair_logs, _window_start


def separated_count(space: FiniteMetricSpace, center: int, r1, r2) -> int:
    """Size of a maximal set with pairwise distances strictly above r2 inside
    the closed r1-ball around the center point.

    Greedy in point-index order; exact maximum by branch and bound when the
    ball holds at most 20 points. Both run on ranks: the ball compares
    as_float of entries with as_float(r1), the separation entries with r2.
    """
    if not 0 < r2 < r1:
        raise ValueError("need 0 < r2 < r1")
    m = space.rank
    r1 = as_float(r1)
    ball = np.flatnonzero(m[center] <= _rank_bound(space, r1, True, as_float)).tolist()
    r2 = _rank_bound(space, r2, True)
    greedy = _greedy_separated(m, ball, r2)
    if len(ball) <= 20:
        return _exact_separated(m, ball, r2, greedy)
    return greedy


def _greedy_separated(m, ball, r2):
    idx = np.asarray(ball, dtype=np.intp)
    alive = np.ones(len(ball), dtype=bool)
    count = 0
    for pos in range(len(ball)):
        if not alive[pos]:
            continue
        count += 1
        alive &= m[idx[pos]][idx] > r2
        alive[pos] = False
    return count


def _exact_separated(m, ball, r2, lower_bound):
    best = lower_bound

    def rec(chosen_count, candidates):
        nonlocal best
        if chosen_count + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, chosen_count)
            return
        for pos, i in enumerate(candidates):
            if chosen_count + len(candidates) - pos <= best:
                break
            rest = [j for j in candidates[pos + 1:] if m[i, j] > r2]
            rec(chosen_count + 1, rest)
        best = max(best, chosen_count)

    rec(0, ball)
    return best


@dataclass(frozen=True)
class DimensionEstimate:
    samples: tuple  # rows (r1, r2, J, log J / log(r1/r2))
    estimate: float
    window: tuple[float, float]  # (r, t)
    tight_window: tuple[float, float]
    tight_estimate: float | None

    def to_report(self) -> dict:
        return {
            "samples": [
                {"r1": r1, "r2": r2, "J": J, "ratio": ratio}
                for r1, r2, J, ratio in self.samples
            ],
            "estimate": self.estimate,
            "window": {"r": self.window[0], "t": self.window[1]},
            "tight_window": {"r": self.tight_window[0], "t": self.tight_window[1]},
            "tight_estimate": self.tight_estimate,
        }


def estimate_metric_dimension(space: FiniteMetricSpace, r: float, t: float,
                              r1_values=None, r2_values=None,
                              centers=None) -> DimensionEstimate:
    """Sup of log J(r1, r2) / log(r1 / r2) over a scale grid inside the
    window {0 < r2 < r1 < r, r1/r2 > t}, J maximized over sampled centers.

    The default grid halves r1 down from the window and takes r2 from the
    smallest positive distances, emulating the inner large-ratio limit with
    the deepest scales the sample resolves. A nested tighter window
    (r/2, 2t) is evaluated on the same samples for the monotonicity report.
    """
    n = space.n
    if n == 1:
        win = (float(r), float(t))
        return DimensionEstimate((), 0.0, win, (win[0] / 2, win[1] * 2), None)
    if centers is None:
        if n <= 16:
            centers = list(range(n))
        else:
            step = max(1, n // 16)
            centers = list(range(0, n, step))[:16]
    rank = space.rank
    d_pos = as_float(_gather(space.values, rank[rank > 0].min()))
    if r1_values is None:
        r1_values = []
        value = float(r) / 2
        for _ in range(8):
            if value <= d_pos:
                break
            r1_values.append(value)
            value /= 2
    if r2_values is None:
        r2_values = [d_pos * (2 ** j) for j in range(3)]
    samples = []
    for r1 in r1_values:
        for r2 in r2_values:
            if not (0 < r2 < r1 < r and r1 / r2 > t):
                continue
            J = max(separated_count(space, c, r1, r2) for c in centers)
            ratio = math.log(J) / math.log(r1 / r2) if J > 1 else 0.0
            samples.append((float(r1), float(r2), int(J), ratio))
    if not samples:
        raise EmptyWindow(f"no (r1, r2) grid point fits window r={r}, t={t}")
    estimate = max(row[3] for row in samples)
    tight = [row[3] for row in samples if row[0] < r / 2 and row[0] / row[1] > 2 * t]
    tight_estimate = max(tight) if tight else None
    return DimensionEstimate(tuple(samples), estimate, (float(r), float(t)),
                             (float(r) / 2, float(t) * 2), tight_estimate)


def min_embedding_dimension(D: float, R: float, s: float) -> int:
    """Smallest integer strictly above (D + R - 1)[(1 + s)(2R - 1) - 1]/s."""
    if not R > 1 or math.isinf(R):
        raise ValueError("need 1 < R < infinity")
    if D < 0:
        raise ValueError("D must be nonnegative")
    if s <= 0:
        raise ValueError("s must be positive")
    bound = (D + R - 1) * ((1 + s) * (2 * R - 1) - 1) / s
    return math.floor(bound) + 1


def grid_capacity(delta_parent: float, delta_child: float, gamma_child: float,
                  N: int) -> tuple[int, int]:
    """(per-axis count, total capacity) for child cubes inside a parent cube."""
    per_axis = math.floor(
        (delta_parent + gamma_child / 2) / (delta_child + gamma_child / 2)
    )
    return per_axis, per_axis ** N


def place_children(center, delta_parent: float, delta_child: float,
                   gamma_child: float, N: int, count: int) -> np.ndarray:
    """First ``count`` child cube centers (lex cell order) in a parent, as rows."""
    per_axis, capacity = grid_capacity(delta_parent, delta_child, gamma_child, N)
    if count > capacity:
        raise PackingInfeasible(-1, count, capacity)
    low = np.asarray(center, dtype=float) - (delta_parent - delta_child)
    return low + (2 * delta_child + gamma_child) * _grid_cells(np.arange(count), per_axis, N)


def _grid_cells(ranks, per_axis: int, N: int) -> np.ndarray:
    """Float rows of the rank-th cells of the per_axis^N grid in lex order; a
    base above every rank gives the same digits, so per_axis is capped there."""
    cells = np.empty((len(ranks), N))
    rest = np.asarray(ranks, dtype=np.intp)
    base = min(per_axis, int(rest.max(initial=0)) + 1)
    for axis in range(N - 1, -1, -1):
        rest, cells[:, axis] = np.divmod(rest, base)
    return cells


@dataclass(frozen=True)
class LevelAudit:
    level_id: int
    required: int
    capacity: int | None  # None for the free first level
    gamma: float
    realized_min_gap: float
    nested: bool
    commutes: bool

    def ok(self, tol: float = DEFAULT_TOL) -> bool:
        cap_ok = self.capacity is None or self.required <= self.capacity
        return cap_ok and self.nested and self.commutes and (
            self.realized_min_gap >= self.gamma - tol
        )


@dataclass(frozen=True)
class EmbeddingResult:
    N: int
    coords: np.ndarray
    level_audit: tuple
    fitted: object
    chain: PartitionChain
    p: float
    epsilon: float
    R_est: float
    epsilon_warning: bool
    box_dist: np.ndarray = field(repr=False, compare=False)  # _box_matrix(coords)
    # (d, log of d at the upper-triangle pairs): the fit's logs, which the
    # distortion check reuses when it is given the same matrix
    d_logs: tuple = field(repr=False, compare=False)

    def box_distance(self, i: int, j: int) -> float:
        return float(self.box_dist[i, j])

    def to_report(self) -> dict:
        return {
            "N": self.N,
            "R_est": self.R_est,
            "p": self.p,
            "epsilon": self.epsilon,
            "epsilon_warning": self.epsilon_warning,
            "levels": [
                {
                    "id": a.level_id,
                    "required": a.required,
                    "capacity": a.capacity,
                    "gamma": a.gamma,
                    "realized_min_gap": a.realized_min_gap,
                    "nested": a.nested,
                    "commutes": a.commutes,
                }
                for a in self.level_audit
            ],
            "fitted": self.fitted.to_report(),
        }


def embed_chain(space: FiniteMetricSpace, chain: PartitionChain, N: int,
                p: float, epsilon: float, tol: float = DEFAULT_TOL) -> EmbeddingResult:
    """Recursive grid packing of the chain into R^N under the box norm.

    Raises PackingInfeasible when some level needs more child cubes than the
    capacity formula allows; chains whose diameters decay too slowly per
    level always hit this, and should be thinned first (see
    select_embeddable_subchain).
    """
    if space.exact:
        raise ValueError("embedding requires a float-mode space")
    if N < 1:
        raise ValueError("N must be at least 1")
    _require_separating(chain)
    r_est = profile(chain).estimate
    eps_ok = math.isfinite(r_est) and r_est > 1 and 0 < epsilon < min(1.0, r_est - 1)
    deltas = [as_float(st.delta) for st in chain.stats]
    gammas = [as_float(st.gamma) for st in chain.stats]
    # Level 1: free minimal grid. Block ids number blocks by least member.
    count0 = chain.stats[0].cardinality
    side = 1
    while side ** N < count0:
        side += 1
    centers = (2 * deltas[0] + gammas[0]) * _grid_cells(np.arange(count0), side, N)
    box = _box_matrix(centers)
    audits = [_audit_level(chain, 0, count0, None, box, centers, None, None, deltas, gammas,
                           tol)]
    for lvl in range(1, len(chain)):
        per_axis, capacity = grid_capacity(deltas[lvl - 1], deltas[lvl], gammas[lvl], N)
        # each block's parent and rank among its siblings
        parent = _parents(chain, lvl - 1, lvl)
        required = int(np.bincount(parent).max())
        if required > capacity:
            raise PackingInfeasible(int(chain.level_ids[lvl]), required, capacity)
        order = np.argsort(parent, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order)) - np.searchsorted(parent[order], parent[order])
        prev = centers
        centers = (prev[parent] - (deltas[lvl - 1] - deltas[lvl])
                   + (2 * deltas[lvl] + gammas[lvl]) * _grid_cells(rank, per_axis, N))
        del box  # the parent level's matrix goes before this level's is built
        box = _box_matrix(centers)
        audits.append(_audit_level(chain, lvl, required, capacity, box, centers, prev, parent,
                                   deltas, gammas, tol))
    # the last level separates points and numbers its blocks by least member,
    # so its blocks are the points in order: labels[-1] is 0..n-1, and its
    # centres and box matrix are the coordinates and theirs
    coords, box_dist = centers, box
    if _closest(box_dist) <= 0:
        # scale span exceeds float64 resolution: deep offsets fall below the
        # ulp of the coordinate magnitude and points land on the same center
        i, j = next((i, j) for i, j in np.argwhere(box_dist <= 0).tolist() if i != j)
        raise DepthOverflow(
            f"chain scales span more than float64 coordinates resolve; points "
            f"{space.labels[i]} and {space.labels[j]} collide"
        )
    coords.setflags(write=False)
    box_dist.setflags(write=False)
    # a box-norm image takes few values: each is logged once
    pairs = np.triu_indices(space.n, 1)
    log_d = _pair_logs(space.dist, pairs)[1]
    fitted = _holder_fit(log_d, per_distinct(math.log, box_dist[pairs]))
    return EmbeddingResult(N, coords, tuple(audits), fitted, chain, p, epsilon,
                           r_est, not eps_ok, box_dist, (space.dist, log_d))


def _box_matrix(coords) -> np.ndarray:
    """Box-norm (sup) distances between all pairs of embedded points, built
    one axis at a time in two n x n buffers. Subtraction, abs and max are
    exact and max does not depend on order, so the result is bit for bit
    the max over axes of the broadcast n x n x N differences."""
    n, N = coords.shape
    box = np.zeros((n, n))
    step = np.empty((n, n))
    for x in coords.T:
        np.subtract(x[:, None], x[None, :], out=step)
        np.abs(step, out=step)
        np.maximum(box, step, out=box)
    return box


def _closest(box) -> float:
    """The least off-diagonal entry of a box-norm matrix (inf below two
    points). The matrix is symmetric, so this is the least over pairs; its
    diagonal, x - x of finite coordinates, is +0.0 and is set back after."""
    if len(box) < 2:
        return math.inf
    np.fill_diagonal(box, math.inf)
    closest = float(box.min())
    np.fill_diagonal(box, 0.0)
    return closest


def _audit_level(chain, lvl, required, capacity, box, centers, prev, parent,
                 deltas, gammas, tol):
    """The audit of a level from its blocks' box matrix, cube centres and
    their parents'."""
    # the box gap of two cubes of radius delta is their centres' box distance
    # less 2 delta; subtracting one constant keeps the rounded minimum
    closest = _closest(box)
    min_gap = max(closest - 2 * deltas[lvl], 0.0) if math.isfinite(closest) else gammas[lvl]
    nested = commutes = True
    if lvl > 0:
        shift = np.abs(centers - prev[parent]).max(axis=1)
        nested = not (shift + deltas[lvl] > deltas[lvl - 1] + tol).any()
        commutes = bool((parent[chain.labels[lvl]] == chain.labels[lvl - 1]).all())
    return LevelAudit(int(chain.level_ids[lvl]), required, capacity, gammas[lvl],
                      min_gap, nested, commutes)


def select_embeddable_subchain(space: FiniteMetricSpace, chain: PartitionChain,
                               N: int) -> PartitionChain:
    """Greedy subsequence of levels the grid construction can realize in R^N.

    From each kept level, advance to the earliest later level whose required
    child count fits the capacity formula. The theorem only promises the
    construction for chains whose diameters decay fast enough per step;
    consecutive levels of slowly decaying families never fit, a subsequence
    does.
    """
    proper = chain.proper_indices()
    if not proper:
        raise ValueError("chain has no proper levels to embed")
    deltas = [as_float(st.delta) for st in chain.stats]
    gammas = [as_float(st.gamma) for st in chain.stats]
    picked = [proper[0]]
    while True:
        cur = picked[-1]
        found = next((nxt for nxt in range(cur + 1, len(chain))
                      if np.bincount(_parents(chain, cur, nxt)).max()
                      <= grid_capacity(deltas[cur], deltas[nxt], gammas[nxt], N)[1]), None)
        if found is None:
            break
        picked.append(found)
    if chain.stats[picked[-1]].cardinality < len(chain.order):
        required = int(np.bincount(chain.labels[picked[-1]]).max())
        raise PackingInfeasible(int(chain.level_ids[picked[-1]]), required, 0)
    # a kept level's split is the first kept level at or after the old one
    return PartitionChain._of_leaves(space, chain.order, np.searchsorted(picked, chain.h),
                                     len(picked), [chain.thresholds[i] for i in picked],
                                     [chain.level_ids[i] for i in picked])


def _parents(chain, coarse, fine) -> np.ndarray:
    """The block of level coarse that holds each block of level fine."""
    parent = np.empty(chain.stats[fine].cardinality, dtype=np.intp)
    parent[chain.labels[fine]] = chain.labels[coarse]
    return parent


@dataclass(frozen=True)
class DistortionReport:
    ok: bool
    burn_in: int | None  # chain position from which constants are asserted
    burn_in_level_id: int | None
    pairs_checked: int
    pairs_asserted: int
    box_sandwich_ok: bool
    worst_lower_slack: float
    worst_upper_slack: float
    target_exponent: float
    fitted: object

    def to_report(self) -> dict:
        return {
            "ok": self.ok,
            "burn_in": self.burn_in,
            "burn_in_level_id": self.burn_in_level_id,
            "pairs_checked": self.pairs_checked,
            "pairs_asserted": self.pairs_asserted,
            "box_sandwich_ok": self.box_sandwich_ok,
            "worst_lower_slack": self.worst_lower_slack,
            "worst_upper_slack": self.worst_upper_slack,
            "target_exponent": self.target_exponent,
            "fitted": self.fitted.to_report(),
        }


def verify_embedding_distortion(space: FiniteMetricSpace, result: EmbeddingResult,
                                p: float, epsilon: float,
                                burn_in: int | None = None,
                                tol: float = DEFAULT_TOL) -> DistortionReport:
    """Check the embedding against its stated bounds.

    For every pair: gamma_{split} <= ||f(x1) - f(x2)|| <= 2 delta_{split-1}
    (the structural box sandwich). For pairs split at or after the burn-in
    level, additionally assert

        a^(R+eps) d^(p(R+eps)) <= ||f(x1) - f(x2)|| <= 2 a^(-1/p) d^(1/(p(R+eps)))

    with a the chain's decay witness. Early levels are reported, not
    asserted: the constants are tail statements.
    """
    chain = result.chain
    log_a = _decay_witness(chain.stats, p)[1]
    r_est = result.R_est
    exponent = p * (r_est + epsilon)
    if burn_in is None:
        burn_in = _window_start(chain, r_est, epsilon)
    deltas = np.array([as_float(st.delta) for st in chain.stats])
    gammas = np.array([as_float(st.gamma) for st in chain.stats])
    pairs = np.triu_indices(space.n, 1)
    lvl = chain.split[pairs]
    norm = result.box_dist[pairs]
    log_norm = per_distinct(math.log, norm)  # a box-norm image takes few values
    box_ok = not ((norm < gammas[lvl] - tol).any()
                  or ((lvl > 0) & (norm > 2 * deltas[lvl - 1] + tol)).any())
    asserted = lvl >= burn_in if burn_in is not None else np.zeros(lvl.size, dtype=bool)
    embedded, log_d = result.d_logs
    if space.dist is not embedded:
        log_d = _pair_logs(space.dist, pairs)[1]
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, as in float arithmetic
        low = log_norm - ((r_est + epsilon) * log_a + exponent * log_d)
        up = (math.log(2) - log_a / p + log_d / exponent) - log_norm
    hit = _first_failure(pairs, asserted & (low < -LOG_SLACK), asserted & (up < -LOG_SLACK))
    if hit:
        k, pair, which = hit
        raise BoundViolated(pair, int(chain.level_ids[lvl[k]]), float((low, up)[which][k]))
    worst_low = float(np.min(low[asserted], initial=math.inf))
    worst_up = float(np.min(up[asserted], initial=math.inf))
    return DistortionReport(
        ok=box_ok,
        burn_in=burn_in,
        burn_in_level_id=None if burn_in is None else int(chain.level_ids[burn_in]),
        pairs_checked=int(lvl.size),
        pairs_asserted=int(asserted.sum()),
        box_sandwich_ok=box_ok,
        worst_lower_slack=worst_low if math.isfinite(worst_low) else math.nan,
        worst_upper_slack=worst_up if math.isfinite(worst_up) else math.nan,
        target_exponent=1.0 / exponent if exponent else math.nan,
        fitted=result.fitted,
    )


def image_ratio_report(space: FiniteMetricSpace, result: EmbeddingResult) -> dict:
    """Profile of the embedded point set under the box norm, reported next to
    the interval [R / (p (R + eps))^2, R (p (R + eps))^2].

    The interval is a limit statement about the image space; at finite depth
    the profile is reported alongside it without asserting containment. The
    image is rescaled to diameter 1 before profiling, which per-level ratios
    are not invariant under, so the report flags it.
    """
    box = result.box_dist
    diam = box.max()
    image = FiniteMetricSpace(space.labels, box / diam, _trusted=True)
    c = result.chain
    prof = profile(PartitionChain._of_leaves(image, c.order, c.h, len(c), c.thresholds,
                                             c.level_ids, c.split))
    spread = (result.p * (result.R_est + result.epsilon)) ** 2
    low = result.R_est / spread if math.isfinite(result.R_est) else 0.0
    return {
        "profile": prof.to_report(),
        "interval": [low, result.R_est * spread],
        "image_rescaled": True,
    }
