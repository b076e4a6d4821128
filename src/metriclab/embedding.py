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
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._util import DEFAULT_TOL, as_float, as_floats
from .errors import BoundViolated, DepthOverflow, EmptyWindow, PackingInfeasible
from .logratio import profile
from .partitions import PartitionChain, _require_separating, classify_chain
from .spaces import FiniteMetricSpace
from .ultrametrize import (LOG_SLACK, _first_failure, _pair_logs, _window_start,
                           fit_holder_exponents)


def separated_count(space: FiniteMetricSpace, center: int, r1, r2) -> int:
    """Size of a maximal set with pairwise distances strictly above r2 inside
    the closed r1-ball around the center point.

    Greedy in point-index order; exact maximum by branch and bound when the
    ball holds at most 20 points.
    """
    if not 0 < r2 < r1:
        raise ValueError("need 0 < r2 < r1")
    m = space.dist
    ball = np.flatnonzero(as_floats(m[center]) <= as_float(r1)).tolist()
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
    m = space.dist
    if centers is None:
        if n <= 16:
            centers = list(range(n))
        else:
            step = max(1, n // 16)
            centers = list(range(0, n, step))[:16]
    d_pos = as_float(m[m > 0].min())
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
                   gamma_child: float, N: int, count: int):
    """First ``count`` grid centers (lex cell order) of child cubes in a parent."""
    per_axis, capacity = grid_capacity(delta_parent, delta_child, gamma_child, N)
    if count > capacity:
        raise PackingInfeasible(-1, count, capacity)
    pitch = 2 * delta_child + gamma_child
    low = np.asarray(center, dtype=float) - (delta_parent - delta_child)
    out = []
    for cell in product(range(per_axis), repeat=N):
        if len(out) == count:
            break
        out.append(low + pitch * np.asarray(cell, dtype=float))
    return out


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

    def box_distance(self, i: int, j: int) -> float:
        return float(np.max(np.abs(self.coords[i] - self.coords[j])))

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
    prof = profile(chain)
    r_est = prof.estimate
    eps_ok = math.isfinite(r_est) and r_est > 1 and 0 < epsilon < min(1.0, r_est - 1)
    deltas = [as_float(st.delta) for st in chain.stats]
    gammas = [as_float(st.gamma) for st in chain.stats]
    levels = chain.levels
    # Level 1: free minimal grid.
    first_blocks = levels[0].blocks
    count0 = len(first_blocks)
    side = 1
    while side ** N < count0:
        side += 1
    pitch0 = 2 * deltas[0] + gammas[0]
    centers: dict
    box_center = {}
    box_parent = {}
    cells = []
    for cell in product(range(side), repeat=N):
        if len(cells) == count0:
            break
        cells.append(cell)
    for block, cell in zip(first_blocks, cells):
        box_center[(0, block)] = pitch0 * np.asarray(cell, dtype=float)
        box_parent[(0, block)] = None
    audits = [_audit_level(chain, 0, None, None, box_center, box_parent, deltas, gammas, tol)]
    for lvl in range(1, len(levels)):
        per_axis, capacity = grid_capacity(deltas[lvl - 1], deltas[lvl], gammas[lvl], N)
        children_of = {}
        for block in levels[lvl].blocks:
            parent = _containing_block(levels[lvl - 1], block[0])
            children_of.setdefault(parent, []).append(block)
        required = max(len(v) for v in children_of.values())
        if required > capacity:
            raise PackingInfeasible(int(chain.level_ids[lvl]), required, capacity)
        for parent, kids in children_of.items():
            spots = place_children(box_center[(lvl - 1, parent)], deltas[lvl - 1],
                                   deltas[lvl], gammas[lvl], N, len(kids))
            for block, spot in zip(kids, spots):
                box_center[(lvl, block)] = spot
                box_parent[(lvl, block)] = parent
        audits.append(_audit_level(chain, lvl, required, capacity, box_center,
                                   box_parent, deltas, gammas, tol))
    coords = np.empty((space.n, N))
    for block in levels[-1].blocks:
        coords[block[0]] = box_center[(len(levels) - 1, block)]
    coords.setflags(write=False)
    box_dist = _box_matrix(coords)
    collide = box_dist + np.eye(space.n)
    if (collide <= 0).any():
        # scale span exceeds float64 resolution: deep offsets fall below the
        # ulp of the coordinate magnitude and points land on the same center
        i, j = map(int, np.argwhere(collide <= 0)[0])
        raise DepthOverflow(
            f"chain scales span more than float64 coordinates resolve; points "
            f"{space.labels[i]} and {space.labels[j]} collide"
        )
    fitted = fit_holder_exponents(space.dist, box_dist)
    return EmbeddingResult(N, coords, tuple(audits), fitted, chain, p, epsilon,
                           r_est, not eps_ok)


def _box_matrix(coords) -> np.ndarray:
    """Box-norm (sup) distances between all pairs of embedded points."""
    return np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2)


def _containing_block(partition, point):
    return partition.blocks[partition.block_of[point]]


def _audit_level(chain, lvl, required, capacity, box_center, box_parent,
                 deltas, gammas, tol):
    blocks = chain.levels[lvl].blocks
    # the box gap of two cubes of radius delta is their centres' box distance
    # less 2 delta; subtracting one constant keeps the rounded minimum
    centers = np.array([box_center[(lvl, b)] for b in blocks])
    between = _box_matrix(centers)[np.triu_indices(len(blocks), 1)]
    min_gap = max(float(between.min()) - 2 * deltas[lvl], 0.0) if len(between) else math.inf
    nested = True
    commutes = True
    if lvl > 0:
        for block in blocks:
            parent = box_parent[(lvl, block)]
            if parent != _containing_block(chain.levels[lvl - 1], block[0]):
                commutes = False
            shift = np.abs(box_center[(lvl, block)] - box_center[(lvl - 1, parent)]).max()
            if shift + deltas[lvl] > deltas[lvl - 1] + tol:
                nested = False
    if required is None:
        required = len(blocks)
    return LevelAudit(int(chain.level_ids[lvl]), required, capacity, gammas[lvl],
                      min_gap if math.isfinite(min_gap) else gammas[lvl],
                      nested, commutes)


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
    cur = proper[0]
    while True:
        found = None
        for nxt in range(cur + 1, len(chain)):
            required = _transition_required(chain, cur, nxt)
            _, capacity = grid_capacity(deltas[cur], deltas[nxt], gammas[nxt], N)
            if required <= capacity:
                found = nxt
                break
        if found is None:
            break
        picked.append(found)
        cur = found
    if chain.stats[picked[-1]].cardinality < len(chain.split):
        required = int(np.bincount(chain.labels[picked[-1]]).max())
        raise PackingInfeasible(int(chain.level_ids[picked[-1]]), required, 0)
    return PartitionChain._from_split(
        space,
        np.searchsorted(picked, chain.split, side="left"),
        [chain.thresholds[i] for i in picked],
        [chain.level_ids[i] for i in picked],
    )


def _transition_required(chain, coarse, fine) -> int:
    """The most blocks of level fine inside one block of level coarse."""
    parent = np.empty(chain.stats[fine].cardinality, dtype=np.intp)
    parent[chain.labels[fine]] = chain.labels[coarse]
    return int(np.bincount(parent).max())


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
    if len([st for st in chain.stats if st.delta > 0]) >= 2:
        log_a = classify_chain(chain, p).log_p_witness
    else:
        # single-scale chain: no decay transitions, and no proper level can
        # open a burn-in window, so the constants are never asserted
        log_a = math.inf
    r_est = result.R_est
    exponent = p * (r_est + epsilon)
    if burn_in is None:
        burn_in = _window_start(chain, r_est, epsilon)
    deltas = np.array([as_float(st.delta) for st in chain.stats])
    gammas = np.array([as_float(st.gamma) for st in chain.stats])
    lvl = chain.split[np.triu_indices(space.n, 1)]
    norm, log_norm = _pair_logs(_box_matrix(result.coords))
    box_ok = not ((norm < gammas[lvl] - tol).any()
                  or ((lvl > 0) & (norm > 2 * deltas[lvl - 1] + tol)).any())
    asserted = lvl >= burn_in if burn_in is not None else np.zeros(lvl.size, dtype=bool)
    _, log_d = _pair_logs(space.dist)
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, as in float arithmetic
        low = log_norm - ((r_est + epsilon) * log_a + exponent * log_d)
        up = (math.log(2) - log_a / p + log_d / exponent) - log_norm
    hit = _first_failure(space.n, asserted & (low < -LOG_SLACK), asserted & (up < -LOG_SLACK))
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
    box = _box_matrix(result.coords)
    diam = box.max()
    image = FiniteMetricSpace(space.labels, box / diam, _trusted=True)
    chain = PartitionChain._from_split(image, result.chain.split, result.chain.thresholds,
                                       result.chain.level_ids)
    prof = profile(chain)
    spread = (result.p * (result.R_est + result.epsilon)) ** 2
    low = result.R_est / spread if math.isfinite(result.R_est) else 0.0
    return {
        "profile": prof.to_report(),
        "interval": [low, result.R_est * spread],
        "image_rescaled": True,
    }
