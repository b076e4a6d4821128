"""Partitions of finite spaces: diameter/gap/ratio statistics, threshold
partitions, single-linkage chains, ultrametric ball chains, associated
endpoints, largest gap, and chain classification.

Conventions for a partition a of a space with diameter <= 1:

  delta(a) = largest block diameter (0 when all blocks are singletons)
  gamma(a) = smallest distance between points of different blocks, or the
             space diameter when a has at most one block
  R(a)     = log gamma / log delta when both lie in (0, 1)
           = 0 when delta = 0
           = +inf when delta >= 1, or when delta in (0,1) and gamma >= 1
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._util import DEFAULT_TOL, as_float, flog
from .errors import NotNested, NotUltrametric
from .spaces import FiniteMetricSpace, is_ultrametric, subspace


class Partition:
    """Canonical partition: blocks sorted by least point index."""

    __slots__ = ("blocks", "block_of", "n_points", "space_ref")

    def __init__(self, blocks, n_points: int, space_ref: str | None = None):
        cleaned = sorted((tuple(sorted(b)) for b in blocks if len(b)), key=lambda b: b[0])
        seen: list[int] = []
        for b in cleaned:
            seen.extend(b)
        if sorted(seen) != list(range(n_points)):
            raise ValueError("blocks must be disjoint, nonempty, and cover all indices")
        self.blocks = tuple(cleaned)
        self.n_points = n_points
        self.space_ref = space_ref
        assign = np.empty(n_points, dtype=int)
        for bid, b in enumerate(cleaned):
            for i in b:
                assign[i] = bid
        assign.setflags(write=False)
        self.block_of = assign

    @classmethod
    def from_assignment(cls, assign, space_ref=None) -> "Partition":
        assign = list(assign)
        ids = sorted(set(assign))
        blocks = [[i for i, a in enumerate(assign) if a == want] for want in ids]
        return cls(blocks, len(assign), space_ref)

    @classmethod
    def trivial(cls, n_points: int) -> "Partition":
        return cls([range(n_points)], n_points)

    @classmethod
    def singletons(cls, n_points: int) -> "Partition":
        return cls([[i] for i in range(n_points)], n_points)

    @property
    def cardinality(self) -> int:
        return len(self.blocks)

    def refines(self, coarser: "Partition") -> bool:
        """True when every block of self sits inside one block of coarser."""
        if self.n_points != coarser.n_points:
            return False
        return all(
            len({coarser.block_of[i] for i in b}) == 1 for b in self.blocks
        )

    def __eq__(self, other):
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Partition({list(map(list, self.blocks))})"


@dataclass(frozen=True)
class PartitionStats:
    delta: object
    gamma: object
    log_ratio: float
    cardinality: int


def _log_ratio(delta, gamma) -> float:
    if delta == 0:
        return 0.0
    if delta >= 1 or gamma >= 1:
        return math.inf
    return flog(gamma) / flog(delta)


def partition_stats(space: FiniteMetricSpace, partition: Partition) -> PartitionStats:
    """Exact delta, gamma, and log ratio of a partition."""
    if partition.n_points != space.n:
        raise ValueError("partition does not match the space")
    m = space.dist
    delta = _zero_like(space)
    for b in partition.blocks:
        if len(b) > 1:
            block_diam = m[np.ix_(b, b)].max()
            if block_diam > delta:
                delta = block_diam
    if partition.cardinality <= 1:
        gamma = space.diameter
    else:
        same = partition.block_of[:, None] == partition.block_of[None, :]
        gamma = m[~same].min()
    return PartitionStats(delta, gamma, _log_ratio(delta, gamma), partition.cardinality)


def _zero_like(space: FiniteMetricSpace):
    return Fraction(0) if space.exact else 0.0


def threshold_partition(space: FiniteMetricSpace, t) -> Partition:
    """Components of the graph with edges {d(x, y) < t}; guarantees gamma >= t."""
    if t <= 0:
        raise ValueError("threshold must be positive")
    n = space.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    m = space.dist
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j] < t:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    return Partition.from_assignment([find(i) for i in range(n)])


@dataclass(frozen=True)
class PartitionChain:
    """Nested partitions, coarse to fine, with per-level stats.

    thresholds[i] is the merge radius that produced level i (None for levels
    not born from a merge, like a leading trivial partition). level_ids keeps
    external numbering for sampled families; defaults to positional indices.
    A level with delta = 0 (all singletons) is only allowed at the end.

    split[i, j] is the first level whose partition separates i and j, or
    len(levels) when none does (always on the diagonal). It is the chain's
    dendrogram: level l joins i and j exactly when l < split[i, j], so the
    stats, the chain ultrametrics and every pairwise check read it.
    """

    levels: tuple
    stats: tuple
    thresholds: tuple
    level_ids: tuple
    split: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def from_partitions(cls, space, levels, thresholds=None, level_ids=None) -> "PartitionChain":
        levels = tuple(levels)
        if not levels:
            raise ValueError("chain needs at least one level")
        for idx in range(1, len(levels)):
            if not levels[idx].refines(levels[idx - 1]):
                raise NotNested(idx)
        if levels[0].n_points != space.n:
            raise ValueError("partition does not match the space")
        split = np.zeros((space.n, space.n), dtype=np.int32)
        for p in levels:
            split += p.block_of[:, None] == p.block_of[None, :]
        split.setflags(write=False)
        stats = _chain_stats(space, levels, split)
        for idx, st in enumerate(stats[:-1]):
            if st.delta == 0 and levels[idx + 1] != levels[idx]:
                raise ValueError("all-singleton level is only allowed as the terminal level")
        if thresholds is None:
            thresholds = (None,) * len(levels)
        if level_ids is None:
            level_ids = tuple(range(len(levels)))
        return cls(levels, stats, tuple(thresholds), tuple(level_ids), split)

    def __len__(self):
        return len(self.levels)

    def proper_indices(self) -> list[int]:
        """Levels carrying log-ratio information: >= 2 blocks and delta > 0."""
        return [
            i for i, st in enumerate(self.stats)
            if st.cardinality >= 2 and st.delta > 0
        ]

    def to_report(self) -> dict:
        return {
            "levels": [
                {
                    "id": int(self.level_ids[i]),
                    "threshold": None if self.thresholds[i] is None else as_float(self.thresholds[i]),
                    "blocks": [list(map(int, b)) for b in self.levels[i].blocks],
                    "delta": as_float(st.delta),
                    "gamma": as_float(st.gamma),
                    "R": st.log_ratio,
                }
                for i, st in enumerate(self.stats)
            ]
        }


def _chain_stats(space: FiniteMetricSpace, levels: tuple, split: np.ndarray) -> tuple:
    """partition_stats of every level, read off the split matrix.

    delta of level l is the largest distance of a pair split after l, and
    gamma the smallest of a pair split at or before l: one grouped max/min
    over the upper triangle by split level, then a suffix max and a prefix
    min. Values stay matrix entries, so exact chains keep their Fractions.
    """
    upper = np.triu_indices(space.n, 1)
    keys = split[upper]
    order = np.argsort(keys)
    keys = keys[order]
    values = space.dist[upper][order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    at = keys[starts].tolist()
    top = dict(zip(at, np.maximum.reduceat(values, starts)))
    low = dict(zip(at, np.minimum.reduceat(values, starts)))
    deltas = []
    run = _zero_like(space)
    for key in range(len(levels), 0, -1):
        if key in top and top[key] > run:
            run = top[key]
        deltas.append(run)
    deltas.reverse()
    stats = []
    run = None
    for lvl, p in enumerate(levels):
        if lvl in low and (run is None or low[lvl] < run):
            run = low[lvl]
        gamma = run if p.cardinality > 1 else space.diameter
        stats.append(PartitionStats(deltas[lvl], gamma, _log_ratio(deltas[lvl], gamma),
                                    p.cardinality))
    return tuple(stats)


def with_singleton_terminal(space: FiniteMetricSpace, chain: PartitionChain) -> PartitionChain:
    """Append the all-singleton level when the chain does not separate points."""
    last = chain.levels[-1]
    if all(len(b) == 1 for b in last.blocks):
        return chain
    sing = Partition.singletons(space.n)
    return PartitionChain.from_partitions(
        space,
        chain.levels + (sing,),
        chain.thresholds + (None,),
        chain.level_ids + (chain.level_ids[-1] + 1,),
    )


def dendrogram_chain(space: FiniteMetricSpace) -> PartitionChain:
    """Full single-linkage merge chain from {X} down to singletons.

    Ties merge simultaneously; every level equals the threshold partition at
    its recorded radius, and its gamma equals that radius exactly.
    """
    n = space.n
    if n == 1:
        return PartitionChain.from_partitions(space, [Partition.trivial(1)])
    m = space.dist
    edges = sorted(
        (m[i, j], i, j) for i in range(n) for j in range(i + 1, n)
    )
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    snapshots = []  # (threshold, partition before merging at that threshold)
    pos = 0
    while pos < len(edges):
        w = edges[pos][0]
        group = []
        while pos < len(edges) and edges[pos][0] == w:
            group.append(edges[pos])
            pos += 1
        merges = [(i, j) for _, i, j in group if find(i) != find(j)]
        if not merges:
            continue
        snapshots.append((w, Partition.from_assignment([find(i) for i in range(n)])))
        for i, j in merges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    levels = [Partition.trivial(n)] + [p for _, p in reversed(snapshots)]
    thresholds = [None] + [w for w, _ in reversed(snapshots)]
    return PartitionChain.from_partitions(space, levels, thresholds)


def ball_chain(space: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> PartitionChain:
    """Closed-ball partitions of an ultrametric space, one level per value
    of the distance spectrum r_1 > r_2 > ...; level n has delta = r_n and
    gamma = r_{n-1}."""
    check = is_ultrametric(space, tol)
    if not check.ok:
        raise NotUltrametric(check.witness, check.violation)
    n = space.n
    if n == 1:
        return PartitionChain.from_partitions(space, [Partition.trivial(1)])
    m = space.dist
    values = sorted({m[i, j] for i in range(n) for j in range(i + 1, n)}, reverse=True)
    levels = []
    for r in values:
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(n):
            for j in range(i + 1, n):
                if m[i, j] <= r:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
        levels.append(Partition.from_assignment([find(i) for i in range(n)]))
    ids = tuple(range(1, len(levels) + 1))
    return PartitionChain.from_partitions(space, levels, [as_float(r) for r in values], ids)


def associated_endpoints(space: FiniteMetricSpace) -> list[tuple[tuple[int, int], object]]:
    """Pairs realizing the gap of some two-block clopen partition.

    (x1, x2) qualifies exactly when they fall in different components of the
    graph with edges {d < d(x1, x2)}.
    """
    n = space.n
    m = space.dist
    cache: dict[object, np.ndarray] = {}
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            t = m[i, j]
            if t not in cache:
                cache[t] = threshold_partition(space, t).block_of
            if cache[t][i] != cache[t][j]:
                out.append(((i, j), t))
    out.sort(key=lambda item: (as_float(item[1]), item[0]), reverse=True)
    return out


def largest_gap(space: FiniteMetricSpace, indices=None):
    """Largest associated-endpoint gap; equals the final single-linkage merge
    radius, i.e. the maximum minimum-spanning-tree edge weight. 0 for a point."""
    sub = space if indices is None else subspace(space, indices)
    n = sub.n
    if n < 2:
        return _zero_like(sub)
    m = sub.dist
    # Prim's algorithm; the bottleneck edge of the MST is the answer.
    in_tree = [0]
    best = {i: m[0, i] for i in range(1, n)}
    worst = _zero_like(sub)
    while best:
        nxt = min(best, key=lambda i: (as_float(best[i]), i))
        w = best.pop(nxt)
        if w > worst:
            worst = w
        in_tree.append(nxt)
        for i in best:
            if m[nxt, i] < best[i]:
                best[i] = m[nxt, i]
    return worst


@dataclass(frozen=True)
class ChainClassReport:
    delta_monotone: bool
    p: float
    p_witness: float
    log_p_witness: float
    R_sequence: tuple
    R_liminf_estimate: float
    dichotomy_flags: tuple

    def to_report(self) -> dict:
        return {
            "delta_monotone": self.delta_monotone,
            "p": self.p,
            "p_witness": self.p_witness,
            "log_p_witness": self.log_p_witness,
            "R_sequence": list(self.R_sequence),
            "R_liminf_estimate": self.R_liminf_estimate,
            "dichotomy_flags": list(self.dichotomy_flags),
        }


def classify_chain(chain: PartitionChain, p: float, tol: float = DEFAULT_TOL) -> ChainClassReport:
    """Witness constant a = min delta_{n+1} / delta_n^p over the chain, the
    per-level ratio sequence, and the gamma-versus-delta dichotomy flags.

    Transitions into a terminal all-singleton level are skipped; the witness
    concerns how fast positive diameters are allowed to decay.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    stats = chain.stats
    positive = [i for i, st in enumerate(stats) if st.delta > 0]
    if len(positive) < 2:
        raise ValueError("chain needs at least two levels with positive delta")
    log_witness = math.inf
    for a_idx, b_idx in zip(positive, positive[1:]):
        if b_idx != a_idx + 1:
            continue
        log_ratio = flog(stats[b_idx].delta) - p * flog(stats[a_idx].delta)
        log_witness = min(log_witness, log_ratio)
    try:
        witness = math.exp(log_witness)
    except OverflowError:
        witness = math.inf
    deltas = [st.delta for st in stats]
    delta_monotone = all(b <= a for a, b in zip(deltas, deltas[1:]))
    r_seq = tuple(st.log_ratio for st in stats)
    proper = chain.proper_indices()
    estimate = stats[proper[-1]].log_ratio if proper else 0.0
    flags = []
    for st in stats:
        diff = as_float(st.gamma) - as_float(st.delta)
        flags.append(0 if abs(diff) <= tol else (1 if diff > 0 else -1))
    return ChainClassReport(
        delta_monotone=delta_monotone,
        p=p,
        p_witness=witness,
        log_p_witness=log_witness,
        R_sequence=r_seq,
        R_liminf_estimate=estimate,
        dichotomy_flags=tuple(flags),
    )


def induced_partition(partition: Partition, indices) -> Partition:
    """Trace of a partition on a subset, re-indexed to 0..k-1."""
    idx = sorted(dict.fromkeys(int(i) for i in indices))
    pos = {orig: new for new, orig in enumerate(idx)}
    blocks = []
    for b in partition.blocks:
        kept = [pos[i] for i in b if i in pos]
        if kept:
            blocks.append(kept)
    return Partition(blocks, len(idx))


def induced_chain(space: FiniteMetricSpace, chain: PartitionChain, indices):
    """Restrict a chain to a subspace; returns (subspace, chain on it).

    Consecutive induced levels may coincide; refinement is preserved.
    """
    sub = subspace(space, indices)
    levels = [induced_partition(p, indices) for p in chain.levels]
    return sub, PartitionChain.from_partitions(sub, levels, chain.thresholds, chain.level_ids)


@dataclass(frozen=True)
class PushforwardReport:
    fit: object
    p: float
    p_prime: float
    a: float
    a_prime: float
    base_stats: tuple
    image_stats: tuple
    gamma_bounds_ok: bool
    delta_bounds_ok: bool


def pushforward_chain(space: FiniteMetricSpace, image: FiniteMetricSpace,
                      chain: PartitionChain, p: float, fit=None,
                      tol: float = DEFAULT_TOL) -> PushforwardReport:
    """Transport a chain through a bi-Holder distortion d -> d'.

    Given c1 d^t <= d' <= c2 d^s on all pairs, the image chain keeps the same
    partitions with p' = (t/s) p and witness a' = (c1 / c2^{p'}) a^t, and each
    level's gap obeys c1 gamma^t <= gamma' <= c2 gamma^s (same for delta).
    """
    from .ultrametrize import fit_holder_exponents, verify_holder_fit

    if fit is None:
        fit = fit_holder_exponents(space.dist, image.dist)
    verify_holder_fit(space.dist, image.dist, fit, tol=tol)
    base = classify_chain(chain, p, tol=tol)
    image_chain = PartitionChain.from_partitions(image, chain.levels, chain.thresholds,
                                                 chain.level_ids)
    p_prime = (fit.t / fit.s) * p
    a_prime = (fit.c1 / fit.c2 ** p_prime) * base.p_witness ** fit.t
    gamma_ok = True
    delta_ok = True
    for st_b, st_i in zip(chain.stats, image_chain.stats):
        g, gi = as_float(st_b.gamma), as_float(st_i.gamma)
        d, di = as_float(st_b.delta), as_float(st_i.delta)
        if not (fit.c1 * g ** fit.t <= gi * (1 + 1e-9) + tol
                and gi <= fit.c2 * g ** fit.s * (1 + 1e-9) + tol):
            gamma_ok = False
        if d > 0 and di > 0:
            if not (fit.c1 * d ** fit.t <= di * (1 + 1e-9) + tol
                    and di <= fit.c2 * d ** fit.s * (1 + 1e-9) + tol):
                delta_ok = False
    return PushforwardReport(fit, p, p_prime, base.p_witness, a_prime,
                             chain.stats, image_chain.stats, gamma_ok, delta_ok)
