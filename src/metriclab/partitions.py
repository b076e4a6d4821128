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
from functools import cached_property

import numpy as np

from ._util import DEFAULT_TOL, as_float, flog
from .errors import NotNested, NotSeparating, NotUltrametric
from .spaces import (FiniteMetricSpace, _merge_ranks, _prim, _subdominant, _zero,
                     is_ultrametric, subspace)


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
        blocks: dict = {}
        for i, a in enumerate(assign):
            blocks.setdefault(a, []).append(i)
        return cls(blocks.values(), len(assign), space_ref)

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
    (delta,), (gamma,) = _label_stats(space, partition.block_of[None])
    return PartitionStats(delta, gamma, _log_ratio(delta, gamma), partition.cardinality)


_CHUNK_ENTRIES = 1 << 20  # label pairs compared at once by _label_stats


def _label_stats(space: FiniteMetricSpace, labels) -> tuple[np.ndarray, np.ndarray]:
    """delta and gamma of every row of a (B, n) array of block labels.

    The upper-triangle pairs are sorted by distance once; per row, delta is
    the last same-block pair (the zero of the mode when there is none) and
    gamma the first pair across blocks (the space diameter for one block).
    Both come back as object arrays of the matrix entries themselves, so a
    float space yields np.float64 and an exact one Fraction. Rows are
    compared in chunks of about _CHUNK_ENTRIES pairs, so the temporaries
    stay O(B + n^2) however many rows there are.
    """
    labels = np.asarray(labels)
    i, j = np.triu_indices(space.n, 1)
    order = np.argsort(space.dist[i, j])
    i, j = i[order], j[order]
    pairs = len(order)
    delta_at = np.full(len(labels), pairs, dtype=np.intp)
    gamma_at = np.full(len(labels), pairs + 1, dtype=np.intp)
    step = max(1, _CHUNK_ENTRIES // max(pairs, 1))
    for lo in range(0, len(labels) if pairs else 0, step):  # no pairs: defaults hold
        rows = labels[lo:lo + step]
        same = rows[:, i] == rows[:, j]
        last = pairs - 1 - np.argmax(same[:, ::-1], axis=1)
        first = np.argmin(same, axis=1)
        hit = np.arange(len(rows))
        delta_at[lo:lo + step] = np.where(same[hit, last], last, pairs)
        gamma_at[lo:lo + step] = np.where(same[hit, first], pairs + 1, first)
    used = np.union1d(delta_at, gamma_at)
    used = used[used < pairs]
    table = np.empty(pairs + 2, dtype=object)
    table[used] = list(space.dist[i[used], j[used]])  # only the entries a row reads
    table[pairs] = _zero(space.exact)
    table[pairs + 1] = space.diameter
    return table[delta_at], table[gamma_at]


def threshold_partition(space: FiniteMetricSpace, t) -> Partition:
    """Components of the graph with edges {d(x, y) < t}; guarantees gamma >= t.
    They are those of the spanning-tree edges shorter than t, found in one
    pass down the Prim order (parents come first)."""
    if t <= 0:
        raise ValueError("threshold must be positive")
    order, parent, weight = _prim(space.dist)
    label = list(range(space.n))
    for v, p, keep in zip(order[1:].tolist(), parent[1:].tolist(), (weight[1:] < t).tolist()):
        if keep:
            label[v] = label[p]
    return Partition.from_assignment(label)


@dataclass(frozen=True, eq=False)
class PartitionChain:
    """Nested partitions, coarse to fine, with per-level stats.

    split[i, j] is the first level whose partition separates i and j, or
    len(chain) when none does (always on the diagonal): the chain's one
    datum, its dendrogram in level units. Level l joins i and j exactly when
    l < split[i, j]; the stats and every pairwise check read split, and
    labels and levels are views of it, built on first use. Chains are equal
    when split, stats, thresholds and level_ids are.

    thresholds[i] is the merge radius that produced level i (None for levels
    not born from a merge, like a leading trivial partition). level_ids keeps
    external numbering for sampled families; defaults to positional indices.
    """

    split: np.ndarray = field(repr=False)
    stats: tuple
    thresholds: tuple
    level_ids: tuple

    @classmethod
    def from_partitions(cls, space, levels, thresholds=None, level_ids=None) -> "PartitionChain":
        """The chain of untrusted partitions, checked to nest."""
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
        return cls._from_split(space, split, thresholds, level_ids)

    @classmethod
    def _from_split(cls, space, split, thresholds=None, level_ids=None) -> "PartitionChain":
        """The chain of a nested split matrix; its diagonal is the level count."""
        split = np.asarray(split, dtype=np.int32)
        if split.shape != (space.n, space.n):
            raise ValueError("chain does not match the space")
        split.setflags(write=False)
        length = int(split[0, 0])
        thresholds = (None,) * length if thresholds is None else tuple(thresholds)
        level_ids = tuple(range(length)) if level_ids is None else tuple(level_ids)
        return cls(split, _chain_stats(space, split), thresholds, level_ids)

    def __eq__(self, other):
        return (isinstance(other, PartitionChain) and np.array_equal(self.split, other.split)
                and (self.stats, self.thresholds, self.level_ids)
                == (other.stats, other.thresholds, other.level_ids))

    def __hash__(self):
        return hash((self.stats, self.thresholds, self.level_ids))

    def __len__(self):
        return len(self.stats)

    @cached_property
    def labels(self) -> np.ndarray:
        """(L, n) block ids, each level's blocks numbered by least member.
        Point i leads its block from level _leads(split)[i] on; before, it
        shares the block of the first j < i joined to it longest."""
        lvl = np.arange(len(self))
        leads = _leads(self.split)
        parent = np.argmax(np.tril(self.split == leads[:, None], -1), axis=1)
        rows = np.zeros((len(leads), len(self)), dtype=np.intp)  # point by point
        seen = np.zeros(len(self), dtype=np.intp)  # per level, the blocks led before i
        for i, (lead, up) in enumerate(zip(leads.tolist(), parent.tolist())):
            rows[i] = np.where(lvl >= lead, seen, rows[up])
            seen[lead:] += 1
        labels = np.ascontiguousarray(rows.T)
        labels.setflags(write=False)
        return labels

    @cached_property
    def levels(self) -> tuple:
        """The partitions, coarse to fine."""
        return tuple(Partition.from_assignment(row) for row in self.labels.tolist())

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


def _leads(split: np.ndarray) -> np.ndarray:
    """max over j < i of split[i, j]: point i is the least member of its
    block at every level from this one on (0 for point 0)."""
    return np.tril(split, -1).max(axis=1)


def _chain_stats(space: FiniteMetricSpace, split: np.ndarray) -> tuple:
    """partition_stats of every level, read off the split matrix.

    delta of level l is the largest distance of a pair split after l, and
    gamma the smallest of a pair split at or before l: one grouped max/min
    over the upper triangle by split level, then a suffix max and a prefix
    min. The cardinality of level l counts the points that lead a block at
    l. Values stay matrix entries, so exact chains keep their Fractions.
    """
    length = int(split[0, 0])
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
    run = _zero(space.exact)
    for key in range(length, 0, -1):
        if key in top and top[key] > run:
            run = top[key]
        deltas.append(run)
    deltas.reverse()
    cards = np.searchsorted(np.sort(_leads(split)), np.arange(length), side="right").tolist()
    stats = []
    run = None
    for lvl, card in enumerate(cards):
        if lvl in low and (run is None or low[lvl] < run):
            run = low[lvl]
        gamma = run if card > 1 else space.diameter
        stats.append(PartitionStats(deltas[lvl], gamma, _log_ratio(deltas[lvl], gamma), card))
    return tuple(stats)


def _require_separating(chain: PartitionChain) -> None:
    """Raise NotSeparating on the first row-major pair the last level joins."""
    if chain.stats[-1].cardinality < len(chain.split):
        i, j = np.argwhere(np.triu(chain.split == len(chain), 1))[0].tolist()
        raise NotSeparating((i, j))


def with_singleton_terminal(space: FiniteMetricSpace, chain: PartitionChain) -> PartitionChain:
    """Append the all-singleton level when the chain does not separate points.

    The pairs the chain never separated are split at the new level, so
    split only gains a raised diagonal.
    """
    if chain.stats[-1].cardinality == len(chain.split):
        return chain
    split = chain.split.copy()
    np.fill_diagonal(split, len(chain) + 1)
    return PartitionChain._from_split(space, split, chain.thresholds + (None,),
                                      chain.level_ids + (chain.level_ids[-1] + 1,))


def dendrogram_chain(space: FiniteMetricSpace) -> PartitionChain:
    """Full single-linkage merge chain from {X} down to singletons.

    Ties merge simultaneously; every level equals the threshold partition at
    its recorded radius, and its gamma equals that radius exactly. There is
    one level per distinct minimum-spanning-tree edge length r, joined by the
    tree edges shorter than r, so a pair stays joined through one level per
    height above its subdominant distance.
    """
    heights, top = _merge_ranks(space.dist)
    return PartitionChain._from_split(space, len(heights) - top, [None] + list(heights[:0:-1]))


def ball_chain(space: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> PartitionChain:
    """Closed-ball partitions of an ultrametric space, one level per value
    of the distance spectrum r_1 > r_2 > ...; level n has delta = r_n and
    gamma = r_{n-1}. Level n joins the pairs whose subdominant distance is
    at most r_n (the components of the tree edges up to r_n)."""
    check = is_ultrametric(space, tol)
    if not check.ok:
        raise NotUltrametric(check.witness, check.violation)
    if space.n == 1:
        return PartitionChain._from_split(space, [[1]])
    spectrum = np.unique(space.dist[np.triu_indices(space.n, 1)])
    heights, top = _merge_ranks(space.dist)
    joined = len(spectrum) - np.searchsorted(spectrum, heights, side="left")
    return PartitionChain._from_split(space, joined[top], [as_float(r) for r in spectrum[::-1]],
                                      range(1, len(spectrum) + 1))


def associated_endpoints(space: FiniteMetricSpace) -> list[tuple[tuple[int, int], object]]:
    """Pairs realizing the gap of some two-block clopen partition.

    (x1, x2) qualifies exactly when they fall in different components of the
    graph with edges {d < d(x1, x2)}, that is when the subdominant
    ultrametric equals d on the pair.
    """
    m = space.dist
    rows, cols = np.nonzero(np.triu(m == _subdominant(m), 1))
    out = [((i, j), m[i, j]) for i, j in zip(rows.tolist(), cols.tolist())]
    out.sort(key=lambda item: (as_float(item[1]), item[0]), reverse=True)
    return out


def largest_gap(space: FiniteMetricSpace, indices=None):
    """Largest associated-endpoint gap; equals the final single-linkage merge
    radius, i.e. the maximum minimum-spanning-tree edge weight. 0 for a point."""
    sub = space if indices is None else subspace(space, indices)
    if sub.n < 2:
        return _zero(sub.exact)
    return _prim(sub.dist)[2].max()


def _block_extents(space: FiniteMetricSpace, chain: PartitionChain):
    """Diameter and largest gap of every block of every level of a chain.

    Returns (diameters, gaps, connected): one array per level, indexed like
    that level's blocks. An item with split key k lies inside one block of
    every level before k, so one bottom-up pass gives each block the
    reduction of its children plus the items first split at the next level:
      - the diameter is the largest pair inside the block;
      - the largest gap reads the whole space's spanning tree. When the
        tree edges inside a block B number |B| - 1, they connect B and, by
        the cut property, form a minimum spanning tree of B, so its largest
        edge is B's largest gap and connected is True. Dendrogram, ball and
        zoo chains have only such blocks; any other block's gap is not in
        gaps, and largest_gap(space, b) gives it.
    Values are matrix entries (the zero of the mode for a singleton) and
    are only compared, so exact chains never go through floats.
    """
    n = space.n
    if chain.split.shape != (n, n):
        raise ValueError("chain does not match the space")
    labels = chain.labels
    leads = _leads(chain.split)
    length = len(chain)
    zero = _zero(space.exact)

    def bottom_up(ufunc, ends, keys, values, fill):
        order = np.argsort(keys, kind="stable")
        ends, values = ends[order], values[order]
        starts = np.searchsorted(keys[order], np.arange(length + 2))
        out = [None] * length
        for lvl in range(length - 1, -1, -1):
            acc = np.full(chain.stats[lvl].cardinality, fill, dtype=values.dtype)
            if lvl + 1 < length:  # the least members of the children, in block order
                ufunc.at(acc, labels[lvl][leads <= lvl + 1], out[lvl + 1])
            lo, hi = starts[lvl + 1], starts[lvl + 2]
            ufunc.at(acc, labels[lvl][ends[lo:hi]], values[lo:hi])
            out[lvl] = acc
        return out

    i, j = np.triu_indices(n, 1)
    diameters = bottom_up(np.maximum, i, chain.split[i, j], space.dist[i, j], zero)
    order, parent, weight = _prim(space.dist)
    tree_keys = chain.split[order[1:], parent[1:]]
    gaps = bottom_up(np.maximum, order[1:], tree_keys, weight[1:], zero)
    edges = bottom_up(np.add, order[1:], tree_keys, np.ones(n - 1, dtype=np.intp), 0)
    connected = [e == np.bincount(row) - 1 for e, row in zip(edges, labels)]
    return diameters, gaps, connected


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
    idx = sorted(dict.fromkeys(int(i) for i in indices))
    return sub, PartitionChain._from_split(sub, chain.split[np.ix_(idx, idx)],
                                           chain.thresholds, chain.level_ids)


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
    image_chain = PartitionChain._from_split(image, chain.split, chain.thresholds,
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
