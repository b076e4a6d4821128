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

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._util import DEFAULT_TOL, as_float, flog
from .errors import NotNested, NotSeparating, NotUltrametric
from .spaces import (FiniteMetricSpace, _gather, _leaf_matrix, _rank_bound, _spanning_tree,
                     _subdominant, _zero, is_ultrametric, subspace)


class Partition:
    """A partition as its canonical label row block_of, blocks numbered by
    least member, and blocks, their members ascending. The constructor drops
    empty blocks; the rest must be disjoint and cover 0..n_points-1."""

    __slots__ = ("blocks", "block_of")

    def __init__(self, blocks, n_points: int):
        blocks = list(blocks)
        members = np.fromiter(itertools.chain.from_iterable(blocks), np.intp)
        if not np.array_equal(np.sort(members), np.arange(n_points)):
            raise ValueError("blocks must be disjoint, nonempty, and cover all indices")
        assign = np.empty(n_points, dtype=np.intp)
        assign[members] = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        self._label(assign)

    def _label(self, assign) -> None:
        """Number the blocks of an assignment by least member, by one np.unique."""
        _, first, inverse = np.unique(assign, return_index=True, return_inverse=True)
        self.block_of = np.argsort(np.argsort(first))[inverse]
        self.block_of.setflags(write=False)
        self.blocks = tuple(map(tuple, _blocks(self.block_of)))

    @classmethod
    def from_assignment(cls, assign) -> "Partition":
        part = cls.__new__(cls)
        part._label(assign)
        return part

    @classmethod
    def trivial(cls, n_points: int) -> "Partition":
        return cls.from_assignment(np.zeros(n_points, dtype=np.intp))

    @classmethod
    def singletons(cls, n_points: int) -> "Partition":
        return cls.from_assignment(np.arange(n_points))

    @property
    def n_points(self) -> int:
        return len(self.block_of)

    @property
    def cardinality(self) -> int:
        return len(self.blocks)

    def refines(self, coarser: "Partition") -> bool:
        """True when every block of self sits inside one block of coarser:
        there are as many distinct (own, coarser) label pairs as own labels."""
        return self.n_points == coarser.n_points and len(np.unique(
            self.block_of * coarser.cardinality + coarser.block_of)) == self.cardinality

    def __eq__(self, other):
        return isinstance(other, Partition) and np.array_equal(self.block_of, other.block_of)

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Partition({list(map(list, self.blocks))})"


def _blocks(labels) -> list[list[int]]:
    """The members of each block of canonical labels, ascending, in label
    order: one stable argsort, cut at the running block sizes."""
    members = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [members[lo:hi] for lo, hi in zip([0] + ends, ends)]


@dataclass(frozen=True)
class PartitionStats:
    delta: object
    gamma: object
    log_ratio: float
    cardinality: int


def _log_ratio(delta, gamma) -> float:
    """R of a partition from its delta and gamma. A Fraction is tested
    against 0 and 1 by its numerator and denominator, so no Fraction
    comparison is made."""
    if not delta:
        return 0.0
    if _at_least_one(delta) or _at_least_one(gamma):
        return math.inf
    return flog(gamma) / flog(delta)


def _at_least_one(x) -> bool:
    return x.numerator >= x.denominator if isinstance(x, Fraction) else x >= 1


def partition_stats(space: FiniteMetricSpace, partition: Partition) -> PartitionStats:
    """Exact delta, gamma, and log ratio of a partition."""
    if partition.n_points != space.n:
        raise ValueError("partition does not match the space")
    (delta,), (gamma,) = _label_stats(space, partition.block_of[None])
    return PartitionStats(delta, gamma, _log_ratio(delta, gamma), partition.cardinality)


_CHUNK_ENTRIES = 1 << 20  # label pairs compared at once by _label_stats


def _label_stats(space: FiniteMetricSpace, labels) -> tuple[np.ndarray, np.ndarray]:
    """delta and gamma of every row of a (B, n) array of block labels.

    The upper-triangle pairs are sorted by rank once; per row, delta is
    the last same-block pair (the zero of the mode when there is none) and
    gamma the first pair across blocks (the space diameter for one block).
    Both come back as object arrays of the matrix entries themselves, so a
    float space yields np.float64 and an exact one Fraction. Rows are
    compared in chunks of about _CHUNK_ENTRIES pairs, so the temporaries
    stay O(B + n^2) however many rows there are.
    """
    labels = np.asarray(labels)
    i, j = np.triu_indices(space.n, 1)
    order = np.argsort(space.rank[i, j])
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
    They are those of the spanning-tree edges shorter than t: the runs of
    the Prim order cut where a weight of at least t attaches a point."""
    if t <= 0:
        raise ValueError("threshold must be positive")
    order, _, weight = _spanning_tree(space)
    return Partition.from_assignment(np.cumsum(weight >= _rank_bound(space, t))[np.argsort(order)])


@dataclass(frozen=True, eq=False)
class PartitionChain:
    """Nested partitions, coarse to fine, with per-level stats.

    The datum is a leaf order, in which every block of every level is a
    run, and h[p], the first level that separates order[p] and order[p + 1]
    (len(chain) when none does). A chain of length L is the dendrogram of
    the pseudo-ultrametric L - split (Carlsson & Memoli 2010), so
    split[order[p], order[q]] = min(h[p..q-1]). split, labels and levels are
    read-only views built on first use: level l joins i and j exactly when
    l < split[i, j], and its blocks are the runs of order cut where h <= l.
    Chains are equal when split, stats, thresholds and level_ids are.

    thresholds[i] is the merge radius that produced level i (None for levels
    not born from a merge, like a leading trivial partition). level_ids keeps
    external numbering for sampled families; defaults to positional indices.
    """

    order: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    stats: tuple
    thresholds: tuple
    level_ids: tuple

    @classmethod
    def from_partitions(cls, space, levels, thresholds=None, level_ids=None) -> "PartitionChain":
        """The chain of untrusted partitions, checked to nest. A sort by
        labels, coarsest first, keeps blocks in runs; a pair of adjacent
        points splits after the levels they agree on."""
        levels = tuple(levels)
        if not levels:
            raise ValueError("chain needs at least one level")
        for idx in range(1, len(levels)):
            if not levels[idx].refines(levels[idx - 1]):
                raise NotNested(idx)
        if levels[0].n_points != space.n:
            raise ValueError("partition does not match the space")
        rows = np.array([p.block_of for p in levels])
        order = np.lexsort(rows[::-1])
        agree = (rows[:, order[:-1]] == rows[:, order[1:]]).sum(axis=0)
        return cls._of_leaves(space, order, agree, len(levels), thresholds, level_ids)

    @classmethod
    def _of_leaves(cls, space, order, h, length, thresholds=None, level_ids=None,
                   split=None) -> "PartitionChain":
        """The chain of a leaf order and its adjacent split levels, with the
        stats read off its split view (split, when the caller holds it)."""
        order, h = np.asarray(order, dtype=np.intp), np.asarray(h, dtype=np.int32)
        if len(order) != space.n:
            raise ValueError("chain does not match the space")
        split = _leaf_matrix(order, h, np.minimum, length) if split is None else split
        thresholds = (None,) * length if thresholds is None else tuple(thresholds)
        level_ids = tuple(range(length)) if level_ids is None else tuple(level_ids)
        order.setflags(write=False)
        h.setflags(write=False)
        return _holding(split, cls(order, h, _chain_stats(space, split, h), thresholds, level_ids))

    def __eq__(self, other):
        return (isinstance(other, PartitionChain) and np.array_equal(self.split, other.split)
                and (self.stats, self.thresholds, self.level_ids)
                == (other.stats, other.thresholds, other.level_ids))

    def __hash__(self):
        return hash((self.stats, self.thresholds, self.level_ids))

    def __len__(self):
        return len(self.stats)

    @cached_property
    def split(self) -> np.ndarray:
        """(n, n): the first level that separates i and j, or len(chain)."""
        return _leaf_matrix(self.order, self.h, np.minimum, len(self))

    @cached_property
    def labels(self) -> np.ndarray:
        """(L, n) block ids, each level's blocks numbered by least member:
        a run's least member leads its block, whose number counts the
        leaders before it."""
        n, length = len(self.order), len(self)
        # over flat (level, leaf) positions: where each run starts, and the
        # flat (level, point) index of its least member
        starts = np.flatnonzero(np.insert(self.h <= np.arange(length)[:, None], 0, True, axis=1))
        led = starts // n * n + np.minimum.reduceat(np.tile(self.order, length), starts)
        number = np.cumsum(np.bincount(led, minlength=length * n).reshape(length, n), axis=1) - 1
        of_leaf = np.repeat(led, np.diff(starts, append=length * n))  # each leaf's run leader
        labels = np.take(number.reshape(-1)[of_leaf].reshape(length, n), np.argsort(self.order),
                         axis=1)
        labels.setflags(write=False)
        return labels

    @cached_property
    def levels(self) -> tuple:
        """The partitions, coarse to fine: a view of labels that no kernel reads."""
        return tuple(Partition.from_assignment(row) for row in self.labels)

    def proper_indices(self) -> list[int]:
        """Levels carrying log-ratio information: >= 2 blocks and delta > 0."""
        return [i for i, st in enumerate(self.stats) if st.cardinality >= 2 and st.delta > 0]

    def to_report(self) -> dict:
        return {
            "levels": [
                {
                    "id": int(self.level_ids[i]),
                    "threshold": None if self.thresholds[i] is None else as_float(self.thresholds[i]),
                    "blocks": _blocks(self.labels[i]),
                    "delta": as_float(st.delta),
                    "gamma": as_float(st.gamma),
                    "R": st.log_ratio,
                }
                for i, st in enumerate(self.stats)
            ]
        }


def _holding(split, chain: PartitionChain) -> PartitionChain:
    """chain, its split view set to split (where cached_property keeps it)."""
    chain.__dict__["split"] = split
    return chain


def _level_ranks(space: FiniteMetricSpace, split: np.ndarray):
    """(delta, gamma): per level, the rank of the largest distance of a pair
    split after it (0 when none is) and of the smallest of a pair split at
    or before it (inf when none is). One grouped max/min of the ranks over
    the upper triangle by split level, then a suffix max and a prefix min."""
    length = int(split[0, 0])
    upper = np.triu_indices(space.n, 1)
    keys = split[upper]
    ranks = space.rank[upper]
    top = np.zeros(length + 1)
    np.maximum.at(top, keys, ranks)
    low = np.full(length + 1, np.inf)
    np.minimum.at(low, keys, ranks)
    return np.maximum.accumulate(top[::-1])[-2::-1], np.minimum.accumulate(low)[:length]


def _chain_stats(space: FiniteMetricSpace, split: np.ndarray, h: np.ndarray) -> tuple:
    """partition_stats of every level, read off the split matrix.

    The extremes run on ranks (_level_ranks), and each level's delta and
    gamma are gathered once, so exact chains keep their Fractions without
    comparing any. Level l has 1 + #{h <= l} blocks, the runs of the leaf
    order; a level of one block has the space diameter as gamma.
    """
    delta, gamma = _level_ranks(space, split)
    cards = 1 + np.searchsorted(np.sort(h), np.arange(len(delta)), side="right")
    zero = _zero(space.exact)
    deltas = [v if r else zero for r, v in zip(delta.tolist(), _gather(space.values, delta))]
    gammas = [g if card > 1 else space.diameter for g, card
              in zip(_gather(space.values, np.where(cards > 1, gamma, 0.0)), cards.tolist())]
    return tuple(PartitionStats(d, g, _log_ratio(d, g), card)
                 for d, g, card in zip(deltas, gammas, cards.tolist()))


def _require_separating(chain: PartitionChain) -> None:
    """Raise NotSeparating on the first row-major pair the last level joins."""
    if chain.stats[-1].cardinality < len(chain.order):
        i, j = np.argwhere(np.triu(chain.split == len(chain), 1))[0].tolist()
        raise NotSeparating((i, j))


def with_singleton_terminal(space: FiniteMetricSpace, chain: PartitionChain) -> PartitionChain:
    """Append the all-singleton level when the chain does not separate points.

    The pairs the chain never separated are split at the new level, so h and
    the old levels' stats stay, and the source's split view is handed on
    with a raised diagonal. The new level has delta zero and, as gamma, the
    smallest pair of the space.
    """
    if len(chain.order) != space.n:
        raise ValueError("chain does not match the space")
    if chain.stats[-1].cardinality == space.n:
        return chain
    split = chain.split.copy()
    np.fill_diagonal(split, len(chain) + 1)
    split.setflags(write=False)
    gamma = _gather(space.values, space.rank[np.triu_indices(space.n, 1)].min())
    terminal = PartitionStats(_zero(space.exact), gamma, 0.0, space.n)
    return _holding(split, PartitionChain(chain.order, chain.h, chain.stats + (terminal,),
                                          chain.thresholds + (None,),
                                          chain.level_ids + (chain.level_ids[-1] + 1,)))


def dendrogram_chain(space: FiniteMetricSpace) -> PartitionChain:
    """Full single-linkage merge chain from {X} down to singletons.

    Ties merge simultaneously; every level equals the threshold partition at
    its recorded radius, and its gamma equals that radius exactly. There is
    one level per distinct minimum-spanning-tree edge length r, joined by the
    tree edges shorter than r, so a pair stays joined through one level per
    height above its subdominant distance: adjacent leaves of the Prim order
    split at the count of heights from the later one's weight up.
    """
    order, _, weight = _spanning_tree(space)
    heights, rank = np.unique(weight, return_inverse=True)
    return PartitionChain._of_leaves(space, order, len(heights) - rank[1:], len(heights),
                                     [None] + list(_gather(space.values, heights[:0:-1])))


def ball_chain(space: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> PartitionChain:
    """Closed-ball partitions of an ultrametric space, one level per value
    of the distance spectrum r_1 > r_2 > ...; level n has delta = r_n and
    gamma = r_{n-1}. Level n joins the pairs whose subdominant distance is
    at most r_n (the components of the tree edges up to r_n), so adjacent
    leaves of the Prim order split at the count of values from its weight up."""
    check = is_ultrametric(space, tol)
    if not check.ok:
        raise NotUltrametric(check.witness, check.violation)
    if space.n == 1:
        return PartitionChain._of_leaves(space, [0], [], 1)
    spectrum = np.unique(space.rank[np.triu_indices(space.n, 1)])
    order, _, weight = _spanning_tree(space)
    h = len(spectrum) - np.searchsorted(spectrum, weight[1:])
    return PartitionChain._of_leaves(space, order, h, len(spectrum),
                                     [as_float(r) for r in _gather(space.values, spectrum[::-1])],
                                     range(1, len(spectrum) + 1))


def associated_endpoints(space: FiniteMetricSpace) -> list[tuple[tuple[int, int], object]]:
    """Pairs realizing the gap of some two-block clopen partition.

    (x1, x2) qualifies exactly when they fall in different components of the
    graph with edges {d < d(x1, x2)}, that is when the subdominant
    ultrametric equals d on the pair. Pairs come by decreasing distance,
    then decreasing pair.
    """
    rank = space.rank
    rows, cols = np.nonzero(np.triu(rank == _subdominant(_spanning_tree(space)), 1))
    ranked = sorted(zip(rank[rows, cols].tolist(), zip(rows.tolist(), cols.tolist())),
                    reverse=True)
    return [(pair, space.dist[pair]) for _, pair in ranked]


def largest_gap(space: FiniteMetricSpace, indices=None):
    """Largest associated-endpoint gap; equals the final single-linkage merge
    radius, i.e. the maximum minimum-spanning-tree edge weight. 0 for a point."""
    sub = space if indices is None else subspace(space, indices)
    if sub.n < 2:
        return _zero(sub.exact)
    return _gather(sub.values, _spanning_tree(sub)[2].max())


def _block_extents(space: FiniteMetricSpace, chain: PartitionChain):
    """Diameter and largest gap of every block of every level of a chain.

    Returns (diameters, gaps, connected): one array per level, indexed like
    that level's blocks. An item with split key k lies inside one block of
    every level before k:
      - the diameter is the largest pair inside the block;
      - the largest gap reads the whole space's spanning tree. When the
        tree edges inside a block B number |B| - 1, they connect B and, by
        the cut property, form a minimum spanning tree of B, so its largest
        edge is B's largest gap and connected is True. Dendrogram, ball and
        zoo chains have only such blocks; any other block's gap is not in
        gaps, and largest_gap(space, b) gives it.
    Each item raises its end point's entry at level k - 1; a reverse
    accumulate over the levels then holds, at (level, point), the reduction
    of the items that level still joins there, and one grouped reduction by
    (level, block) gives every block. Max and add are exact here and
    order-free, so this is the bottom-up reduction of children plus new
    items, bit for bit (the edge counts are float sums of ones, exact far
    beyond any n). Levels go in chunks of _chunk_rows levels, finest first,
    each carrying the accumulate's first row to the next, so the
    temporaries stay O(n^2) however many levels the chain has.
    Both reductions run on ranks (the zero rank for a singleton), gathered
    to matrix entries once, so exact chains never go through floats nor
    compare Fractions.
    """
    n = space.n
    if len(chain.order) != n:
        raise ValueError("chain does not match the space")
    order, parent, weight = _spanning_tree(space)
    ends, tree_keys, weight = order[1:], chain.split[order[1:], parent[1:]], weight[1:]
    offsets = _block_offsets(chain)
    diameters, gaps = np.zeros(offsets[-1]), np.zeros(offsets[-1])
    connected = np.empty(offsets[-1], dtype=bool)
    carry = [np.zeros(n), np.zeros(n), np.zeros(n)]
    for lo, hi, block in _level_chunks(chain, offsets):
        here = slice(offsets[lo], offsets[hi])
        take = (tree_keys > lo) & (tree_keys <= hi)
        at = (tree_keys[take] - (lo + 1)) * n + ends[take]
        edges = np.zeros(offsets[hi] - offsets[lo])
        for k, (ufunc, out) in enumerate(((np.maximum, diameters[here]),
                                          (np.maximum, gaps[here]), (np.add, edges))):
            acc = np.zeros((hi - lo, n))  # one at a time, to bound the temporaries
            if k == 0:
                _raise_pairs(acc, space.rank, chain.split, lo)
            else:  # the tree edges: their weights, then their count
                ufunc.at(acc.reshape(-1), at, weight[take] if k == 1 else 1.0)
            carry[k] = _suffix_blocks(ufunc, acc, carry[k], block, out)
        connected[here] = edges == np.bincount(block, minlength=len(edges)) - 1
        del block  # before the next chunk's is built
    bounds = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    return tuple([flat[lo:hi] for lo, hi in bounds] for flat in
                 (_gather(space.values, diameters), _gather(space.values, gaps), connected))


def _raise_pairs(acc, rank, split, lo) -> None:
    """Raise acc[k - 1 - lo, i] to rank[i, j] for every pair i < j whose
    split key k falls in the chunk's levels lo..lo + len(acc) - 1, reading
    the matrices in pieces of _chunk_rows rows."""
    levels, n = acc.shape
    rows = _chunk_rows(n)
    for r0 in range(0, n, rows):
        keys = split[r0:r0 + rows]
        q = np.flatnonzero((keys > lo) & (keys <= lo + levels)
                           & (np.arange(n) > np.arange(r0, r0 + len(keys))[:, None]))
        values = rank[r0:r0 + rows].reshape(-1)[q]
        at = keys.reshape(-1)[q] - (lo + 1)
        at *= n
        q //= n
        q += r0
        np.add(at, q, out=q)
        np.maximum.at(acc.reshape(-1), q, values)


def _suffix_blocks(ufunc, acc, carry, block, out) -> np.ndarray:
    """Reduce each column of a chunk's (level, point) entries over the
    levels from each one down, the carried row of the next finer chunk
    included, then reduce them into out by block; returns the chunk's
    first row, the next coarser chunk's carry."""
    ufunc(acc[-1], carry, out=acc[-1])
    ufunc.accumulate(acc[::-1], axis=0, out=acc[::-1])
    ufunc.at(out, block, acc.reshape(-1))
    return acc[0].copy()


def _chunk_rows(n: int) -> int:
    """Levels per chunk, and matrix rows per piece of pairs, for a space of
    n points: about _CHUNK_ENTRIES (level, point) entries, and no more
    entries than the space has pairs."""
    return max(1, min(_CHUNK_ENTRIES, n * (n - 1) // 2) // n)


def _block_offsets(chain: PartitionChain) -> np.ndarray:
    """Where each level's blocks start when the blocks of all levels are
    numbered in one row, level after level; the last entry counts them all."""
    return np.concatenate(([0], np.cumsum([st.cardinality for st in chain.stats])))


def _level_chunks(chain: PartitionChain, offsets: np.ndarray):
    """The levels in chunks of _chunk_rows levels, finest first: (lo, hi,
    block), where block[(l - lo) * n + p] is the number, less offsets[lo],
    of p's block at level l among all blocks."""
    step = _chunk_rows(len(chain.order))
    for hi in range(len(chain), 0, -step):
        lo = max(hi - step, 0)
        yield lo, hi, (chain.labels[lo:hi] + (offsets[lo:hi] - offsets[lo])[:, None]).reshape(-1)


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


def _decay_witness(stats, p) -> tuple[float, float]:
    """(a, log a) for the decay witness a = min delta_{n+1} / delta_n^p over
    consecutive levels whose deltas are both positive, or (inf, inf) when
    fewer than two levels have positive delta and no decay is seen.
    Transitions into a terminal all-singleton level are skipped, so on a
    truncated chain a says nothing about the pairs first split there
    (ROADMAP item 1). classify_chain, the certificate and the distortion
    check all read a here."""
    positive = [i for i, st in enumerate(stats) if st.delta > 0]
    if len(positive) < 2:
        return math.inf, math.inf
    if p <= 1:
        raise ValueError("p must exceed 1")
    log_witness = math.inf
    for a_idx, b_idx in zip(positive, positive[1:]):
        if b_idx == a_idx + 1:
            log_ratio = flog(stats[b_idx].delta) - p * flog(stats[a_idx].delta)
            log_witness = min(log_witness, log_ratio)
    try:
        return math.exp(log_witness), log_witness
    except OverflowError:
        return math.inf, log_witness


def classify_chain(chain: PartitionChain, p: float, tol: float = DEFAULT_TOL) -> ChainClassReport:
    """Witness constant a = min delta_{n+1} / delta_n^p over the chain
    (_decay_witness), the per-level ratio sequence, and the gamma-versus-delta
    dichotomy flags."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    stats = chain.stats
    if sum(st.delta > 0 for st in stats) < 2:
        raise ValueError("chain needs at least two levels with positive delta")
    witness, log_witness = _decay_witness(stats, p)
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
    if idx and not 0 <= idx[0] <= idx[-1] < partition.n_points:
        raise ValueError("indices must lie in 0..n_points-1")
    return Partition.from_assignment(partition.block_of[idx])


def induced_chain(space: FiniteMetricSpace, chain: PartitionChain, indices):
    """Restrict a chain to a subspace; returns (subspace, chain on it).

    The kept points keep their leaf order, and two of them split at the
    least level between them. Consecutive induced levels may coincide.
    """
    sub = subspace(space, indices)
    kept = np.flatnonzero(np.isin(chain.order, list(indices)))  # leaf positions, ascending
    h = np.minimum.reduceat(chain.h[:kept[-1]], kept[:-1]) if len(kept) > 1 else []
    order = np.argsort(np.argsort(chain.order[kept]))  # ranks: the points of sub
    return sub, PartitionChain._of_leaves(sub, order, h, len(chain), chain.thresholds,
                                          chain.level_ids)
