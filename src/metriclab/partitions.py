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
from functools import cached_property

import numpy as np

from ._util import DEFAULT_TOL, as_float, as_floats, field_report, flog
from .errors import NotNested, NotSeparating, NotUltrametric
from . import spaces
from .spaces import (FiniteMetricSpace, _at_subdominant, _gather, _leaf_rows, _nearest,
                     _pair_blocks, _rank_bound, _row_blocks, _spanning_tree, _zero,
                     is_ultrametric, subspace)


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


def _log_ratios(space: FiniteMetricSpace, deltas, gammas) -> np.ndarray:
    """R of each (delta, gamma) pair given by ranks, the one R kernel: 0
    where delta is zero, +inf where delta or gamma is at least 1 (its rank
    at least that of 1), else log gamma / log delta: the log (flog of an
    exact value) of each distinct rank, then one division for all. An exact
    value is tested against 1 by its numerator and denominator, which
    compare in O(1) where a deep sample's are long."""
    if space.exact:
        one = _rank_bound(space, True, key=lambda v: v.numerator >= v.denominator)
    else:
        one = 1.0
    distinct, where = np.unique(np.concatenate((deltas, gammas)), return_inverse=True)
    logs = np.where(distinct >= one, math.inf, -math.inf)
    inside = (distinct > 0) & (distinct < one)
    logs[inside] = _logs(_gather(space.values, distinct[inside]))
    log_d, log_g = logs[where[:len(deltas)]], logs[where[len(deltas):]]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = log_g / log_d
    ratios[(log_d == math.inf) | (log_g == math.inf)] = math.inf
    ratios[np.asarray(deltas) == 0] = 0.0
    return ratios


def _logs(values) -> np.ndarray:
    """The log of each entry of a 1-d numeric array, read through a
    memoryview, or flog of each Fraction of an object one, as float64."""
    if values.dtype == object:
        log, items = flog, values.tolist()
    else:
        log, items = math.log, memoryview(values)
    return np.fromiter(map(log, items), float, len(values))


def _stats_rows(delta_rank, gamma_rank, delta, gamma, cardinality, log_ratio) -> tuple:
    """The PartitionStats of each level of a chain's columns, a value of
    rank 0 as the mode's zero (_zero), as partition_stats gives it."""
    zero = _zero(delta.dtype == object)
    return tuple(PartitionStats(d if dr else zero, g if gr else zero, r, c)
                 for dr, gr, d, g, r, c in zip(delta_rank.tolist(), gamma_rank.tolist(), delta,
                                               gamma, log_ratio.tolist(), cardinality.tolist()))


def partition_stats(space: FiniteMetricSpace, partition: Partition) -> PartitionStats:
    """Exact delta, gamma, and log ratio of a partition, as a one-level chain: leaves
    block by block, h 0 across blocks and 1 inside (int32, for _leaf_rows' fill 2).
    The gamma of one block is the space diameter itself."""
    if partition.n_points != space.n:
        raise ValueError("partition does not match the space")
    order = np.argsort(partition.block_of, kind="stable")
    delta_rank, gamma_rank, delta, gamma, cardinality, log_ratio = _chain_stats(
        space, order, np.int32(np.diff(partition.block_of[order]) == 0), 1)
    if partition.cardinality == 1:
        gamma = np.array([space.diameter], dtype=object)
    return _stats_rows(delta_rank, gamma_rank, delta, gamma, cardinality, log_ratio)[0]


def _label_stats(space: FiniteMetricSpace, labels) -> tuple[np.ndarray, np.ndarray]:
    """delta and gamma of every row of a (B, n) array of block labels.

    The upper-triangle pairs are sorted by rank once; per row, delta is
    the last same-block pair (the zero of the mode when there is none) and
    gamma the first pair across blocks (the space diameter for one block).
    Both come back as object arrays of the matrix entries themselves, so a
    float space yields np.float64 and an exact one Fraction. Rows are
    compared in the blocks of spaces._row_blocks, so the temporaries stay
    O(B + n^2) however many rows there are.
    """
    labels = np.asarray(labels)
    i, j = np.triu_indices(space.n, 1)
    order = np.argsort(space.rank[i, j])
    i, j = i[order], j[order]
    pairs = len(order)
    delta_at = np.full(len(labels), pairs, dtype=np.intp)
    gamma_at = np.full(len(labels), pairs + 1, dtype=np.intp)
    for lo, hi in _row_blocks(len(labels) if pairs else 0, pairs):  # no pairs: defaults hold
        rows = labels[lo:hi]
        same = rows[:, i] == rows[:, j]
        last = pairs - 1 - np.argmax(same[:, ::-1], axis=1)
        first = np.argmin(same, axis=1)
        hit = np.arange(len(rows))
        delta_at[lo:hi] = np.where(same[hit, last], last, pairs)
        gamma_at[lo:hi] = np.where(same[hit, first], pairs + 1, first)
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
    """Nested partitions, coarse to fine, with per-level stats as columns.

    The datum is a leaf order, in which every block of every level is a
    run, and h[p], the first level that separates order[p] and order[p + 1]
    (len(chain) when none does). A chain of length L is the dendrogram of
    the pseudo-ultrametric L - split (Carlsson & Memoli 2010), where the
    first level split(order[p], order[q]) = min(h[p..q-1]) to separate a
    pair is read, never stored, by the stats' pass (_pair_runs) or one
    row-major scan (spaces._pair_blocks).

    The stats are six read-only arrays of length L (_chain_stats), which
    every reader takes: delta_rank and gamma_rank, the ranks of each
    level's delta and gamma in its space; delta and gamma, those entries
    (float64 in float mode, Fractions in exact mode); cardinality; and
    log_ratio, R of each level (_log_ratios). stats, labels and levels are
    read-only views built on first use that no kernel reads: stats the
    PartitionStats of each level, level l's blocks the runs of order cut
    where h <= l. Chains are equal when their delta, gamma, cardinality
    and log_ratio, thresholds, level_ids and every pair's split are,
    whatever their leaf orders.

    thresholds[i] is the merge radius that produced level i (None for levels
    not born from a merge, like a leading trivial partition). level_ids keeps
    external numbering for sampled families; defaults to positional indices.
    cuts, (top, low), are the largest and least rank of the pairs whose
    first least h lies at each adjacent-leaf position (_cut_extremes), kept
    from the stats' pass for the certificate and _block_tree to read.
    """

    order: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    delta_rank: np.ndarray = field(repr=False)
    gamma_rank: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    cardinality: np.ndarray = field(repr=False)
    log_ratio: np.ndarray = field(repr=False)
    thresholds: tuple
    level_ids: tuple
    cuts: tuple | None = field(default=None, repr=False)

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
    def _of_leaves(cls, space, order, h, length, thresholds=None,
                   level_ids=None) -> "PartitionChain":
        """The chain of a leaf order and its adjacent split levels, with the
        stats read off its pairs in one pass (_pair_runs), kept as cuts."""
        order, h = np.asarray(order, dtype=np.intp), np.asarray(h, dtype=np.int32)
        if len(order) != space.n:
            raise ValueError("chain does not match the space")
        thresholds = (None,) * length if thresholds is None else tuple(thresholds)
        level_ids = tuple(range(length)) if level_ids is None else tuple(level_ids)
        order.setflags(write=False)
        h.setflags(write=False)
        cuts = _cut_extremes(space, order, h, length)
        return cls(order, h, *_chain_stats(space, order, h, length, cuts), thresholds,
                   level_ids, cuts)

    @property
    def columns(self) -> tuple:
        """(delta_rank, gamma_rank, delta, gamma, cardinality, log_ratio)."""
        return (self.delta_rank, self.gamma_rank, self.delta, self.gamma, self.cardinality,
                self.log_ratio)

    def __eq__(self, other):
        return (isinstance(other, PartitionChain) and len(self.order) == len(other.order)
                and (self.thresholds, self.level_ids) == (other.thresholds, other.level_ids)
                and all(np.array_equal(mine, theirs) for mine, theirs in
                        zip(self.columns[2:], other.columns[2:]))
                and all(np.array_equal(mine[2], theirs[2]) for mine, theirs in
                        zip(_pair_blocks(self.order, self.h), _pair_blocks(other.order, other.h))))

    def __hash__(self):
        return hash((tuple(self.cardinality.tolist()), self.thresholds, self.level_ids))

    def __len__(self):
        return len(self.cardinality)

    @cached_property
    def stats(self) -> tuple:
        """The PartitionStats of each level: a view of the columns that no
        kernel reads (_stats_rows)."""
        return _stats_rows(*self.columns)

    @cached_property
    def labels(self) -> np.ndarray:
        """(L, n) block ids of every level (_run_labels)."""
        return _run_labels(self.order, self.h, np.arange(len(self)))

    @cached_property
    def levels(self) -> tuple:
        """The partitions, coarse to fine: a view of labels that no kernel reads."""
        return tuple(Partition.from_assignment(row) for row in self.labels)

    def proper_indices(self) -> list[int]:
        """Levels carrying log-ratio information: >= 2 blocks and delta > 0."""
        return np.flatnonzero((self.cardinality >= 2) & (self.delta_rank > 0)).tolist()

    def to_report(self) -> dict:
        deltas, gammas = as_floats(self.delta).tolist(), as_floats(self.gamma).tolist()
        return {
            "levels": [
                {
                    "id": int(self.level_ids[i]),
                    "threshold": None if self.thresholds[i] is None else as_float(self.thresholds[i]),
                    "blocks": _blocks(self.labels[i]),
                    "delta": deltas[i],
                    "gamma": gammas[i],
                    "R": r,
                }
                for i, r in enumerate(self.log_ratio.tolist())
            ]
        }


def _run_labels(order, h, levels) -> np.ndarray:
    """Read-only (len(levels), n) block ids of the given levels of a chain's
    (order, h), each level's blocks numbered by least member: a run's least
    member leads its block, whose number counts the leaders before it."""
    n, rows = len(order), len(levels)
    # over flat (row, leaf) positions: where each run starts, and the flat
    # (row, point) index of its least member
    starts = np.flatnonzero(np.insert(h <= np.asarray(levels)[:, None], 0, True, axis=1))
    led = starts // n * n + np.minimum.reduceat(np.tile(order, rows), starts)
    number = np.cumsum(np.bincount(led, minlength=rows * n).reshape(rows, n), axis=1) - 1
    of_leaf = np.repeat(led, np.diff(starts, append=rows * n))  # each leaf's run leader
    labels = np.take(number.reshape(-1)[of_leaf].reshape(rows, n), np.argsort(order), axis=1)
    labels.setflags(write=False)
    return labels


def _pair_runs(space: FiniteMetricSpace, order, h, length):
    """Every pair of a chain, read from (order, h) in blocks of leaf rows of
    about spaces._BLOCK_ENTRIES entries. Along row p, the split levels of
    (order[p], order[q]), q > p, are a running minimum of h; each run of
    equal level starts at the q whose h[q - 1] first reaches it, and yields
    that cut q - 1 and the run's largest and least rank, as arrays per
    block."""
    n, lo = len(order), 0
    while lo < n - 1:  # the last leaf row holds no pair
        width = n - lo
        rows = min(max(1, spaces._BLOCK_ENTRIES // width), width - 1)
        # fill length + 1, past every level, marks the columns q <= p; the
        # row before ends on a pair, so a row's fill starts a run
        levels = _leaf_rows(h[lo:], np.minimum, length + 1, rows).reshape(-1)
        starts = np.flatnonzero(np.insert(levels[1:] != levels[:-1], 0, True))
        real = levels[starts] <= length
        ranks = space.rank[order[lo:lo + rows, None], order[lo:]].reshape(-1)
        yield (lo - 1 + starts[real] % width, np.maximum.reduceat(ranks, starts)[real],
               np.minimum.reduceat(ranks, starts)[real])
        lo += rows


def _cut_extremes(space: FiniteMetricSpace, order, h, length):
    """(top, low): per adjacent-leaf position m, the largest and least rank
    of the pairs (order[p], order[q]) whose least h[p..q-1] first occurs at
    m, from the pair runs: their least common block has dies h[m]."""
    top, low = np.zeros(len(h)), np.full(len(h), np.inf)
    for at, high, least in _pair_runs(space, order, h, length):
        np.maximum.at(top, at, high)
        np.minimum.at(low, at, least)
    return top, low


def _level_extremes(space: FiniteMetricSpace, order, h, length, cuts=None):
    """(top, low): per split level 0..length, the largest and least rank of a
    pair split there (0, inf for none), the cuts (_cut_extremes) by their h."""
    cut_top, cut_low = cuts or _cut_extremes(space, order, h, length)
    top, low = np.zeros(length + 1), np.full(length + 1, np.inf)
    np.maximum.at(top, h, cut_top)
    np.minimum.at(low, h, cut_low)
    return top, low


def _level_ranks(space: FiniteMetricSpace, order, h, length, cuts=None):
    """(delta, gamma): per level, the rank of the largest distance of a pair
    split after it (0 when none is) and of the smallest of a pair split at or
    before it (inf when none is): a suffix max and a prefix min of the split
    extremes (_level_extremes)."""
    top, low = _level_extremes(space, order, h, length, cuts)
    return np.maximum.accumulate(top[::-1])[-2::-1], np.minimum.accumulate(low)[:length]


def _chain_stats(space: FiniteMetricSpace, order, h, length, cuts=None) -> tuple:
    """The stats columns of every level (PartitionChain), read off the
    chain's pairs.

    The extremes run on ranks (_level_ranks). Level l has 1 + #{h <= l}
    blocks, the runs of the leaf order; a level of one block holds every
    pair, so its delta is the diameter's rank, which is also its gamma.
    The rest is _level_columns.
    """
    delta, gamma = _level_ranks(space, order, h, length, cuts)
    cards = 1 + np.searchsorted(np.sort(h), np.arange(len(delta)), side="right")
    return _level_columns(space, delta, np.where(cards > 1, gamma, delta), cards)


def _level_columns(space: FiniteMetricSpace, delta_rank, gamma_rank, cardinality) -> tuple:
    """The six read-only stats columns of levels from their delta and gamma
    ranks and cardinalities: the entries gathered once, so exact chains keep
    their Fractions without comparing any, and R by one _log_ratios call."""
    delta_rank, gamma_rank = (np.asarray(x, dtype=float) for x in (delta_rank, gamma_rank))
    columns = (delta_rank, gamma_rank, _gather(space.values, delta_rank),
               _gather(space.values, gamma_rank), np.asarray(cardinality, dtype=np.intp),
               _log_ratios(space, delta_rank, gamma_rank))
    for column in columns:
        column.setflags(write=False)
    return columns


def _joined_columns(*parts) -> tuple:
    """The stats columns of levels one after another, read-only."""
    columns = tuple(np.concatenate(column) for column in zip(*parts))
    for column in columns:
        column.setflags(write=False)
    return columns


def _require_separating(chain: PartitionChain) -> None:
    """Raise NotSeparating on the first row-major pair the last level joins."""
    if chain.cardinality[-1] < len(chain.order):
        row = _run_labels(chain.order, chain.h, [len(chain) - 1])[0]
        # the two least members of the first block of two or more
        i, j = np.flatnonzero(row == np.argmax(np.bincount(row) > 1))[:2].tolist()
        raise NotSeparating((i, j))


def with_singleton_terminal(space: FiniteMetricSpace, chain: PartitionChain) -> PartitionChain:
    """Append the all-singleton level when the chain does not separate points.

    The pairs the chain never separated are split at the new level, so h,
    the old levels' stats and the cuts stay. The new level has delta rank 0
    and, as gamma, the smallest pair of the space (spaces._nearest).
    """
    if len(chain.order) != space.n:
        raise ValueError("chain does not match the space")
    if chain.cardinality[-1] == space.n:
        return chain
    terminal = _level_columns(space, [0.0], [_nearest(space.rank).min()], [space.n])
    return PartitionChain(chain.order, chain.h, *_joined_columns(chain.columns, terminal),
                          chain.thresholds + (None,), chain.level_ids + (chain.level_ids[-1] + 1,),
                          chain.cuts)


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
    spectrum = np.unique(space.rank)[1:]  # past the diagonal's zero rank
    order, _, weight = _spanning_tree(space)
    h = len(spectrum) - np.searchsorted(spectrum, weight[1:])
    return PartitionChain._of_leaves(space, order, h, len(spectrum),
                                     [as_float(r) for r in _gather(space.values, spectrum[::-1])],
                                     range(1, len(spectrum) + 1))


def associated_endpoints(space: FiniteMetricSpace) -> list[tuple[tuple[int, int], object]]:
    """Pairs realizing the gap of some two-block clopen partition.

    (x1, x2) qualifies exactly when they fall in different components of the
    graph with edges {d < d(x1, x2)}, that is when the subdominant
    ultrametric equals d on the pair (the scan of spaces._at_subdominant).
    Pairs come by decreasing distance, then decreasing pair.
    """
    ranked = []
    for a, upper, same in _at_subdominant(space):
        rows, cols = np.nonzero(upper)
        rows, cols = rows[same] + a, cols[same] + a + 1
        ranked += zip(space.rank[rows, cols].tolist(), zip(rows.tolist(), cols.tolist()))
    ranked.sort(reverse=True)
    return [(pair, space.dist[pair]) for _, pair in ranked]


def largest_gap(space: FiniteMetricSpace, indices=None):
    """Largest associated-endpoint gap; equals the final single-linkage merge
    radius, i.e. the maximum minimum-spanning-tree edge weight. 0 for a point."""
    sub = space if indices is None else subspace(space, indices)
    if sub.n < 2:
        return _zero(sub.exact)
    return _gather(sub.values, _spanning_tree(sub)[2].max())


def _block_tree(space: FiniteMetricSpace, chain: PartitionChain):
    """Every distinct block of a chain, with its diameter and largest gap.

    Returns (start, end, born, dies, diameters, gaps, connected) over the
    nodes of _tree_nodes, node i the block order[start:end] of levels born
    to dies - 1. A pair split at level k lies in the blocks of the levels
    before k: its least common block, the node with dies k over the pair's
    leaf positions, and that node's ancestors. Each cut m of the chain
    (read off its pairs if a hand-made chain kept none) goes once into the
    node of dies h[m] over leaf m, and each spanning-tree edge, split at
    the least h between its ends' leaf positions, into its node; then over
    each node's subtree, one range of the post-order:
      - the diameter is the largest pair inside the block;
      - the largest gap reads the whole space's spanning tree. When the
        tree edges inside a block B number |B| - 1, they connect B and, by
        the cut property, form a minimum spanning tree of B, so its largest
        edge is B's largest gap and connected is True. Dendrogram, ball and
        zoo chains have only such blocks; any other block's gap is not in
        gaps, and largest_gap(space, b) gives it.
    Both reductions run on ranks (the zero rank for a singleton), gathered
    to matrix entries once, so exact chains never go through floats nor
    compare Fractions.
    """
    n = space.n
    if len(chain.order) != n:
        raise ValueError("chain does not match the space")
    start, end, born, dies, first = _tree_nodes(chain.h, len(chain))
    inner = np.flatnonzero(end - start > 1)
    keys = dies[inner] * n + start[inner]
    inner, keys = inner[np.argsort(keys)], np.sort(keys)

    def holding(level, position):
        """The node of dies level over the leaf position: nodes of equal
        dies are disjoint, so it is the last to start at or before it."""
        return inner[np.searchsorted(keys, level.astype(np.intp) * n + position, "right") - 1]

    where = np.argsort(chain.order)
    own = np.zeros((3, len(start) + 1))  # diameter, gap and edge count of each node, and a pad
    top = (chain.cuts or _cut_extremes(space, chain.order, chain.h, len(chain)))[0]
    np.maximum.at(own[0], holding(chain.h, np.arange(n - 1)), top)
    order, parent, weight = _spanning_tree(space)
    pos = np.sort(where[np.stack((order[1:], parent[1:]), axis=1)], axis=1)  # of each edge
    at = holding(np.minimum.reduceat(np.append(chain.h, len(chain)), pos.reshape(-1))[::2],
                 pos[:, 0])
    np.maximum.at(own[1], at, weight[1:])
    np.add.at(own[2], at, 1)  # sums of ones: exact
    ranges = np.stack((first, np.arange(1, len(first) + 1)), axis=1).reshape(-1)
    diameters, gaps = np.maximum.reduceat(own[:2], ranges, axis=1)[:, ::2]
    edges = np.add.reduceat(own[2], ranges)[::2]
    return (start, end, born, dies, _gather(space.values, diameters),
            _gather(space.values, gaps), edges == end - start - 1)


def _tree_nodes(h, length):
    """The nodes of the Cartesian tree of h, tied minima merged, in
    post-order: (start, end, born, dies, first). Node i is the run
    start..end - 1 of the leaf order, a leaf or one whose inner h all
    exceed the h at its ends; it is a block of the levels born to dies - 1,
    born the larger h at its ends (-1 past the first or last leaf, then
    clipped at 0), dies its least inner h (length for a leaf). No level has
    it when dies <= born: a root over an h of 0, a leaf between two h of
    length. Its subtree is the nodes first..i. One stack pass: each leaf
    closes the open runs whose least h exceeds the h after it."""
    ends = np.concatenate(([-1], h, [-1]))  # the h at each leaf boundary
    nodes, stack = [], [(-2, 0, 0)]  # open runs: (least h, start, first); -2 stays
    for b, v in enumerate(ends[1:].tolist(), 1):
        s, f = b - 1, len(nodes)
        nodes.append((s, b, length, f))  # the leaf b - 1
        while stack[-1][0] > v:
            d, s, f = stack.pop()
            nodes.append((s, b, d, f))
        if stack[-1][0] < v:
            stack.append((v, s, f))
    start, end, dies, first = np.fromiter(itertools.chain.from_iterable(nodes), np.intp,
                                          4 * len(nodes)).reshape(-1, 4).T
    return start, end, np.maximum(np.maximum(ends[start], ends[end]), 0), dies, first


@dataclass(frozen=True)
class ChainClassReport:
    delta_monotone: bool
    p: float
    p_witness: float
    log_p_witness: float
    R_sequence: tuple
    R_liminf_estimate: float
    dichotomy_flags: tuple

    to_report = field_report


def _decay_witness(chain: PartitionChain, p) -> tuple[float, float]:
    """(a, log a) for the decay witness a = min delta_{n+1} / delta_n^p over
    consecutive levels whose deltas are both positive, or (inf, inf) when
    fewer than two levels have positive delta and no decay is seen.
    Transitions into a terminal all-singleton level are skipped, so on a
    truncated chain a says nothing about the pairs first split there
    (ROADMAP item 1). classify_chain, the certificate and the distortion
    check all read a here."""
    positive = np.flatnonzero(chain.delta_rank > 0)
    if len(positive) < 2:
        return math.inf, math.inf
    if p <= 1:
        raise ValueError("p must exceed 1")
    logs = _logs(chain.delta[positive])  # a prefix of the levels: deltas fall
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic, silently
        steps = logs[1:] - p * logs[:-1]
    log_witness = float(np.fmin.reduce(steps, initial=math.inf))  # min, passing over a nan
    try:
        return math.exp(log_witness), log_witness
    except OverflowError:
        return math.inf, log_witness


def r_estimate(chain: PartitionChain) -> float:
    """The estimate of R that profile, classify_chain, the certificate and
    the embedding read: R of the deepest proper level, 0.0 with none."""
    proper = chain.proper_indices()
    return float(chain.log_ratio[proper[-1]]) if proper else 0.0


def classify_chain(chain: PartitionChain, p: float, tol: float = DEFAULT_TOL) -> ChainClassReport:
    """Witness constant a = min delta_{n+1} / delta_n^p over the chain
    (_decay_witness), the per-level ratio sequence, and the gamma-versus-delta
    dichotomy flags. Deltas are compared by rank, which orders them."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    if np.count_nonzero(chain.delta_rank) < 2:
        raise ValueError("chain needs at least two levels with positive delta")
    witness, log_witness = _decay_witness(chain, p)
    diff = as_floats(chain.gamma) - as_floats(chain.delta)
    flags = np.where(np.abs(diff) <= tol, 0, np.where(diff > 0, 1, -1))
    return ChainClassReport(
        delta_monotone=bool((np.diff(chain.delta_rank) <= 0).all()),
        p=p,
        p_witness=witness,
        log_p_witness=log_witness,
        R_sequence=tuple(chain.log_ratio.tolist()),
        R_liminf_estimate=r_estimate(chain),
        dichotomy_flags=tuple(flags.tolist()),
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
