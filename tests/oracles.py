"""Slow reference implementations kept as oracles for the fast paths.

Each function is the code that `metriclab` ran before a faster path took its
place: the label-array kernel `partitions._label_stats`, the block extents
`partitions._block_extents` read off one spanning tree, the one-level
`with_singleton_terminal` and the `np.unique` spectrum of `ball_chain`,
the chains built one `Partition` per level before split-first chains wrote
their split matrix in closed form, and the per-pair box gaps of the
embedding audit. Tests compare the two; `tree_connects` checks, by a
union-find, which blocks the spanning tree connects.

The chain oracles return (levels, thresholds, level_ids): the partitions
they built, so that a test can compare them with the levels a fast chain
derives from its split matrix.
"""

import math
from itertools import combinations

import numpy as np

from metriclab.logratio import OracleResult, set_partitions
from metriclab._util import as_float
from metriclab.embedding import _exact_separated, _greedy_separated, grid_capacity
from metriclab.errors import NotSeparating, PackingInfeasible
from metriclab.partitions import (Partition, PartitionChain, PartitionStats, _log_ratio,
                                  dendrogram_chain, induced_partition, largest_gap)
from metriclab.spaces import _prim, _zero


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
        delta = _zero(space.exact)
    return delta, gamma, card


def partition_stats(space, partition):
    """partition_stats as a maximum over the np.ix_ square of each block."""
    m = space.dist
    delta = _zero(space.exact)
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


def heuristic_G(space, chain, r):
    """Upper bound for G(r): best gamma among two-block splits of chain
    blocks, level by level and block by block."""
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


def brute_force_min_R(space, r, *, require_positive_delta=False):
    """Minimal R over all partitions with delta < r, one assignment at a
    time; the first strict minimum in set_partitions order wins."""
    best = None
    for assign in set_partitions(space.n):
        delta, gamma, _ = _stats_of_assignment(space, assign)
        if not delta < r:
            continue
        if require_positive_delta and delta == 0:
            continue
        value = _log_ratio(delta, gamma)
        if best is None or value < best[0]:
            best = (value, assign, delta, gamma)
    if best is None:
        return OracleResult(math.inf, Partition.trivial(space.n), math.inf, math.inf)
    value, assign, delta, gamma = best
    return OracleResult(value, Partition.from_assignment(assign),
                        as_float(delta), as_float(gamma))


def gap_bounds_rows(space, radii, exact):
    """(r, g, G) rows of gap_bounds from the loops above: enumeration when
    exact, else the per-level two-block heuristic for G."""
    chain = dendrogram_chain(space)
    stats = [tuple(map(as_float, _stats_of_assignment(space, a)[:2]))
             for a in set_partitions(space.n)] if exact else None
    rows = []
    for r in sorted((as_float(x) for x in radii), reverse=True):
        g_val = max((as_float(st.gamma) for st in chain.stats if as_float(st.delta) <= r),
                    default=0.0)
        if exact:
            g_val = max(g_val, max((g for d, g in stats if d <= r), default=0.0))
            G_val = min((g for d, g in stats if d >= r), default=math.inf)
        else:
            G_val = heuristic_G(space, chain, r)
        rows.append((r, g_val, G_val))
    return rows


def separated_count(space, center, r1, r2):
    """separated_count with its ball built point by point, as_float on both
    sides of every comparison."""
    m = space.dist
    row = m[center]
    ball = [i for i in range(space.n) if as_float(row[i]) <= as_float(r1)]
    greedy = _greedy_separated(m, ball, r2)
    if len(ball) <= 20:
        return _exact_separated(m, ball, r2, greedy)
    return greedy


def property6(chain, space):
    """The computation-rule report of profile(chain, space=space), with an
    np.ix_ diameter for every block and a largest_gap call (a Prim on the
    block's subspace) for every block of maximal diameter."""
    proper = chain.proper_indices()
    deltas = [as_float(chain.stats[i].delta) for i in proper]
    decreasing = all(b < a for a, b in zip(deltas, deltas[1:]))
    report = {"delta_strictly_decreasing": bool(decreasing), "gap_constant": None}
    if len(proper) < 2:
        return report
    if any(as_float(chain.stats[j].gamma) <= 0 for j in proper[1:]):
        return report
    worst = 0.0
    for i, j in zip(proper, proper[1:]):
        delta_i = as_float(chain.stats[i].delta)
        gamma_next = as_float(chain.stats[j].gamma)
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


def block_extents(space, chain):
    """Diameter (np.ix_ maximum) and largest gap of every block, level by
    level, as lists in block order."""
    out = []
    for level in chain.levels:
        diams = [space.dist[np.ix_(b, b)].max() if len(b) > 1 else _zero(space.exact)
                 for b in level.blocks]
        out.append((diams, [largest_gap(space, b) for b in level.blocks]))
    return out


def tree_connects(space, block):
    """Whether the edges of the whole space's spanning tree with both ends
    in block connect it, by a union-find over those edges."""
    order, parent, _ = _prim(space.dist)
    inside = set(block)
    root = {v: v for v in block}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for v, p in zip(order[1:].tolist(), parent[1:].tolist()):
        if v in inside and p in inside:
            root[find(v)] = find(p)
    return len({find(v) for v in block}) == 1


def with_singleton_terminal(space, chain):
    """with_singleton_terminal as a rebuild of the whole chain."""
    if all(len(b) == 1 for b in chain.levels[-1].blocks):
        return chain
    return PartitionChain.from_partitions(
        space,
        chain.levels + (Partition.singletons(space.n),),
        chain.thresholds + (None,),
        chain.level_ids + (chain.level_ids[-1] + 1,),
    )


def ball_spectrum(space):
    """The distinct off-diagonal distances, largest first, as a set of entries."""
    m = space.dist
    n = space.n
    return sorted({m[i, j] for i in range(n) for j in range(i + 1, n)}, reverse=True)


def cube_gap(c1, r1, c2, r2) -> float:
    """Box-norm distance between two axis-aligned cubes."""
    axis = np.abs(np.asarray(c1) - np.asarray(c2)) - (r1 + r2)
    return float(max(axis.max(), 0.0))


def _components(order, parent, joined):
    """Components of the spanning-tree edges whose Prim steps are marked in
    joined, in one pass down the Prim order (parents come first)."""
    label = list(range(len(order)))
    for v, p, keep in zip(order[1:].tolist(), parent[1:].tolist(), joined[1:].tolist()):
        if keep:
            label[v] = label[p]
    return Partition.from_assignment(label)


def dendrogram_levels(space):
    """dendrogram_chain as one spanning-tree components pass per merge radius."""
    order, parent, weight = _prim(space.dist)
    radii = sorted(set(weight[1:]), reverse=True)
    levels = [Partition.trivial(space.n)] + [_components(order, parent, weight < r)
                                             for r in radii]
    return levels, [None] + radii, None


def ball_levels(space):
    """ball_chain (of an ultrametric space) as one components pass per
    spectrum value."""
    if space.n == 1:
        return [Partition.trivial(1)], None, None
    values = ball_spectrum(space)
    order, parent, weight = _prim(space.dist)
    levels = [_components(order, parent, weight <= r) for r in values]
    return levels, [as_float(r) for r in values], range(1, len(levels) + 1)


def sample_levels(family, depth, space):
    """The chain of ml.sample(family, depth), one Partition per level: the
    sequence kinds isolate r_first .. r_(n-1), the Cantor and product kinds
    group points by a binary prefix."""
    if family.kind in ("product_geometric", "cantor_factorial"):
        cantor = family.kind == "cantor_factorial"
        count = depth - 1 if cantor and depth > 1 else depth
        return _prefix_levels(space.n, depth, count, int(cantor))
    first = family.first_index
    n_pts = depth + 1
    levels = []
    for n in range(first, first + depth):
        k = n - first  # points isolated so far
        blocks = [[0] + list(range(k + 1, n_pts))] + [[i] for i in range(1, k + 1)]
        levels.append(Partition(blocks, n_pts))
    return levels, None, range(first, first + depth)


def _prefix_levels(n_pts, coords, level_count, start_prefix):
    levels = [Partition.trivial(n_pts)]
    for i in range(1, level_count):
        width = 2 ** (coords - start_prefix - i)
        levels.append(Partition([range(s, s + width) for s in range(0, n_pts, width)], n_pts))
    return levels, None, range(1, level_count + 1)


def ensure_trivial_head(space, chain):
    """ensure_trivial_head as the chain's levels behind a trivial partition."""
    if chain.levels[0].cardinality == 1:
        return chain.levels, chain.thresholds, chain.level_ids
    return ((Partition.trivial(space.n),) + chain.levels, (None,) + chain.thresholds,
            (int(chain.level_ids[0]) - 1,) + chain.level_ids)


def induced_levels(chain, indices):
    """induced_chain's levels as the trace of every partition."""
    return ([induced_partition(p, indices) for p in chain.levels], chain.thresholds,
            chain.level_ids)


def select_embeddable_subchain(space, chain, N):
    """select_embeddable_subchain counting child blocks block by block."""
    proper = chain.proper_indices()
    if not proper:
        raise ValueError("chain has no proper levels to embed")
    deltas = [as_float(st.delta) for st in chain.stats]
    gammas = [as_float(st.gamma) for st in chain.stats]
    picked = [proper[0]]
    cur = proper[0]
    while True:
        found = None
        for nxt in range(cur + 1, len(chain.levels)):
            counts = {}
            for block in chain.levels[nxt].blocks:
                pid = chain.levels[cur].block_of[block[0]]
                counts[pid] = counts.get(pid, 0) + 1
            _, capacity = grid_capacity(deltas[cur], deltas[nxt], gammas[nxt], N)
            if max(counts.values()) <= capacity:
                found = nxt
                break
        if found is None:
            break
        picked.append(found)
        cur = found
    terminal = chain.levels[picked[-1]]
    if any(len(b) > 1 for b in terminal.blocks):
        required = max(len(b) for b in terminal.blocks)
        raise PackingInfeasible(int(chain.level_ids[picked[-1]]), required, 0)
    return ([chain.levels[i] for i in picked], [chain.thresholds[i] for i in picked],
            [chain.level_ids[i] for i in picked])


def require_separating(chain):
    """NotSeparating on the first two points of the first block of the last
    level with more than one point."""
    for b in chain.levels[-1].blocks:
        if len(b) > 1:
            raise NotSeparating((int(b[0]), int(b[1])))


def audit_min_gap(chain, level, box_center, deltas, gammas):
    """realized_min_gap of embedding._audit_level, one cube_gap call per
    pair of the level's blocks (gamma when the level has one block)."""
    min_gap = math.inf
    for a, b in combinations(chain.levels[level].blocks, 2):
        gap = cube_gap(box_center[(level, a)], deltas[level],
                       box_center[(level, b)], deltas[level])
        min_gap = min(min_gap, gap)
    return min_gap if math.isfinite(min_gap) else gammas[level]
