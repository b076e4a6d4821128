"""Slow reference implementations kept as oracles for the fast paths.

Each function is the code that `metriclab` ran before a faster path took its
place: the label-array kernel `partitions._label_stats`, the heuristic G
over the two-block splits `_two_block_splits` of the chain's blocks (both
gap_bounds paths now read G off the chain's last level), the block extents
`partitions._block_extents` read off one spanning tree, the one-level
`with_singleton_terminal` (rebuilt from the whole chain or from its split
matrix), the exact sequence matrix by Fraction subtraction, the
`csv.writer` rows of `to_csv`, the `csv.reader` rows of `from_csv` with
one `float()` per field, and the `np.unique` spectrum of `ball_chain`,
the chains built one `Partition` per level before split-first chains wrote
their split matrix in closed form, the refines loop of
`PartitionChain.from_partitions`, the level loop of `threshold_min_R`, and
the embedding placed one parent block at a time through dicts keyed by
(level, block), audited with per-pair box gaps, its box-norm matrix
`box_matrix` reduced from the broadcast n x n x N differences, and the two
cubic searches that `spaces._hull` replaced: the triangle check (a
`combinations` triple loop on exact matrices, a k-major sweep on float
ones) and the hull sweep of
`is_ultrametric` with its first-k matrix `argk`, and the kernels that
compared Fractions before exact spaces carried float64 ranks (a section
of their own: each reads `space.dist` where the kernel now reads `space.rank`),
with the renumbering of rank tables that `spaces._union` replaced, and
`Partition` as tuples of blocks (`BlockPartition`) with its trace
`induced_partition` and the chain report that printed the blocks of its
levels, and the report emitter `dumps` that made one recursive call per list
element. `per_entry` applies a function to each entry of an array, where
the program's `per_distinct` calls it once per distinct value (the text of
`to_csv`, the logs of rho and of box-norm matrices). Tests compare the two;
`tree_connects` checks, by a union-find, which blocks the spanning tree
connects. `decay_witness` is the witness rule that `classify_chain`, the
certificate and the distortion check each kept before `_decay_witness`, and
`pushforward_chain` the pushforward that took the logs of d and d' in the
fit and again in its check. `block_extents_by_level` is the kernel of
`partitions._block_extents` that reduced each level's children and new
items bottom up, one level at a time, before the suffix reduction over
whole chunks of levels, and `settled_from` the burn-in loop of `profile`
that rescanned the tail of the R sequence from each proper level. The last
section holds the code of chains whose datum was the n x n split matrix:
the single-linkage `merge_ranks` loop and `subdominant`, the per-level
mask sums `split_of_levels` of `from_partitions`, the point-by-point
`split_labels` walk with its `split_leads`, and `from_split`, the chain of
a given split matrix.

The chain oracles return (levels, thresholds, level_ids): the partitions
they built, so that a test can compare them with the levels a fast chain
derives from its leaf order.
"""

import csv
import io
import math
from fractions import Fraction
from itertools import combinations, product
from json.encoder import encode_basestring

import numpy as np

from metriclab.logratio import OracleResult, profile, set_partitions
from metriclab._util import DEFAULT_TOL, _fmt_float, as_float, flog
from metriclab.embedding import (EmbeddingResult, LevelAudit, _exact_separated,
                                 _greedy_separated, grid_capacity)
from metriclab.errors import (DepthOverflow, MetricViolation, NotNested, NotSeparating,
                              PackingInfeasible)
from metriclab.partitions import (Partition, PartitionChain, PartitionStats,
                                  _log_ratio, _require_separating, classify_chain,
                                  dendrogram_chain, largest_gap)
from metriclab.spaces import (FiniteMetricSpace, UltrametricCheck, _entries, _gather,
                              _prim, _zero, _zeros, validate)
from metriclab.ultrametrize import ensure_trivial_head as _trivial_head
from metriclab.ultrametrize import PushforwardReport, fit_holder_exponents, verify_holder_fit


def per_entry(fn, x, dtype=float):
    """fn of every entry of x, one call per entry, in an array of x's shape."""
    x = np.asarray(x)
    return np.array([fn(v) for v in x.ravel().tolist()], dtype=dtype).reshape(x.shape)


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


def _two_block_splits(chain):
    """Labels of the splits {b, X - b} over the distinct blocks b of the
    chain's levels with at least two blocks: the candidates of the heuristic
    G, and a many-row input for the label kernel."""
    blocks = sorted({b for p in chain.levels if p.cardinality > 1 for b in p.blocks})
    labels = np.zeros((len(blocks), chain.levels[0].n_points), dtype=np.int8)
    for row, b in zip(labels, blocks):
        row[list(b)] = 1
    return labels


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


def block_extents_by_level(space, chain):
    """partitions._block_extents as three bottom-up passes of one level
    each: a block reduces its children's values (through their least
    members) and the items first split at the next level."""
    n = space.n
    if chain.split.shape != (n, n):
        raise ValueError("chain does not match the space")
    labels = chain.labels
    leads = split_leads(chain.split)
    length = len(chain)

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
    diameters = bottom_up(np.maximum, i, chain.split[i, j], space.rank[i, j], 0.0)
    order, parent, weight = _prim(space.rank)
    tree_keys = chain.split[order[1:], parent[1:]]
    gaps = bottom_up(np.maximum, order[1:], tree_keys, weight[1:], 0.0)
    edges = bottom_up(np.add, order[1:], tree_keys, np.ones(n - 1, dtype=np.intp), 0)
    connected = [e == np.bincount(row) - 1 for e, row in zip(edges, labels)]
    return ([_gather(space.values, d) for d in diameters],
            [_gather(space.values, g) for g in gaps], connected)


def settled_from(r_vals, estimate, epsilon):
    """profile's burn-in position: the first whose tail of R values all sit
    within epsilon of the estimate, finite exactly when it is; None if no
    tail does. Each position rescans its whole tail."""
    for pos in range(len(r_vals)):
        tail = r_vals[pos:]
        if all(abs(r - estimate) < epsilon for r in tail if math.isfinite(r)) and all(
            math.isfinite(r) == math.isfinite(estimate) for r in tail
        ):
            return pos
    return None


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


def with_singleton_terminal_from_split(space, chain):
    """with_singleton_terminal re-running the statistics of every level on
    the split matrix with a raised diagonal."""
    if chain.stats[-1].cardinality == space.n:
        return chain
    split = chain.split.copy()
    np.fill_diagonal(split, len(chain) + 1)
    return from_split(space, split, chain.thresholds + (None,),
                      chain.level_ids + (chain.level_ids[-1] + 1,))


def sequence_gaps(values):
    """|x - y| of every pair of sequence values by Fraction subtraction, two
    gcds per pair, as exact sequence samples were built before dyadic_gap."""
    dist = np.empty((len(values), len(values)), dtype=object)
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            dist[i, j] = abs(x - y)
    return dist


def triangle_violations(m, n, tol, exact):
    """The triangle check of violations(): the first triple in combinations
    order (any of its three orientations) on exact matrices, the first
    k-major hit above tol on float ones."""
    if exact:
        for i, j, k in combinations(range(n), 3):
            for a, b, c in ((i, j, k), (i, k, j), (j, k, i)):
                if m[a, b] > m[a, c] + m[c, b]:
                    return [MetricViolation("triangle", (a, b, c))]
        return []
    for k in range(n):
        slack = m - (m[:, k][:, None] + m[k, :][None, :])
        bad = slack > tol
        bad[k, :] = False
        bad[:, k] = False
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            return [MetricViolation("triangle", (i, j, k))]
    return []


def is_ultrametric(space, tol=DEFAULT_TOL):
    """is_ultrametric with its failing-space search as one k sweep over the
    whole matrix, keeping the hull and the first k reaching it in argk."""
    m = space.dist
    n = space.n
    if n < 3 or (m == subdominant(_prim(m))).all():
        return UltrametricCheck(True, None, _zero(space.exact))
    hull = np.full((n, n), np.inf, dtype=m.dtype)
    argk = np.zeros((n, n), dtype=int)
    for k in range(n):
        cand = np.maximum(m[:, k][:, None], m[k, :][None, :])
        cand[k, :] = np.inf
        cand[:, k] = np.inf
        better = cand < hull
        hull = np.where(better, cand, hull)
        argk[better] = k
    slack = m - hull
    np.fill_diagonal(slack, -np.inf)
    i, j = map(int, np.unravel_index(np.argmax(slack), slack.shape))
    worst = slack[i, j] if space.exact else float(slack[i, j])
    if not space.exact and worst <= tol:
        return UltrametricCheck(True, None, max(worst, 0.0))
    return UltrametricCheck(False, (i, j, int(argk[i, j])), worst)


def to_csv(space):
    """to_csv with every matrix row through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(space.labels)
    for row in space.dist:
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


def from_csv(text, *, tol=DEFAULT_TOL, rescale=False):
    """from_csv with every row through csv.reader and every field through
    Python's float(), into a list of lists for validate."""
    try:
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise MetricViolation("parse", None, str(exc)) from exc
    if len(rows) < 2:
        raise MetricViolation("parse", None, "need a label row plus matrix rows")
    labels = rows[0]
    try:
        matrix = [[float(x) for x in row] for row in rows[1:]]
    except ValueError as exc:
        raise MetricViolation("parse", None, str(exc)) from exc
    return validate(matrix, labels, tol=tol, rescale=rescale)


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
    traced = [induced_partition(p, indices) for p in chain.levels]
    return [Partition(t.blocks, t.n_points) for t in traced], chain.thresholds, chain.level_ids


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


def from_partitions(space, levels, thresholds=None, level_ids=None):
    """PartitionChain.from_partitions checking nesting with the refines loop
    of BlockPartition, then summing one same-block mask per level."""
    levels = tuple(levels)
    if not levels:
        raise ValueError("chain needs at least one level")
    for idx in range(1, len(levels)):
        if not BlockPartition.of(levels[idx]).refines(BlockPartition.of(levels[idx - 1])):
            raise NotNested(idx)
    if levels[0].n_points != space.n:
        raise ValueError("partition does not match the space")
    return from_split(space, split_of_levels(levels), thresholds, level_ids)


def threshold_min_R(space, r, *, require_positive_delta=False):
    """threshold_min_R scanning the dendrogram's levels one Partition at a
    time; the first strict minimum wins."""
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


def place_children(center, delta_parent, delta_child, gamma_child, N, count):
    """place_children as a list, walking the grid cells with itertools.product."""
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


def _containing_block(partition, point):
    return partition.blocks[partition.block_of[point]]


def embed_chain(space, chain, N, p, epsilon, tol=DEFAULT_TOL):
    """embed_chain placing the children of one parent block at a time, with
    every cube centre and parent held in dicts keyed by (level, block)."""
    if space.exact:
        raise ValueError("embedding requires a float-mode space")
    if N < 1:
        raise ValueError("N must be at least 1")
    require_separating(chain)
    r_est = profile(chain).estimate
    eps_ok = math.isfinite(r_est) and r_est > 1 and 0 < epsilon < min(1.0, r_est - 1)
    deltas = [as_float(st.delta) for st in chain.stats]
    gammas = [as_float(st.gamma) for st in chain.stats]
    levels = chain.levels
    first_blocks = levels[0].blocks
    count0 = len(first_blocks)
    side = 1
    while side ** N < count0:
        side += 1
    pitch0 = 2 * deltas[0] + gammas[0]
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
    box_dist = box_matrix(coords)
    collide = box_dist + np.eye(space.n)
    if (collide <= 0).any():
        i, j = map(int, np.argwhere(collide <= 0)[0])
        raise DepthOverflow(
            f"chain scales span more than float64 coordinates resolve; points "
            f"{space.labels[i]} and {space.labels[j]} collide"
        )
    fitted = fit_holder_exponents(space.dist, box_dist)
    # no logs of d are kept: the distortion check takes them afresh
    return EmbeddingResult(N, coords, tuple(audits), fitted, chain, p, epsilon,
                           r_est, not eps_ok, box_dist, (None, None))


def box_matrix(coords):
    """embedding._box_matrix as the max over axes of the broadcast
    n x n x N array of differences."""
    return np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2)


def _audit_level(chain, lvl, required, capacity, box_center, box_parent, deltas, gammas,
                 tol):
    """embed_chain's level audit, block by block, with the pair-loop minimum gap."""
    blocks = chain.levels[lvl].blocks
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
                      audit_min_gap(chain, lvl, box_center, deltas, gammas), nested, commutes)


# Before exact spaces carried float64 ranks, these kernels compared the
# entries of dist themselves, which on Fractions cross-multiplies integers.

def log_ratio(delta, gamma) -> float:
    """_log_ratio by comparisons with 0 and 1."""
    if delta == 0:
        return 0.0
    if delta >= 1 or gamma >= 1:
        return math.inf
    return flog(gamma) / flog(delta)


def chain_stats(space, split):
    """_chain_stats as a grouped max/min of the entries (argsort, then
    reduceat), a suffix max and a prefix min by comparisons."""
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
    leads = np.tril(split, -1).max(axis=1)
    cards = np.searchsorted(np.sort(leads), np.arange(length), side="right").tolist()
    stats = []
    run = None
    for lvl, card in enumerate(cards):
        if lvl in low and (run is None or low[lvl] < run):
            run = low[lvl]
        gamma = run if card > 1 else space.diameter
        stats.append(PartitionStats(deltas[lvl], gamma, log_ratio(deltas[lvl], gamma), card))
    return tuple(stats)


def chain_on_values(space, split, thresholds=None, level_ids=None):
    """from_split with the stats of chain_stats."""
    chain = from_split(space, split, thresholds, level_ids)
    return PartitionChain(chain.order, chain.h, chain_stats(space, chain.split),
                          chain.thresholds, chain.level_ids)


def dendrogram_chain_on_values(space):
    """dendrogram_chain on the merge ranks of dist."""
    heights, top = merge_ranks(_prim(space.dist))
    return chain_on_values(space, len(heights) - top, [None] + list(heights[:0:-1]))


def ball_chain_on_values(space):
    """ball_chain (of an ultrametric space) on the spectrum of dist."""
    if space.n == 1:
        return chain_on_values(space, [[1]])
    spectrum = np.unique(space.dist[np.triu_indices(space.n, 1)])
    heights, top = merge_ranks(_prim(space.dist))
    joined = len(spectrum) - np.searchsorted(spectrum, heights, side="left")
    return chain_on_values(space, joined[top], [as_float(r) for r in spectrum[::-1]],
                           range(1, len(spectrum) + 1))


def threshold_partition(space, t):
    """threshold_partition on the spanning tree of dist."""
    order, parent, weight = _prim(space.dist)
    return _components(order, parent, weight < t)


def associated_endpoints(space):
    """associated_endpoints where dist equals its subdominant ultrametric."""
    m = space.dist
    rows, cols = np.nonzero(np.triu(m == subdominant(_prim(m)), 1))
    out = [((i, j), m[i, j]) for i, j in zip(rows.tolist(), cols.tolist())]
    out.sort(key=lambda item: (item[1], item[0]), reverse=True)
    return out


def tree_gap(space):
    """largest_gap of the whole space: the longest edge of the tree of dist."""
    return _prim(space.dist)[2].max() if space.n > 1 else _zero(space.exact)


def ultrametric_from_chain(space, chain):
    """rho as the chain's stats deltas gathered by split level."""
    chain = _trivial_head(space, chain)
    _require_separating(chain)
    deltas = np.array([st.delta for st in chain.stats], dtype=object if space.exact else float)
    return deltas[chain.split - 1]


def union_ranks(pairs):
    """(table, ranks): (table, rank) pairs renumbered into the np.unique of
    their concatenated tables, shared or not, as sup_product did inline
    and the certificate did for two tables before spaces._union."""
    table = np.unique(np.concatenate([t for t, _ in pairs]))
    return table, [np.searchsorted(table, t).astype(float)[r.astype(np.intp)] for t, r in pairs]


def sup_product(spaces):
    """sup_product as np.maximum of the grown and tiled entries (each float
    factor of an exact product converted entry by entry)."""
    exact = any(sp.exact for sp in spaces)
    dist = _zeros((1, 1), exact)
    for sp in spaces:
        f = sp.dist if sp.exact == exact else _entries(sp.dist, exact)
        nf = sp.n
        dist = np.maximum(np.repeat(np.repeat(dist, nf, axis=0), nf, axis=1),
                          np.tile(f, dist.shape))
    return dist


def hausdorff_dist(space, max_subset_size):
    """hausdorff_hyperspace's matrix from mins and maxes of the entries."""
    m = space.dist
    members = [list(c) for j in range(1, max_subset_size + 1)
               for c in combinations(range(space.n), j)]
    mind = np.array([m[c].min(axis=0) for c in members], dtype=m.dtype)
    directed = np.array([mind[:, c].max(axis=1) for c in members], dtype=m.dtype).T
    dist = np.maximum(directed, directed.T)
    np.fill_diagonal(dist, _zero(space.exact))
    return dist


# Before a Partition was its canonical label row, it kept tuples of blocks,
# built by per-point loops and a dict grouping, and reports printed the
# blocks of the chain's levels.

class BlockPartition:
    """Canonical partition: blocks sorted by least point index."""

    __slots__ = ("blocks", "block_of", "n_points")

    def __init__(self, blocks, n_points: int):
        cleaned = sorted((tuple(sorted(b)) for b in blocks if len(b)), key=lambda b: b[0])
        seen: list[int] = []
        for b in cleaned:
            seen.extend(b)
        if sorted(seen) != list(range(n_points)):
            raise ValueError("blocks must be disjoint, nonempty, and cover all indices")
        self.blocks = tuple(cleaned)
        self.n_points = n_points
        assign = np.empty(n_points, dtype=int)
        for bid, b in enumerate(cleaned):
            for i in b:
                assign[i] = bid
        assign.setflags(write=False)
        self.block_of = assign

    @classmethod
    def of(cls, partition) -> "BlockPartition":
        return cls(partition.blocks, partition.n_points)

    @classmethod
    def from_assignment(cls, assign) -> "BlockPartition":
        assign = list(assign)
        blocks: dict = {}
        for i, a in enumerate(assign):
            blocks.setdefault(a, []).append(i)
        return cls(blocks.values(), len(assign))

    @classmethod
    def trivial(cls, n_points: int) -> "BlockPartition":
        return cls([range(n_points)], n_points)

    @classmethod
    def singletons(cls, n_points: int) -> "BlockPartition":
        return cls([[i] for i in range(n_points)], n_points)

    @property
    def cardinality(self) -> int:
        return len(self.blocks)

    def refines(self, coarser: "BlockPartition") -> bool:
        """True when every block of self sits inside one block of coarser."""
        if self.n_points != coarser.n_points:
            return False
        return all(
            len({coarser.block_of[i] for i in b}) == 1 for b in self.blocks
        )

    def __eq__(self, other):
        return isinstance(other, BlockPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)


def induced_partition(partition, indices) -> BlockPartition:
    """Trace of a partition on a subset, re-indexed to 0..k-1."""
    idx = sorted(dict.fromkeys(int(i) for i in indices))
    pos = {orig: new for new, orig in enumerate(idx)}
    blocks = []
    for b in partition.blocks:
        kept = [pos[i] for i in b if i in pos]
        if kept:
            blocks.append(kept)
    return BlockPartition(blocks, len(idx))


def chain_levels(chain) -> tuple:
    """The chain's partitions, coarse to fine, from its labels."""
    return tuple(BlockPartition.from_assignment(row) for row in chain.labels.tolist())


def chain_report(chain) -> dict:
    """PartitionChain.to_report printing the blocks of chain_levels."""
    levels = chain_levels(chain)
    return {
        "levels": [
            {
                "id": int(chain.level_ids[i]),
                "threshold": None if chain.thresholds[i] is None else as_float(chain.thresholds[i]),
                "blocks": [list(map(int, b)) for b in levels[i].blocks],
                "delta": as_float(st.delta),
                "gamma": as_float(st.gamma),
                "R": st.log_ratio,
            }
            for i, st in enumerate(chain.stats)
        ]
    }


# Before dumps wrote lists of plain numbers with one join, it emitted every
# element through one recursive call.

def dumps(obj, indent: int = 2) -> str:
    """metriclab._util.dumps with one _emit call per list element."""
    out: list[str] = []
    _emit(obj, out, indent, 0)
    return "".join(out)


def _emit(obj, out: list, indent: int, depth: int) -> None:
    pad = " " * (indent * depth)
    pad_in = " " * (indent * (depth + 1))
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, Fraction):
        out.append(_fmt_float(as_float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad_in)
            _emit(item, out, indent, depth + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(pad_in + encode_basestring(str(key)) + ": ")
            _emit(value, out, indent, depth + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


# Before partitions._decay_witness, classify_chain ran the witness loop and
# the certificate and the distortion check each called it behind their own
# "fewer than two positive scales" branch.

def decay_witness(chain, p):
    """(a, log a) as the certificate read it from classify_chain."""
    positive = [i for i, st in enumerate(chain.stats) if st.delta > 0]
    if len(positive) < 2:
        return math.inf, math.inf
    if p <= 1:
        raise ValueError("p must exceed 1")
    log_witness = math.inf
    for a_idx, b_idx in zip(positive, positive[1:]):
        if b_idx != a_idx + 1:
            continue
        log_ratio = flog(chain.stats[b_idx].delta) - p * flog(chain.stats[a_idx].delta)
        log_witness = min(log_witness, log_ratio)
    try:
        witness = math.exp(log_witness)
    except OverflowError:
        witness = math.inf
    return witness, log_witness


# pushforward_chain as it stood in partitions.py, fitting and checking the
# Holder bounds through the public functions, each logging both matrices.

def pushforward_chain(space, image, chain, p, fit=None, tol=DEFAULT_TOL):
    if fit is None:
        fit = fit_holder_exponents(space.dist, image.dist)
    verify_holder_fit(space.dist, image.dist, fit)
    base = classify_chain(chain, p, tol=tol)
    image_chain = from_split(image, chain.split, chain.thresholds, chain.level_ids)
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


# Before a chain was a leaf order and the split levels of its adjacent
# leaves, its datum was the n x n split matrix itself: builders wrote it
# (the single-linkage ones through merge_ranks' n-step loop), labels walked
# it point by point, and from_partitions summed one n x n mask per level.

def merge_ranks(tree):
    """(heights, top) of a matrix, from its _prim tree: the distinct
    spanning-tree weights, ascending from the diagonal's zero, and top[i, j]
    the index in heights of u[i, j]. Walking the Prim order, u[v, seen] =
    max(weight_v, u[parent_v, seen]), on the ranks of the weights."""
    order, parent, weight = tree
    heights, rank = np.unique(weight, return_inverse=True)
    top = np.zeros((len(order), len(order)), dtype=np.intp)
    for k in range(1, len(order)):
        seen = order[:k]
        top[order[k], seen] = top[seen, order[k]] = np.maximum(top[parent[k], seen], rank[k])
    return heights, top


def subdominant(tree):
    """spaces._subdominant through merge_ranks."""
    heights, top = merge_ranks(tree)
    return heights[top]


def split_of_levels(levels):
    """The split matrix of nested partitions: one n x n mask sum per level."""
    n = levels[0].n_points
    split = np.zeros((n, n), dtype=np.int32)
    for p in levels:
        split += p.block_of[:, None] == p.block_of[None, :]
    return split


def split_leads(split):
    """max over j < i of split[i, j]: point i is the least member of its
    block at every level from this one on (0 for point 0)."""
    return np.tril(split, -1).max(axis=1)


def split_labels(split):
    """PartitionChain.labels walking the points: point i leads its block
    from level split_leads(split)[i] on; before, it shares the block of the
    first j < i joined to it longest."""
    length = int(split[0, 0])
    lvl = np.arange(length)
    leads = split_leads(split)
    parent = np.argmax(np.tril(split == leads[:, None], -1), axis=1)
    rows = np.zeros((len(leads), length), dtype=np.intp)
    seen = np.zeros(length, dtype=np.intp)  # per level, the blocks led before i
    for i, (lead, up) in enumerate(zip(leads.tolist(), parent.tolist())):
        rows[i] = np.where(lvl >= lead, seen, rows[up])
        seen[lead:] += 1
    return np.ascontiguousarray(rows.T)


def from_split(space, split, thresholds=None, level_ids=None):
    """PartitionChain._from_split: the chain of a nested split matrix, its
    diagonal the level count. The leaves are the Prim order of the
    pseudo-ultrametric length - split, which keeps every block a run; a
    split that is not nested has no such order and raises ValueError."""
    split = np.asarray(split, dtype=np.int32)
    if split.shape != (space.n, space.n):
        raise ValueError("chain does not match the space")
    length = int(split[0, 0])
    order = _prim((length - split).astype(float))[0]
    h = split[order[:-1], order[1:]]
    chain = PartitionChain._of_leaves(space, order, h, length, thresholds, level_ids)
    if not np.array_equal(chain.split, split):
        raise ValueError("split is not nested")
    return chain

