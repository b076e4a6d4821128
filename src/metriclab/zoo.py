"""Closed-form example families with exact per-level formulas and finite
sampling into FiniteMetricSpace + chain pairs.

Sequence families live on {0} u {r_n}; their level-n partition isolates
r_1 .. r_{n-1} as singletons, so delta_n = r_n and gamma_n = r_{n-1} - r_n.
Spectrum families (ultrametric products, the factorial Cantor set, the
square-root ultrametric) use closed-ball levels, where delta_n = r_n and
gamma_n = r_{n-1}.

Sampling is float64 by default and refuses depths whose values underflow;
exact=True backs the matrix with Fractions for the dyadic families, which
is how depths like 2^-2048 stay computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from ._util import LN2, coprime_fraction, max_points
from .errors import CapExceeded, DepthOverflow, ExactModeSizeExceeded
from .partitions import PartitionChain
from .spaces import (FiniteMetricSpace, _gather, _ranked, _row_blocks, _zero, _zeros,
                     sup_product)

KINDS = ("seq_factorial", "seq_power_tower", "seq_geometric", "seq_polynomial",
         "seq_log", "product_geometric", "cantor_factorial", "sqrt_ultra")

_TINY_LOG2 = -1074  # below this, float64 rounds to zero


@dataclass(frozen=True)
class AnalyticFamily:
    """Descriptor of one example family with its exact per-level formulas."""

    kind: str
    params: dict
    exact_R: float
    first_index: int
    chain_style: str  # "sequence" or "spectrum"
    standing_hypothesis_ok: bool = field(default=True)

    # Scale values r_n.

    def log2_r(self, n: int) -> float:
        if n < self.first_index:
            raise ValueError(f"{self.kind} starts at index {self.first_index}")
        if self.kind in ("seq_factorial", "cantor_factorial"):
            f = math.factorial(n)
            if f > 4e307:
                raise DepthOverflow(f"factorial exponent overflows at n={n}")
            log2 = -1.0 if self.kind == "seq_factorial" else math.log2(self.params["r"])
            return float(f) * log2
        if self.kind == "seq_power_tower":
            s = self.params["s"]
            return -(s * s / (1 - s)) * s ** (-n)
        if self.kind == "seq_geometric":
            return -float(n)
        if self.kind == "seq_polynomial":
            s = self.params["s"]
            return math.log2(n) / (1 - s) if n > 1 else 0.0
        if self.kind == "seq_log":
            return -math.log2(math.log(n))
        if self.kind == "product_geometric":
            t = self.params["t"]
            return math.log2(self.params["r1"]) * t ** (-(n - 1))
        if self.kind == "sqrt_ultra":
            return -0.5 * math.log2(n)
        raise ValueError(self.kind)

    def log_r(self, n: int) -> float:
        return self.log2_r(n) * LN2

    def r(self, n: int) -> float:
        """Float value of r_n; 0.0 signals underflow (sampling refuses it)."""
        if self.kind == "seq_polynomial":
            return float(n) ** (1.0 / (1.0 - self.params["s"]))
        if self.kind == "seq_log":
            return 1.0 / math.log(n)
        if self.kind == "sqrt_ultra":
            return 1.0 / math.sqrt(n)
        lg = self.log2_r(n)
        if lg < _TINY_LOG2:
            return 0.0
        return 2.0 ** lg

    def exponent(self, n: int) -> int:
        """The integer e_n with r_n = 2^-e_n, for the dyadic kinds."""
        if self.kind in ("seq_factorial", "seq_geometric"):
            return math.factorial(n) if self.kind == "seq_factorial" else n
        if self.kind == "product_geometric" and self.params["r1"] != 0.5:
            raise ValueError("exact sampling needs r1 = 0.5")
        name = {"seq_power_tower": "s", "product_geometric": "t"}.get(self.kind)
        if name is None:
            raise ValueError(f"exact sampling unsupported for {self.kind}")
        x = Fraction(self.params[name])
        e = x * x / (1 - x) * (1 / x) ** n if name == "s" else (1 / x) ** (n - 1)
        if e.denominator != 1:
            raise ValueError(
                f"exact sampling needs dyadic levels; {name}={self.params[name]} is not")
        return e.numerator

    def exact_r(self, n: int) -> Fraction:
        """Exact rational r_n: 1 / 2^e_n, built without a gcd, for the dyadic kinds."""
        if self.kind == "cantor_factorial":
            return Fraction(self.params["r"]) ** math.factorial(n)
        return coprime_fraction(1, 1 << self.exponent(n))

    # Closed-form level statistics, valid for n > first_index.

    def delta(self, n: int) -> float:
        return self.r(n)

    def log_delta(self, n: int) -> float:
        return self.log_r(n)

    def log_gamma(self, n: int) -> float:
        if n <= self.first_index:
            raise ValueError("gamma formula needs n past the first index")
        if self.chain_style == "spectrum":
            return self.log_r(n - 1)
        ratio = self.log_r(n) - self.log_r(n - 1)
        return self.log_r(n - 1) + math.log1p(-math.exp(ratio))

    def gamma(self, n: int) -> float:
        if self.chain_style == "spectrum":
            return self.r(n - 1)
        return self.r(n - 1) - self.r(n)

    def R_level(self, n: int) -> float:
        """R(alpha_n) = log gamma_n / log delta_n, computed in log space."""
        return self.log_gamma(n) / self.log_delta(n)

    def standing_hypothesis(self, depth: int) -> bool:
        """r_{n-1} - r_n <= r_n + r_{n+1} over the sampled range (sequence kinds)."""
        if self.chain_style != "sequence":
            return True
        first = self.first_index
        for n in range(first + 1, first + depth - 1):
            if self.r(n - 1) - self.r(n) > self.r(n) + self.r(n + 1):
                return False
        return True


def make_family(kind: str, **params) -> AnalyticFamily:
    """Construct a family descriptor, validating parameter ranges."""
    if kind == "seq_factorial":
        fam = AnalyticFamily(kind, {}, 0.0, 1, "sequence")
    elif kind == "seq_power_tower":
        s = float(params.get("s", 0.5))
        if not 0 < s < 1:
            raise ValueError("seq_power_tower needs s in (0, 1)")
        fam = AnalyticFamily(kind, {"s": s}, s, 1, "sequence")
    elif kind == "seq_geometric":
        fam = AnalyticFamily(kind, {}, 1.0, 1, "sequence")
    elif kind == "seq_polynomial":
        s = float(params.get("s", 2.0))
        if not s > 1:
            raise ValueError("seq_polynomial needs s > 1")
        fam = AnalyticFamily(kind, {"s": s}, s, 1, "sequence")
    elif kind == "seq_log":
        fam = AnalyticFamily(kind, {}, math.inf, 3, "sequence")
    elif kind == "product_geometric":
        t = float(params.get("t", 0.5))
        r1 = float(params.get("r1", 0.5))
        if not 0 < t < 1:
            raise ValueError("product_geometric needs t in (0, 1)")
        if not 0 < r1 < 1:
            raise ValueError("product_geometric needs r1 in (0, 1)")
        fam = AnalyticFamily(kind, {"t": t, "r1": r1}, t, 1, "spectrum")
    elif kind == "cantor_factorial":
        r = float(params.get("r", 0.5))
        if not 0 < r < 1:
            raise ValueError("cantor_factorial needs r in (0, 1)")
        fam = AnalyticFamily(kind, {"r": r}, 0.0, 1, "spectrum")
    elif kind == "sqrt_ultra":
        fam = AnalyticFamily(kind, {}, 1.0, 1, "spectrum")
    else:
        raise ValueError(f"unknown family kind {kind!r}; choose from {KINDS}")
    if fam.chain_style == "sequence":
        object.__setattr__(fam, "standing_hypothesis_ok", fam.standing_hypothesis(8))
    return fam


def family_for_ratio(s: float) -> AnalyticFamily:
    """A family whose limit ratio equals s, for any s in [0, infinity]."""
    if s == 0:
        return make_family("seq_factorial")
    if math.isinf(s):
        return make_family("seq_log")
    if 0 < s < 1:
        return make_family("seq_power_tower", s=s)
    if s == 1:
        return make_family("seq_geometric")
    return make_family("seq_polynomial", s=s)


EXACT_BITS = 1 << 33  # the most bits (1 GiB) of integers an exact sample's values may hold


def _refuse_bits(family, depth, bits):
    """ExactModeSizeExceeded when an exact table of bits bits is over EXACT_BITS."""
    if bits > EXACT_BITS:
        raise ExactModeSizeExceeded(
            f"exact {family.kind} at depth {depth} needs at least "
            f"2^{bits.bit_length() - 1} bits of values, over the 2^33-bit budget")


def _exact_values(family, depth, gaps=True):
    """The exact r_n of a dyadic sample, once its table passes the size
    guard: a product's, or a sequence's max table, holds the r_n, sum_n e_n
    bits; a sequence's |x - y| table (gaps) also each (2^(e_q - e_p) - 1) /
    2^e_q of p < q, sum_q (2q - d) e_q bits. The last e_n is checked first."""
    first = family.first_index
    _refuse_bits(family, depth, family.exponent(first + depth - 1))
    e = [family.exponent(n) for n in range(first, first + depth)]
    gaps = gaps and family.chain_style == "sequence"
    weights = range(2 - depth, depth + 1, 2) if gaps else [1] * depth
    _refuse_bits(family, depth, sum(w * x for w, x in zip(weights, e)))
    return list(map(family.exact_r, range(first, first + depth)))


def _sequence_values(family: AnalyticFamily, depth: int, exact: bool, gaps=True):
    first = family.first_index
    if exact:
        return _exact_values(family, depth, gaps)
    vals = [family.r(n) for n in range(first, first + depth)]
    if vals[-1] <= 0 or any(a - b <= 0 for a, b in zip(vals, vals[1:])):
        raise DepthOverflow(f"{family.kind} values underflow float64 at depth {depth}; "
                            "reduce depth or sample with exact=True")
    return vals


def _sequence_points(family, depth, exact, gaps=True):
    """Labels and values of a sequence sample (gaps: of |x - y|): 0, then r_n."""
    first = family.first_index
    labels = ["0"] + [f"r{n}" for n in range(first, first + depth)]
    return labels, [_zero(exact)] + _sequence_values(family, depth, exact, gaps)


def _gap(a, b):
    out = np.subtract(a, b)
    return np.abs(out, out=out)


def _pair_space(labels, values, pair, exact):
    """The trusted space of pair (_gap or np.maximum) over a sequence
    sample, 0 then decreasing r_n, whose diameter is entry [0, 1]: one outer
    pair with +0.0 on the diagonal in float, _dyadic_ranks in exact mode,
    with _sequence_tree as its spanning tree, run only if one is read."""
    if exact:
        table, rank = _dyadic_ranks(values, pair)
        dist, diameter = _gather(table, rank), table[-1]
    else:  # a float space is its own rank
        arr = np.asarray(values, dtype=float)
        table, rank = None, pair(arr[:, None], arr[None, :])
        np.fill_diagonal(rank, 0.0)
        dist, diameter = rank, rank[0, 1]
    tree = partial(_sequence_tree, rank, pair is np.maximum)
    return FiniteMetricSpace(labels, dist, exact=exact, _trusted=True, diameter=diameter,
                             _ranks=(table, rank), _tree=tree)


def _sequence_tree(rank, star):
    """spaces._prim(rank) of a sequence sample, or None if Prim builds
    another tree. The candidate attaches the points by value, 0, r_d, ...,
    r_1 (step j >= 1 attaches point n - j), each to the one before (a path,
    as |x - y| gives) or to 0 (a star, as max(x, y) gives). Prim's choices
    are replayed along it in O(n^2), a block of rows at a time, rows and
    columns in attach order: the prefix minima of row j are point j's least
    entries to the tree after each step. Step j takes the highest free
    index, so every later point's least entry after step j - 1 must exceed
    point j's own (a tie goes to the lower index), and point j's parent
    must be the first point to reach it (its first argmin): the one before
    for a path, 0 for a star. A rounding tie that changes a choice (0.5 -
    2^-120 is 0.5 at seq_factorial depth 5) fails the replay; one that does
    not (float seq_geometric from depth 55) passes."""
    n = len(rank)
    order = np.append(0, np.arange(n - 1, 0, -1))
    chosen = np.empty(n - 1)  # per step c, the least entry of the point step c + 1 attaches
    rival = np.full(n - 1, np.inf)  # and the least one of a later point after step c
    for a, b in _row_blocks(n, n):
        rows = rank[order[a:b]]
        m = np.concatenate((rows[:, :1], rows[:, :0:-1]), axis=1)  # columns in attach order
        before = np.tri(b - a, n - 1, a - 2, dtype=bool)  # columns c <= j - 2 of row j
        rises = (before & (m[:, 1:] > m[:, :-1])).any(axis=1)
        if rises.any():  # the prefix minima of a row that falls are the row
            m[rises] = np.minimum.accumulate(m[rises], axis=1)
        rival = np.minimum(rival, m[:, :-1].min(axis=0, initial=np.inf, where=before))
        j = np.arange(max(a, 1), b)
        chosen[j - 1] = m[j - a, j - 1]
        first = (m[j - a, 0] == chosen[j - 1] if star
                 else (m[j - a, np.maximum(j - 2, 0)] > chosen[j - 1]) | (j == 1))
        if not first.all():
            return None
    if not (rival > chosen).all():
        return None
    parent = np.zeros(n, dtype=np.intp) if star else np.append(0, order[:-1])
    return order, parent, np.append(rank[0, 0], chosen)  # each point's entry to its parent


def _dyadic_ranks(values, pair):
    """(table, rank) of pair over exact values 0, z_1 > ... > z_d, z_p =
    2^-e_p, from the e_p alone: no value is compared, subtracted or reduced.

    max(z_p, z_q) = z_min(p, q). v(p, q) = z_p - z_q = (2^(e_q - e_p) - 1) /
    2^e_q, p < q, has an odd numerator, lies in [2^-(e_p + 1), 2^-e_p) and
    grows with q, so from the top the table reads z_1, row 1 from q = d
    down, z_2, row 2, ..., z_d, 0, where v(p, p + 1) = z_(p+1) when
    e_(p+1) = e_p + 1 is listed once. Either way row p > 0 of the ranks is lead_p + slope * q
    above the diagonal, lead decreasing, so the grid's larger entry with
    its transpose is the rank, and row 0 holds the ranks `top` of the z_q.
    """
    z, d = values[1:], len(values) - 1
    if pair is np.maximum:
        table, top, slope = [values[0], *z[::-1]], np.arange(d, 0, -1.0), 0
    else:  # entry col of row p is z_p (col 0) or v(p, d - col), as 2^k - 1 over 2^e_q
        e = np.array([v.denominator.bit_length() - 1 for v in z], dtype=np.int64)
        sizes = d - np.arange(d) - np.append(np.diff(e) == 1, False)
        start = np.cumsum(sizes) - sizes
        row = np.repeat(np.arange(d), sizes)
        col = np.arange(len(row)) - start[row]
        q = np.where(col == 0, row, d - col)
        k, which = np.unique(np.where(col == 0, 1, e[q] - e[row]), return_inverse=True)
        nums = np.array([(1 << x) - 1 for x in k.tolist()], dtype=object)
        dens = np.array([v.denominator for v in z], dtype=object)
        desc = list(map(coprime_fraction, nums[which], dens[q]))
        table, top, slope = [values[0], *reversed(desc)], len(row) - start, 1
    lead = np.insert(top - slope * (d + 1), 0, 0.0)
    rank = np.add.outer(lead, slope * np.arange(d + 1.0))
    np.maximum(rank, rank.T, out=rank)
    rank[0, 1:] = rank[1:, 0] = top
    np.fill_diagonal(rank, 0.0)
    return np.fromiter(table, dtype=object, count=len(table)), rank


def _sequence_space(family, depth, exact):
    # sqrt_ultra: points are 1/n; the metric is max(sqrt(x), sqrt(y)), pts are the heights
    pair = np.maximum if family.kind == "sqrt_ultra" else _gap
    return _pair_space(*_sequence_points(family, depth, exact, pair is _gap), pair, exact)


def _sequence_chain(space, family, depth):
    """Level k joins 0 with r_(first+k), r_(first+k+1), ...: in the leaf
    order 1, ..., depth, 0 the adjacent points split at 1, ..., depth."""
    first, idx = family.first_index, np.arange(depth + 1)
    return PartitionChain._of_leaves(space, np.roll(idx, -1), idx[1:], depth, None,
                                     range(first, first + depth))


def _prefix_chain(space, coords: int, level_count: int, start_prefix: int):
    """Ball chain of a binary-coordinate space: level i+1 groups points
    sharing the first start_prefix + i coordinates (level 1 is the whole
    space). The points' lexicographic order is a leaf order: k and k + 1
    share coords - L coordinates, L the bit length of k ^ (k + 1)."""
    by_length = 1 + np.clip(coords - start_prefix - np.arange(coords + 1), 0, level_count - 1)
    adjacent = [(k ^ (k + 1)).bit_length() for k in range(space.n - 1)]
    return PartitionChain._of_leaves(space, np.arange(space.n), by_length[adjacent],
                                     level_count, None, range(1, level_count + 1))


def product_factors(family, depth, exact=False):
    """The two-point factor spaces r_n (Z/2Z) of the metric product."""
    values = _exact_values(family, depth) if exact else map(family.r, range(1, depth + 1))
    out = []
    for n, v in enumerate(values, 1):
        if not exact and v <= 0:
            raise DepthOverflow(f"product factor underflows at n={n}")
        m = _zeros((2, 2), exact)
        m[0, 1] = m[1, 0] = v
        out.append(FiniteMetricSpace(["0", f"r{n}"], m, exact=exact, _trusted=True))
    return out


def _cantor_space(family, depth, exact):
    r = family.params["r"]
    if exact:  # the distance r^((k - 1)!) of each k has (k - 1)! times the bits of r
        bits = sum(x.bit_length() for x in Fraction(r).as_integer_ratio())
        _refuse_bits(family, depth, bits * sum(map(math.factorial, range(depth))))
    vals = []
    for k in range(1, depth + 1):  # distance when the first difference is at k
        if exact:
            vals.append(Fraction(r) ** math.factorial(k - 1))
        else:
            lg = math.factorial(k - 1) * math.log2(r)
            if lg < _TINY_LOG2:
                raise DepthOverflow(f"cantor_factorial underflows float64 at depth {depth}; "
                                    "use exact=True")
            vals.append(2.0 ** lg)
    n_pts = 2 ** depth
    labels = [format(i, f"0{depth}b") for i in range(n_pts)]
    # labels are the binary digits of i, so points i and j first differ at
    # coordinate depth - L + 1 for L the bit length of i ^ j; L = 0 on the diagonal
    by_length = np.asarray([_zero(exact)] + vals[::-1], dtype=object if exact else float)
    idx = np.arange(n_pts)
    length = np.array([k.bit_length() for k in range(n_pts)])[idx[:, None] ^ idx[None, :]]
    ranks = None
    if exact:  # the table has ties (k = 1 and k = 2 both give r): rank it densely
        table, by_rank = _ranked(by_length)
        ranks = table, by_rank[length]
    # points differing in the first coordinate are the farthest apart
    return FiniteMetricSpace(labels, by_length[length], exact=exact, _trusted=True,
                             diameter=by_length[-1], _ranks=ranks)


def sample(family: AnalyticFamily, depth: int, exact: bool = False,
           chain: bool = True):
    """Materialize (space, chain) at the given depth.

    Sequence kinds return depth points r_first.. plus the limit point 0 and
    the level-n chain; spectrum kinds return the truncated product / Cantor
    set / square-root ultrametric with its closed-ball chain. chain=False
    skips the chain and its per-level statistics, which dominate the cost
    at large depths.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    points = 2 ** depth if family.kind in ("product_geometric", "cantor_factorial") \
        else depth + 1
    if points > max_points():
        raise CapExceeded(f"sampling depth {depth} yields {points} points, over the cap")
    if family.kind in ("seq_factorial", "seq_power_tower", "seq_geometric",
                       "seq_polynomial", "seq_log", "sqrt_ultra"):
        space = _sequence_space(family, depth, exact)
        built = _sequence_chain(space, family, depth) if chain else None
    elif family.kind == "product_geometric":
        space = sup_product(product_factors(family, depth, exact))
        built = _prefix_chain(space, depth, depth, 0) if chain else None
    elif family.kind == "cantor_factorial":
        space = _cantor_space(family, depth, exact)
        built = (_prefix_chain(space, depth, depth - 1 if depth > 1 else 1, 1)
                 if chain else None)
    else:
        raise ValueError(family.kind)
    return space, built


def comparison_ultrametric(family: AnalyticFamily, depth: int,
                           exact: bool = False) -> FiniteMetricSpace:
    """The max-of-values ultrametric on a sequence sample: rho(x, y) =
    max(x, y) for distinct points, with rho(0, r_n) = r_n."""
    if family.chain_style != "sequence":
        raise ValueError("comparison ultrametric applies to sequence families")
    return _pair_space(*_sequence_points(family, depth, exact, False), np.maximum, exact)


def formula_table(family: AnalyticFamily, n_from: int, n_to: int):
    """Closed-form (n, delta, gamma, R) rows for reports."""
    rows = []
    for n in range(max(n_from, family.first_index + 1), n_to + 1):
        rows.append({
            "n": n,
            "delta": family.delta(n),
            "gamma": family.gamma(n),
            "log_delta": family.log_delta(n),
            "log_gamma": family.log_gamma(n),
            "R": family.R_level(n),
        })
    return rows
