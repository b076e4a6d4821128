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

import numpy as np

from ._util import LN2, dyadic_fractions, dyadic_numerators, max_points
from .errors import CapExceeded, DepthOverflow
from .partitions import PartitionChain
from .spaces import FiniteMetricSpace, _ranked, _zero, _zeros, sup_product

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
        if self.kind == "seq_factorial":
            f = math.factorial(n)
            if f > 4e307:
                raise DepthOverflow(f"factorial exponent overflows at n={n}")
            return -float(f)
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
        if self.kind == "cantor_factorial":
            f = math.factorial(n)
            if f > 4e307:
                raise DepthOverflow(f"factorial exponent overflows at n={n}")
            return float(f) * math.log2(self.params["r"])
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

    def exact_r(self, n: int) -> Fraction:
        """Exact rational r_n for the dyadic kinds."""
        if self.kind == "seq_factorial":
            return Fraction(1, 2 ** math.factorial(n))
        if self.kind == "seq_geometric":
            return Fraction(1, 2 ** n)
        if self.kind == "seq_power_tower":
            s = Fraction(self.params["s"])
            e = (s * s / (1 - s)) * (1 / s) ** n
            if e.denominator != 1:
                raise ValueError(
                    f"exact sampling needs dyadic levels; s={self.params['s']} is not"
                )
            return Fraction(1, 2 ** int(e))
        if self.kind == "cantor_factorial":
            return Fraction(self.params["r"]) ** math.factorial(n)
        if self.kind == "product_geometric":
            if self.params["r1"] != 0.5:
                raise ValueError("exact sampling needs r1 = 0.5")
            t = Fraction(self.params["t"])
            e = (1 / t) ** (n - 1)
            if e.denominator != 1:
                raise ValueError(
                    f"exact sampling needs dyadic levels; t={self.params['t']} is not"
                )
            return Fraction(1, 2 ** int(e))
        raise ValueError(f"exact sampling unsupported for {self.kind}")

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


def _sequence_values(family: AnalyticFamily, depth: int, exact: bool):
    first = family.first_index
    idx = list(range(first, first + depth))
    if exact:
        return [family.exact_r(n) for n in idx]
    vals = [family.r(n) for n in idx]
    if vals[-1] <= 0 or any(a - b <= 0 for a, b in zip(vals, vals[1:])):
        raise DepthOverflow(
            f"{family.kind} values underflow float64 at depth {depth}; "
            "reduce depth or sample with exact=True"
        )
    return vals


def _sequence_points(family, depth, exact):
    """Labels and values of a sequence sample: the limit point 0, then r_n."""
    first = family.first_index
    labels = ["0"] + [f"r{n}" for n in range(first, first + depth)]
    return labels, [_zero(exact)] + _sequence_values(family, depth, exact)


def _pair_space(labels, values, pair, exact):
    """The trusted space of pair(values[i], values[j]) with a zero diagonal.

    On a sequence sample (0, then decreasing r_n) both |x - y| and
    max(x, y) peak at the pair (0, r_first), so entry [0, 1] is the
    diameter. Each unordered pair is computed once, a row at a time. Exact
    values are dyadic (0 or 1/2^e): pair runs on their numerators over the
    common denominator 2^q, np.unique ranks those Python ints, and one
    reduced Fraction is built per distinct value.
    """
    n = len(values)
    if exact:
        nums, q = dyadic_numerators(values)
        arr = np.array(nums, dtype=object)
    else:
        arr = np.asarray(values, dtype=float)
    upper = np.concatenate([[0]] + [pair(arr[i], arr[i + 1:]) for i in range(n - 1)])
    rows, cols = np.triu_indices(n, 1)
    if not exact:
        dist = np.zeros((n, n))
        dist[rows, cols] = dist[cols, rows] = upper[1:]
        return FiniteMetricSpace(labels, dist, _trusted=True, diameter=dist[0, 1])
    distinct, inverse = np.unique(upper, return_inverse=True)  # upper[0] makes values[0] zero
    table = dyadic_fractions(distinct.tolist(), q)
    rank = np.zeros((n, n))
    rank[rows, cols] = rank[cols, rows] = inverse[1:]
    return FiniteMetricSpace(labels, table[rank.astype(np.intp)], exact=True, _trusted=True,
                             diameter=table[int(rank[0, 1])], _ranks=(table, rank))


def _sequence_space(family, depth, exact):
    labels, pts = _sequence_points(family, depth, exact)
    # sqrt_ultra: points are 1/n; the metric is max(sqrt(x), sqrt(y)), pts are the heights
    pair = np.maximum if family.kind == "sqrt_ultra" else lambda a, b: np.abs(a - b)
    return _pair_space(labels, pts, pair, exact)


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


def _product_space(family, depth, exact):
    factors = product_factors(family, depth, exact)
    return sup_product(factors)


def product_factors(family, depth, exact=False):
    """The two-point factor spaces r_n (Z/2Z) of the metric product."""
    out = []
    for n in range(1, depth + 1):
        v = family.exact_r(n) if exact else family.r(n)
        if not exact and v <= 0:
            raise DepthOverflow(f"product factor underflows at n={n}")
        m = _zeros((2, 2), exact)
        m[0, 1] = m[1, 0] = v
        out.append(FiniteMetricSpace(["0", f"r{n}"], m, exact=exact, _trusted=True))
    return out


def _cantor_space(family, depth, exact):
    r = family.params["r"]
    vals = []
    for k in range(1, depth + 1):  # distance when the first difference is at k
        if exact:
            vals.append(Fraction(r) ** math.factorial(k - 1))
        else:
            lg = math.factorial(k - 1) * math.log2(r)
            if lg < _TINY_LOG2:
                raise DepthOverflow(
                    f"cantor_factorial underflows float64 at depth {depth}; use exact=True"
                )
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
        raise CapExceeded(
            f"sampling depth {depth} yields {points} points, over the cap"
        )
    if family.kind in ("seq_factorial", "seq_power_tower", "seq_geometric",
                       "seq_polynomial", "seq_log", "sqrt_ultra"):
        space = _sequence_space(family, depth, exact)
        built = _sequence_chain(space, family, depth) if chain else None
    elif family.kind == "product_geometric":
        space = _product_space(family, depth, exact)
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
    return _pair_space(*_sequence_points(family, depth, exact), np.maximum, exact)


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
