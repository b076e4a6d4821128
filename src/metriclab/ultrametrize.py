"""Compatible ultrametrics from nested chains, with bi-Holder certificates.

Given a nested chain with trivial head {X} and a separating terminal level,
rho(x, y) = delta of the deepest level whose partition still joins x and y.
The certificate carries the constant K = min{a^(R+eps),
gamma(alpha_m) * delta(alpha_0)^(-p(R+eps))} and checks

    K * rho^(p(R+eps)) <= d <= rho

on every pair, a being partitions._decay_witness (infinite, so the first
term drops, when fewer than two levels have positive delta). rho is constant
on the pairs a level first splits, so the check reads each level's least
and largest d (_sandwich) and scans the pairs only for the ones it names.
Verification runs in log space so it survives distances far below float
underflow in exact-mode spaces. The Holder fit and its check live here too,
building their pair index once, with the pushforward of a chain that reads
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import DEFAULT_TOL, as_float, as_floats, field_report, flog
from .errors import CertificateRefused, CertificateViolated, DistortionBoundsViolated
from .logratio import profile  # noqa: F401 (a binding the bench tracer re-binds)
from .partitions import (PartitionChain, _decay_witness, _joined_columns, _level_columns,
                         _level_extremes, _logs, _require_separating, classify_chain,
                         r_estimate)
from .spaces import (FiniteMetricSpace, _gather, _leaf_matrix, _pair_at, _pair_blocks,
                     _rank_bound, _spanning_tree, is_ultrametric)

LOG_SLACK = 1e-9  # tolerance for inequality checks on the log scale


def _safe_exp(x: float) -> float:
    if x < -745:
        return 0.0
    if x > 709:
        return math.inf
    return math.exp(x)


def ensure_trivial_head(space: FiniteMetricSpace, chain: PartitionChain) -> PartitionChain:
    """Prepend {X}, delta and gamma the diameter (of rank _rank_bound), when
    the chain starts with a proper one: every pair splits a level later,
    and level 0 splits none."""
    if chain.cardinality[0] == 1:
        return chain
    h, top = chain.h + 1, _rank_bound(space, space.diameter, True)
    h.setflags(write=False)
    head = _level_columns(space, [top], [top], [1])
    return PartitionChain(chain.order, h, *_joined_columns(head, chain.columns),
                          (None,) + chain.thresholds,
                          (int(chain.level_ids[0]) - 1,) + chain.level_ids, chain.cuts)


def ultrametric_from_chain(space: FiniteMetricSpace, chain: PartitionChain) -> np.ndarray:
    """rho matrix of the chain ultrametric; requires a separating terminal level."""
    return ultrametric_space_from_chain(space, chain).dist


def ultrametric_space_from_chain(space: FiniteMetricSpace, chain: PartitionChain) -> FiniteMetricSpace:
    """The chain ultrametric as a space. Every delta is an entry of d, so
    rho's ranks index d's values: a pair split at level l gets the chain's
    delta rank of level l - 1, the largest over its adjacent leaves (deltas
    fall), and the diagonal reads the last one, 0."""
    chain = ensure_trivial_head(space, chain)
    _require_separating(chain)
    return _on_table(space, _leaf_matrix(chain.order, chain.delta_rank[chain.h - 1], np.maximum,
                                         0.0))


def subdominant_ultrametric(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Single-linkage merge heights, the largest ultrametric below d: the
    tree path from order[p] to order[q] of the Prim tree peaks at the
    largest weight attached after p, up to q."""
    order, _, weight = _spanning_tree(space)
    return _on_table(space, _leaf_matrix(order, weight[1:], np.maximum, weight[0]))


def _on_table(space: FiniteMetricSpace, rank: np.ndarray) -> FiniteMetricSpace:
    """The trusted space on space's points whose ranks index space's values."""
    return FiniteMetricSpace(space.labels, _gather(space.values, rank), exact=space.exact,
                             _trusted=True, _ranks=(space.values, rank))


@dataclass(frozen=True)
class HolderFit:
    """Tightest c1 d1^t <= d2 <= c2 d1^s over all pairs, with s <= t.

    Exponents are the extremal slopes of log d2 against log d1 over pairs
    where both logs are nonzero; pairs touching distance 1 only shape the
    constants.
    """

    s: float
    t: float
    c1: float
    c2: float

    to_report = field_report


def _pair_logs(matrix, pairs, table=None) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a matrix at pairs (an index or mask its caller builds
    once) and the log of each: gathered from table, the logs of an exact
    space's values (_value_logs), or else each taken on its own (_logs)."""
    entries = np.asarray(matrix)[pairs]
    if table is not None:
        return entries, table[entries.astype(np.intp)]
    return entries, _logs(entries)


def _value_logs(table):
    """flog of each value of an exact space's table, the logs its ranks
    gather bit for bit (-inf for its leading zero); None for no table."""
    if table is None:
        return None
    logs = np.fromiter((math.log(x.numerator) - math.log(x.denominator)  # flog of a Fraction
                        for x in table[1:].tolist()), dtype=float, count=len(table) - 1)
    return np.concatenate(([-math.inf], logs))


def _first_failure(*failed):
    """(k, which) for the first pair failing any mask, which being the first
    mask it fails, or None. Masks are per-pair failures of each inequality,
    in the order a pair's inequalities are checked."""
    bad = np.logical_or.reduce(failed)
    if not bad.any():
        return None
    k = int(bad.argmax())
    return k, next(w for w, mask in enumerate(failed) if mask[k])


def _holder_logs(d1, d2):
    """(pairs, u, v): the upper-triangle pairs and the logs of d1 and d2 there."""
    pairs = np.triu_indices(len(d1), 1)
    return pairs, _pair_logs(d1, pairs)[1], _pair_logs(d2, pairs)[1]


def fit_holder_exponents(d1, d2) -> HolderFit:
    return _holder_fit(*_holder_logs(d1, d2)[1:])


def _holder_fit(u, v) -> HolderFit:
    """The HolderFit of d2 against d1 from the logs of their pairs, u and v."""
    both = (u < 0) & (v < 0)
    if both.any():
        slopes = v[both] / u[both]
        s = float(slopes.min())
        t = float(slopes.max())
    else:
        s = t = 1.0
    log_c2 = float(np.max(v - s * u, initial=-math.inf))
    log_c1 = float(np.min(v - t * u, initial=math.inf))
    return HolderFit(s, t, math.exp(log_c1), math.exp(log_c2))


def verify_holder_fit(d1, d2, fit: HolderFit) -> None:
    """Raise DistortionBoundsViolated unless c1 d1^t <= d2 <= c2 d1^s pairwise."""
    _check_holder_fit(*_holder_logs(d1, d2), fit)


def _check_holder_fit(pairs, u, v, fit: HolderFit) -> None:
    """verify_holder_fit on the logs u and v of the two matrices at pairs."""
    if not u.size:  # the fit of a point has c2 = 0, whose log is undefined
        return
    hit = _first_failure(v > math.log(fit.c2) + fit.s * u + LOG_SLACK,
                         v < math.log(fit.c1) + fit.t * u - LOG_SLACK)
    if hit:
        k, which = hit
        raise DistortionBoundsViolated((int(pairs[0][k]), int(pairs[1][k])),
                                       ("upper bound", "lower bound")[which])


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
    The logs of d and d' are taken once, for the fit and for its check.
    """
    pairs, u, v = _holder_logs(space.dist, image.dist)
    if fit is None:
        fit = _holder_fit(u, v)
    _check_holder_fit(pairs, u, v, fit)
    base = classify_chain(chain, p, tol=tol)
    image_chain = PartitionChain._of_leaves(image, chain.order, chain.h, len(chain),
                                            chain.thresholds, chain.level_ids)
    p_prime = (fit.t / fit.s) * p
    a_prime = (fit.c1 / fit.c2 ** p_prime) * base.p_witness ** fit.t

    def within(x, y) -> bool:  # c1 x^t <= y <= c2 x^s, up to relative and absolute slack
        return (fit.c1 * x ** fit.t <= y * (1 + 1e-9) + tol
                and y <= fit.c2 * x ** fit.s * (1 + 1e-9) + tol)

    gamma_ok = delta_ok = True
    for g, gi, d, di in zip(*(as_floats(c).tolist() for c in (
            chain.gamma, image_chain.gamma, chain.delta, image_chain.delta))):
        gamma_ok &= within(g, gi)
        if d > 0 and di > 0:
            delta_ok &= within(d, di)
    return PushforwardReport(fit, p, p_prime, base.p_witness, a_prime,
                             chain.stats, image_chain.stats, gamma_ok, delta_ok)


def _window_start(chain: PartitionChain, r_est: float, epsilon: float) -> int | None:
    """Earliest proper level from which delta^(R+eps) < gamma < delta^(R-eps)
    (only its left inequality when R <= eps) holds on every later proper
    level; None when the last one fails. One pass up from the deepest level."""
    proper = chain.proper_indices()
    log_d, log_g = _logs(chain.delta[proper]), _logs(chain.gamma[proper])
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic, silently
        holds = log_g > (r_est + epsilon) * log_d
        if r_est > epsilon:
            holds &= log_g < (r_est - epsilon) * log_d
    start = len(proper) - np.argmin(holds[::-1]) if not holds.all() else 0
    return proper[start] if start < len(proper) else None


@dataclass(frozen=True)
class UltrametricCertificate:
    rho: np.ndarray
    p: float
    epsilon: float
    R_est: float
    m_index: int          # chain position of the window start
    m_level_id: int       # external id of that level
    a: float              # decay witness of the chain
    K: float
    log_K: float
    exponent: float       # p * (R_est + epsilon)
    lower_residual: float  # min over pairs of d / rho^exponent; >= K when valid
    upper_residual: float  # max over pairs of d / rho; <= 1 when valid
    lower_sandwich_skipped: bool
    worst_lower_pair: tuple[int, int]
    worst_upper_pair: tuple[int, int]

    def to_report(self) -> dict:
        return field_report(self, ("rho",))


def certificate(space: FiniteMetricSpace, chain: PartitionChain, p: float,
                epsilon: float, tol: float = DEFAULT_TOL) -> UltrametricCertificate:
    """Build rho from the chain and verify both certificate inequalities.

    The window start m is the earliest proper level from which
    delta^(R+eps) < gamma < delta^(R-eps) holds on every later computed
    level; without such a level the certificate is refused rather than
    emitted with invalid constants. For R_est <= eps the upper half of the
    sandwich is vacuous and only the lower half is enforced (flagged).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    chain = ensure_trivial_head(space, chain)
    witness, log_witness = _decay_witness(chain, p)
    if math.isnan(log_witness) or log_witness == -math.inf:
        raise CertificateRefused("chain has no positive decay witness a")
    r_est = r_estimate(chain)
    if not math.isfinite(r_est):
        raise CertificateRefused("R estimate is infinite; no finite exponent exists")
    m_pos = _window_start(chain, r_est, epsilon)
    if m_pos is None and not chain.proper_indices():
        with_blocks = np.flatnonzero(chain.cardinality >= 2).tolist()
        if not with_blocks:
            raise CertificateRefused("space has a single point; nothing to certify")
        m_pos = with_blocks[-1]
    if m_pos is None:
        raise CertificateRefused(
            "no level index supports delta^(R+eps) < gamma < delta^(R-eps) "
            f"on the computed tail (R_est={r_est}, eps={epsilon})")
    exponent = p * (r_est + epsilon)
    first_term = (r_est + epsilon) * log_witness if math.isfinite(log_witness) else math.inf
    log_k = min(first_term, flog(chain.gamma[m_pos]) - exponent * flog(chain.delta[0]))
    # rho takes the positive deltas of the levels; past float range on the
    # log scale, exponent * log rho and K carry no meaning
    if not (math.isfinite(log_k)
            and all(math.isfinite(exponent * x)
                    for x in _logs(chain.delta[chain.delta_rank > 0]).tolist())):
        raise CertificateRefused(
            f"exponent p(R+eps) = {exponent} overflows the log scale: "
            "exponent * log delta or log K is not finite")
    rho = ultrametric_space_from_chain(space, chain)
    check = is_ultrametric(rho, tol)
    if not check.ok:
        raise CertificateViolated(check.witness, "strong triangle", as_float(check.violation))
    (low, low_pair), (up, up_pair) = _sandwich(space, chain, rho, exponent, log_k)
    return UltrametricCertificate(
        rho=rho.dist, p=p, epsilon=epsilon, R_est=r_est, m_index=m_pos,
        m_level_id=int(chain.level_ids[m_pos]), a=witness, K=_safe_exp(log_k), log_K=log_k,
        exponent=exponent, lower_residual=_safe_exp(float(low)),
        upper_residual=_safe_exp(float(up)), lower_sandwich_skipped=r_est <= epsilon,
        worst_lower_pair=low_pair, worst_upper_pair=up_pair)


def _sandwich(space, chain, rho, exponent, log_k):
    """((lower, pair), (upper, pair)): the least log d - exponent log rho and
    the largest log d - log rho, with the first row-major pair reaching each;
    CertificateViolated at the first pair failing d <= rho, then log K. rho
    is constant on the pairs a level splits (read off at an adjacent-leaf
    pair), so the level's least and largest d (the chain's split extremes)
    give its extremes bit for bit, as math.log and subtraction are monotone,
    and so are exact logs over a level's ranks where they are in order. A
    float level's pairs that reach a value, or fail, are a range of d (_reach);
    exact logs are gathered. One scan (_pair_blocks) finds the pairs, and
    stops at the last unless a pair may fail or an exact level's logs fall."""
    levels, first = np.unique(chain.h, return_index=True)
    a, b = chain.order[first], chain.order[first + 1]
    value = rho.dist[a, b]  # on a table rho shares (or in float) its ranks are d's
    bound = (rho.rank[a, b] if rho.values is space.values
             else np.array([_rank_bound(space, v, True) for v in value]))
    clog = _logs(value)
    shift, floor = exponent * clog, log_k - LOG_SLACK
    extremes = _level_extremes(space, chain.order, chain.h, len(chain), chain.cuts)
    top, least = (x[levels] for x in extremes)
    logs = _value_logs(space.values)
    log_of = math.log if logs is None else (lambda r: logs[int(r)])
    lows = np.array([log_of(x) for x in least.tolist()]) - shift
    ups = np.array([log_of(x) for x in top.tolist()]) - clog
    goal = [lows.min(), -ups.max()]  # each side's least value, the upper one negated
    fails = (top > bound).any() or (lows < floor).any()
    # per level: d above over fails d <= rho, d at most under fails log K,
    # a float d at most reach_low, or at least reach_up, reaches a goal
    over, at_shift, at_clog, under, reach_low, reach_up = (
        np.full(len(chain), x) for x in (np.inf, 0.0, 0.0, -np.inf, -np.inf, np.inf))
    over[levels], at_shift[levels], at_clog[levels] = bound, shift, clog
    if logs is not None:
        fall = np.flatnonzero(logs[1:] < logs[:-1])
        if (np.searchsorted(fall, least) != np.searchsorted(fall, top)).any():
            goal, fails = [-np.inf, -np.inf], True  # known once every pair is read
    else:
        k = np.flatnonzero(lows < floor)
        under[levels[k]] = _reach(lambda x: x - shift[k] < floor, least[k], top[k])
        k = np.flatnonzero(lows == goal[0])
        reach_low[levels[k]] = _reach(lambda x: x - shift[k] <= goal[0], least[k], top[k])
        k = np.flatnonzero(ups == -goal[1])
        reach_up[levels[k]] = _reach(lambda x: clog[k] - x <= goal[1], top[k], least[k])
    best = [(np.inf, None), (np.inf, None)]  # (value, pair) of each side so far
    for i0, i1, split, upper in _pair_blocks(chain.order, chain.h):
        block = space.rank[i0:i1, i0 + 1:]
        if logs is None:
            d = block[upper]
            wrong = d <= under[split]
            sides = [np.where(d <= reach_low[split], goal[0], np.inf),
                     np.where(d >= reach_up[split], goal[1], np.inf)]
        else:
            d, key = _pair_logs(block, upper, logs)
            sides = [key - at_shift[split], at_clog[split] - key]
            wrong = sides[0] < floor
        if fails and (wrong := wrong | (d > over[split])).any():
            k = int(wrong.argmax())
            pair, level = _pair_at(space.n, i0, k), split[k]
            if d[k] > over[level]:
                gap = space.dist[pair] - value[np.searchsorted(levels, level)]
                raise CertificateViolated(pair, "d <= rho", as_float(gap))
            raise CertificateViolated(pair, "K rho^exp <= d",
                                      float(log_of(d[k]) - at_shift[level] - log_k))
        for side, values in enumerate(sides):
            k = int(values.argmin())
            if values[k] < best[side][0]:
                best[side] = (values[k], _pair_at(space.n, i0, k))
        if not fails and [v for v, _ in best] == goal:
            break
    return best[0], (-best[1][0], best[1][1])


def _reach(test, start, stop) -> np.ndarray:
    """Per entry of arrays of positive doubles, the last double from start
    toward stop up to which test holds of its math.log, test holding at start
    and failing from some double on: on their bits, ordered as the doubles
    are, every entry at once gallops out from start, then bisects."""
    start, stop = start.view(np.int64), stop.view(np.int64)
    sign, lo, hi = np.sign(stop - start), np.zeros_like(start), np.abs(stop - start)
    step = np.ones_like(lo)  # 0 once an entry bisects
    while (lo < hi).any():
        mid = np.where(step > 0, lo + np.minimum(step, hi - lo), lo + (hi - lo + 1) // 2)
        at = (start + sign * mid).view(float)
        ok = test(np.fromiter(map(math.log, at.tolist()), float, len(at)))
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid - 1)
        step = np.where(ok, 2 * np.minimum(step, 1 << 61), 0)
    return (start + sign * lo).view(float)
