"""Compatible ultrametrics from nested chains, with bi-Holder certificates.

Given a nested chain with trivial head {X} and a separating terminal level,
rho(x, y) = delta of the deepest level whose partition still joins x and y.
The certificate carries the constant K = min{a^(R+eps),
gamma(alpha_m) * delta(alpha_0)^(-p(R+eps))} and checks

    K * rho^(p(R+eps)) <= d <= rho

on every pair, a being partitions._decay_witness (infinite, so the first
term drops, when fewer than two levels have positive delta). Verification
runs in log space so it survives distances far below float underflow in
exact-mode spaces; each check builds its pair index once. The Holder fit
and its check live here too, with the pushforward of a chain that reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import DEFAULT_TOL, as_float, flog, per_distinct
from .errors import CertificateRefused, CertificateViolated, DistortionBoundsViolated
from .logratio import profile
from .partitions import (PartitionChain, PartitionStats, _decay_witness, _log_ratio,
                         _require_separating, classify_chain)
from .spaces import (FiniteMetricSpace, _gather, _leaf_matrix, _rank_bound, _spanning_tree,
                     _subdominant, _union, is_ultrametric)

LOG_SLACK = 1e-9  # tolerance for inequality checks on the log scale


def _safe_exp(x: float) -> float:
    if x < -745:
        return 0.0
    if x > 709:
        return math.inf
    return math.exp(x)


def ensure_trivial_head(space: FiniteMetricSpace, chain: PartitionChain) -> PartitionChain:
    """Prepend {X}, delta and gamma the diameter, when the chain starts with a proper one."""
    if chain.stats[0].cardinality == 1:
        return chain
    h, top = chain.h + 1, space.diameter
    h.setflags(write=False)
    head = PartitionStats(top, top, _log_ratio(top, top), 1)
    return PartitionChain(chain.order, h, (head,) + chain.stats, (None,) + chain.thresholds,
                          (int(chain.level_ids[0]) - 1,) + chain.level_ids)


def ultrametric_from_chain(space: FiniteMetricSpace, chain: PartitionChain) -> np.ndarray:
    """rho matrix of the chain ultrametric; requires a separating terminal level."""
    return ultrametric_space_from_chain(space, chain).dist


def ultrametric_space_from_chain(space: FiniteMetricSpace, chain: PartitionChain) -> FiniteMetricSpace:
    """The chain ultrametric as a space. Every delta is an entry of d, so
    rho's ranks index d's values: a pair split at level l gets the rank
    (_rank_bound) of the stats' delta of level l - 1, the largest over its
    adjacent leaves (deltas fall), and the diagonal reads the last one, 0."""
    chain = ensure_trivial_head(space, chain)
    _require_separating(chain)
    delta = np.array([_rank_bound(space, st.delta, True) for st in chain.stats])
    return _on_table(space, _leaf_matrix(chain.order, delta[chain.h - 1], np.maximum, 0.0))


def subdominant_ultrametric(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Single-linkage merge heights: the largest ultrametric below d."""
    return _on_table(space, _subdominant(_spanning_tree(space)))


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

    def to_report(self) -> dict:
        return {"s": self.s, "t": self.t, "c1": self.c1, "c2": self.c2}


def _pair_logs(matrix, pairs, table=None) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a square matrix at pairs, the row-major upper triangle
    np.triu_indices(n, 1) its caller builds once, and the log of each entry.
    Without table, each entry is logged on its own (only object entries can
    be Fractions that need flog). With table, the logs of an exact space's
    values (_value_logs), matrix holds ranks into those values and each log
    is gathered, bit for bit the one a loop takes. Numeric entries are read
    through a memoryview, one Python number at a time, so no list of them
    is built."""
    entries = np.asarray(matrix)[pairs]
    if table is not None:
        return entries, table[entries.astype(np.intp)]
    if entries.dtype == object:
        log, items = flog, entries.tolist()
    else:
        log, items = math.log, memoryview(entries)
    return entries, np.fromiter(map(log, items), dtype=float, count=entries.size)


def _value_logs(table):
    """flog of each value of a table, once per distinct value (-inf for its
    leading zero); None for no table."""
    if table is None:
        return None
    logs = np.fromiter(map(flog, table[1:].tolist()), dtype=float, count=len(table) - 1)
    return np.concatenate(([-math.inf], logs))


def _first_failure(pairs, *failed):
    """(k, (i, j), which) for the first pair of pairs failing any mask,
    which being the first mask it fails, or None. Masks are per-pair failures
    of each inequality, in the order a pair's inequalities are checked."""
    bad = np.logical_or.reduce(failed)
    if not bad.any():
        return None
    k = int(bad.argmax())
    which = next(w for w, mask in enumerate(failed) if mask[k])
    return k, (int(pairs[0][k]), int(pairs[1][k])), which


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
    hit = _first_failure(pairs,
                         v > math.log(fit.c2) + fit.s * u + LOG_SLACK,
                         v < math.log(fit.c1) + fit.t * u - LOG_SLACK)
    if hit:
        _, pair, which = hit
        raise DistortionBoundsViolated(pair, ("upper bound", "lower bound")[which])


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
    for st_b, st_i in zip(chain.stats, image_chain.stats):
        gamma_ok &= within(as_float(st_b.gamma), as_float(st_i.gamma))
        d, di = as_float(st_b.delta), as_float(st_i.delta)
        if d > 0 and di > 0:
            delta_ok &= within(d, di)
    return PushforwardReport(fit, p, p_prime, base.p_witness, a_prime,
                             chain.stats, image_chain.stats, gamma_ok, delta_ok)


def _window_start(chain: PartitionChain, r_est: float, epsilon: float) -> int | None:
    """Earliest proper level from which delta^(R+eps) < gamma < delta^(R-eps)
    (only its left inequality when R <= eps) holds on every later proper
    level; None when the last one fails. One pass up from the deepest level."""
    two_sided = r_est > epsilon
    start = None
    for idx in reversed(chain.proper_indices()):
        log_d = flog(chain.stats[idx].delta)
        log_g = flog(chain.stats[idx].gamma)
        if not log_g > (r_est + epsilon) * log_d:
            break
        if two_sided and not log_g < (r_est - epsilon) * log_d:
            break
        start = idx
    return start


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
        return {
            "p": self.p,
            "epsilon": self.epsilon,
            "R_est": self.R_est,
            "m_index": self.m_index,
            "m_level_id": self.m_level_id,
            "a": self.a,
            "K": self.K,
            "log_K": self.log_K,
            "exponent": self.exponent,
            "lower_residual": self.lower_residual,
            "upper_residual": self.upper_residual,
            "lower_sandwich_skipped": self.lower_sandwich_skipped,
            "worst_lower_pair": list(self.worst_lower_pair),
            "worst_upper_pair": list(self.worst_upper_pair),
        }


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
    witness, log_witness = _decay_witness(chain.stats, p)
    if math.isnan(log_witness) or log_witness == -math.inf:
        raise CertificateRefused("chain has no positive decay witness a")
    prof = profile(chain)
    r_est = prof.estimate
    if not math.isfinite(r_est):
        raise CertificateRefused("R estimate is infinite; no finite exponent exists")
    proper = chain.proper_indices()
    skip_lower = r_est <= epsilon
    m_pos = _window_start(chain, r_est, epsilon)
    if m_pos is None and not proper:
        with_blocks = [i for i, st in enumerate(chain.stats) if st.cardinality >= 2]
        if not with_blocks:
            raise CertificateRefused("space has a single point; nothing to certify")
        m_pos = with_blocks[-1]
    if m_pos is None:
        raise CertificateRefused(
            "no level index supports delta^(R+eps) < gamma < delta^(R-eps) "
            f"on the computed tail (R_est={r_est}, eps={epsilon})"
        )
    exponent = p * (r_est + epsilon)
    log_delta0 = flog(chain.stats[0].delta)
    log_gamma_m = flog(chain.stats[m_pos].gamma)
    first_term = (r_est + epsilon) * log_witness if math.isfinite(log_witness) else math.inf
    log_k = min(first_term, log_gamma_m - exponent * log_delta0)
    # rho takes the positive deltas of the levels; past float range on the
    # log scale, exponent * log rho and K carry no meaning
    if not (math.isfinite(log_k)
            and all(math.isfinite(exponent * flog(st.delta))
                    for st in chain.stats if st.delta > 0)):
        raise CertificateRefused(
            f"exponent p(R+eps) = {exponent} overflows the log scale: "
            "exponent * log delta or log K is not finite")
    rho = ultrametric_space_from_chain(space, chain)
    check = is_ultrametric(rho, tol)
    if not check.ok:
        raise CertificateViolated(check.witness, "strong triangle", as_float(check.violation))
    # d <= rho compares ranks; rho's table is d's, so no values are sorted
    table, (d_rank, rho_rank) = _union((space.values, space.rank), (rho.values, rho.rank))
    logs = _value_logs(table)
    pairs = np.triu_indices(space.n, 1)
    d, log_d = _pair_logs(d_rank, pairs, logs)
    if logs is None:  # a float rho takes one value per level: log each once
        r = rho_rank[pairs]
        log_r = per_distinct(math.log, r)
    else:
        r, log_r = _pair_logs(rho_rank, pairs, logs)
    low = log_d - exponent * log_r
    hit = _first_failure(pairs, d > r, low < log_k - LOG_SLACK)
    if hit:
        k, pair, which = hit
        if which == 0:
            gap = _gather(table, d[k]) - _gather(table, r[k])
            raise CertificateViolated(pair, "d <= rho", as_float(gap))
        raise CertificateViolated(pair, "K rho^exp <= d", float(low[k] - log_k))
    up = log_d - log_r
    k_low = int(low.argmin())
    k_up = int(up.argmax())
    return UltrametricCertificate(
        rho=rho.dist,
        p=p,
        epsilon=epsilon,
        R_est=r_est,
        m_index=m_pos,
        m_level_id=int(chain.level_ids[m_pos]),
        a=witness,
        K=_safe_exp(log_k),
        log_K=log_k,
        exponent=exponent,
        lower_residual=_safe_exp(float(low[k_low])),
        upper_residual=_safe_exp(float(up[k_up])),
        lower_sandwich_skipped=skip_lower,
        worst_lower_pair=(int(pairs[0][k_low]), int(pairs[1][k_low])),
        worst_upper_pair=(int(pairs[0][k_up]), int(pairs[1][k_up])),
    )
