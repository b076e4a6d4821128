"""Compatible ultrametrics from nested chains, with bi-Holder certificates.

Given a nested chain with trivial head {X} and a separating terminal level,
rho(x, y) = delta of the deepest level whose partition still joins x and y.
The certificate carries the constant K = min{a^(R+eps),
gamma(alpha_m) * delta(alpha_0)^(-p(R+eps))} and checks

    K * rho^(p(R+eps)) <= d <= rho

on every pair. Verification runs in log space so it survives distances far
below float underflow in exact-mode spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import DEFAULT_TOL, as_float, flog
from .errors import CertificateRefused, CertificateViolated, DistortionBoundsViolated
from .logratio import profile
from .partitions import PartitionChain, _require_separating, classify_chain
from .spaces import FiniteMetricSpace, _subdominant, is_ultrametric

LOG_SLACK = 1e-9  # tolerance for inequality checks on the log scale


def _safe_exp(x: float) -> float:
    if x < -745:
        return 0.0
    if x > 709:
        return math.inf
    return math.exp(x)


def ensure_trivial_head(space: FiniteMetricSpace, chain: PartitionChain) -> PartitionChain:
    """Prepend {X} when the chain starts with a proper partition."""
    if chain.stats[0].cardinality == 1:
        return chain
    return PartitionChain._from_split(space, chain.split + 1, (None,) + chain.thresholds,
                                      (int(chain.level_ids[0]) - 1,) + chain.level_ids)


def ultrametric_from_chain(space: FiniteMetricSpace, chain: PartitionChain) -> np.ndarray:
    """rho matrix of the chain ultrametric; requires a separating terminal level."""
    chain = ensure_trivial_head(space, chain)
    _require_separating(chain)
    # a pair split at level l gets the delta of level l - 1; the diagonal
    # reads the last delta, 0
    deltas = np.array([st.delta for st in chain.stats], dtype=object if space.exact else float)
    rho = deltas[chain.split - 1]
    rho.setflags(write=False)
    return rho


def ultrametric_space_from_chain(space: FiniteMetricSpace, chain: PartitionChain) -> FiniteMetricSpace:
    rho = ultrametric_from_chain(space, chain)
    return FiniteMetricSpace(space.labels, rho, exact=space.exact, _trusted=True)


def subdominant_ultrametric(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Single-linkage merge heights: the largest ultrametric below d."""
    return FiniteMetricSpace(space.labels, _subdominant(space.dist), exact=space.exact,
                             _trusted=True)


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


def _pair_logs(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row-major upper-triangle entries of a square matrix, and flog of each
    entry (per entry, so exact and float matrices log exactly as a loop)."""
    entries = np.asarray(matrix)[np.triu_indices(len(matrix), 1)]
    return entries, np.fromiter(map(flog, entries.tolist()), dtype=float, count=entries.size)


def _first_failure(n: int, *failed):
    """(k, (i, j), which) for the first row-major pair failing any mask,
    which being the first mask it fails, or None. Masks are per-pair failures
    of each inequality, in the order a pair's inequalities are checked."""
    bad = np.logical_or.reduce(failed)
    if not bad.any():
        return None
    k = int(bad.argmax())
    which = next(w for w, mask in enumerate(failed) if mask[k])
    return k, _pair_at(n, k), which


def _pair_at(n: int, k: int) -> tuple[int, int]:
    """The k-th pair (i, j), i < j, of the row-major upper triangle."""
    rows, cols = np.triu_indices(n, 1)
    return int(rows[k]), int(cols[k])


def fit_holder_exponents(d1, d2) -> HolderFit:
    _, u = _pair_logs(d1)
    _, v = _pair_logs(d2)
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


def verify_holder_fit(d1, d2, fit: HolderFit, tol: float = DEFAULT_TOL) -> None:
    """Raise DistortionBoundsViolated unless c1 d1^t <= d2 <= c2 d1^s pairwise."""
    _, u = _pair_logs(d1)
    _, v = _pair_logs(d2)
    if not u.size:  # the fit of a point has c2 = 0, whose log is undefined
        return
    hit = _first_failure(len(d1),
                         v > math.log(fit.c2) + fit.s * u + LOG_SLACK,
                         v < math.log(fit.c1) + fit.t * u - LOG_SLACK)
    if hit:
        _, pair, which = hit
        raise DistortionBoundsViolated(pair, ("upper bound", "lower bound")[which])


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
    positive = [st for st in chain.stats if st.delta > 0]
    if len(positive) >= 2:
        report = classify_chain(chain, p, tol=tol)
        witness = report.p_witness
        log_witness = report.log_p_witness
    else:
        # a fully resolved sample with a single scale carries no decay
        # constraint; the witness is vacuous and K uses its second term
        witness = math.inf
        log_witness = math.inf
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
    rho = ultrametric_from_chain(space, chain)
    check = is_ultrametric(
        FiniteMetricSpace(space.labels, rho, exact=space.exact, _trusted=True), tol)
    if not check.ok:
        raise CertificateViolated(check.witness, "strong triangle", as_float(check.violation))
    d, log_d = _pair_logs(space.dist)
    r, log_r = _pair_logs(rho)
    low = log_d - exponent * log_r
    hit = _first_failure(space.n, d > r, low < log_k - LOG_SLACK)
    if hit:
        k, pair, which = hit
        if which == 0:
            raise CertificateViolated(pair, "d <= rho", as_float(d[k] - r[k]))
        raise CertificateViolated(pair, "K rho^exp <= d", float(low[k] - log_k))
    up = log_d - log_r
    k_low = int(low.argmin())
    k_up = int(up.argmax())
    return UltrametricCertificate(
        rho=rho,
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
        worst_lower_pair=_pair_at(space.n, k_low),
        worst_upper_pair=_pair_at(space.n, k_up),
    )
