"""The decay witness a = min delta_{n+1} / delta_n^p, kept in one place
(partitions._decay_witness) for classify_chain, the certificate and the
distortion check; the pushforward that reads it, against the version that
logged both matrices twice; and the truncated-chain runs where the witness
does not cover the last split."""

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import cli
from metriclab.errors import MetricLabError, VerificationFailure
from metriclab.partitions import _decay_witness
from metriclab.ultrametrize import ensure_trivial_head
from test_chain_split import chains

CHECKS = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

# (kind, params, deepest depth float64 holds)
FLOAT_FAMILIES = (("seq_polynomial", {"s": 2}, 12), ("seq_power_tower", {"s": 0.5}, 11),
                  ("seq_geometric", {}, 12), ("seq_factorial", {}, 6),
                  ("cantor_factorial", {"r": 0.5}, 7))


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def caught(fn, *args, **kwargs):
    """fn's result, or the type and message of any exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every exception must match
        return type(exc).__name__, str(exc)


@st.composite
def float_and_exact_chains(draw):
    """chains() (clouds, tie-heavy metrics, exact zoo samples) or a float zoo
    sample, with or without a trivial head and a singleton terminal."""
    if draw(st.booleans()):
        space, chain = draw(chains())
    else:
        kind, params, deepest = draw(st.sampled_from(FLOAT_FAMILIES))
        space, chain = ml.sample(ml.make_family(kind, **params), draw(st.integers(1, deepest)))
        if draw(st.booleans()):
            chain = ml.with_singleton_terminal(space, chain)
    if draw(st.booleans()):
        chain = ensure_trivial_head(space, chain)
    return space, chain


@CHECKS
@given(float_and_exact_chains(), st.sampled_from((1.5, 2.0, 3.0)))
def test_decay_witness_equals_classify_chain(case, p):
    _, chain = case
    witness = _decay_witness(chain, p)
    assert bits(witness) == bits(oracles.decay_witness(chain, p))
    if sum(st.delta > 0 for st in chain.stats) >= 2:
        report = ml.classify_chain(chain, p)
        assert bits(witness) == bits((report.p_witness, report.log_p_witness))
    else:
        assert witness == (math.inf, math.inf)


def test_decay_witness_keeps_the_p_check_where_it_reads_a_decay():
    space, chain = ml.sample(ml.make_family("seq_geometric"), 5)
    with pytest.raises(ValueError, match="p must exceed 1"):
        _decay_witness(chain, 1.0)
    point = ml.subspace(space, [0])
    single = ml.with_singleton_terminal(point, ml.dendrogram_chain(point))
    assert _decay_witness(single, 1.0) == (math.inf, math.inf)
    with pytest.raises(ValueError, match="p must exceed 1"):
        ml.classify_chain(single, 1.0)


@settings(CHECKS, max_examples=120)
@given(chains(), st.sampled_from(("rho", "subdominant", "snowflake")),
       st.sampled_from((1.5, 2.0, 3.0)),
       st.one_of(st.none(), st.tuples(st.sampled_from((1.0, 1.01, 0.99)),
                                      st.sampled_from((1.0, 1.01, 0.99)))))
def test_pushforward_equals_parent(case, image_kind, p, bend):
    space, chain = case
    if image_kind == "snowflake" and not space.exact:
        image = ml.snowflake(space, 0.5)
    elif image_kind == "subdominant":
        image = ml.subdominant_ultrametric(space)
    else:
        image = ml.ultrametric_space_from_chain(space, chain)
    fit = None
    if bend is not None:
        ref = ml.fit_holder_exponents(space.dist, image.dist)
        fit = ml.HolderFit(ref.s, ref.t, ref.c1 * bend[0], ref.c2 * bend[1])
    new = caught(ml.pushforward_chain, space, image, chain, p, fit=fit)
    old = caught(oracles.pushforward_chain, space, image, chain, p, fit=fit)
    assert type(new) is type(old)
    assert repr(new) == repr(old)


def report_or_error(argv):
    """The JSON report of a command that exits 0, or the MetricLabError it raised."""
    args = cli.build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            assert cli._HANDLERS[args.command](args) == 0
    except MetricLabError as exc:
        return exc
    return json.loads(out.getvalue())


# Each run first splits pairs at the appended all-singleton level, which the
# witness skips; all three exit 2 today (slack -33.27, -463.42 and -inf).
TRUNCATED = (
    ["ultrametrize", "--zoo", "cantor_factorial", "--r", "0.5", "--depth", "7",
     "--p", "3", "--epsilon", "0.1"],
    ["ultrametrize", "--zoo", "seq_factorial", "--depth", "7", "--exact",
     "--p", "3", "--epsilon", "0.1"],
    ["embed", "--zoo", "seq_polynomial", "--s", "2", "--depth", "8", "--N", "1",
     "--p", "2", "--epsilon", "0.5"],
)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("argv", TRUNCATED,
                         ids=("cantor_depth7", "seq_factorial_exact_depth7", "embed_N1"))
def test_truncated_chain_is_certified_or_refused(argv):
    result = report_or_error(argv)
    if isinstance(result, MetricLabError):
        assert not isinstance(result, VerificationFailure)  # a refusal exits 1
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 1
    elif argv[0] == "ultrametrize":
        assert result["certificate"]["lower_residual"] >= result["certificate"]["K"]
