"""The per-level stats columns of PartitionChain against the loop that built
one PartitionStats per level (oracles.chain_stats_loop), bit for bit: the
columns, the stats view and each rank against a bisection of the space's
values. Chains are dendrograms of clouds and tie-heavy metrics, float and
exact zoo chains, ball, induced and nested chains, then as they are, with
a trivial head or a singleton terminal, thinned by
select_embeddable_subchain, or pushed forward to a snowflake. The
profile's report bytes equal those of its ProfileLevel rows
(oracles.profile_report), the rank comparisons of classify_chain and
nondiscreteness_check equal the value loops, and the hot paths build
neither object."""

import io
import math
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import cli, logratio, partitions
from metriclab._util import dumps
from metriclab.errors import MetricLabError
from metriclab.spaces import _gather, _rank_bound, to_csv
from metriclab.ultrametrize import ensure_trivial_head
from conftest import euclidean_space
from test_block_extents import chains

CHECKS = settings(settings.get_profile("deterministic"), max_examples=200)


@st.composite
def column_chains(draw):
    """(space, chain): a chain of test_block_extents.chains, then as is,
    with a trivial head or a singleton terminal, thinned at N = 3, or the
    image chain of its pushforward to the snowflake d^(1/2)."""
    space, chain = draw(chains())
    how = draw(st.sampled_from(("as_is", "head", "terminal", "subchain", "pushforward")))
    event(f"{how}, exact: {space.exact}")
    if how == "head":
        chain = ensure_trivial_head(space, chain)
    elif how == "terminal":
        chain = ml.with_singleton_terminal(space, chain)
    elif how == "subchain":
        try:
            chain = ml.select_embeddable_subchain(space, chain, 3)
        except (MetricLabError, ValueError):  # no fit, or no proper level
            assume(False)
    elif how == "pushforward":
        assume(not space.exact)
        image = ml.FiniteMetricSpace(space.labels, np.sqrt(space.dist), _trusted=True)
        try:
            report = ml.pushforward_chain(space, image, chain, 2.0)
        except ValueError:  # fewer than two levels with positive delta
            assume(False)
        rebuilt = ml.PartitionChain._of_leaves(image, chain.order, chain.h, len(chain))
        assert report.image_stats == rebuilt.stats
        space, chain = image, rebuilt
    return space, chain


def same_value(new, old):
    """Equal values of the same type, a float to the bit."""
    assert type(new) is type(old)
    if isinstance(old, float):
        assert new.hex() == old.hex()
    else:
        assert new == old


@CHECKS
@given(column_chains())
def test_columns_and_stats_equal_the_per_level_loop(case):
    space, chain = case
    old = oracles.chain_stats_loop(space, chain.order, chain.h, len(chain))
    assert len(chain) == len(old) == len(chain.stats)
    for new, ref in zip(chain.stats, old, strict=True):
        for field in ("delta", "gamma", "log_ratio", "cardinality"):
            same_value(getattr(new, field), getattr(ref, field))
    dtype = object if space.exact else np.float64
    for column, key in ((chain.delta, "delta"), (chain.gamma, "gamma")):
        assert column.dtype == dtype and not column.flags.writeable
        assert all(x == getattr(ref, key) for x, ref in zip(column.tolist(), old))
    for column, ranks in ((chain.delta, chain.delta_rank), (chain.gamma, chain.gamma_rank)):
        assert ranks.dtype == np.float64 and not ranks.flags.writeable
        assert list(_gather(space.values, ranks)) == list(column)
        assert ranks.tolist() == [_rank_bound(space, v, True) for v in column.tolist()]
    assert chain.cardinality.tolist() == [ref.cardinality for ref in old]
    assert chain.log_ratio.tobytes() == np.array([ref.log_ratio for ref in old]).tobytes()
    if space.exact:
        assert all(type(x) is Fraction for x in [*chain.delta, *chain.gamma])


@CHECKS
@given(column_chains(), st.sampled_from((0.05, 0.5)))
def test_profile_report_bytes_equal_its_rows(case, epsilon):
    space, chain = case
    old = oracles.chain_stats_loop(space, chain.order, chain.h, len(chain))
    prof = ml.profile(chain, epsilon, space=space)
    report = oracles.profile_report(chain, old, epsilon, space)
    assert dumps(prof.to_report()) == dumps(report) == oracles.dumps(report)
    assert [lv.to_report() for lv in prof.levels] == report["levels"]



@CHECKS
@given(column_chains(), st.sampled_from((1.5, 3.0)))
def test_rank_comparisons_equal_the_value_loops(case, p):
    """classify_chain and nondiscreteness_check compare deltas and gammas
    by rank; on chains whose consecutive levels tie, they equal the loops
    that compared the values."""
    space, chain = case
    old = oracles.chain_stats_loop(space, chain.order, chain.h, len(chain))
    report = ml.nondiscreteness_check(chain)
    assert (report.gamma_decreasing, report.discrete_terminal, report.terminal_gamma) == \
        oracles.nondiscreteness(old)
    event(f"gammas decrease: {report.gamma_decreasing}")
    if sum(st.delta > 0 for st in old) >= 2:
        deltas = [st.delta for st in old]
        event(f"deltas tie: {any(a == b for a, b in zip(deltas, deltas[1:]))}")
        assert dumps(ml.classify_chain(chain, p).to_report()) == \
            dumps(oracles.classify_report(chain, old, p))

def counting(monkeypatch):
    """A Counter of the PartitionStats and ProfileLevel objects built."""
    built = Counter()
    for cls in (ml.PartitionStats, logratio.ProfileLevel):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_the_hot_paths_build_no_per_level_object(monkeypatch, tmp_path):
    """profile --zoo, profile --input and ultrametrize through cli.main, and
    embed_chain, build no PartitionStats or ProfileLevel; reading the
    stats or levels views afterwards builds them, equal to the oracle."""
    cloud = tmp_path / "cloud.csv"
    cloud.write_text(to_csv(euclidean_space(3, 40)))
    built = counting(monkeypatch)
    for argv in (["profile", "--zoo", "seq_polynomial", "--s", "2", "--depth", "140"],
                 ["profile", "--zoo", "seq_factorial", "--depth", "9", "--exact"],
                 ["profile", "--input", str(cloud)],
                 ["ultrametrize", "--zoo", "seq_polynomial", "--s", "2", "--depth", "140",
                  "--p", "3", "--epsilon", "0.5"],
                 ["ultrametrize", "--zoo", "seq_geometric", "--depth", "60", "--exact",
                  "--p", "2", "--epsilon", "0.5"]):
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    space, chain = ml.sample(ml.make_family("seq_polynomial", s=2), 40)
    chain = ml.with_singleton_terminal(space, chain)
    ml.embed_chain(space, ml.select_embeddable_subchain(space, chain, 11), 11, 2.0, 0.5)
    prof = ml.profile(chain, space=space)
    assert built == Counter()
    stats, levels = chain.stats, prof.levels
    assert built == Counter(PartitionStats=len(chain), ProfileLevel=len(chain))
    old = oracles.chain_stats_loop(space, chain.order, chain.h, len(chain))
    assert stats == old
    assert [lv.to_report() for lv in levels] == \
        oracles.profile_report(chain, old, 0.05, space)["levels"]


def test_log_ratio_column_is_one_kernel_call_per_chain(monkeypatch):
    """Every chain builder, terminal and head takes R from _log_ratios, one
    call for all levels, and no other R kernel is left in partitions."""
    calls, kernel = [], partitions._log_ratios
    monkeypatch.setattr(partitions, "_log_ratios", lambda s, d, g: calls.append(len(d))
                        or kernel(s, d, g))
    space, chain = ml.sample(ml.make_family("seq_polynomial", s=2), 30)
    assert calls == [len(chain)]
    ml.with_singleton_terminal(space, ensure_trivial_head(space, chain))
    assert calls == [len(chain), 1]  # the sample's chain starts with one block
    assert not hasattr(partitions, "_log_ratio")
    assert math.isinf(chain.log_ratio[0])
