"""The box-norm kernel built one axis at a time against the broadcast
n x n x N reduction it replaced (tests/oracles.py), bit for bit; the
embedding, its distortion check and its image report against the oracle
path; the logs of d taken once per embedding; and the memory the embedding
takes on a deep zoo sample."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import embedding
from metriclab._util import dumps
from metriclab.errors import MetricLabError, PackingInfeasible
from test_chain_split import outcome

SIGNED_ZEROS = (0.0, -0.0)


@st.composite
def coordinates(draw):
    """(n, N) coordinates, n in 1..80 and N in 1..12, whose entries come
    from a pool of signed values (so they tie) with magnitudes spread over
    1e-300..1, both zeros included."""
    n = draw(st.integers(1, 80))
    N = draw(st.integers(1, 12))
    magnitude = st.floats(0.0, 300.0).map(lambda e: 10.0 ** -e)
    value = st.sampled_from(SIGNED_ZEROS) | st.builds(
        lambda m, negative: -m if negative else m, magnitude, st.booleans())
    pool = draw(st.lists(value, min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * N, max_size=n * N))
    return np.array(pool)[picks].reshape(n, N)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coordinates())
def test_box_matrix_equals_broadcast_reduction(coords):
    new = embedding._box_matrix(coords)
    old = oracles.box_matrix(coords)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


# the deeper samples of seq_power_tower, seq_geometric and seq_factorial
# place points on one centre and raise DepthOverflow
FAMILIES = (("seq_polynomial", {"s": 2}, 12), ("seq_power_tower", {"s": 0.5}, 6),
            ("seq_power_tower", {"s": 0.5}, 8), ("seq_geometric", {}, 12),
            ("seq_geometric", {}, 57), ("seq_factorial", {}, 4), ("seq_factorial", {}, 6),
            ("product_geometric", {}, 5), ("cantor_factorial", {"r": 0.5}, 5))


def embed_reports(embed, space, chain, N):
    """dumps of the embedding's audit, distortion check and image report,
    and the bytes of its coordinates and box matrix, with embed as the
    embedder; or the raised error's type and message."""
    try:
        result = embed(space, chain, N, 2.0, 0.5)
    except (MetricLabError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    verify = outcome(ml.verify_embedding_distortion, space, result, 2.0, 0.5)
    return (dumps(result.to_report()),
            verify if isinstance(verify, tuple) else dumps(verify.to_report()),
            dumps(embedding.image_ratio_report(space, result)),
            result.coords.tobytes(), result.box_dist.tobytes())


@pytest.mark.parametrize("N", (1, 2, 3, 11))
@pytest.mark.parametrize("kind, params, depth", FAMILIES)
def test_embedding_reports_equal_the_oracle_path(kind, params, depth, N):
    """The oracle embeds block by block with the broadcast kernel and keeps
    no logs of d, so its distortion check takes them afresh."""
    space, chain = ml.sample(ml.make_family(kind, **params), depth)
    full = ml.with_singleton_terminal(space, chain)
    works = [full]
    try:
        works.append(ml.select_embeddable_subchain(space, full, N))
    except PackingInfeasible:
        pass
    for work in works:
        assert embed_reports(ml.embed_chain, space, work, N) == \
            embed_reports(oracles.embed_chain, space, work, N)


def test_distortion_check_logs_d_once_per_embedding():
    space, chain = ml.sample(ml.make_family("seq_polynomial", s=2), 10)
    chain = ml.with_singleton_terminal(space, chain)
    sub = ml.select_embeddable_subchain(space, chain, 11)
    logged = []
    real = embedding._pair_logs

    def counted(matrix, pairs, table=None):
        logged.append(matrix)
        return real(matrix, pairs, table)

    with mock.patch.object(embedding, "_pair_logs", counted):
        result = ml.embed_chain(space, sub, 11, 2.0, 0.5)
        report = ml.verify_embedding_distortion(space, result, 2.0, 0.5)
        assert len(logged) == 1 and logged[0] is space.dist
        # an equal matrix that is another object is logged afresh, a block
        # of its rows at a time (one block here)
        twin = ml.FiniteMetricSpace(space.labels, space.dist.copy(), _trusted=True)
        again = ml.verify_embedding_distortion(twin, result, 2.0, 0.5)
        assert len(logged) == 2 and logged[1].base is twin.dist
    assert dumps(again.to_report()) == dumps(report.to_report())


def test_embedding_memory_stays_quadratic():
    """embed_chain at n = 301, N = 11 peaks at about 5.6 n^2 float64s: the
    box matrix, the pair index and the logs of d. Building each level's
    matrix as a broadcast n x n x N array peaked at 22.1."""
    space, chain = ml.sample(ml.make_family("seq_polynomial", s=2), 300)
    chain = ml.with_singleton_terminal(space, chain)
    sub = ml.select_embeddable_subchain(space, chain, 11)
    tracemalloc.start()
    try:
        ml.embed_chain(space, sub, 11, 2.0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * space.n ** 2 * 8

