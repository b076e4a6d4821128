"""Tie-heavy metrics (quantized shortest-path closures) exercise the
simultaneous-merge paths that generic point clouds never hit."""

import numpy as np

import metriclab as ml
from metriclab.logratio import set_partitions
import oracles
from oracles import _stats_of_assignment, partition_log_ratio


def quantized_space(seed, n=6, levels=4):
    rng = np.random.default_rng(seed)
    w = rng.integers(1, levels + 1, size=(n, n)).astype(float)
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    for k in range(n):
        w = np.minimum(w, w[:, [k]] + w[[k], :])
    w /= w.max()
    return ml.validate(w, [str(i) for i in range(n)])


def test_dendrogram_and_dominance_under_ties():
    for seed in range(30):
        sp = quantized_space(seed)
        dend = ml.dendrogram_chain(sp)
        for part, st, t in zip(dend.levels[1:], dend.stats[1:], dend.thresholds[1:]):
            assert part == ml.threshold_partition(sp, t)
            assert float(st.gamma) == t
        cache = {}
        for assign in set_partitions(6):
            delta, gamma, _ = _stats_of_assignment(sp, assign)
            R = partition_log_ratio(delta, gamma)
            if 0 < delta < 1 and 0 < gamma < 1:
                if gamma not in cache:
                    cache[gamma] = ml.partition_stats(
                        sp, ml.threshold_partition(sp, gamma))
                st = cache[gamma]
                assert float(st.gamma) >= gamma - 1e-12
                assert float(st.delta) <= delta + 1e-12
                assert st.log_ratio <= R + 1e-12
        assert ml.brute_force_min_R(sp, 1.1).value == ml.threshold_min_R(sp, 1.1).value


def test_associated_endpoints_under_ties():
    for seed in range(30):
        sp = quantized_space(seed)
        realized = set()
        for mask in range(1, 2 ** 5):
            block = [i for i in range(6) if (mask >> i) & 1] or [0]
            rest = [i for i in range(6) if i not in block]
            if not rest:
                continue
            st = ml.partition_stats(sp, ml.Partition([block, rest], 6))
            for i in block:
                for j in rest:
                    if sp.dist[i, j] == st.gamma:
                        realized.add((min(i, j), max(i, j)))
        found = {pair for pair, _ in ml.associated_endpoints(sp)}
        assert found == realized


def test_threshold_min_R_equals_level_loop_under_ties():
    # every distance as a radius: delta < r is decided on ties, and tied
    # log ratios go to the first level
    for seed in range(30):
        sp = quantized_space(seed, 4 + seed % 5, 1 + seed % 4)
        for r in sorted({float(x) for x in sp.dist.ravel()} | {1.1}):
            for positive in (False, True):
                new = ml.threshold_min_R(sp, r, require_positive_delta=positive)
                old = oracles.threshold_min_R(sp, r, require_positive_delta=positive)
                assert (new.value, new.witness, new.delta, new.gamma) == \
                    (old.value, old.witness, old.delta, old.gamma)
                assert new.witness.blocks == old.witness.blocks
                assert type(new.delta) is type(old.delta) is float
