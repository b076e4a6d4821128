import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from metriclab import validate

# Property tests that load this profile replay the same examples on every run
# and set no per-example time limit, so a slow shared machine cannot fail them.
settings.register_profile("deterministic", deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])


def euclidean_space(seed: int, n: int, dim: int = 2, scale: float = 1.0):
    """Deterministic random point cloud, normalized to the given diameter."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d = d / d.max() * scale
    return validate(d, [f"s{seed}p{i}" for i in range(n)])


@pytest.fixture
def line3():
    """The 3-point line {0, 0.5, 1} with absolute-value distances."""
    return validate([[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]], ["0", "0.5", "1"])
