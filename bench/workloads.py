"""Seeded inputs and job lists for the three benchmark workloads.

A job is one `metriclab` command line. The workload functions write every
input file the jobs read before any timing starts. They depend only on
numpy, never on the program under test, so a change to metriclab cannot
change its own inputs.

The seed draws the point clouds and quantized metrics of `cloud_files`. The
zoo workloads sample closed-form families, so their inputs are the same for
every seed. Job order is fixed: peak memory depends on allocation history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CLOUDS = 8  # clouds for profile and ultrametrize
GAP_CLOUDS = 4  # clouds for the heuristic gap-bounds
ORACLE_SPACES = 4
ORACLE_RADIUS = "0.9"
RADII = "0.5,0.25,0.125"


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus the facts its report must show for any seed."""

    name: str
    argv: tuple
    inputs: tuple = ()
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


# Generators, copied from the test suite so the benchmark stands alone.

def euclidean_cloud(seed: int, n: int, dim: int = 2, scale: float = 1.0):
    """Deterministic random point cloud, normalized to the given diameter
    (the generator of tests/conftest.py, returning labels and matrix)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d = d / d.max() * scale
    return [f"s{seed}p{i}" for i in range(n)], d


def quantized_metric(seed: int, n: int = 6, levels: int = 4):
    """Tie-heavy shortest-path closure of integer weights (the generator of
    tests/test_ties.py, returning labels and matrix)."""
    rng = np.random.default_rng(seed)
    w = rng.integers(1, levels + 1, size=(n, n)).astype(float)
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    for k in range(n):
        w = np.minimum(w, w[:, [k]] + w[[k], :])
    w /= w.max()
    return [str(i) for i in range(n)], w


def write_csv(path: Path, labels, matrix) -> None:
    """The CSV layout metriclab reads: a label row, then the full matrix."""
    lines = [",".join(labels)]
    lines.extend(",".join(repr(float(x)) for x in row) for row in matrix)
    path.write_text("\n".join(lines) + "\n")


def dendrogram_levels(matrix) -> int:
    """Levels of the single-linkage chain: the trivial partition plus one per
    distinct merge height, i.e. per distinct minimum-spanning-tree weight."""
    n = len(matrix)
    if n == 1:
        return 1
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = np.array(matrix[0], dtype=float)
    weights = set()
    for _ in range(n - 1):
        cand = np.where(in_tree, np.inf, best)
        j = int(np.argmin(cand))
        weights.add(float(cand[j]))
        in_tree[j] = True
        best = np.minimum(best, matrix[j])
    return 1 + len(weights)


# Workloads. Each function takes the seed and its working directory, writes
# its inputs under work/in, and points every output under work/out/<job>.

class _JobList:
    def __init__(self, work: Path):
        self.work = work
        self.jobs: list[Job] = []
        (work / "in").mkdir(parents=True, exist_ok=True)

    def space(self, name: str, labels, matrix) -> str:
        path = self.work / "in" / f"{name}.csv"
        write_csv(path, labels, matrix)
        return str(path)

    def out(self, job: str) -> str:
        path = self.work / "out" / job
        path.mkdir(parents=True, exist_ok=True)
        return str(path)

    def add(self, name, argv, inputs=(), **expect) -> None:
        self.jobs.append(Job(name, tuple(str(a) for a in argv), tuple(inputs), expect))


def cloud_files(seed: int, work: Path) -> list[Job]:
    """CSV inputs: validation, the dendrogram and brute-force enumeration.

    The time profile, ultrametrize and gap-bounds take on one random cloud
    varies by about 25% from cloud to cloud (largest_gap runs on whichever
    blocks attain the level diameter), so each runs on many small clouds
    and the command totals average over them. Small jobs also give each
    job more repeats in a run, which steadies its best time.
    """
    b = _JobList(work)
    draws = iter(range(1000 * seed, 1000 * (seed + 1)))

    def space(name, gen, n):
        labels, d = gen(next(draws), n)
        return b.space(name, labels, d), d

    clouds = [(f"cloud60_{i}", euclidean_cloud, 60) for i in range(CLOUDS)]
    for name, gen, n in clouds + [("quant200", quantized_metric, 200)]:
        path, d = space(name, gen, n)
        b.add(f"profile_{name}", ["profile", "--input", path], [path],
              levels=dendrogram_levels(d))
        b.add(f"ultrametrize_{name}",
              ["ultrametrize", "--input", path, "--p", "2", "--epsilon", "0.5",
               "--rho-out", Path(b.out(f"ultrametrize_{name}")) / "rho.csv"], [path])
    path, _ = space("cloud160", euclidean_cloud, 160)
    b.add("dimension_cloud160",
          ["dimension", "--input", path, "--window-r", "0.5", "--ratio-floor", "4",
           "--out", b.out("dimension_cloud160")], [path])
    for i in range(GAP_CLOUDS):
        name = f"cloud35_{i}"
        path, _ = space(name, euclidean_cloud, 35)
        b.add(f"gap_bounds_{name}", ["gap-bounds", "--input", path, "--radii", RADII],
              [path], rows=len(RADII.split(",")))
    path, _ = space("cloud300", euclidean_cloud, 300)
    two = b.space("two_point", ["a", "b"], [[0.0, 0.5], [0.5, 0.0]])
    b.add("product_cloud300", ["product", path, two], [path, two], points=600)
    for k in range(ORACLE_SPACES):
        path, _ = space(f"small{k}", euclidean_cloud if k % 2 == 0 else quantized_metric, 8)
        b.add(f"oracle_small{k}", ["oracle", "--input", path, "--radius", ORACLE_RADIUS],
              [path])
        b.add(f"gap_bounds_small{k}", ["gap-bounds", "--input", path, "--radii", RADII],
              [path], rows=len(RADII.split(",")))
    return b.jobs


def zoo_deep(seed: int, work: Path) -> list[Job]:
    """Deep float samples: per-level stats, largest gaps, rho and embedding."""
    b = _JobList(work)
    poly = ["--zoo", "seq_polynomial", "--s", "2"]
    b.add("profile_polynomial140", ["profile", *poly, "--depth", "140"], levels=140)
    b.add("ultrametrize_polynomial140",
          ["ultrametrize", *poly, "--depth", "140", "--p", "3", "--epsilon", "0.5"])
    b.add("embed_polynomial180",
          ["embed", *poly, "--depth", "180", "--N", "11", "--p", "2", "--epsilon", "0.5",
           "--coords-out", Path(b.out("embed_polynomial180")) / "coords.csv"])
    b.add("profile_sqrt120", ["profile", "--zoo", "sqrt_ultra", "--depth", "120"],
          levels=120)
    b.add("ultrametrize_geometric120",
          ["ultrametrize", "--zoo", "seq_geometric", "--depth", "120", "--p", "2",
           "--epsilon", "0.5",
           "--rho-out", Path(b.out("ultrametrize_geometric120")) / "rho.csv"])
    return b.jobs


def exact_zoo(seed: int, work: Path) -> list[Job]:
    """The same layers on Fraction matrices, below float underflow."""
    b = _JobList(work)
    exact = ["--exact"]
    b.add("ultrametrize_cantor6",
          ["ultrametrize", "--zoo", "cantor_factorial", "--r", "0.5", "--depth", "6", *exact,
           "--p", "2", "--epsilon", "0.5"])
    b.add("ultrametrize_product6",
          ["ultrametrize", "--zoo", "product_geometric", "--t", "0.5", "--r1", "0.5",
           "--depth", "6", *exact, "--p", "3", "--epsilon", "0.1"])
    b.add("ultrametrize_geometric60",
          ["ultrametrize", "--zoo", "seq_geometric", "--depth", "60", *exact,
           "--p", "2", "--epsilon", "0.5"])
    b.add("ultrametrize_tower12",
          ["ultrametrize", "--zoo", "seq_power_tower", "--s", "0.5", "--depth", "12",
           *exact, "--p", "3", "--epsilon", "0.1"])
    b.add("profile_factorial9",
          ["profile", "--zoo", "seq_factorial", "--depth", "9", *exact], levels=9)
    b.add("zoo_cantor8",
          ["zoo", "--zoo", "cantor_factorial", "--r", "0.5", "--depth", "8", *exact,
           "--out", b.out("zoo_cantor8")])
    return b.jobs


WORKLOADS = {"cloud_files": cloud_files, "zoo_deep": zoo_deep, "exact_zoo": exact_zoo}
