"""Spans around metriclab's public functions, installed from outside the package.

`Tracer.install()` wraps each function in SPANS and re-binds the wrapper in
every `metriclab.*` namespace that holds the original, because
`from .x import f` copies the binding into the importing module. The root
span wraps `cli.main`, so a job's spans partition its wall time: a span's
self time is its duration minus the time its child spans cover, and the self
times of one job add up to the root span's duration.

Spans are kept in memory as (job, id, parent, name, start, end, failed)
tuples. Counts are computed from a span's inputs or read from its result.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, module of metriclab, function or Class.classmethod)
SPANS = (
    ("spaces.parse", "spaces", "from_csv"),
    ("spaces.parse", "spaces", "from_json"),
    ("spaces.validate", "spaces", "validate"),
    ("spaces.is_ultrametric", "spaces", "is_ultrametric"),
    ("spaces.sup_product", "spaces", "sup_product"),
    ("spaces.to_csv", "spaces", "to_csv"),
    ("partitions.from_partitions", "partitions", "PartitionChain.from_partitions"),
    ("partitions.dendrogram_chain", "partitions", "dendrogram_chain"),
    ("partitions.with_singleton_terminal", "partitions", "with_singleton_terminal"),
    ("partitions.partition_stats", "partitions", "partition_stats"),
    ("partitions.largest_gap", "partitions", "largest_gap"),
    ("partitions.classify_chain", "partitions", "classify_chain"),
    ("logratio.profile", "logratio", "profile"),
    ("logratio.gap_bounds", "logratio", "gap_bounds"),
    ("logratio.brute_force_min_R", "logratio", "brute_force_min_R"),
    ("logratio.threshold_min_R", "logratio", "threshold_min_R"),
    ("ultrametrize.certificate", "ultrametrize", "certificate"),
    ("ultrametrize.ultrametric_from_chain", "ultrametrize", "ultrametric_from_chain"),
    ("ultrametrize.fit_holder_exponents", "ultrametrize", "fit_holder_exponents"),
    ("embedding.select_embeddable_subchain", "embedding", "select_embeddable_subchain"),
    ("embedding.embed_chain", "embedding", "embed_chain"),
    ("embedding.verify_embedding_distortion", "embedding", "verify_embedding_distortion"),
    ("embedding.image_ratio_report", "embedding", "image_ratio_report"),
    ("embedding.estimate_metric_dimension", "embedding", "estimate_metric_dimension"),
    ("zoo.sample", "zoo", "sample"),
    ("zoo.formula_table", "zoo", "formula_table"),
    ("util.dumps", "_util", "dumps"),
    ("cli", "cli", "main"),
)
MODULES = ("spaces", "partitions", "logratio", "ultrametrize", "embedding", "zoo",
           "util", "cli")
CALL_COUNTS = ("spaces.validate", "spaces.is_ultrametric", "partitions.partition_stats",
               "partitions.largest_gap", "logratio.profile")


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


# Count hooks: (counts, args, kwargs, result) -> None.

def _validate(counts, args, kwargs, result):
    counts["spaces.validate.triples"] += math.comb(len(args[0]), 3)


def _dendrogram(counts, args, kwargs, result):
    counts["partitions.chain_levels"] += len(result)


def _sample(counts, args, kwargs, result):
    space, chain = result
    counts["zoo.points"] += space.n
    if chain is not None:
        counts["partitions.chain_levels"] += len(chain)


def _brute_force(counts, args, kwargs, result):
    counts["logratio.partitions_enumerated"] += _bell(args[0].n)


def _gap_bounds(counts, args, kwargs, result):
    if result.exact:
        counts["logratio.partitions_enumerated"] += _bell(args[0].n)


def _certificate(counts, args, kwargs, result):
    n = args[0].n
    counts["ultrametrize.pairs_checked"] += n * (n - 1) // 2


def _distortion(counts, args, kwargs, result):
    counts["embedding.pairs_checked"] += result.pairs_checked


COUNT_HOOKS = {
    "spaces.validate": _validate,
    "partitions.dendrogram_chain": _dendrogram,
    "zoo.sample": _sample,
    "logratio.brute_force_min_R": _brute_force,
    "logratio.gap_bounds": _gap_bounds,
    "ultrametrize.certificate": _certificate,
    "embedding.verify_embedding_distortion": _distortion,
}


class Tracer:
    """Collects spans of one traced pass; install() before, uninstall() after."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        for name, module, attr in SPANS:
            mod = importlib.import_module(f"metriclab.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, classmethod(self._wrap(name, original.__func__)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for owner in list(sys.modules.values()):
                if getattr(owner, "__name__", "").partition(".")[0] != "metriclab":
                    continue
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._set(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span_id)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (self.job, span_id, parent, name, start, end, failed)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper


def job_breakdown(spans) -> dict:
    """{job: (root duration, {span name: self seconds})} for one traced pass.

    Raises when a job's self times do not add up to its root span, which
    would mean spans overlap or escaped their parent.
    """
    child = defaultdict(float)
    for _job, _sid, parent, _name, start, end, _failed in spans:
        if parent >= 0:
            child[parent] += end - start
    walls = defaultdict(float)
    selfs = defaultdict(lambda: defaultdict(float))
    for job, sid, parent, name, start, end, _failed in spans:
        selfs[job][name] += (end - start) - child[sid]
        if parent < 0:
            walls[job] += end - start
    for job, wall in walls.items():
        if abs(sum(selfs[job].values()) - wall) > 1e-6 * max(1.0, wall):
            raise RuntimeError(f"span self times of job {job} do not add up to its wall time")
    return {job: (wall, dict(selfs[job])) for job, wall in walls.items()}


def pass_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    breakdown = job_breakdown(spans)
    metrics = {f"{name}.self_s": 0.0 for name, _m, _a in SPANS}
    for _wall, selfs in breakdown.values():
        for name, value in selfs.items():
            metrics[f"{name}.self_s"] += value
    calls = Counter(s[3] for s in spans)
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = calls[name]
    dendro_jobs = {s[0] for s in spans if s[3] == "partitions.dendrogram_chain"}
    metrics["partitions.dendrogram_chain.calls_per_job"] = (
        calls["partitions.dendrogram_chain"] / len(dendro_jobs) if dendro_jobs else 0.0)
    for key in ("spaces.validate.triples", "partitions.chain_levels",
                "logratio.partitions_enumerated", "ultrametrize.pairs_checked",
                "embedding.pairs_checked", "zoo.points"):
        metrics[key] = counts[key]
    errors = Counter(s[3].split(".")[0] for s in spans if s[6])
    for module in MODULES:
        metrics[f"{module}.errors"] = errors[module]
    return metrics


def median_metrics(passes: list[dict]) -> dict:
    """Median of each metric over traced passes (counts repeat exactly)."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def write_spans(spans, job_names, path) -> None:
    """One JSON line per span of the last traced pass."""
    with open(path, "w") as out:
        for job, span_id, parent, name, start, end, failed in spans:
            out.write(json.dumps({"job": job_names[job], "id": span_id, "parent": parent,
                                  "name": name, "start": start, "end": end,
                                  "failed": failed}) + "\n")
