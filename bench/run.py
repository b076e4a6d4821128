#!/usr/bin/env python3
"""Closed-loop benchmark of the metriclab command line.

    python3 bench/run.py --workload cloud_files --seed 0 --seconds 40 --trace 0

One client, one process, one thread: each job is a `metriclab.cli.main(argv)`
call made in-process after the previous one returned. A pass runs the
workload's whole job list; passes repeat until the next one would end after
--seconds. Every job's report is checked (see checks.py); `failed` counts
job runs with a wrong exit code, a failed check or an uncaught exception.

--trace 0 prints the end-to-end metrics: job times are each job's best over
the passes, setup_s the median of one fresh-interpreter probe per pass.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics, medians over the traced passes (see tracer.py). The last stdout
line is the result object; the lines before it describe the run, including
failed_frac and the environment. Run from a checkout that holds src/.
"""

import os

# Pinned before numpy loads, so BLAS cannot start threads behind the one client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so reports name the same paths anywhere
SETUP_PROBES_PER_PASS = 1
END_TO_END_COMMANDS = ("profile", "ultrametrize")
PER_LAYER_COMMANDS = ("embed", "dimension", "gap-bounds", "oracle", "product", "zoo")
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import metriclab.cli as cli; "
              "cli.build_parser(); print(cli.__file__)")


def load_cli():
    """Import metriclab.cli from this checkout's src/, and from nowhere else."""
    if not (SRC / "metriclab" / "cli.py").is_file():
        sys.exit(f"bench: no metriclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import metriclab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported metriclab from {cli.__file__}, not {SRC}")
    return cli


def setup_probe() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, cwd=ROOT, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode != 0 or not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        sys.exit(f"bench: set-up probe failed: {proc.stderr.strip()}")
    return seconds


def run_job(cli, job, work_dir: Path):
    """(exit code, seconds, stdout, stderr, files written) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(job.argv))
        except (Exception, SystemExit) as exc:  # a crash fails the job, not the run
            rc = f"uncaught {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    out_dir = work_dir / "out" / job.name
    files = {str(p.relative_to(out_dir)): p.read_bytes()
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return rc, seconds, out.getvalue(), err.getvalue(), files


def run_pass(cli, jobs, keys, expected, args, work_dir, trace=None):
    """Run every job once; returns (per-job seconds, failures, report bytes)."""
    seconds, failures, report_bytes = [], [], 0
    for index, job in enumerate(jobs):
        gc.collect()
        if trace is not None:
            trace.job = index
        rc, elapsed, stdout, stderr, files = run_job(cli, job, work_dir)
        seconds.append(elapsed)
        report_bytes += len(stdout.encode()) + sum(len(b) for b in files.values())
        found = checks.problems(job, keys[index], rc, stdout, files, expected,
                                args.workload, args.seed)
        if found:
            if stderr:
                found.append(f"stderr: {stderr.strip()[-300:]}")
            failures.append((job.name, found))
    return seconds, failures, report_bytes


def best_times(passes) -> list[float]:
    """Each job's best (lowest) seconds over the given passes.

    The jobs are deterministic CPU work, so a slower repeat only measures
    interference from the rest of the machine. On a shared 2-core Xeon the
    median of a job's repeats over 40 s windows drifted by 17%, its minimum by
    under 5%, so best-of-k is what lets the bounds resolve a change.
    """
    return [min(times) for times in zip(*passes)]


def command_seconds(jobs, seconds, command) -> float:
    return sum(s for job, s in zip(jobs, seconds) if job.command == command)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    os.chdir(ROOT)
    cli = load_cli()
    work_dir = WORK / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    jobs = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    keys = [checks.job_key(job) for job in jobs]
    expected = checks.load_expected()

    trace = tracer.Tracer() if args.trace else None
    modes = (False, True) if args.trace else (False,)
    plain, traced, layer_passes, failures, setup = [], [], [], [], []
    report_bytes = 0
    durations = []
    t0 = time.perf_counter()
    while True:
        begin = time.perf_counter()
        use_trace = modes[len(durations) % len(modes)]
        if use_trace:
            trace.reset()
            trace.install()
        try:
            seconds, failed, report_bytes = run_pass(
                cli, jobs, keys, expected, args, work_dir, trace if use_trace else None)
        finally:
            if use_trace:
                trace.uninstall()
        (traced if use_trace else plain).append(seconds)
        if use_trace:
            layer_passes.append(tracer.pass_metrics(trace.spans, trace.counts))
        failures.extend(failed)
        if not args.trace:
            setup.extend(setup_probe() for _ in range(SETUP_PROBES_PER_PASS))
        durations.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - t0
        if len(durations) >= len(modes) and elapsed + statistics.median(durations) > args.seconds:
            break

    attempted = len(jobs) * len(durations)
    best = best_times(plain)
    if args.trace:
        metrics = tracer.median_metrics(layer_passes)
        for command in PER_LAYER_COMMANDS:
            metrics[f"cmd.{command.replace('-', '_')}_s"] = command_seconds(jobs, best, command)
        metrics["report.bytes"] = report_bytes
        metrics["trace.overhead_frac"] = sum(best_times(traced)) / sum(best) - 1
    else:
        metrics = {
            "wall_s": sum(best),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for command in END_TO_END_COMMANDS:
            metrics[f"cmd.{command}_s"] = command_seconds(jobs, best, command)

    _describe(args, jobs, plain, traced, failures, attempted, trace)
    if trace is not None:
        tracer.write_spans(trace.spans, [job.name for job in jobs], work_dir / "spans.jsonl")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "calls_per_job")):
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


def _describe(args, jobs, plain, traced, failures, attempted, trace) -> None:
    """Human-readable lines before the result: environment, failures, per-job times."""
    info = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs),
            "passes": len(plain) + len(traced), "traced_passes": len(traced),
            "failed_frac": len(failures) / attempted, "env": environment()}
    print("bench: " + json.dumps(info))
    print("bench: pass wall_s " + " ".join(f"{sum(p):.3f}" for p in plain)
          + ("; traced " + " ".join(f"{sum(p):.3f}" for p in traced) if traced else ""))
    for name, found in failures:
        print(f"bench: FAILED {name}: {'; '.join(found)}", file=sys.stderr)
    order = sorted(range(len(jobs)), key=lambda i: jobs[i].name)
    print(f"bench: {'job':<28} {'best_s':>9} {'median_s':>9}")
    best = best_times(plain)
    for index in order:
        median = statistics.median(p[index] for p in plain)
        print(f"bench: {jobs[index].name:<28} {best[index]:9.4f} {median:9.4f}")
    if trace is not None:
        breakdown = tracer.job_breakdown(trace.spans)
        print("bench: traced self time per job, largest first (last traced pass)")
        for index in order:
            job = jobs[index]
            wall, selfs = breakdown[index]
            top = sorted(selfs.items(), key=lambda kv: -kv[1])[:4]
            parts = ", ".join(f"{n} {v / wall:.0%}" for n, v in top)
            print(f"bench: {job.name:<28} {wall:8.4f}s  {parts}")


if __name__ == "__main__":
    sys.exit(main())
