#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and tracer.

    python3 bench/selftest.py

Checks that one changed byte in a report or in a written file fails the job,
that a traced job's span self times add up to its wall time without
changing its report, and that uninstalling the tracer restores every
binding. Needs digests recorded for cloud_files at seed 0.
"""

import contextlib
import io
import os
import shutil
import sys
from types import SimpleNamespace

import checks
import run
import tracer
import workloads

SEED = 0


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def one_byte_off(text: str) -> str:
    """The text with its first digit after the schema marker changed."""
    start = text.index('"schema": 1') + len('"schema": 1')
    i = next(k for k in range(start, len(text)) if text[k].isdigit())
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


class OneByteOffCli:
    """The real CLI, except that one byte of every report changes."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        sys.stdout.write(one_byte_off(buf.getvalue()))
        return rc


def main() -> int:
    os.chdir(run.ROOT)
    cli = run.load_cli()
    expected = checks.load_expected()
    expect(SEED in expected["seeds"].get("cloud_files", ()),
           "no digests recorded for cloud_files at seed 0; run record.py")
    work_dir = run.WORK / "cloud_files"  # the recorded digests cover these paths
    shutil.rmtree(work_dir, ignore_errors=True)
    jobs = {job.name: job for job in workloads.cloud_files(SEED, work_dir)}
    args = SimpleNamespace(workload="cloud_files", seed=SEED)

    small = jobs["gap_bounds_small0"]
    keys = [checks.job_key(small)]
    _, failures, _ = run.run_pass(cli, [small], keys, expected, args, work_dir)
    expect(failures == [], f"the unchanged report fails: {failures}")
    _, failures, _ = run.run_pass(OneByteOffCli(cli), [small], keys, expected, args, work_dir)
    expect(len(failures) == 1 and "stdout differs" in failures[0][1][0],
           f"one changed report byte is not a failure: {failures}")

    job = jobs["ultrametrize_quant200"]
    key = checks.job_key(job)
    rc, _, stdout, _, files = run.run_job(cli, job, work_dir)
    expect(checks.problems(job, key, rc, stdout, files, expected, "cloud_files", SEED) == [],
           "the untraced ultrametrize job fails its checks")
    changed = {name: data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
               for name, data in files.items()}
    expect(checks.problems(job, key, rc, stdout, changed, expected, "cloud_files", SEED) != [],
           "one changed byte in a written file is not a failure")

    import metriclab.logratio
    import metriclab.ultrametrize

    original = metriclab.logratio.profile
    trace = tracer.Tracer()
    trace.install()
    try:
        expect(metriclab.ultrametrize.profile is not original,
               "the tracer did not re-bind an imported copy")
        traced_rc, seconds, traced_stdout, _, traced_files = run.run_job(cli, job, work_dir)
    finally:
        trace.uninstall()
    expect(metriclab.logratio.profile is original and metriclab.ultrametrize.profile is original,
           "uninstall left a wrapper bound")
    expect((traced_rc, traced_stdout, traced_files) == (rc, stdout, files),
           "tracing changed the job's outputs")
    (wall, selfs), = tracer.job_breakdown(trace.spans).values()
    expect(abs(sum(selfs.values()) - wall) < 1e-6, "self times do not add up to the wall time")
    expect(0 < wall <= seconds, "the root span is longer than the job")
    for layer in ("spaces.parse", "spaces.validate", "partitions.dendrogram_chain",
                  "ultrametrize.certificate", "spaces.is_ultrametric", "spaces.to_csv", "cli"):
        expect(selfs.get(layer, 0) > 0, f"no self time recorded for {layer}")
    shutil.rmtree(work_dir, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
