#!/usr/bin/env python3
"""Record the report digests that checks.py holds every later run to.

    python3 bench/record.py --workload cloud_files --seeds 0-9

Runs each job of the workload once per seed, refuses to record a job whose
report breaks an invariant, and merges the digests of its stdout and
written files into expected_sha256.json. Record again only when a change to
the reports is intended, and say so in the change.
"""

import argparse
import json
import os
import shutil
import sys

import checks
import run
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 0-9")
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    os.chdir(run.ROOT)
    cli = run.load_cli()
    expected = checks.load_expected()
    blank = {"seeds": {}, "outputs": {}}
    work_dir = run.WORK / args.workload
    for seed in range(first, last + 1):
        shutil.rmtree(work_dir, ignore_errors=True)
        for job in workloads.WORKLOADS[args.workload](seed, work_dir):
            key = checks.job_key(job)
            rc, _seconds, stdout, _stderr, files = run.run_job(cli, job, work_dir)
            found = checks.problems(job, key, rc, stdout, files, blank, args.workload, seed)
            if found:
                sys.exit(f"seed {seed} {job.name}: {'; '.join(found)}")
            expected["outputs"][key] = checks.output_digests(stdout, files)
        print(f"recorded {args.workload} seed {seed}", flush=True)
    seeds = set(expected["seeds"].get(args.workload, ())) | set(range(first, last + 1))
    expected["seeds"][args.workload] = sorted(seeds)
    checks.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
