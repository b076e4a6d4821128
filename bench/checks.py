"""Output checks: seed-independent invariants plus recorded sha256 digests.

Every job must exit 0 and print a schema-1 JSON report that shows the
invariants of its command. Where `expected_sha256.json` holds digests for a
job's exact inputs, its stdout and every file it wrote must match them byte
for byte, so reports stay byte-identical across changes to the program.
Digests are keyed by a hash of the job's argv and input bytes; the zoo
workloads have the same inputs for every seed, so their digests apply to all.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected_sha256.json")
FORMULA_TOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def job_key(job) -> str:
    """Digest of what the program sees: the argv and each input file."""
    h = hashlib.sha256(json.dumps(list(job.argv)).encode())
    for path in job.inputs:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def output_digests(stdout: str, files: dict) -> dict:
    return {"stdout": sha256(stdout.encode()),
            "files": {name: sha256(data) for name, data in sorted(files.items())}}


def load_expected(path: Path = EXPECTED) -> dict:
    if not path.is_file():
        return {"seeds": {}, "outputs": {}}
    return json.loads(path.read_text())


def problems(job, key: str, rc, stdout: str, files: dict, expected: dict,
             workload: str, seed: int) -> list[str]:
    """Everything wrong with one job's outcome; empty when it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON report"]
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        return ["report lacks the schema 1 marker"]
    out = _invariants(job, doc)
    recorded = expected["outputs"].get(key)
    if recorded is not None:
        got = output_digests(stdout, files)
        if got["stdout"] != recorded["stdout"]:
            out.append("stdout differs from its recorded sha256")
        if got["files"] != recorded["files"]:
            out.append("written files differ from their recorded sha256")
    elif seed in expected["seeds"].get(workload, ()):
        out.append("no digest recorded for this job at a recorded seed")
    return out


def _invariants(job, doc: dict) -> list[str]:
    cmd = job.command
    want = job.expect
    try:
        if cmd == "profile":
            got = len(doc["profile"]["levels"])
            if got != want["levels"]:
                return [f"profile has {got} levels, the chain has {want['levels']}"]
        elif cmd == "ultrametrize":
            if not isinstance(doc.get("certificate"), dict):
                return ["no certificate in the report"]
        elif cmd == "embed":
            if doc["distortion"]["box_sandwich_ok"] is not True:
                return ["distortion.box_sandwich_ok does not hold"]
        elif cmd == "oracle":
            if doc["agree"] is not True:
                return ["oracle and threshold minima disagree"]
        elif cmd == "zoo":
            return _zoo_formulas(doc)
        elif cmd == "product":
            if doc["points"] != want["points"]:
                return [f"product has {doc['points']} points, expected {want['points']}"]
        elif cmd == "gap-bounds":
            if len(doc["gap_bounds"]["rows"]) != want["rows"]:
                return ["gap-bounds does not report one row per radius"]
        elif cmd == "dimension":
            est = doc["dimension"]["estimate"]
            if not (_is_number(est) and math.isfinite(est) and est >= 0):
                return [f"dimension estimate {est!r} is not a finite number >= 0"]
    except (KeyError, TypeError) as exc:
        return [f"report is missing {exc}"]
    return []


def _zoo_formulas(doc: dict) -> list[str]:
    """Sampled per-level R must match the closed form on every shared level."""
    formula = {row["n"]: row["R"] for row in doc["formulas"]}
    shared = [lv for lv in doc["chain"]["levels"] if lv["id"] in formula]
    if not shared:
        return ["no sampled level has a closed-form row"]
    for lv in shared:
        got, want = lv["R"], formula[lv["id"]]
        if not (_is_number(got) and _is_number(want) and abs(got - want) <= FORMULA_TOL):
            return [f"level {lv['id']}: R = {got!r}, closed form {want!r}"]
    return []


def _is_number(x) -> bool:
    # reports print 1.0 as 1 and non-finite floats as strings
    return isinstance(x, (int, float)) and not isinstance(x, bool)
