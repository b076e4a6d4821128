"""Golden reports: every subcommand on small fixed inputs, byte for byte.

Each case runs `metriclab.cli.main` in a fresh working directory with
relative paths, so the config block of a report does not depend on where
the test runs. The digests below are sha256 of the exit code, stdout and
every written file; a refactor that changes one report byte fails here.

Re-record (only after a deliberate report change) with

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from metriclab.cli import _HANDLERS, main
from test_ties import quantized_space

FLOAT_ZOO = ["--zoo", "seq_polynomial", "--s", "2", "--depth", "7"]
EXACT_ZOO = ["--zoo", "seq_geometric", "--depth", "7", "--exact"]
CANTOR = ["--zoo", "cantor_factorial", "--r", "0.5", "--depth", "3", "--exact"]
Q6 = ["--input", "q6.csv"]

CASES = {
    "profile_q6": ["profile", *Q6],
    "profile_float_zoo": ["profile", *FLOAT_ZOO, "--burn-epsilon", "0.1"],
    "profile_exact_zoo": ["profile", *EXACT_ZOO],
    "ultrametrize_q6": ["ultrametrize", *Q6, "--p", "2", "--epsilon", "0.5",
                        "--rho-out", "rho.csv", "--out", "out"],
    "ultrametrize_float_zoo": ["ultrametrize", *FLOAT_ZOO, "--p", "3", "--epsilon", "0.5"],
    "ultrametrize_exact_zoo": ["ultrametrize", *EXACT_ZOO, "--p", "2", "--epsilon", "0.5",
                               "--rho-out", "rho.csv"],
    "embed_float_zoo": ["embed", *FLOAT_ZOO, "--N", "11", "--p", "2", "--epsilon", "0.5",
                        "--coords-out", "coords.csv", "--out", "out"],
    "embed_float_zoo_D": ["embed", *FLOAT_ZOO, "--D", "1", "--p", "2", "--epsilon", "0.5"],
    "embed_no_thin_fails": ["embed", *FLOAT_ZOO, "--N", "11", "--p", "2",
                            "--epsilon", "0.5", "--no-thin"],
    "dimension_q6": ["dimension", *Q6, "--window-r", "2.1", "--ratio-floor", "1.2",
                     "--out", "out"],
    "dimension_float_zoo": ["dimension", *FLOAT_ZOO, "--window-r", "0.5",
                            "--ratio-floor", "2"],
    "dimension_exact_zoo": ["dimension", *EXACT_ZOO, "--window-r", "0.5",
                            "--ratio-floor", "2"],
    "zoo_float": ["zoo", *FLOAT_ZOO, "--out", "out"],
    "zoo_exact": ["zoo", *CANTOR, "--out", "out"],
    "product_csv_json": ["product", "q6.csv", "two.json", "--out", "out"],
    "product_rescale": ["product", "two.json", "q6.csv", "--rescale"],
    "hyperspace_q6": ["hyperspace", *Q6, "--max-subset-size", "2", "--out", "out"],
    "hyperspace_exact_zoo": ["hyperspace", *CANTOR, "--max-subset-size", "2",
                             "--out", "out"],
    "gap_bounds_q6": ["gap-bounds", *Q6, "--radii", "0.75,0.5,0.25"],
    "gap_bounds_q6_heuristic": ["gap-bounds", *Q6, "--radii", "0.75,0.5,0.25",
                                "--heuristic", "--out", "out"],
    "gap_bounds_float_zoo_heuristic": ["gap-bounds", *FLOAT_ZOO, "--radii", "0.5,0.1",
                                       "--heuristic"],
    "gap_bounds_exact_zoo": ["gap-bounds", *EXACT_ZOO, "--radii", "0.5,0.125"],
    "oracle_q6": ["oracle", *Q6, "--radius", "0.8", "--out", "out"],
    "oracle_json": ["oracle", "--input", "two.json", "--radius", "0.9"],
    "oracle_float_zoo": ["oracle", *FLOAT_ZOO, "--radius", "0.3"],
    "oracle_exact_zoo": ["oracle", *CANTOR, "--radius", "0.9"],
}

# Recorded before the report envelope was factored into one helper.
DIGESTS = {
    "dimension_exact_zoo": "d0e9adaa43b8531db186b4b1800307e315ee3ea4656cc3d598937942365ea64d",
    "dimension_float_zoo": "f64dd1ea34a687786e5b856ecf0ea9740865c4a0e34eddae3f5bcf602e0f6a1d",
    "dimension_q6": "5c3b9d9832f1dda68bb115539040107ee2f24b77ea9f5c06c2d27e41f17027fb",
    "embed_float_zoo": "2cc98e1baa66027d2686ee3d47be128cf5faa1642edc10a727319c1ca6ff5ecb",
    "embed_float_zoo_D": "28545f1b7b47f2aab9cff0c81401ff9b2d51039ebca81d9e6a6a826d4ce7c7c3",
    "embed_no_thin_fails": "9830ce9d409097e8147e1ce53d55c9b0539a7344c241bd2caad75ca441f08355",
    "gap_bounds_exact_zoo": "a95c3e3a4c509df920c1b111302e06637afee7199efefc759556bff189a7cb5e",
    "gap_bounds_float_zoo_heuristic": "a3914b2d62a1a3e35ebb070c549004af3ae5d92714d74ed6570d88a6811f61a0",
    "gap_bounds_q6": "0f3008aa222668fd9e17dc6be51df40b416ebd60e79618d853dae328259160d9",
    "gap_bounds_q6_heuristic": "e0223d58a0e0e413530b8d4e6e9a7f2b4e0d51509c440c162b295c59d0f48d32",
    "hyperspace_exact_zoo": "7be0a8f7ad98fe8b63fbd5af8b299826ad95656fecfe4e38474084c39e3d73d1",
    "hyperspace_q6": "6708f05a11a32915dd1fea9e06962ea6c34cfc6e982ff0d1466ec1f3717b47ca",
    "oracle_exact_zoo": "39f0eeecedfd6f1348de5af91d97072cb11d6b691ea3155e9141f731ad5d5fe3",
    "oracle_float_zoo": "770d3d33e71003e7bd6f725caf690e0a9a296290a6e8205951003ac3263a6858",
    "oracle_json": "c0f0663146bc9f46328b16078210034821d3d509a88cf9b052b13a612f1294b0",
    "oracle_q6": "663870d25a67baa07cc10e6a2bbc81bba99a75495d1d9aa9d875d4c6fb9cbcc3",
    "product_csv_json": "0450ca6b048524b49a43bcffa1a3f725abe26e026096e9654fc652926980fcd4",
    "product_rescale": "caaa76523874e9eb354410faee2ea3358c4703f21c21eb690e9af042b17bb683",
    "profile_exact_zoo": "3c63cfafc327e142c641468f369074aec2154f8f4e6426ae129ec15d3f489bbb",
    "profile_float_zoo": "1512cf27319845bf78ea07852bb8cc2da34a0a95bce19145233a0a6674d9c862",
    "profile_q6": "4811bc5acd965585efd13abc3790eda7f7aa3417bbd4f2f1551ae8a3d9cf2502",
    "ultrametrize_exact_zoo": "b89faa01fb6cda8ae1a281c6dee475f4c1d717b50bc64a1bbb0fa7f3b73e38e2",
    "ultrametrize_float_zoo": "885940e6b96695c621537719debc905a06e49800d50bd5c610b1962e52e19289",
    "ultrametrize_q6": "04d76c21a0f02c1d8124ffe920d8feb2175bad50861e3ebb682e9634539a9cf8",
    "zoo_exact": "21a2d4c8e01876453a2533246f766e9d0664bea97a0eb75ed6c6cd55e0b496d8",
    "zoo_float": "577804652a70fcc6356cb94572fd0afdf066ed15b34551296e4c563e6444f1e8",
}


def _write_inputs(directory) -> None:
    """The 6-point tie-heavy metric as CSV and a 2-point space as JSON,
    written without the program's own serializer."""
    m = quantized_space(5).dist
    lines = [",".join(str(i) for i in range(len(m)))]
    lines += [",".join(repr(float(x)) for x in row) for row in m]
    (directory / "q6.csv").write_text("\n".join(lines) + "\n")
    (directory / "two.json").write_text(
        json.dumps({"labels": ["a", "b"], "dist": [[0, 0.5], [0.5, 0]]}))


def _run_case(directory, argv) -> str:
    """sha256 over the exit code, stdout and every file the command wrote."""
    inputs = set(directory.iterdir())
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    h = hashlib.sha256(f"rc={rc}\n".encode())
    h.update(out.getvalue().encode())
    for path in sorted(p for p in directory.rglob("*")
                       if p.is_file() and p not in inputs):
        h.update(f"\n--{path.relative_to(directory).as_posix()}\n".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _digest(directory, name) -> str:
    directory.mkdir()
    _write_inputs(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return _run_case(directory, CASES[name])
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(tmp_path, name):
    assert _digest(tmp_path / name, name) == DIGESTS[name]


def test_every_subcommand_is_covered():
    assert {argv[0] for argv in CASES.values()} == set(_HANDLERS)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f'    "{case}": "{_digest(Path(tmp) / case, case)}",')
