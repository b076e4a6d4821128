import json

import pytest

import metriclab as ml
from metriclab.cli import main
from conftest import euclidean_space


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_profile_zoo_geometric(capsys):
    rc, out = run(capsys, ["profile", "--zoo", "seq_geometric", "--depth", "20"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    rows = [lv for lv in doc["profile"]["levels"] if lv["id"] >= 2]
    assert all(abs(lv["R"] - 1.0) < 1e-12 for lv in rows)
    assert doc["exact_limit"] == 1.0


def test_reports_are_byte_identical(capsys):
    rc1, out1 = run(capsys, ["profile", "--zoo", "seq_polynomial", "--s", "2", "--depth", "10"])
    rc2, out2 = run(capsys, ["profile", "--zoo", "seq_polynomial", "--s", "2", "--depth", "10"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_ultrametrize_exit_zero(capsys, tmp_path):
    rho_path = tmp_path / "rho.csv"
    rc, out = run(capsys, [
        "ultrametrize", "--zoo", "seq_power_tower", "--s", "0.5", "--depth", "10",
        "--p", "3", "--epsilon", "0.1", "--rho-out", str(rho_path),
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["certificate"]["upper_residual"] <= 1.0 + 1e-12
    rho = ml.from_csv(rho_path.read_text())
    assert ml.is_ultrametric(rho).ok


def test_embed_exit_zero_and_coords(capsys, tmp_path):
    coords = tmp_path / "coords.csv"
    rc, out = run(capsys, [
        "embed", "--zoo", "seq_polynomial", "--s", "2", "--depth", "8",
        "--N", "11", "--p", "2", "--epsilon", "0.5", "--coords-out", str(coords),
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["N"] == 11
    assert doc["distortion"]["ok"]
    header, *rows = coords.read_text().strip().splitlines()
    assert header.split(",")[0] == "label"
    assert len(rows) == 9
    assert len(rows[0].split(",")) == 12


def test_embed_sizes_N_from_dimension_estimate(capsys):
    rc, out = run(capsys, [
        "embed", "--zoo", "seq_polynomial", "--s", "2", "--depth", "8",
        "--D", "1", "--p", "2", "--epsilon", "0.5",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["N"] >= 10


def test_round_trip_csv_analysis(capsys, tmp_path):
    sp = euclidean_space(42, 7)
    path = tmp_path / "space.csv"
    path.write_text(ml.to_csv(sp))
    rc1, out1 = run(capsys, ["profile", "--input", str(path)])
    assert rc1 == 0
    again = ml.from_csv(path.read_text())
    path2 = tmp_path / "space2.csv"
    path2.write_text(ml.to_csv(again))
    assert path.read_text() == path2.read_text()


def test_dimension_command(capsys):
    rc, out = run(capsys, [
        "dimension", "--zoo", "seq_geometric", "--depth", "40",
        "--window-r", str(2.0 ** -4), "--ratio-floor", "16",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["dimension"]["estimate"] <= 0.25


def test_zoo_and_gap_bounds_and_oracle(capsys, tmp_path):
    rc, out = run(capsys, ["zoo", "--zoo", "seq_geometric", "--depth", "6",
                           "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "space.csv").exists()
    doc = json.loads(out)
    assert len(doc["formulas"]) == 5

    sp = euclidean_space(3, 6)
    path = tmp_path / "s.csv"
    path.write_text(ml.to_csv(sp))
    rc, out = run(capsys, ["gap-bounds", "--input", str(path), "--radii", "0.5,0.25"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["gap_bounds"]["exact"]

    rc, out = run(capsys, ["oracle", "--input", str(path), "--radius", "0.8"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["minimum"]["R"] == 0.0
    assert doc["agree"] is True


def test_product_and_hyperspace_commands(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(ml.to_csv(euclidean_space(1, 3)))
    b.write_text(ml.to_csv(euclidean_space(2, 3)))
    rc, out = run(capsys, ["product", str(a), str(b), "--out", str(tmp_path)])
    assert rc == 0
    prod = ml.from_csv((tmp_path / "product.csv").read_text())
    assert prod.n == 9

    rc, out = run(capsys, ["hyperspace", "--input", str(a), "--max-subset-size", "2"])
    assert rc == 0
    assert json.loads(out)["points"] == 6


def test_exit_code_one_on_domain_error(capsys):
    rc = main(["profile", "--zoo", "seq_power_tower", "--s", "1.7", "--depth", "5"])
    assert rc == 1
    rc = main(["profile", "--input", "/nonexistent/space.csv"])
    assert rc == 1
    rc = main(["ultrametrize", "--zoo", "seq_geometric", "--depth", "6",
               "--p", "2", "--epsilon", "-0.5"])
    assert rc == 1


def test_exit_code_two_on_verification_failure(capsys):
    # consecutive levels of the polynomial family cannot be packed
    rc = main(["embed", "--zoo", "seq_polynomial", "--s", "2", "--depth", "8",
               "--N", "11", "--p", "2", "--epsilon", "0.5", "--no-thin"])
    assert rc == 2


@pytest.mark.parametrize("text", ['{"labels": ["a", "b"]}', "[[0, 0.5], [0.5, 0]]"])
def test_malformed_json_input_is_a_parse_error(capsys, tmp_path, text):
    path = tmp_path / "space.json"
    path.write_text(text)
    assert main(["profile", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse violated")


@pytest.mark.parametrize("name, text", [
    ("labels.json", '{"dist": [[0, 0.5], [0.5, 0]], "labels": 5}'),
    ("ragged.json", '{"dist": [[0, 0.5], [0.5]]}'),
    ("strings.json", '{"dist": [["a", "b"], ["c", "d"]]}'),
    ("objects.json", '{"dist": [[0, {}], [{}, 0]]}'),
    ("ragged.csv", "a,b\n0,0.5\n0.5\n"),
])
def test_malformed_matrix_or_labels_is_a_parse_error(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["profile", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse violated")
    assert "Traceback" not in err
