import json
import warnings

import pytest

import metriclab as ml
import test_cli_golden
from metriclab import cli, logratio, partitions, spaces
from metriclab._util import dumps
from metriclab.cli import main
from conftest import euclidean_space
from test_ties import quantized_space


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
    ("booleans.json", '{"dist": [[0, true], [true, 0]]}'),
    ("quoted.json", '{"dist": [[0, "0.5"], ["0.5", 0]]}'),
    ("ragged.csv", "a,b\n0,0.5\n0.5\n"),
    pytest.param("long.csv", "a,b\n0," + "1" * 200_000 + "\n1,0\n", id="field-over-csv-limit"),
    pytest.param("deep.json", '{"dist": ' + "[" * 100_000, id="json-nested-too-deeply"),
    pytest.param("garbage.json", "garbage", id="not-json"),
])
def test_malformed_matrix_or_labels_is_a_parse_error(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["profile", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse violated")
    assert "Traceback" not in err


BOM = "\ufeff"


def test_a_bom_never_reaches_a_csv_label(capsys, tmp_path):
    a, b = tmp_path / "bom.csv", tmp_path / "two.csv"
    a.write_text(BOM + "a,b\n0,1\n1,0\n", encoding="utf-8")
    b.write_text("x,y\n0,0.5\n0.5,0\n", encoding="utf-8")
    rc, _ = run(capsys, ["product", str(a), str(b), "--out", str(tmp_path)])
    assert rc == 0
    written = (tmp_path / "product.csv").read_text(encoding="utf-8")
    assert BOM not in written
    assert written.splitlines()[0] == "(a|x),(a|y),(b|x),(b|y)"


def test_a_bom_prefixed_json_file_loads(capsys, tmp_path):
    path = tmp_path / "bom.json"
    path.write_text(BOM + json.dumps({"labels": ["a", "b"], "dist": [[0, 0.5], [0.5, 0]]}),
                    encoding="utf-8")
    rc, out = run(capsys, ["profile", "--input", str(path)])
    assert rc == 0
    assert json.loads(out)["config"]["input"] == str(path)


@pytest.mark.parametrize("name", ["latin.csv", "latin.json"])
def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, name):
    path = tmp_path / name
    text = ("caf\u00e9,b\n0,1\n1,0\n" if name.endswith(".csv")
            else '{"labels": ["caf\u00e9", "b"], "dist": [[0, 1], [1, 0]]}')
    path.write_bytes(text.encode("latin-1"))
    assert main(["profile", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse violated") and "not UTF-8" in err
    assert "Traceback" not in err


def test_bare_cr_line_endings_are_read(capsys, tmp_path):
    lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
    text = ml.to_csv(euclidean_space(4, 6))
    lf.write_bytes(text.encode())
    cr.write_bytes(text.replace("\n", "\r").encode())
    rc, out_cr = run(capsys, ["profile", "--input", str(cr)])
    assert rc == 0
    rc, out_lf = run(capsys, ["profile", "--input", str(lf)])
    assert rc == 0
    assert json.loads(out_cr)["profile"] == json.loads(out_lf)["profile"]


@pytest.mark.parametrize("line", ["0,1\n  \n1,0\n", "0,1_0\n1_0,0\n"],
                         ids=["whitespace-only-line", "digit-group-underscore"])
def test_csv_rows_loadtxt_refuses_exit_one(capsys, tmp_path, line):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n" + line)
    assert main(["profile", "--input", str(path), "--rescale"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse violated")
    assert "Traceback" not in err


def test_profile_input_builds_one_spanning_tree(capsys, tmp_path, monkeypatch):
    path = tmp_path / "cloud.csv"
    path.write_text(ml.to_csv(euclidean_space(5, 40)))
    rc, before = run(capsys, ["profile", "--input", str(path)])
    calls = []
    prim = spaces._prim
    for module in (spaces, partitions, logratio, cli):  # every binding of _prim
        if hasattr(module, "_prim"):
            monkeypatch.setattr(module, "_prim", lambda m: calls.append(len(m)) or prim(m))
    rc, after = run(capsys, ["profile", "--input", str(path)])
    assert rc == 0
    assert calls == [40]
    assert after == before


def test_report_with_a_control_character_is_valid_json(capsys):
    radii = "0.5,\n0.25\t"
    rc, out = run(capsys, ["gap-bounds", "--zoo", "seq_geometric", "--depth", "5",
                           "--radii", radii])
    assert rc == 0
    assert json.loads(out)["config"]["radii"] == radii


def test_triangle_violation_in_csv_exits_one(capsys, tmp_path):
    path = tmp_path / "bent.csv"
    path.write_text("a,b,c\n0,1,0.4\n1,0,0.5\n0.4,0.5,0\n")
    assert main(["profile", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: triangle violated at (0, 1, 2)\n"


@pytest.mark.parametrize("argv, option", [
    (["ultrametrize", "--zoo", "seq_geometric", "--depth", "6", "--p", "nan",
      "--epsilon", "0.1"], "--p"),
    (["embed", "--zoo", "seq_geometric", "--depth", "6", "--N", "2", "--p", "2",
      "--epsilon", "nan"], "--epsilon"),
    (["oracle", "--zoo", "seq_geometric", "--depth", "4", "--radius", "nan"], "--radius"),
    (["profile", "--zoo", "seq_polynomial", "--s", "inf", "--depth", "6"], "--s"),
    (["dimension", "--zoo", "seq_geometric", "--depth", "6", "--window-r=-inf",
      "--ratio-floor", "2"], "--window-r"),
])
def test_non_finite_float_option_is_an_input_error(capsys, argv, option):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {option} must be finite")
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    assert captured.out == ""


def test_gap_bounds_without_radii_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text(ml.to_csv(euclidean_space(2, 5)))
    assert main(["gap-bounds", "--input", str(path), "--radii", ","]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need at least one radius\n"
    assert captured.out == ""
    with pytest.raises(ValueError, match="need at least one radius"):
        ml.gap_bounds(euclidean_space(2, 5), [])


@pytest.mark.parametrize("argv", [
    ["profile", "--bogus"],
    ["dimension", "--zoo", "seq_geometric", "--window-r", "-inf", "--ratio-floor", "2"],
    [],
])
def test_usage_errors_exit_one(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: metriclab")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(("usage: metriclab", "metriclab "))


@pytest.mark.parametrize("argv, wants_chain", [
    (["profile"], True),
    (["dimension", "--window-r", "0.5", "--ratio-floor", "2"], False),
    (["hyperspace", "--max-subset-size", "2"], False),
    (["gap-bounds", "--radii", "0.5"], False),
    (["oracle", "--radius", "0.5"], False),
])
def test_commands_that_drop_the_chain_do_not_build_it(capsys, monkeypatch, argv, wants_chain):
    asked = []

    def sample(family, depth, exact=False, chain=True):
        asked.append(chain)
        return ml.sample(family, depth, exact=exact, chain=chain)

    monkeypatch.setattr(cli, "sample", sample)
    assert main([*argv, "--zoo", "seq_geometric", "--depth", "4"]) == 0
    assert asked == [wants_chain]


@pytest.mark.parametrize("source, radius", [
    (["--zoo", "seq_geometric", "--depth", "5"], 0.3),
    (["--zoo", "cantor_factorial", "--depth", "3", "--exact"], 0.9),
    (["--input", "q7.csv"], 0.8),
    (["--input", "q7.csv"], 0.0),
])
def test_oracle_enumerates_once(capsys, monkeypatch, tmp_path, source, radius):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q7.csv").write_text(ml.to_csv(quantized_space(3, 7, 2)))
    space = cli._load_space(cli.build_parser().parse_args(["oracle", *source, "--radius", "1"]),
                            chain=False)[0]
    expected = {
        "minimum": ml.brute_force_min_R(space, radius),
        "minimum_positive_delta": ml.brute_force_min_R(space, radius,
                                                       require_positive_delta=True),
        "threshold_minimum": ml.threshold_min_R(space, radius),
        "threshold_minimum_positive_delta": ml.threshold_min_R(space, radius,
                                                               require_positive_delta=True),
    }
    calls = {"stats": 0, "dendrogram": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(logratio, "_label_stats", counted("stats", logratio._label_stats))
    for module in (cli, logratio):
        monkeypatch.setattr(module, "dendrogram_chain",
                            counted("dendrogram", ml.dendrogram_chain))
    rc, out = run(capsys, ["oracle", *source, "--radius", str(radius)])
    assert rc == 0 and calls == {"stats": 1, "dendrogram": 1}
    doc = json.loads(out)
    for key, result in expected.items():
        fields = {"R": result.value, "delta": result.delta, "gamma": result.gamma,
                  "witness": [list(b) for b in result.witness.blocks]}
        assert doc[key] == json.loads(dumps({k: fields[k] for k in doc[key]}))
    assert doc["agree"] == (expected["minimum"].value == expected["threshold_minimum"].value)


def test_zoo_refuses_input_before_reading_it(capsys, monkeypatch, tmp_path):
    path = tmp_path / "q7.csv"
    path.write_text(ml.to_csv(quantized_space(7, 7)))
    read = []
    monkeypatch.setattr(cli, "_read_space", lambda *args: read.append(args))
    assert main(["zoo", "--input", str(path)]) == 1
    assert "error: the zoo command needs --zoo" in capsys.readouterr().err
    assert read == []


def test_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("name", ["profile_q6", "ultrametrize_q6"])
def test_usage_error_then_valid_call_gives_golden_bytes(capsys, tmp_path, name):
    assert main(["profile", "--bogus"]) == 1
    assert capsys.readouterr().err.startswith("error: metriclab")
    assert test_cli_golden._digest(tmp_path / name, name) == test_cli_golden.DIGESTS[name]


def test_back_to_back_commands_do_not_share_options(capsys, monkeypatch, tmp_path):
    seen = []
    for command, handler in cli._HANDLERS.items():
        monkeypatch.setitem(cli._HANDLERS, command,
                            lambda args, handler=handler: seen.append(args) or handler(args))
    plain = ["ultrametrize", "--zoo", "seq_geometric", "--depth", "5", "--p", "2",
             "--epsilon", "0.5"]
    ultrametrize = [*plain, "--rho-out", str(tmp_path / "rho.csv"), "--out", str(tmp_path / "out")]
    profile = ["profile", "--zoo", "seq_geometric", "--depth", "5"]
    fresh = cli.build_parser.__wrapped__()  # an uncached parser as the reference
    for order in ([ultrametrize, profile, plain], [profile, ultrametrize, plain]):
        seen.clear()
        for argv in order:
            assert main(argv) == 0
        assert [vars(args) for args in seen] == [vars(fresh.parse_args(argv)) for argv in order]
        with_files, profiled, last = (seen[order.index(argv)]
                                      for argv in (ultrametrize, profile, plain))
        assert with_files.rho_out == tmp_path / "rho.csv"
        assert not hasattr(with_files, "burn_epsilon")
        assert not hasattr(profiled, "rho_out") and profiled.out is None
        assert last.rho_out is None and last.out is None


@pytest.mark.parametrize("radius", ["-1", "-1e-300"])
def test_oracle_negative_radius_is_an_input_error(capsys, monkeypatch, radius):
    """Refused before any partition is enumerated or any chain built."""
    def unreached(*args, **kwargs):
        raise AssertionError("a refused radius reached the enumeration")

    for module, name in ((logratio, "_rgs_table"), (logratio, "dendrogram_chain"),
                         (cli, "dendrogram_chain")):
        monkeypatch.setattr(module, name, unreached)
    assert main(["oracle", "--zoo", "seq_geometric", "--depth", "5", f"--radius={radius}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: radius {float(radius)} is not at least 0\n"
    assert captured.out == ""
    space = euclidean_space(3, 5)
    for fn in (ml.brute_force_min_R, ml.threshold_min_R):
        with pytest.raises(ValueError, match="is not at least 0"):
            fn(space, float(radius))


def test_oracle_radius_above_the_diameter_selects_partitions(capsys):
    rc, out = run(capsys, ["oracle", "--zoo", "seq_geometric", "--depth", "5",
                           "--radius", "5"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["minimum"]["R"] == 0.0  # the all-singleton partition, delta 0 < 5
    assert doc["minimum_positive_delta"]["R"] != "inf"


@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_ultrametrize_overflowing_exponent_is_refused_without_a_warning(capsys, exact):
    argv = ["ultrametrize", "--zoo", "seq_geometric", "--depth", "6", *exact,
            "--p", "1e308", "--epsilon", "0.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the call
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: exponent p(R+eps) = 1.5e+308 overflows")
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name, text", [
    ("line.csv", "a,b,c\n0,0.5,1\n0.5,0,0.5\n1,0.5,0\n"),
    ("line.json", json.dumps({"labels": ["a", "b", "c"],
                              "dist": [[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]]})),
])
def test_input_with_exact_is_an_input_error(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["profile", "--input", str(path)]) == 0
    capsys.readouterr()
    assert main(["profile", "--input", str(path), "--exact"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: --exact samples zoo families only; --input files are "
                            "read in float\n")
    assert captured.out == ""
