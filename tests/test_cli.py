import json

import pytest

from torlab.cli import main
from torlab.config import (ConfigError, RunConfig, parse_algebra,
                           parse_theta, parse_window, permutation_order)
from torlab.report import VerificationReport
from torlab.scalar import Cyc


def test_parse_helpers():
    assert parse_algebra("D4") == ("D", 4)
    assert parse_window("4,3,2").modes == 4
    assert parse_theta("diagram:2,1,0") == {"kind": "diagram",
                                            "permutation": [2, 1, 0]}
    assert permutation_order([2, 1, 0]) == 2
    assert permutation_order([1, 2, 0]) == 3
    with pytest.raises(ConfigError):
        parse_algebra("B2")
    with pytest.raises(ConfigError):
        parse_window("4,3")


def test_ini_and_flag_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[algebra]\nkind = A\nrank = 2\n"
        "[window]\nmodes = 5\ndegree = 4\nlattice = 3\n"
        "[sampling]\nseed = 11\n")

    class Args:
        algebra = None
        n = None
        theta = None
        level = None
        window = "2,2,1"
        samples = 7
        seed = None
        constants = None
        solve_constants = False
        out = None

    cfg = RunConfig.load(str(ini), Args())
    assert (cfg.kind, cfg.rank) == ("A", 2)
    assert cfg.seed == 11
    # the flag wins over the file
    assert (cfg.window.modes, cfg.window.degree, cfg.window.support) == (2, 2, 1)
    assert cfg.samples == 7
    echo = cfg.resolved()
    assert echo["algebra"] == {"kind": "A", "rank": 2}
    assert echo["window"] == {"modes": 2, "degree": 2, "lattice": 1}


def test_config_errors_name_the_key(tmp_path):
    cfg = RunConfig()
    cfg.rank = 0
    with pytest.raises(ConfigError, match="algebra.rank"):
        cfg.validate()
    cfg = RunConfig()
    cfg.automorphism = {"kind": "diagram", "permutation": [0, 0]}
    cfg.rank = 2
    with pytest.raises(ConfigError, match="automorphism.permutation"):
        cfg.validate()
    ini = tmp_path / "bad.ini"
    ini.write_text("[toroidal]\nn = three\n")
    with pytest.raises(ConfigError, match="toroidal.n"):
        RunConfig.load(str(ini))


def test_report_sorting_and_roundtrip():
    rep = VerificationReport({"seed": 0})
    rep.extend([("b.rel", {"x": 2}, "pass", None),
                ("a.rel", {"x": (1, 2)}, "fail", {"difference": ["d"]}),
                ("a.rel", {"x": 1}, "pass", None)])
    obj = rep.to_json()
    ids = [(e["relation_id"], json.dumps(e["params"])) for e in obj["entries"]]
    assert ids == sorted(ids)
    assert obj["summary"] == {"pass": 2, "fail": 1, "window-clipped": 0,
                              "total": 3}
    assert rep.exit_code() == 1
    # schema round-trips unchanged through parse/serialize
    parsed = VerificationReport.parse(rep.dumps())
    assert json.dumps(parsed, sort_keys=True) == \
        json.dumps(obj, sort_keys=True)
    with pytest.raises(ValueError):
        rep.extend([("x", {}, "maybe", None)])


def test_report_serializes_cyclotomic_scalars():
    rep = VerificationReport({"c": Cyc.rational(1) / 3})
    assert rep.config == {"c": {"order": 1, "coeffs": ["1/3"]}}


def _run(argv, tmp_path, name="r.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_cli_toroidal_suite(tmp_path):
    code, rep = _run(["verify", "toroidal", "--algebra", "A1", "--n", "1",
                      "--theta", "identity", "--window", "2,2,1",
                      "--samples", "15", "--seed", "4"], tmp_path)
    assert code == 0
    assert rep["summary"]["fail"] == 0 and rep["summary"]["pass"] > 0
    ids = {e["relation_id"] for e in rep["entries"]}
    assert {"tor.jacobi", "tor.antisym", "tor.dA_zero", "1.5(1)"} <= ids
    assert rep["config"]["seed"] == 4


def test_cli_determinism(tmp_path):
    argv = ["verify", "zalg", "--algebra", "A1", "--window", "2,2,1",
            "--seed", "5"]
    out = tmp_path / "rep.json"
    assert main(argv + ["--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_cli_principal_solver(tmp_path):
    code, rep = _run(["verify", "principal", "--algebra", "A1",
                      "--solve-constants", "--window", "4,3,1"], tmp_path)
    assert code == 0 and rep["summary"]["fail"] == 0
    assert rep["header"]["constant_squared"] == {"order": 4,
                                                 "coeffs": ["-1/16", "0"]}
    assert len(rep["header"]["solved_constants"]) == 2


def test_cli_principal_wrong_constant_fails(tmp_path):
    code, rep = _run(["verify", "principal", "--algebra", "A1",
                      "--window", "2,2,1", "--constants",
                      '{"1": {"order": 1, "coeffs": ["1/4"]}}'], tmp_path)
    assert code == 1
    assert rep["summary"]["fail"] > 0


def test_cli_iso_suite(tmp_path):
    code, rep = _run(["verify", "iso", "--algebra", "A3",
                      "--theta", "diagram:2,1,0", "--samples", "25",
                      "--seed", "2"], tmp_path)
    assert code == 0 and rep["summary"]["fail"] == 0
    assert rep["header"]["theta_order"] == 6
    assert any(e["N"] == 1 for e in rep["header"]["exponents"])
    assert "domain" in rep["header"]["dA_conventions"]


def test_cli_solve_constants_command(tmp_path):
    code, rep = _run(["solve-constants", "--algebra", "A1",
                      "--window", "4,3,1"], tmp_path)
    assert code == 0
    assert rep["header"]["squares"] == [{"order": 4, "coeffs": ["-1/16", "0"]},
                                        {"order": 4, "coeffs": ["-1/16", "0"]}]


def test_cli_gen_stable(tmp_path):
    out = tmp_path / "gen.json"
    argv = ["gen", "--algebra", "A1", "--n", "1", "--window", "1,1,1",
            "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    dump = json.loads(first)
    assert dump["basis"] and dump["brackets"]
    entry = dump["brackets"][0]
    assert set(entry) == {"a", "b", "terms"}
    assert all(set(t) == {"sym", "coeff"} for t in entry["terms"])
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_cli_error_exits(tmp_path):
    assert main(["verify", "toroidal", "--algebra", "Z9"]) == 2
    assert main(["verify", "principal", "--algebra", "A1"]) == 2  # no constants
    with pytest.raises(SystemExit) as exc:
        main(["verify", "toroidal", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_level_other_than_one_is_a_config_error(tmp_path, capsys):
    """Every suite runs at level 1, so a report must not echo another."""
    argv = ["verify", "zalg", "--algebra", "A1", "--window", "1,1,1"]
    assert main(argv + ["--level", "2"]) == 2
    assert "toroidal.level" in capsys.readouterr().err
    ini = tmp_path / "level.ini"
    ini.write_text("[toroidal]\nlevel = 1/2\n")
    assert main(argv + ["--config", str(ini)]) == 2
    assert "toroidal.level" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="toroidal.level"):
        RunConfig.load(str(ini))
    ini.write_text("[toroidal]\nlevel = 1\n")
    assert RunConfig.load(str(ini)).resolved()["level"] == 1
