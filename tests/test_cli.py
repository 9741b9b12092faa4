import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import torlab
from torlab import cli
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
    assert obj["summary"] == {"pass": 2, "fail": 1, "total": 3}
    assert rep.exit_code() == 1
    # schema round-trips unchanged through parse/serialize
    parsed = VerificationReport.parse(rep.dumps())
    assert json.dumps(parsed, sort_keys=True) == \
        json.dumps(obj, sort_keys=True)
    with pytest.raises(ValueError):
        rep.extend([("x", {}, "maybe", None)])


def test_report_entry_order_is_the_compact_params_text():
    """Entries sort by (relation_id, json.dumps(params, sort_keys=True)):
    "-" < "0" < "[" and "[1, 2]" < "[10]" < "[1]" in that text, an order
    that neither the values nor their indented text give."""
    rep = VerificationReport({"seed": 0})
    rep.extend([("b.rel", {"x": [1]}, "pass", None),
                ("b.rel", {"x": [1, 2]}, "pass", None),
                ("b.rel", {"x": [10]}, "pass", None),
                ("b.rel", {"x": 0}, "fail",
                 {"difference": [("s", Cyc(4, (0, Fraction(1, 2))))]}),
                ("b.rel", {"x": -1}, "pass", None),
                ("a.rel", {"x": [10]}, "pass", None)])
    text = rep.dumps()
    entries = json.loads(text)["entries"]
    assert [(e["relation_id"], e["params"]) for e in entries] == [
        ("a.rel", {"x": [10]}),
        ("b.rel", {"x": -1}),
        ("b.rel", {"x": 0}),
        ("b.rel", {"x": [1, 2]}),
        ("b.rel", {"x": [10]}),
        ("b.rel", {"x": [1]})]
    assert entries[2] == {
        "relation_id": "b.rel", "params": {"x": 0}, "status": "fail",
        "witness": {"difference": [
            ["s", {"order": 4, "coeffs": ["0", "1/2"]}]]}}
    assert rep.summary() == {"pass": 5, "fail": 1, "total": 6}
    assert json.loads(text)["summary"] == rep.summary()
    assert text == json.dumps(rep.to_json(), sort_keys=True, indent=1,
                              separators=(",", ": ")) + "\n"


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
    assert rep["header"]["constant_squared"] == {"order": 1,
                                                 "coeffs": ["-1/16"]}
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
    assert rep["header"]["squares"] == [{"order": 1, "coeffs": ["-1/16"]},
                                        {"order": 1, "coeffs": ["-1/16"]}]


@pytest.mark.parametrize("argv", [
    ["solve-constants", "--algebra", "A1", "--window", "4,3,1"],
    ["verify", "principal", "--algebra", "A1", "--solve-constants",
     "--window", "4,3,1"],
])
def test_solver_finding_no_constant_exits_1(tmp_path, monkeypatch, argv):
    """No constant in Q(zeta_M) is a finding, not a config error: exit 1
    with one failing prin.constants_solved entry."""
    monkeypatch.setattr(cli, "solve_prin_constants", lambda mod, window: [])
    code, rep = _run(argv, tmp_path)
    assert code == 1
    assert rep["entries"] == [{"relation_id": "prin.constants_solved",
                               "params": {"count": 0}, "status": "fail"}]
    assert rep["header"]["solved_constants"] == []


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


def test_cli_error_exits(tmp_path, capsys):
    assert main(["verify", "toroidal", "--algebra", "Z9"]) == 2
    assert main(["verify", "principal", "--algebra", "A1"]) == 2  # no constants
    # unsupported inputs name their config key
    for argv, key in [
            (["solve-constants", "--algebra", "A2"], "algebra"),
            (["verify", "principal", "--algebra", "A2", "--solve-constants"],
             "algebra"),
            (["verify", "principal", "--algebra", "A2", "--constants",
              '{"1,0": {"order": 1, "coeffs": ["1"]}, '
              '"0,1": {"order": 1, "coeffs": ["1"]}, '
              '"1,1": {"order": 1, "coeffs": ["1"]}}', "--window", "1,1,1"],
             "algebra"),
            (["verify", "iso", "--algebra", "A3", "--theta", "diagram:1,0,2"],
             "automorphism.permutation"),
            (["verify", "toroidal", "--algebra", "D2"], "algebra.rank"),
            # the Fock suites build no theta but their own
            (["verify", "homogeneous", "--theta", "diagram:0"],
             "automorphism.kind"),
            (["verify", "zalg", "--theta", "principal"], "automorphism.kind"),
            (["verify", "roundtrip", "--algebra", "A2", "--theta",
              "diagram:1,0"], "automorphism.kind"),
            (["verify", "principal", "--solve-constants", "--theta",
              "diagram:0"], "automorphism.kind"),
            (["verify", "zalg", "--window=-1,2,1"], "window"),
            # a constant must name a root of one orbit, each orbit once
            (["verify", "principal", "--constants",
              '{"2": {"order": 1, "coeffs": ["1"]}}'], "constants.2"),
            (["verify", "principal", "--constants",
              '{"1": {"order": 1, "coeffs": ["1"]}, '
              '"-1": {"order": 1, "coeffs": ["1"]}}'], "constants.-1"),
            (["verify", "principal", "--constants",
              '{"1": {"order": 1, "coeffs": ["1"]}, '
              '"01": {"order": 1, "coeffs": ["1"]}}'], "constants.01"),
            (["verify", "principal", "--constants", "{}"], "constants")]:
        capsys.readouterr()
        assert main(argv) == 2
        assert "config error: %s:" % key in capsys.readouterr().err
    for text, key in [("[window]\nmodes = -1\n", "window.modes"),
                      ("[constants]\nsolve = maybe\n", "constants.solve"),
                      ("n = 1\n", "config"),
                      # no interpolation: a % is a character of the value
                      ("[sampling]\nseed = 5%\n", "sampling.seed")]:
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        assert main(["verify", "zalg", "--config", str(ini)]) == 2
        assert "config error: %s:" % key in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "toroidal", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_large_cyclotomic_order_is_refused_at_once():
    """A constant of order 65536 with a one-entry vector exits 2 at once:
    the length is compared with phi(M) from the prime factors of M, and
    Phi_M is never built.  Run in a subprocess so that a hang fails on
    the timeout instead of stalling the suite."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(torlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "torlab.cli", "verify", "principal",
         "--algebra", "A1", "--window", "1,1,1", "--constants",
         '{"1": {"order": 65536, "coeffs": ["1"]}}'],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert "config error: constants.1:" in proc.stderr


def test_cyclotomic_order_above_the_bound_is_refused():
    """A well-formed constant of order 4096 (2048 coefficients, phi(4096))
    exits 2 at once: config refuses an order above 1024 before the Cyc
    is built, which takes about 12 s at this order.  Run in a subprocess
    so that a stall fails on the timeout instead of stalling the suite."""
    coeffs = ["1"] + ["0"] * 2046 + ["1"]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(torlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "torlab.cli", "verify", "principal",
         "--algebra", "A1", "--window", "1,1,1", "--constants",
         json.dumps({"1": {"order": 4096, "coeffs": coeffs}})],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert "config error: constants.1:" in proc.stderr
    assert "1024" in proc.stderr


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    """An exception that is neither a config error nor a finding is a bug:
    exit 3 with the traceback on stderr, and no report.  A path that is
    not implemented is one too, and so is a ValueError: every input the
    config admits builds."""
    for exc, shown in ((KeyError("no such field"),
                        "KeyError: 'no such field'"),
                       (NotImplementedError("no such path"),
                        "NotImplementedError: no such path"),
                       (ValueError("orbit sum is not pi-fixed"),
                        "ValueError: orbit sum is not pi-fixed")):
        def broken(cfg, exc=exc):
            raise exc

        monkeypatch.setitem(cli._SUITES, "zalg", broken)
        code, rep = _run(["verify", "zalg", "--algebra", "A1",
                          "--window", "1,1,1"], tmp_path)
        assert code == 3 and rep is None
        err = capsys.readouterr().err
        assert "Traceback" in err and shown in err


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
