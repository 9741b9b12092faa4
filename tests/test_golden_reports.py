"""Report bytes pinned across code changes.

Criterion 9 compares two runs of the same code; these sha256 values pin
the reports themselves, so a refactor of the verifiers that changes any
entry, status or witness fails here.  The principal-fail runs fail on
purpose (the constant 1/4, (1 + i)/4 or i/2 instead of a square root of
-1/16) and pin their witnesses, at order 4 for the two order-4 constants.
A deliberate change of report content updates the values below.

The same runs back the fault-coverage ratchet: every relation id they
report has a fault case in test_checks.CASES or a reason in UNCOVERED.
Each run is made once per pytest run and its report kept for every test.
The hashes pin stdout; the last test checks that --out writes the same
bytes to a file.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from test_checks import CASES
from torlab.cli import main
from torlab.config import parse_theta, permutation_order
from torlab.report import to_text

RUNS = [
    (["verify", "homogeneous", "--algebra", "A1", "--window", "2,2,1"], 0,
     "c565458524ad2e88111c46752ed5461a9618c09c55c75b95f5b80583d58d0a36"),
    (["verify", "zalg", "--algebra", "A1", "--window", "2,2,1"], 0,
     "9e0120984e6f4957a16677b6699646e66ee4bbcfe7b17720ce4473d97b8a02d5"),
    (["verify", "roundtrip", "--algebra", "A1", "--window", "2,2,1"], 0,
     "15461f925a8bb7de121630485997da98c74592b0e43707b1f1610843ae1d0afa"),
    (["verify", "principal", "--algebra", "A1", "--solve-constants",
      "--window", "4,3,1"], 0,
     "e28472f4cc784c9538158dc5e1f1c1e280b90d6b64579b4c06673f9496c382fb"),
    (["verify", "principal", "--algebra", "A1",
      "--constants", '{"1": {"order": 1, "coeffs": ["1/4"]}}',
      "--window", "4,3,1"], 1,
     "6ff00dd4562b4859d538b8cdfda626063901ed78d9462ff4a56c26d1f78c4e4f"),
    (["verify", "principal", "--algebra", "A1",
      "--constants", '{"1": {"order": 4, "coeffs": ["1/4", "1/4"]}}',
      "--window", "4,3,1"], 1,
     "0a9ea578428df0199526d98fda3657eb1e2b2332fa57095cbeba78c8d8cfe724"),
    (["verify", "principal", "--algebra", "A1",
      "--constants", '{"1": {"order": 4, "coeffs": ["0", "1/2"]}}',
      "--window", "4,3,1"], 1,
     "c3d83c7da25e6e3137e7127c7ec6f9e338b1a8aff3798aec9afdd63fdffecb0b"),
    (["verify", "toroidal", "--algebra", "A1", "--n", "1", "--theta",
      "identity", "--window", "2,2,1", "--samples", "25"], 0,
     "d2bdf3504f324e4730433af3b86af4a30c71f05267965e956ae24a5462d5ee72"),
    (["verify", "toroidal", "--algebra", "A2", "--n", "1", "--theta",
      "diagram:1,0", "--window", "2,2,1", "--samples", "25"], 0,
     "3717ab497d206c591cb94cd98ac0a073959ff5963c416476680dec1c32175575"),
    (["verify", "iso", "--algebra", "A3", "--theta", "diagram:2,1,0",
      "--samples", "100"], 0,
     "29937457def58d49ac1a11353565afaf4ab182332fcea80819c7c4795977b2e6"),
    (["verify", "iso", "--algebra", "D4", "--samples", "200"], 0,
     "9f5f317b20514007a48fbed366bc940c262e374ecdacff8b45b30a7ccce60481"),
    (["verify", "iso", "--algebra", "D4", "--theta", "diagram:2,1,3,0",
      "--samples", "100"], 0,
     "bfe4af3cc0c71296e33c7b327506432ce3d7b06cb25168dbbcad9a8f6ec45729"),
    (["solve-constants", "--algebra", "A1", "--window", "4,3,1"], 0,
     "861cfc348b5345347858d41fca5cb99b90baab9465ad7c82d6b6976c194ebf0a"),
    (["gen", "--algebra", "A1", "--n", "1", "--window", "1,1,1"], 0,
     "4c8c600b4e2e4e18d7518ac767a56f9f6ddf4a14682e28f4363ba8fc29e3dac8"),
    (["verify", "homogeneous", "--algebra", "A1", "--n", "2",
      "--window", "2,2,1"], 0,
     "49f26223c8c2bf5f4a3c688f6edb9889e3ef582b385af741d18cc49600e36e7f"),
    (["verify", "principal", "--algebra", "A1", "--n", "2",
      "--solve-constants", "--window", "4,3,1"], 0,
     "524b16f48d347579777880a3049f658f5395adbf3f17fbaf1a66471978c8af5e"),
    (["verify", "zalg", "--algebra", "A1", "--n", "2", "--window", "1,1,1"],
     0, "7db5ed2dc1b5018f4fe4d56b42fa559df024706b5e1b73b728bd9943c5bc79b7"),
    (["verify", "roundtrip", "--algebra", "A1", "--n", "2",
      "--window", "1,1,1"], 0,
     "aab604cd8053bae2de996fb24c3ab5dd7e6714906a1398e9f5dc42bf8b3600cf"),
    (["verify", "roundtrip", "--algebra", "A2", "--window", "1,1,1"], 0,
     "5bc093429f12df7d7afbd1597449fb16c479c702cd4c3699bcbbb258968a797c"),
]


def _run_id(argv, code, _digest):
    """The suite or command, the algebra unless it is A1, the order K of a
    diagram theta unless it is at most 2, the number of variables unless
    it is 1, a given constant unless it is rational, and -fail."""
    name = argv[1] if argv[0] == "verify" else argv[0]
    algebra = argv[argv.index("--algebra") + 1]
    if algebra != "A1":
        name += "-" + algebra
    if "--theta" in argv:
        theta = parse_theta(argv[argv.index("--theta") + 1])
        order = permutation_order(theta.get("permutation", [0]))
        if order > 2:
            name += "-K%d" % order
    if "--n" in argv and argv[argv.index("--n") + 1] != "1":
        name += "-n" + argv[argv.index("--n") + 1]
    if "--constants" in argv:
        for c in json.loads(argv[argv.index("--constants") + 1]).values():
            if c["order"] != 1:
                name += "-z%d:%s" % (c["order"], ",".join(c["coeffs"]))
    return name + ("-fail" if code else "")


_OUTPUTS = {}


def _run(argv):
    """(exit code, stdout) of the CLI on argv with seed 7, run once."""
    key = tuple(argv)
    if key not in _OUTPUTS:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv + ["--seed", "7"])
        _OUTPUTS[key] = (code, out.getvalue())
    return _OUTPUTS[key]


@pytest.mark.parametrize("argv, code, digest", RUNS,
                         ids=[_run_id(*r) for r in RUNS])
def test_report_bytes(argv, code, digest):
    got, out = _run(argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Relation ids of the runs above with no case in test_checks.CASES, and
# why.  The list only shrinks: a new id needs a case or a line here, and
# an id that gains a case must leave it.
UNCOVERED = {
    "bridge.omega_size": "a count: fails only on an empty Omega basis",
    "prin.7": "fails with pinned witnesses in the principal -fail runs above",
    "prin.8": "made to fail by test_fockprin.py::"
              "test_prin8_needs_a_trivial_fixed_cartan",
    "prin.constants_solved": "made to fail by test_cli.py::"
                             "test_solver_finding_no_constant_exits_1",
    "zk.omega_closed": "made to fail by test_checks.py::"
                       "test_omega_closed_reports_the_first_offending_cell",
}


def test_every_relation_id_has_a_fault_case_or_a_reason():
    ids = set()
    for argv, _code, _digest in RUNS:
        report = json.loads(_run(argv)[1])
        ids |= {e["relation_id"] for e in report.get("entries", [])}
    covered = {rel for _case, rel, _want in CASES.values()}
    assert ids - covered == set(UNCOVERED)


@pytest.mark.parametrize("name", ["toroidal-A2", "gen"])
def test_out_file_holds_the_stdout_bytes(name, tmp_path):
    """--out writes the bytes a pinned run writes to stdout, but for the
    output path its config echoes; report.to_text is the canonical
    json.dumps text."""
    argv = next(r[0] for r in RUNS if _run_id(*r) == name)
    code, out = _run(argv)
    path = tmp_path / "report.json"
    assert main(argv + ["--seed", "7", "--out", str(path)]) == code
    written = path.read_bytes()
    assert json.loads(written)["config"]["output"] == str(path)
    assert written.replace(json.dumps(str(path)).encode(), b"null") == \
        out.encode()
    obj = {"b": [], "a": {}, "c": [[1, [2, {}]], []], "d": "ζ é",
           "e": {"y": [None, True], "x": 1.5}}
    assert to_text(obj) == json.dumps(obj, sort_keys=True, indent=1,
                                      separators=(",", ": ")) + "\n"
