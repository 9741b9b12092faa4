"""Report bytes pinned across code changes.

Criterion 9 compares two runs of the same code; these sha256 values pin
the reports themselves, so a refactor of the verifiers that changes any
entry, status or witness fails here.  The principal-fail runs fail on
purpose (the constant 1/4, (1 + i)/4 or i/2 instead of a square root of
-1/16) and pin their witnesses, at order 4 for the two order-4 constants.
A deliberate change of report content updates the values below.
"""

import hashlib
import json

import pytest

from torlab.cli import main

RUNS = [
    (["verify", "homogeneous", "--algebra", "A1", "--window", "2,2,1"], 0,
     "322300bffc7f8a3848a265ac735c72aa43b9805e47ce417546cfbc8a4cb014ff"),
    (["verify", "zalg", "--algebra", "A1", "--window", "2,2,1"], 0,
     "70ed9cade7795985a7d32bda4d7b4bdab4f0696c209bc1fbfec463baaa14c03e"),
    (["verify", "roundtrip", "--algebra", "A1", "--window", "2,2,1"], 0,
     "eb1bc3521ce2c2be91c79c2f40b0af080dd0b92e900972709e5c5353e9db2150"),
    (["verify", "principal", "--algebra", "A1", "--solve-constants",
      "--window", "4,3,1"], 0,
     "33c371f3654781abf1927092391d236a444ef5eed385d565b08a8694ded002bd"),
    (["verify", "principal", "--algebra", "A1",
      "--constants", '{"1": {"order": 1, "coeffs": ["1/4"]}}',
      "--window", "4,3,1"], 1,
     "e7402249c38356144e02b1b99771497c5b24db99e4d9f320a07a146030297073"),
    (["verify", "principal", "--algebra", "A1",
      "--constants", '{"1": {"order": 4, "coeffs": ["1/4", "1/4"]}}',
      "--window", "4,3,1"], 1,
     "212a4151d93c19ea9e0cf22491e802810ad1064fbefa9ad830dc51d66aafddf5"),
    (["verify", "principal", "--algebra", "A1",
      "--constants", '{"1": {"order": 4, "coeffs": ["0", "1/2"]}}',
      "--window", "4,3,1"], 1,
     "b28bc873398a3c4caf7162c3ac6248a2a8a03ff9666c2c45d7fe4f3d62c7c85d"),
    (["verify", "toroidal", "--algebra", "A1", "--n", "1", "--theta",
      "identity", "--window", "2,2,1", "--samples", "25"], 0,
     "90b41b0d446a252897ec2983c3d47b03fd5c5f01ca4e316d4402094c5bac5868"),
    (["verify", "toroidal", "--algebra", "A2", "--n", "1", "--theta",
      "diagram:1,0", "--window", "2,2,1", "--samples", "25"], 0,
     "d77b82f6773990aa6b7153697ab74bd6d7fb2bcb701a57ec8bd939952851a25f"),
    (["verify", "iso", "--algebra", "A3", "--theta", "diagram:2,1,0",
      "--samples", "100"], 0,
     "ba49786e4a66f0372add5c7ddb4965330739fcd1d96a54ee6bec3bd1ade80abf"),
    (["solve-constants", "--algebra", "A1", "--window", "4,3,1"], 0,
     "256ed3f78b96458ea4a99eaac1e1725184646e968f5ea0a64d80023d5b2e4e8f"),
    (["gen", "--algebra", "A1", "--n", "1", "--window", "1,1,1"], 0,
     "4c8c600b4e2e4e18d7518ac767a56f9f6ddf4a14682e28f4363ba8fc29e3dac8"),
    (["verify", "homogeneous", "--algebra", "A1", "--n", "2",
      "--window", "2,2,1"], 0,
     "64e722e8844fa79667bcd19820cc2c26c785fa431d4a9775107d87b1518f618f"),
    (["verify", "principal", "--algebra", "A1", "--n", "2",
      "--solve-constants", "--window", "4,3,1"], 0,
     "1c43849e56fb034ad5c78527f43b467a826a902f1d619e268ca2cb3490077c25"),
    (["verify", "roundtrip", "--algebra", "A1", "--n", "2",
      "--window", "1,1,1"], 0,
     "1310903fb209ef17e6ce8d61c95f7ec5c84848729372d537d18e6683370b8a82"),
    (["verify", "roundtrip", "--algebra", "A2", "--window", "1,1,1"], 0,
     "68abfed4a322fc355ede3677152062c894f8b7365e834d03f3d6e03ed2334845"),
]


def _run_id(argv, code, _digest):
    """The suite or command, the algebra unless it is A1, the number of
    variables unless it is 1, a given constant unless it is rational, and
    -fail."""
    name = argv[1] if argv[0] == "verify" else argv[0]
    algebra = argv[argv.index("--algebra") + 1]
    if algebra != "A1":
        name += "-" + algebra
    if "--n" in argv and argv[argv.index("--n") + 1] != "1":
        name += "-n" + argv[argv.index("--n") + 1]
    if "--constants" in argv:
        for c in json.loads(argv[argv.index("--constants") + 1]).values():
            if c["order"] != 1:
                name += "-z%d:%s" % (c["order"], ",".join(c["coeffs"]))
    return name + ("-fail" if code else "")


@pytest.mark.parametrize("argv, code, digest", RUNS,
                         ids=[_run_id(*r) for r in RUNS])
def test_report_bytes(capsys, argv, code, digest):
    assert main(argv + ["--seed", "7"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
