"""Report bytes pinned across code changes.

Criterion 9 compares two runs of the same code; these sha256 values pin
the reports themselves, so a refactor of the verifiers that changes any
entry, status or witness fails here.  The last run fails on purpose
(constant 1/4 instead of a square root of -1/16) and pins its witnesses.
A deliberate change of report content updates the values below.
"""

import hashlib

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
]


@pytest.mark.parametrize("argv, code, digest", RUNS,
                         ids=[r[0][1] + ("-fail" if r[1] else "") for r in RUNS])
def test_report_bytes(capsys, argv, code, digest):
    assert main(argv + ["--seed", "7"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
