"""Smoke test of the narrated walkthroughs: each demos/*.py runs to exit 0
in a fresh interpreter against this checkout's torlab."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import torlab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(torlab.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
