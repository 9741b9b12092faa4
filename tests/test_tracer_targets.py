"""The names the benchmark reaches into torlab by.

perfbench/tracer.py replaces torlab functions and methods by name (its
SPANS and COUNTS tables, the FieldFamily hooks, Fraction.__new__), and
perfbench/worker.py stamps each run with distops.RAT.  A rename under
src/ would otherwise break only a traced benchmark run.  These tests
enter and leave a Tracer against the current package, so the rename
fails here first.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from torlab import distops, scalar
from torlab.scalar import Cyc

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_counts_and_restores():
    tracer = _tracer_module()
    init, mk1 = Cyc.__dict__["__init__"], scalar._mk1
    new = Fraction.__dict__["__new__"]
    with tracer.Tracer("tier-1") as tr:
        assert Cyc.__dict__["__init__"] is not init
        Cyc(4, (1, 2))
        Cyc.rational(3)
        Fraction(1, 3)
        counts = dict(tr.counts)
        metrics = tr.metrics()
    assert counts["scalar.cyc_new"] >= 2
    assert counts["scalar.fraction_new"] >= 1
    assert Cyc.__dict__["__init__"] is init
    assert scalar._mk1 is mk1
    assert Fraction.__dict__["__new__"] is new
    # every per-layer metric of BENCHMARK.json but the overhead, which
    # perfbench/run.py measures itself
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]} - {"trace.overhead_s"}
    assert set(metrics) == names


def test_worker_stamp_names_the_rational_type():
    rat = distops.RAT
    assert "%s.%s" % (rat.__module__, rat.__qualname__) == "fractions.Fraction"
