"""Tests of the benchmark harness itself (not of torlab).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from torlab import cli, distops, fockhom, rootsys, zbridge  # noqa: E402
from torlab.distops import TruncationWindow  # noqa: E402

SMALL = TruncationWindow(1, 1, 1)


@pytest.fixture
def out_dir():
    """A scratch directory inside the checkout's ignored output directory."""
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".perfbench_out"))
    yield path
    shutil.rmtree(path)


def small_workload(out_dir):
    """A few seconds' worth of calls through most traced functions."""
    mod = fockhom.HomogeneousModule(rootsys.build_root_system("A", 2), 1)
    roots = sorted(tuple(r) for r in mod.rs.roots)
    fockhom.verify_33(mod, SMALL, root_pairs=[(roots[0], roots[-1])])
    fockhom.verify_center_hom(mod, SMALL)
    assert cli.main(["verify", "zalg", "--algebra", "A1", "--window", "1,1,1",
                     "--out", str(out_dir / "r.json")]) == 0
    assert cli.main(["gen", "--algebra", "A1", "--window", "1,1,1",
                     "--out", str(out_dir / "g.json")]) == 0


def patched_objects():
    """Every attribute the tracer replaces, as currently bound."""
    out = {"Fraction.__new__": Fraction.__dict__["__new__"],
           "FieldFamily.mode_memo": distops.FieldFamily.__dict__["mode_memo"],
           "FieldFamily.__init__": distops.FieldFamily.__dict__["__init__"],
           "cli._SUITES": dict(cli._SUITES),
           "cli.run_solve": cli.run_solve, "cli.run_gen": cli.run_gen}
    for _name, module, path in tracer.SPANS + tracer.COUNTS:
        mod = sys.modules[module]
        if "." in path:
            cls, attr = path.split(".")
            out[module + ":" + path] = getattr(mod, cls).__dict__[attr]
        else:
            for name, other in sys.modules.items():
                if name.startswith("torlab") and hasattr(other, path):
                    out[name + ":" + path] = getattr(other, path)
    return out


def test_wrappers_are_removed_after_a_traced_run(out_dir):
    before = patched_objects()
    with tracer.Tracer("test") as tr:
        assert fockhom.verify_33 is not before["torlab.fockhom:verify_33"]
        assert zbridge.check_Ck is not before["torlab.zbridge:check_Ck"]
        assert cli.check_Ck is zbridge.check_Ck  # patched where imported too
        small_workload(out_dir)
    assert tr.stats["fockhom.verify_33"][0] == 1
    after = patched_objects()
    assert after.keys() == before.keys()
    for key, obj in before.items():
        if key == "cli._SUITES":
            assert all(after[key][k] is v for k, v in obj.items()), key
        else:
            assert after[key] is obj, key


def test_wrappers_are_removed_when_the_traced_code_raises():
    before = patched_objects()
    try:
        with tracer.Tracer("test"):
            raise KeyError("boom")
    except KeyError:
        pass
    after = patched_objects()
    assert all(after[k] is v for k, v in before.items() if k != "cli._SUITES")


def test_self_times_are_nonnegative_and_sum_to_the_wall_time(out_dir):
    """Tolerance: 2% of the wall time plus 5 ms, for the few clock reads
    and Python frames outside the root span."""
    with tracer.Tracer("test") as tr:
        t0 = time.perf_counter()
        tr.run_root("bench.test", lambda: small_workload(out_dir))
        wall = time.perf_counter() - t0
    self_s = tr.self_seconds()
    assert all(v >= 0 for v in self_s.values()), self_s
    assert abs(sum(self_s.values()) - wall) <= 0.02 * wall + 0.005
    # spans nest: every kept span lies inside its parent
    by_id = {s[0]: s for s in tr.spans}
    for span_id, _name, start, end, parent, _wl in tr.spans:
        assert start <= end
        if parent is not None:
            assert by_id[parent][2] <= start and end <= by_id[parent][3]


def traced_pass(seed, out_dir):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "traced", "hom-a2",
         str(seed), repr(time.monotonic()), str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_counts_repeat_exactly_across_two_traced_runs(out_dir):
    first, second = traced_pass(3, out_dir), traced_pass(3, out_dir)
    counts = [n for n in first["metrics"] if not n.endswith(("_s", "_ratio"))]
    assert "scalar.fraction_new" in counts and "distops.memo_fills" in counts
    assert {n: first["metrics"][n] for n in counts} == \
        {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["distops.check_window_calls"] > 0
    assert first["grade"]["failed"] == 0


def test_gate_counts_a_dropped_entry_as_failed():
    wl = workloads.WORKLOADS["hom-a2"]
    pairs = wl.pairs(rootsys.build_root_system("A", 2), 1)
    want = wl.expected(pairs)
    entries = [("zhom.pair", {"b1": list(b1), "b2": list(b2),
                              "r": list(r), "s": list(s)}, "pass", None)
               for b1, b2 in pairs for r in wl.rvecs for s in wl.rvecs]
    entries += [("zhom.center", {"r": list(r)}, "pass", None) for r in wl.rvecs]
    entries.append(("zhom.k_nontrivial", {"i": 1}, "pass", None))
    assert workloads.Graded(entries, want, []).failed == 0
    assert workloads.Graded(entries[1:], want, []).failed == 1
    swapped = [("zhom.pair", dict(entries[0][1], r=[5]), "pass", None)]
    assert workloads.Graded(swapped + entries[1:], want, []).mismatches == 1


def test_refuses_to_run_without_the_program(out_dir):
    shutil.copytree(HERE, out_dir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", out_dir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hom-a2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=out_dir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_sampler_probes_during_the_block_and_restores_the_timer():
    import signal
    import worker

    before = signal.getsignal(signal.SIGALRM)
    sampler = worker.SpeedSampler()
    t0 = time.perf_counter()
    with sampler:
        while time.perf_counter() - t0 < 3 * worker.PROBE_PERIOD_S:
            sum(range(1000))
    wall = time.perf_counter() - t0
    assert len(sampler.marks) >= 4  # before, at least two during, after
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    probes = sum(b - a for a, b in sampler.marks)
    assert 0 < sampler.work_s() <= wall - probes + 0.01
    assert sampler.work_in_probes() > 0
