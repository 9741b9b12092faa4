"""One fresh benchmark process: set up, run one workload pass, grade it.

    python3 perfbench/worker.py MODE WORKLOAD SEED T_SPAWN OUT_DIR

MODE is one of
  timed     set up, run the pass untraced, grade it
  traced    the same under the Tracer; also writes the spans to OUT_DIR
  setup     set up only
  controls  run the workload's negative controls

T_SPAWN is time.monotonic() in the parent just before it started this
process.  On Linux that clock is CLOCK_MONOTONIC, shared by every
process, so setup_s counts interpreter start and `import torlab` too.
The timed and setup modes also time speed_probe() right after set-up,
and the timed mode samples it during the pass (SpeedSampler); the parent
uses these to correct for drift in the machine's speed.
Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import signal
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_ITERATIONS = 4000   # about 25 ms on a 2-core Xeon
PROBE_PERIOD_S = 0.4


def speed_probe():
    """Seconds for a fixed piece of pure-Python work that uses no torlab
    code: tuple-keyed dict updates and Fraction arithmetic, the mix of
    torlab's hot path.  A change to torlab cannot change it, so it
    measures how fast the machine is running right now.  The garbage
    collector is paused so the probe never pays for a collection of the
    workload's heap."""
    acc = {}
    third = Fraction(1, 3)
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        key = (i & 63, (i >> 6) & 7)
        prev = acc.get(key)
        x = Fraction(i % 7 + 1, i % 5 + 1) * third
        acc[key] = x if prev is None else prev + x
    elapsed = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed


class SpeedSampler:
    """Samples the machine's speed around and during a timed block.

    The speed of a shared machine drifts by up to 40% over seconds to
    minutes.  speed_probe() runs before the block, every PROBE_PERIOD_S
    inside it (from a SIGALRM handler, between bytecodes) and after it.
    Each stretch of work between two probes is divided by the mean of
    those two probe times, so work done while the machine was slow is
    scaled down and work done while it was fast is scaled up.
    """

    def __init__(self):
        self.marks = []  # (start, end) of each probe

    def _probe(self, *_signal):
        start = time.perf_counter()
        speed_probe()
        self.marks.append((start, time.perf_counter()))

    def __enter__(self):
        self._probe()
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()
        return False

    def work_s(self):
        """Seconds of work in the block, probes excluded."""
        return sum(b[0] - a[1] for a, b in zip(self.marks, self.marks[1:]))

    def work_in_probes(self):
        """The block's work measured in probe durations."""
        return sum((b[0] - a[1]) * 2 / ((a[1] - a[0]) + (b[1] - b[0]))
                   for a, b in zip(self.marks, self.marks[1:]))

    def first_probe_s(self):
        return self.marks[0][1] - self.marks[0][0]


def peak_rss_mb():
    """Peak resident set of this process and its children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_pass(wl, seed, tmp, sampler=None):
    """Set up and run one pass; returns (ctx, entries, exceptions,
    monotonic time when the inputs were ready, wall seconds of the pass).
    With a sampler, the pass runs inside it."""
    ctx = wl.setup(seed, tmp)
    t_ready = time.monotonic()
    entries, exceptions = [], 0
    t0 = time.perf_counter()
    with sampler or contextlib.nullcontext():
        try:
            entries = wl.run(ctx)
        except Exception:  # a suite that raises is a failure, not a crash
            traceback.print_exc()
            exceptions = 1
    return ctx, entries, exceptions, t_ready, time.perf_counter() - t0


def main(argv):
    mode, name, seed, t_spawn, out_dir = argv
    seed, t_spawn, out_dir = int(seed), float(t_spawn), Path(out_dir)
    sys.path.insert(0, str(ROOT / "src"))
    import torlab
    if Path(torlab.__file__).resolve().parent != ROOT / "src" / "torlab":
        raise SystemExit("torlab imported from %s, not from this checkout"
                         % torlab.__file__)
    import workloads
    from torlab import distops

    wl = workloads.WORKLOADS[name]
    out = {"mode": mode, "rat": "%s.%s" % (distops.RAT.__module__,
                                          distops.RAT.__qualname__)}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        tmp = Path(tmp)
        if mode == "controls":
            out["controls"] = [
                {"name": label, "caught": (not ok) and bool(witness)}
                for label, (ok, witness) in wl.controls(seed, tmp)]
        elif mode == "setup":
            wl.setup(seed, tmp)
            out["setup_s"] = time.monotonic() - t_spawn
            out["setup_probe_s"] = speed_probe()
        elif mode == "timed":
            sampler = SpeedSampler()
            ctx, entries, exc, t_ready, _wall = run_pass(wl, seed, tmp,
                                                         sampler)
            out.update(setup_s=t_ready - t_spawn,
                       setup_probe_s=sampler.first_probe_s(),
                       verify_s=sampler.work_s(),
                       verify_probes=sampler.work_in_probes(),
                       peak_rss_mb=peak_rss_mb())
            out["grade"] = wl.grade(ctx, entries, exc).as_dict()
        elif mode == "traced":
            import tracer
            with tracer.Tracer(name) as tr:
                t0 = time.perf_counter()
                ctx, entries, exc, _ready, verify_s = tr.run_root(
                    "bench." + name, lambda: run_pass(wl, seed, tmp))
                t1 = time.perf_counter()
            out.update(verify_s=verify_s, wall_s=t1 - t0,
                       self_s=tr.self_seconds(), metrics=tr.metrics())
            out["grade"] = wl.grade(ctx, entries, exc).as_dict()
            spans_path = out_dir / ("spans-%s-seed%d-%d.json"
                                    % (name, seed, time.time_ns()))
            with open(spans_path, "w") as fh:
                json.dump({"fields": ["id", "name", "start_ns", "end_ns",
                                      "parent", "workload"],
                           "spans": tr.spans}, fh)
            out["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            raise SystemExit("unknown mode %r" % mode)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
