"""torlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload hom-a2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is src/torlab of that
checkout.  Each workload pass runs in a fresh process (perfbench/worker.py)
so that setup_s includes interpreter start and import, and peak_rss_mb is
the pass's own.  Passes repeat, one at a time, until --seconds have gone;
timings are medians over the passes.  Then, untimed, the workload's
negative controls run in one more process.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics plus the tracing overhead.
Every line before the last is for people; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The full result, with the
environment stamp and every sample, is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("hom-a2", "roundtrip-a1", "prin-a1", "cli-small")
MIN_PASSES = 2        # per mode, whatever --seconds says
MIN_SETUPS = 5        # setup_s samples; setup-only processes fill up
CHILD_TIMEOUT = 150   # seconds for one pass
HARD_STOP = 100       # start no new pass after this many seconds

# speed_probe()'s median time on the 2-core Xeon the benchmark was written
# on.  It only sets the scale of the corrected times: there they read about
# as wall seconds.
PROBE_REF_S = 0.02

END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_share": "1"}


def spawn(mode, workload, seed):
    """Run one worker process to completion; returns its JSON result."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
         repr(t_spawn), str(OUT_DIR)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker %s %s exited with %d"
                           % (mode, workload, proc.returncode))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(modes, workload, seed, seconds):
    """Cycle through modes, one process at a time, until seconds have gone
    and every mode has MIN_PASSES results."""
    start = time.monotonic()
    results = {m: [] for m in modes}
    while True:
        for mode in modes:
            results[mode].append(spawn(mode, workload, seed))
        elapsed = time.monotonic() - start
        enough = all(len(r) >= MIN_PASSES for r in results.values())
        if (enough and elapsed >= seconds) or elapsed >= HARD_STOP:
            return results


def corrected_verify_s(result):
    """The pass's work measured in speed-probe durations (worker.py,
    SpeedSampler), times PROBE_REF_S.  The speed of this kind of shared
    machine drifts by up to 40% over seconds to minutes; the probes run
    in the same process, interleaved with the work, so the ratio cancels
    most of the drift while a change to torlab still shows in full."""
    return result["verify_probes"] * PROBE_REF_S


def corrected_setup_s(result):
    """Set-up seconds scaled by PROBE_REF_S over the probe run right after."""
    return result["setup_s"] * PROBE_REF_S / result["setup_probe_s"]


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples
    above it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name, values, unit):
    line = "%-44s median %.6g %s" % (name, statistics.median(values), unit)
    tail = tail_percentile(values)
    if tail is None:
        return line + "  (n=%d; too few samples for a tail percentile)" % len(values)
    return line + "  p%.0f %.6g %s  (n=%d)" % (tail[0], tail[1], unit, len(values))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(rat):
    return {
        "python": platform.python_version(),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "distops_RAT": rat,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def end_to_end(timed, setup_runs):
    """The end-to-end metrics from the untraced passes, with their units."""
    verify = [corrected_verify_s(r) for r in timed]
    setups = [corrected_setup_s(r) for r in setup_runs]
    rss = [r["peak_rss_mb"] for r in timed]
    shares = [1.0 - min(1.0, r["grade"]["failed"] / r["grade"]["expected"])
              for r in timed]
    print(describe("verify_s", verify, "s"))
    print(describe("setup_s", setups, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    print("%-44s %.6g  (lowest over %d passes)" % ("pass_share", min(shares),
                                                   len(timed)))
    metrics = {"verify_s": statistics.median(verify),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rss),
               "pass_share": min(shares)}
    return metrics, END_TO_END_UNITS


def per_layer(timed, traced):
    """The per-layer metrics from the traced passes, with their units.
    Times are medians; counts must repeat exactly and are taken as is."""
    metrics = {}
    for name in traced[0]["metrics"]:
        values = [r["metrics"][name] for r in traced]
        if name.endswith(("_s", "_ratio")):
            metrics[name] = statistics.median(values)
            continue
        metrics[name] = values[0]
        if len(set(values)) > 1:
            print("  WARNING: count %s differs between traced passes: %s"
                  % (name, values))
    traced_wall = [r["verify_s"] for r in traced]
    print(describe("wall verify_s, traced", traced_wall, "s"))
    metrics["trace.overhead_s"] = (statistics.median(traced_wall)
                                   - statistics.median(r["verify_s"] for r in timed))
    units = {n: ("s" if n.endswith("_s") else
                 "1" if n.endswith("_ratio") else
                 "bytes" if n == "report.bytes" else "count")
             for n in metrics}
    for name, value in metrics.items():
        print("%-44s %.6g %s" % (name, value, units[name]))
    print("spans: " + ", ".join(r["spans_file"] for r in traced))
    return metrics, units


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "torlab" / "__init__.py").is_file():
        print("perfbench: no src/torlab in %s; run from a torlab checkout"
              % ROOT, file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    modes = ["timed", "traced"] if args.trace else ["timed"]
    results = run_passes(modes, args.workload, args.seed, args.seconds)
    timed = results["timed"]
    setup_runs = list(timed)
    while len(setup_runs) < MIN_SETUPS:
        setup_runs.append(spawn("setup", args.workload, args.seed))
    controls = spawn("controls", args.workload, args.seed)["controls"]

    passes = [r for rs in results.values() for r in rs]
    expected = sum(r["grade"]["expected"] for r in passes)
    failed = sum(r["grade"]["failed"] for r in passes)
    caught = sum(1 for c in controls if c["caught"])
    env = environment(timed[0]["rat"])

    print("perfbench %s seed=%d trace=%d passes=%s"
          % (args.workload, args.seed, args.trace,
             {m: len(r) for m, r in results.items()}))
    print("environment: " + json.dumps(env, sort_keys=True))
    print("correctness: %d of %d expected entries and checks failed; "
          "controls caught %d/%d" % (failed, expected, caught, len(controls)))
    for r in passes:
        if r["grade"]["failed"]:
            print("  failing pass: " + json.dumps(r["grade"], sort_keys=True))
    for c in controls:
        print("  control %-50s %s" % (c["name"], "caught" if c["caught"] else "MISSED"))
    print(describe("wall verify_s, uncorrected", [r["verify_s"] for r in timed], "s"))
    print(describe("wall setup_s, uncorrected", [r["setup_s"] for r in setup_runs], "s"))

    if args.trace:
        metrics, units = per_layer(timed, results["traced"])
    else:
        metrics, units = end_to_end(timed, setup_runs)

    result = {
        "correct": failed == 0 and caught == len(controls),
        "attempted": expected + len(controls),
        "failed": failed + len(controls) - caught,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, environment=env, controls=controls,
                  passes=results, setup_passes=setup_runs[len(timed):],
                  probe_ref_s=PROBE_REF_S)
    with open(OUT_DIR / ("result-%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
