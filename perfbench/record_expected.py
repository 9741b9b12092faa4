"""Write expected.json: the entry keys each fixed-input workload must report.

    python3 perfbench/record_expected.py

hom-a2 is not recorded: its root pairs come from the seed, and its
expected keys are built from them (workloads.HomA2.expected).  Re-record
only for a change that is meant to alter what the suites check, and say
so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = {}
    for name in ("roundtrip-a1", "prin-a1", "cli-small"):
        wl = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as tmp:
            ctx = wl.setup(0, Path(tmp))
            entries = wl.run(ctx)
            if entries is None:  # cli-small: read back the written reports
                entries = wl.read_reports(ctx)
        bad = [e for e in entries if e[2] != "pass"]
        if bad:
            raise SystemExit("%s: %d entries do not pass; not recording"
                             % (name, len(bad)))
        out[name] = workloads.coverage(workloads.entry_key(r, p)
                                       for r, p, _s, _w in entries)
        print(name, out[name]["count"], "entries")
    with open(workloads.EXPECTED_FILE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
