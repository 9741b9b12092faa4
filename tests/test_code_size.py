"""tools/code_size.py runs on the source tree and adds up."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_code_size_lists_every_module_and_their_total():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_size.py"),
         str(ROOT / "src")], capture_output=True, text=True, check=True)
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    modules = {name: (int(lines), int(tokens))
               for name, lines, tokens in rows[:-1]}
    assert "torlab/distops.py" in modules
    assert rows[-1][0] == "total"
    total = (int(rows[-1][1]), int(rows[-1][2]))
    assert total == tuple(map(sum, zip(*modules.values())))
    assert all(lines > 0 and tokens > 0 for lines, tokens in modules.values())
