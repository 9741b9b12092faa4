"""Deterministic JSON verification reports.

A report carries its schema number, the tool version, the fully resolved
configuration, a header of suite-specific facts (solved constants,
exponent tables, the central-relation conventions in play), a summary
counting the entries by status, and a sorted list of entries
{relation_id, params, status, witness} with status "pass" or "fail".
Identical configuration and seed produce byte-identical serialized
reports: all values are converted to a canonical JSON form (fractions as
"p/q" strings, cyclotomic scalars as {"order", "coeffs"} objects at the
value's minimal order, tuples as lists) and entries are sorted by
(relation_id, canonical params).  Scalars therefore render by value,
whichever computation produced them; so do witness coefficients, which
are written as the repr of a Cyc.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

from . import __version__
from .scalar import Cyc

SCHEMA_VERSION = 2
STATUSES = ("pass", "fail")


def jsonable(x):
    """Canonical JSON form of the values appearing in entries and headers."""
    if isinstance(x, Cyc):
        return x.to_json()
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, (int, str, float)):
        return x
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {_key(k): jsonable(v) for k, v in x.items()}
    try:
        return x.to_json()
    except AttributeError:
        return repr(x)


def to_text(obj) -> str:
    """The canonical text of a JSON object: sorted keys, indent 1, a final
    newline.  json.dump writes each chunk to the buffer as the encoder
    yields it, where json.dumps would first hold every chunk in a list."""
    buf = io.StringIO()
    json.dump(obj, buf, sort_keys=True, indent=1, separators=(",", ": "))
    buf.write("\n")
    return buf.getvalue()


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, (list, tuple)):
        return ",".join(str(v) for v in k)
    return str(k)


class VerificationReport:
    def __init__(self, config: dict, header: dict | None = None):
        self.config = jsonable(config)
        self.header = jsonable(header or {})
        self.entries = []

    def extend(self, entries):
        """Absorb (relation_id, params, status, witness) tuples."""
        for rel, params, status, witness in entries:
            if status not in STATUSES:
                raise ValueError("unknown entry status %r" % (status,))
            entry = {"relation_id": rel, "params": jsonable(params),
                     "status": status}
            if witness is not None:
                entry["witness"] = jsonable(witness)
            self.entries.append(entry)
        return self

    def summary(self):
        counts = {s: 0 for s in STATUSES}
        for e in self.entries:
            counts[e["status"]] += 1
        counts["total"] = len(self.entries)
        return counts

    def exit_code(self) -> int:
        return 0 if all(e["status"] == "pass" for e in self.entries) else 1

    def to_json(self) -> dict:
        entries = sorted(
            self.entries,
            key=lambda e: (e["relation_id"],
                           json.dumps(e["params"], sort_keys=True)))
        return {
            "schema": SCHEMA_VERSION,
            "tool": {"name": "torlab", "version": __version__},
            "config": self.config,
            "header": self.header,
            "summary": self.summary(),
            "entries": entries,
        }

    def dumps(self) -> str:
        return to_text(self.to_json())

    @staticmethod
    def parse(text: str) -> dict:
        obj = json.loads(text)
        if obj.get("schema") != SCHEMA_VERSION:
            raise ValueError("unsupported report schema %r" % obj.get("schema"))
        return obj
