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
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .scalar import Cyc

SCHEMA_VERSION = 2
STATUSES = ("pass", "fail")

# json.dumps(x, sort_keys=True), the entry sort key, without building an
# encoder per call
_compact = json.JSONEncoder(sort_keys=True).encode


def _same(x):
    return x


def _seq(x):
    return [v if type(v) is int else jsonable(v) for v in x]


def _map(x):
    return {_key(k): jsonable(v) for k, v in x.items()}


def _frac(x):
    return "%d/%d" % (x.numerator, x.denominator)


# jsonable by exact type; any other type goes through _jsonable_other
_JSONABLE = {int: _same, str: _same, bool: _same, type(None): _same,
             float: _same, tuple: _seq, list: _seq, dict: _map,
             Cyc: Cyc.to_json, Fraction: _frac}


def jsonable(x):
    """Canonical JSON form of the values appearing in entries and headers."""
    conv = _JSONABLE.get(type(x))
    return conv(x) if conv is not None else _jsonable_other(x)


def _jsonable_other(x):
    """jsonable of a type outside the table, such as a subclass."""
    if isinstance(x, Cyc):
        return x.to_json()
    if isinstance(x, Fraction):
        return _frac(x)
    if isinstance(x, (int, str, float)):
        return x
    if isinstance(x, (list, tuple)):
        return _seq(x)
    if isinstance(x, dict):
        return _map(x)
    try:
        return x.to_json()
    except AttributeError:
        return repr(x)


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, (list, tuple)):
        return ",".join(str(v) for v in k)
    return str(k)


def to_text(obj) -> str:
    """The canonical text of a JSON object: exactly
    json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": "))
    followed by a newline.  Dict keys must be strings.  The object and
    the lists and dicts directly in it are written to one buffer part by
    part (for a report, one entry at a time), so no list of the chunks
    of the whole text is ever held."""
    buf = io.StringIO()
    _write(buf.write, obj, "\n", 2)
    buf.write("\n")
    return buf.getvalue()


def _write(write, x, ind, depth):
    """Write the text of x, on a line indented by ind ("\n" and spaces);
    a nonempty list or dict is written part by part down to depth."""
    t = type(x)
    if depth == 0 or not x or (t is not list and t is not dict):
        write(_text(x, ind))
        return
    inner = ind + " "
    if t is dict:
        items = ((_quote(k) + ": ", x[k]) for k in sorted(x))
    else:
        items = (("", v) for v in x)
    sep = ("{" if t is dict else "[") + inner
    for head, v in items:
        write(sep + head)
        _write(write, v, inner, depth - 1)
        sep = "," + inner
    write(ind + ("}" if t is dict else "]"))


def _text(x, ind):
    """The text of x as it sits on a line indented by ind."""
    t = type(x)
    if t is int:
        return int.__repr__(x)
    if t is str:
        return _quote(x)
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = ind + " "
        return "[" + inner + ("," + inner).join(
            [int.__repr__(v) if type(v) is int else _text(v, inner)
             for v in x]) + ind + "]"
    if t is dict:
        if not x:
            return "{}"
        inner = ind + " "
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _text(x[k], inner) for k in sorted(x)]) + \
            ind + "}"
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    if t is float:
        return _float_text(x)
    return _text_other(x, ind)


def _float_text(x):
    """A float as json writes it, non-finite values included."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_INF = float("inf")


def _text_other(x, ind):
    """The text of a subclass of a JSON type, as json writes it."""
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float_text(x)
    if isinstance(x, (list, tuple)):
        return _text(list(x), ind)
    if isinstance(x, dict):
        return _text(dict(x), ind)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(x).__name__)


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
            key=lambda e: (e["relation_id"], _compact(e["params"])))
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
