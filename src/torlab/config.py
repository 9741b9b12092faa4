"""Run configuration: INI file sections plus command-line overrides.

A run is described by a single human-editable INI file (key = value
sections) and/or command-line flags; flags win over the file, the file
wins over defaults.  The fully resolved configuration is validated before
any computation and echoed into every report, so a report always names
the exact inputs that produced it.
"""

from __future__ import annotations

import configparser
import json
import re
from fractions import Fraction
from math import lcm

from .distops import TruncationWindow
from .scalar import Cyc


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


class RunConfig:
    def __init__(self):
        self.kind = "A"
        self.rank = 1
        self.n = 1
        self.level = Fraction(1)
        self.automorphism = {"kind": "identity"}
        self.window = TruncationWindow(2, 2, 1)
        self.constants = None          # dict: root tuple -> Cyc
        self.solve_constants = False
        self.samples = 100
        self.seed = 0
        self.output = None

    # -- construction --------------------------------------------------

    @classmethod
    def load(cls, ini_path=None, args=None) -> "RunConfig":
        cfg = cls()
        if ini_path is not None:
            cfg._apply_ini(ini_path)
        if args is not None:
            cfg._apply_args(args)
        cfg.validate()
        return cfg

    def _apply_ini(self, path):
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError("config: cannot read %r" % path)
        get = parser.get

        def has(sec, key):
            return parser.has_option(sec, key)

        if has("algebra", "kind"):
            self.kind = get("algebra", "kind").strip()
        if has("algebra", "rank"):
            self.rank = _as_int("algebra.rank", get("algebra", "rank"))
        if has("toroidal", "n"):
            self.n = _as_int("toroidal.n", get("toroidal", "n"))
        if has("toroidal", "level"):
            self.level = _as_fraction("toroidal.level", get("toroidal", "level"))
        if has("automorphism", "kind"):
            self.automorphism = {"kind": get("automorphism", "kind").strip()}
        if has("automorphism", "permutation"):
            self.automorphism["permutation"] = _as_ints(
                "automorphism.permutation", get("automorphism", "permutation"))
        if has("automorphism", "s"):
            self.automorphism["s"] = _as_ints("automorphism.s",
                                              get("automorphism", "s"))
        for key, attr in (("modes", "modes"), ("degree", "degree"),
                          ("lattice", "support")):
            if has("window", key):
                vals = {"modes": self.window.modes,
                        "degree": self.window.degree,
                        "support": self.window.support}
                vals[attr] = _as_int("window." + key, get("window", key))
                self.window = TruncationWindow(**vals)
        if has("sampling", "samples"):
            self.samples = _as_int("sampling.samples", get("sampling", "samples"))
        if has("sampling", "seed"):
            self.seed = _as_int("sampling.seed", get("sampling", "seed"))
        if parser.has_section("constants"):
            consts = {}
            for key, val in parser.items("constants"):
                if key == "solve":
                    self.solve_constants = parser.getboolean("constants", "solve")
                    continue
                consts[_root_key("constants." + key, key)] = _as_cyc(
                    "constants." + key, val)
            if consts:
                self.constants = consts
        if has("output", "path"):
            self.output = get("output", "path").strip()

    def _apply_args(self, args):
        if getattr(args, "algebra", None):
            self.kind, self.rank = parse_algebra(args.algebra)
        if getattr(args, "n", None) is not None:
            self.n = args.n
        if getattr(args, "level", None):
            self.level = _as_fraction("toroidal.level", args.level)
        if getattr(args, "theta", None):
            self.automorphism = parse_theta(args.theta)
        if getattr(args, "window", None):
            self.window = parse_window(args.window)
        if getattr(args, "samples", None) is not None:
            self.samples = args.samples
        if getattr(args, "seed", None) is not None:
            self.seed = args.seed
        if getattr(args, "constants", None):
            try:
                obj = json.loads(args.constants)
            except ValueError as exc:
                raise ConfigError("constants: invalid JSON (%s)" % exc)
            if not isinstance(obj, dict):
                raise ConfigError("constants: expected an object")
            self.constants = {
                _root_key("constants." + k, k): _as_cyc("constants." + k, v)
                for k, v in obj.items()}
        if getattr(args, "solve_constants", False):
            self.solve_constants = True
        if getattr(args, "out", None):
            self.output = args.out

    # -- validation and echo -------------------------------------------

    def validate(self):
        if self.kind not in ("A", "D", "E"):
            raise ConfigError("algebra.kind: %r is not one of A, D, E" % self.kind)
        if self.rank < 1:
            raise ConfigError("algebra.rank: must be >= 1, got %d" % self.rank)
        if self.kind == "E" and self.rank not in (6, 7, 8):
            raise ConfigError("algebra.rank: E requires rank 6, 7 or 8")
        if self.n < 1:
            raise ConfigError("toroidal.n: must be >= 1, got %d" % self.n)
        if self.level != 1:
            # every suite builds its modules at level 1; a report must not
            # claim a level its checks did not run at
            raise ConfigError("toroidal.level: only level 1 is supported, "
                              "got %s" % self.level)
        kind = self.automorphism.get("kind")
        if kind not in ("identity", "diagram", "principal"):
            raise ConfigError("automorphism.kind: %r is not one of "
                              "identity, diagram, principal" % kind)
        if kind == "diagram":
            perm = self.automorphism.get("permutation")
            if not perm or sorted(perm) != list(range(self.rank)):
                raise ConfigError("automorphism.permutation: expected a "
                                  "permutation of 0..%d" % (self.rank - 1))
        if kind == "principal":
            s = self.automorphism.get("s")
            if s is not None and any(v != 1 for v in s):
                raise ConfigError("automorphism.s: only s = (1, ..., 1) "
                                  "is supported")
        for name, v in (("modes", self.window.modes),
                        ("degree", self.window.degree),
                        ("lattice", self.window.support)):
            if v < 0:
                raise ConfigError("window.%s: must be >= 0, got %d" % (name, v))
        if self.samples < 0:
            raise ConfigError("sampling.samples: must be >= 0")
        return self

    def resolved(self) -> dict:
        aut = {"kind": self.automorphism["kind"]}
        if self.automorphism.get("permutation") is not None:
            aut["permutation"] = list(self.automorphism["permutation"])
        if self.automorphism.get("s") is not None:
            aut["s"] = list(self.automorphism["s"])
        out = {
            "algebra": {"kind": self.kind, "rank": self.rank},
            "n": self.n,
            "level": self.level,
            "automorphism": aut,
            "window": {"modes": self.window.modes,
                       "degree": self.window.degree,
                       "lattice": self.window.support},
            "samples": self.samples,
            "seed": self.seed,
            "output": self.output,
            "solve_constants": self.solve_constants,
        }
        if self.constants is not None:
            out["constants"] = {",".join(map(str, k)): v
                                for k, v in self.constants.items()}
        return out


# -- flag value parsers -----------------------------------------------


def parse_algebra(text):
    m = re.fullmatch(r"([ADE])(\d+)", text.strip())
    if not m:
        raise ConfigError("algebra: %r is not of the form A2, D4, E6" % text)
    return m.group(1), int(m.group(2))


def parse_window(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("window: expected W,D,B, got %r" % text)
    try:
        w, d, b = (int(p) for p in parts)
    except ValueError:
        raise ConfigError("window: non-integer bound in %r" % text)
    return TruncationWindow(w, d, b)


def parse_theta(text):
    parts = text.strip().split(":")
    kind = parts[0]
    if kind == "identity" and len(parts) == 1:
        return {"kind": "identity"}
    if kind == "diagram" and len(parts) == 2:
        return {"kind": "diagram",
                "permutation": _as_ints("theta", parts[1])}
    if kind == "principal" and len(parts) <= 2:
        spec = {"kind": "principal"}
        if len(parts) == 2:
            spec["s"] = _as_ints("theta", parts[1])
        return spec
    raise ConfigError("theta: %r is not identity, diagram:<perm> "
                      "or principal" % text)


def permutation_order(perm):
    order = 1
    for start in range(len(perm)):
        cur, length = perm[start], 1
        while cur != start:
            cur = perm[cur]
            length += 1
        order = lcm(order, length)
    return order


def _as_int(key, text):
    try:
        return int(str(text).strip())
    except ValueError:
        raise ConfigError("%s: expected an integer, got %r" % (key, text))


def _as_ints(key, text):
    try:
        return [int(p) for p in str(text).split(",")]
    except ValueError:
        raise ConfigError("%s: expected comma-separated integers, got %r"
                          % (key, text))


def _as_fraction(key, text):
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError("%s: expected a rational, got %r" % (key, text))


def _root_key(key, text):
    return tuple(_as_ints(key, text))


def _as_cyc(key, val):
    if isinstance(val, str):
        try:
            val = json.loads(val)
        except ValueError:
            raise ConfigError("%s: expected a cyclotomic JSON object" % key)
    try:
        return Cyc.from_json(val)
    except (KeyError, TypeError, ValueError):
        raise ConfigError("%s: expected {\"order\": M, \"coeffs\": [...]}" % key)
