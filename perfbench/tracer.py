"""Outside-in tracing of torlab's public functions.

A Tracer replaces selected functions and methods of the torlab modules
with timing or counting wrappers, and puts the originals back on exit.
Nothing under src/ knows about it.

- A *span* wrapper times each call.  Self time is the call's duration
  minus the time its traced callees took.  Calls of names in HOT are
  aggregated only; every other span is also kept in memory as
  (id, name, start_ns, end_ns, parent_id, workload) and written out by
  the caller when the run ends.
- A *count* wrapper only increments a counter: it is used for tiny hot
  functions (FieldFamily.mode_memo, Cyc construction, Fraction.__new__)
  where a clock read per call would swamp the work.

A module-level function is patched in every torlab module that bound
it by name at import (cli imports verify_33, check_Ck, ... directly),
plus the dispatch table cli._SUITES.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# (metric prefix, module, attribute path): calls are timed.
SPANS = [
    ("distops.check_window", "torlab.distops", "DeltaRelation.check_window"),
    ("distops.heisenberg_act", "torlab.distops", "FockSpace.heisenberg_act"),
    ("fockhom.window_states", "torlab.fockhom", "window_states"),
    ("fockhom.verify_33", "torlab.fockhom", "verify_33"),
    ("fockhom.verify_center_hom", "torlab.fockhom", "verify_center_hom"),
    ("zbridge.to_Zmodule", "torlab.zbridge", "to_Zmodule"),
    ("zbridge.from_Zmodule", "torlab.zbridge", "from_Zmodule"),
    ("zbridge.roundtrip_check", "torlab.zbridge", "roundtrip_check"),
    ("zbridge.check_Ck", "torlab.zbridge", "check_Ck"),
    ("fockprin.solve_prin_constants", "torlab.fockprin", "solve_prin_constants"),
    ("fockprin.verify_52", "torlab.fockprin", "verify_52"),
    ("fockprin.verify_principal_relations", "torlab.fockprin",
     "verify_principal_relations"),
    ("linalg.rref", "torlab.linalg", "rref"),
    ("rootsys.bracket", "torlab.rootsys", "ChevalleyAlgebra.bracket"),
    ("toroidal.bracket", "torlab.toroidal", "ToroidalAlgebra.bracket"),
    ("princiso.verify_iso", "torlab.princiso", "verify_iso"),
    ("princiso.build_iso_context", "torlab.princiso", "build_iso_context"),
    ("report.dumps", "torlab.report", "VerificationReport.dumps"),
    ("config.load", "torlab.config", "RunConfig.load"),
]

# Span names called so often that keeping every span would cost more
# memory than the run itself; they are aggregated only.
HOT = {"distops.heisenberg_act", "rootsys.bracket", "toroidal.bracket",
       "linalg.rref"}

# (counter, module, attribute path): calls are counted, not timed.
COUNTS = [
    ("toroidal.normalize_dA_calls", "torlab.toroidal",
     "ToroidalAlgebra.normalize_dA"),
    ("princiso.phi_calls", "torlab.princiso", "phi"),
    ("scalar.cyc_new", "torlab.scalar", "Cyc.__init__"),
    # order-1 fast constructor that bypasses Cyc.__init__
    ("scalar.cyc_new", "torlab.scalar", "_mk1"),
]

CLI_SUITE = "cli.suite"


class Tracer:
    """Context manager: install the wrappers on enter, restore on exit."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self.stats = {}      # name -> [calls, total_ns, self_ns]
        self.counts = {}
        self._stack = []     # frames: [start_ns, child_ns, span_id]
        self._undo = []
        self._next_id = 0

    # -- installing ----------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, attr, value):
        """setattr that records how to undo itself."""
        if isinstance(owner, type):
            old = owner.__dict__[attr]
        else:
            old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _patch(self, module_name, path, make):
        """Replace module_name.path by make(original function).

        Methods are replaced on the class that defines them, keeping a
        classmethod a classmethod; module functions are replaced in
        every loaded torlab module that holds the same object.
        """
        mod = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
            return
        orig = getattr(mod, path)
        new = make(orig)
        for name, other in list(sys.modules.items()):
            if (name == "torlab" or name.startswith("torlab.")) and \
                    getattr(other, path, None) is orig:
                self._set(other, path, new)

    def _install(self):
        import torlab.cli  # imports every module patched below
        import torlab.distops

        for name, module, path in SPANS:
            self._patch(module, path,
                        lambda fn, name=name: self._span_wrapper(name, fn))
        for name, module, path in COUNTS:
            self._patch(module, path,
                        lambda fn, name=name: self._count_wrapper(name, fn))

        # the cli dispatch table holds the suite functions themselves
        suites = torlab.cli._SUITES
        for key, fn in list(suites.items()):
            self._set_item(suites, key, self._span_wrapper(CLI_SUITE, fn))
        for attr in ("run_solve", "run_gen"):
            self._patch("torlab.cli", attr,
                        lambda fn: self._span_wrapper(CLI_SUITE, fn))

        self._patch("torlab.zbridge", "to_Zmodule",
                    lambda fn: self._after(fn, "zbridge.omega_states",
                                           lambda w: len(w.omega_states)))
        self._patch("torlab.report", "VerificationReport.dumps",
                    lambda fn: self._after(fn, "report.bytes",
                                           lambda text: len(text.encode())))
        self._install_memo_counter(torlab.distops.FieldFamily)
        self._install_fields_counter(torlab.distops.FieldFamily)
        self._install_fraction_counter()

    def _set_item(self, table, key, value):
        old = table[key]
        table[key] = value
        self._undo.append(lambda: table.__setitem__(key, old))

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack = self._stack
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0, 0])
        keep = name not in HOT
        clock = time.perf_counter_ns
        workload = self.workload

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent is not None else None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent_id
            frame = [clock(), 0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if keep:
                    spans.append((span_id, name, frame[0], end, parent_id,
                                  workload))

        return wrapper

    def run_root(self, name, fn):
        """Call fn() inside a span of its own: the root of the tree."""
        return self._span_wrapper(name, fn)()

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, fn, name, measure):
        """Add measure(result) to a counter after every call."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += measure(out)
            return out

        return wrapper

    def _install_memo_counter(self, field_cls):
        orig = field_cls.__dict__["mode_memo"]
        counts = self.counts
        counts["distops.memo_lookups"] = 0
        counts["distops.memo_fills"] = 0

        @functools.wraps(orig)
        def mode_memo(field, n, state):
            counts["distops.memo_lookups"] += 1
            if (n, state) not in field._memo:
                counts["distops.memo_fills"] += 1
            return orig(field, n, state)

        self._set(field_cls, "mode_memo", mode_memo)

    def _install_fields_counter(self, field_cls):
        orig = field_cls.__dict__["__init__"]
        counts = self.counts
        counts["fockhom.fields_built"] = 0

        @functools.wraps(orig)
        def __init__(field, *args, **kwargs):
            if type(field).__module__ == "torlab.fockhom":
                counts["fockhom.fields_built"] += 1
            orig(field, *args, **kwargs)

        self._set(field_cls, "__init__", __init__)

    def _install_fraction_counter(self):
        orig = Fraction.__dict__["__new__"].__func__
        counts = self.counts
        counts["scalar.fraction_new"] = 0

        @functools.wraps(orig)
        def __new__(cls, *args, **kwargs):
            counts["scalar.fraction_new"] += 1
            return orig(cls, *args, **kwargs)

        self._set(Fraction, "__new__", staticmethod(__new__))

    # -- results -------------------------------------------------------

    def self_seconds(self):
        """name -> total self time in seconds, every span name."""
        return {name: st[2] / 1e9 for name, st in self.stats.items()}

    def metrics(self):
        """The per-layer metrics, by their BENCHMARK.json names."""
        st = self.stats
        c = self.counts

        def calls(name):
            return st[name][0]

        def total_s(name):
            return st[name][1] / 1e9

        def self_s(name):
            return st[name][2] / 1e9

        lookups = c["distops.memo_lookups"]
        fills = c["distops.memo_fills"]
        return {
            "scalar.fraction_new": c["scalar.fraction_new"],
            "scalar.cyc_new": c["scalar.cyc_new"],
            "distops.check_window_calls": calls("distops.check_window"),
            "distops.check_window_self_s": self_s("distops.check_window"),
            "distops.heisenberg_act_calls": calls("distops.heisenberg_act"),
            "distops.heisenberg_act_self_s": self_s("distops.heisenberg_act"),
            "distops.memo_lookups": lookups,
            "distops.memo_fills": fills,
            "distops.memo_hit_ratio": (lookups - fills) / lookups if lookups else 0.0,
            "fockhom.window_states_s": total_s("fockhom.window_states"),
            "fockhom.verify_33_self_s": self_s("fockhom.verify_33"),
            "fockhom.verify_center_hom_self_s": self_s("fockhom.verify_center_hom"),
            "fockhom.fields_built": c["fockhom.fields_built"],
            "zbridge.to_Zmodule_s": total_s("zbridge.to_Zmodule"),
            "zbridge.from_Zmodule_s": total_s("zbridge.from_Zmodule"),
            "zbridge.roundtrip_check_self_s": self_s("zbridge.roundtrip_check"),
            "zbridge.check_Ck_self_s": self_s("zbridge.check_Ck"),
            "zbridge.omega_states": c["zbridge.omega_states"],
            "fockprin.solve_prin_constants_s": total_s("fockprin.solve_prin_constants"),
            "fockprin.verify_52_self_s": self_s("fockprin.verify_52"),
            "fockprin.verify_principal_relations_self_s":
                self_s("fockprin.verify_principal_relations"),
            "linalg.rref_calls": calls("linalg.rref"),
            "linalg.rref_s": total_s("linalg.rref"),
            "rootsys.bracket_calls": calls("rootsys.bracket"),
            "rootsys.bracket_self_s": self_s("rootsys.bracket"),
            "toroidal.bracket_calls": calls("toroidal.bracket"),
            "toroidal.bracket_self_s": self_s("toroidal.bracket"),
            "toroidal.normalize_dA_calls": c["toroidal.normalize_dA_calls"],
            "princiso.phi_calls": c["princiso.phi_calls"],
            "princiso.verify_iso_self_s": self_s("princiso.verify_iso"),
            "princiso.build_iso_context_s": total_s("princiso.build_iso_context"),
            "report.dumps_s": total_s("report.dumps"),
            "report.bytes": c["report.bytes"],
            "config.load_s": total_s("config.load"),
            "cli.suite_self_s": self_s(CLI_SUITE),
        }
