"""The four benchmark workloads, run through torlab's public API.

Each workload has
  setup(seed, tmp)  -> ctx       inputs ready: modules, states, configs
  run(ctx)          -> outcome   the timed part: the suite calls
  grade(ctx, outcome)            untimed correctness gate
  controls(seed, tmp)            untimed negative controls

Suite functions are called through their modules (fockhom.verify_33,
not a name imported here) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from torlab import cli, config, fockhom, fockprin, rootsys, zbridge
from torlab.distops import DeltaRelation, DeltaTerm, TruncationWindow
from torlab.scalar import Cyc

EXPECTED_FILE = Path(__file__).with_name("expected.json")


# ---------------------------------------------------------------------------
# grading helpers
# ---------------------------------------------------------------------------


def entry_key(rel, params):
    return json.dumps([rel, params], sort_keys=True, separators=(",", ":"))


def coverage(keys):
    """Digest of the sorted key list plus entry counts per relation id."""
    keys = sorted(keys)
    counts = Counter(json.loads(k)[0] for k in keys)
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    return {"digest": digest, "count": len(keys), "by_relation": dict(counts)}


def coverage_mismatches(got, want):
    """Entries missing or extra per relation id; at least 1 when the key
    sets differ with equal counts."""
    rels = set(got["by_relation"]) | set(want["by_relation"])
    off = sum(abs(got["by_relation"].get(r, 0) - want["by_relation"].get(r, 0))
              for r in rels)
    if not off and got["digest"] != want["digest"]:
        off = 1
    return off


def load_expected(name):
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)[name]


def sweep(rel, W, states):
    """(ok, witness) of one delta relation over every window state."""
    for v in states:
        ok, witness = rel.check_window(W, v)
        if not ok:
            return False, witness
    return True, None


def verdict(entries):
    """(ok, witness) of a list of entries, the shape sweep() returns:
    ok is False when some entry failed with a witness."""
    witness = next((w for _r, _p, status, w in entries
                    if status == "fail" and w), None)
    return witness is None, witness


def flip_first_term(rel):
    """The same relation with the sign of its first delta term flipped."""
    first, *rest = rel.rhs_terms
    bad = DeltaTerm(-first.coeff, first.a, first.field, first.use_D)
    return DeltaRelation(rel.f, rel.g, rel.factors, [bad] + rest)


class Graded:
    """Outcome of the correctness gate for one workload pass."""

    def __init__(self, entries, expected_cov, checks, exceptions=0):
        got = coverage(entry_key(r, p) for r, p, _s, _w in entries)
        self.non_pass = sum(1 for e in entries if e[2] != "pass")
        self.mismatches = coverage_mismatches(got, expected_cov)
        self.failed_checks = [name for name, ok in checks if not ok]
        self.exceptions = exceptions
        self.expected = expected_cov["count"] + len(checks)
        self.failed = (self.non_pass + self.mismatches + exceptions
                       + len(self.failed_checks))

    def as_dict(self):
        return {"expected": self.expected, "failed": self.failed,
                "non_pass": self.non_pass, "mismatches": self.mismatches,
                "exceptions": self.exceptions,
                "failed_checks": self.failed_checks}


# ---------------------------------------------------------------------------
# hom-a2: the warm-memo rational sweep of the homogeneous picture
# ---------------------------------------------------------------------------


class HomA2:
    name = "hom-a2"
    window = TruncationWindow(2, 2, 1)
    classes = (2, 1, -1, -2)
    pairs_per_class = 2
    rvecs = [(0,), (1,), (-1,)]

    def pairs(self, rs, seed):
        """pairs_per_class seeded root pairs of each inner-product class,
        classes in fixed order.  No two pairs of a class are one pair and
        its reverse: a reversed pair reuses the fields and memo of the
        first, so such a draw would cost markedly less memory and time
        than the others and make the workload's size depend on the seed."""
        rng = random.Random(seed)
        roots = sorted(tuple(r) for r in rs.roots)
        out = []
        for ip in self.classes:
            unordered = sorted({tuple(sorted((a, b))) for a in roots
                                for b in roots if rs.form(a, b) == ip})
            for a, b in rng.sample(unordered, self.pairs_per_class):
                out.append((a, b) if rng.random() < 0.5 else (b, a))
        return out

    def setup(self, seed, tmp):
        rs = rootsys.build_root_system("A", 2)
        mod = fockhom.HomogeneousModule(rs, 1)
        states = fockhom.window_states(mod.space, self.window)
        return {"mod": mod, "states": states, "pairs": self.pairs(rs, seed)}

    def run(self, ctx):
        entries = []
        for pair in ctx["pairs"]:
            fockhom.verify_33(ctx["mod"], self.window, root_pairs=[pair],
                              states=ctx["states"], entries=entries)
        fockhom.verify_center_hom(ctx["mod"], self.window,
                                  states=ctx["states"], entries=entries)
        return entries

    def expected(self, pairs):
        keys = [entry_key("zhom.pair", {"b1": list(b1), "b2": list(b2),
                                        "r": list(r), "s": list(s)})
                for b1, b2 in pairs for r in self.rvecs for s in self.rvecs]
        keys += [entry_key("zhom.center", {"r": list(r)}) for r in self.rvecs]
        keys.append(entry_key("zhom.k_nontrivial", {"i": 1}))
        return coverage(keys)

    def grade(self, ctx, entries, exceptions):
        return Graded(entries, self.expected(ctx["pairs"]), [], exceptions)

    def controls(self, seed, tmp):
        ctx = self.setup(seed, tmp)
        mod, states = ctx["mod"], ctx["states"]
        b1, b2 = ctx["pairs"][-1]  # an opposite-root pair: central terms
        zero = (0,)
        rel = fockhom.pair_relation(mod, b1, b2, zero, zero)
        ip = mod.rs.form(b1, b2)
        off_by_one = DeltaRelation(rel.f, rel.g, [(Fraction(ip + 1), Cyc.one())],
                                   rel.rhs_terms)
        W = self.window.modes
        return [
            ("binomial exponent (b1,b2)+1", sweep(off_by_one, W, states)),
            ("delta-term sign flipped", sweep(flip_first_term(rel), W, states)),
        ]


# ---------------------------------------------------------------------------
# roundtrip-a1: the Z-algebra bridge both ways
# ---------------------------------------------------------------------------


class RoundtripA1:
    name = "roundtrip-a1"
    window = TruncationWindow(2, 2, 1)

    def setup(self, seed, tmp):
        mod = fockhom.HomogeneousModule(rootsys.build_root_system("A", 1), 1)
        states = fockhom.window_states(mod.space, self.window)
        return {"ck": zbridge.homogeneous_Ck(mod), "states": states}

    def run(self, ctx):
        ck, states = ctx["ck"], ctx["states"]
        entries, _w, back = zbridge.roundtrip_check(ck, self.window)
        zbridge.check_Ck(ck, self.window, states=states, entries=entries)
        zbridge.check_Ck(back, self.window, states=states, entries=entries)
        return entries

    def grade(self, ctx, entries, exceptions):
        return Graded(entries, load_expected(self.name), [], exceptions)

    def controls(self, seed, tmp):
        ctx = self.setup(seed, tmp)
        ck, states = ctx["ck"], ctx["states"]
        beta = tuple(ck.rs.roots[0])
        zero = ck.zero_r()
        w = zbridge.to_Zmodule(ck, self.window)
        wrong_level = zbridge.DkModule(w.space, 2, w.twist, w.rs, w.lat, w.alg,
                                       w.z, w.kf, w.omega_states)
        back = zbridge.from_Zmodule(wrong_level)
        level_entries = zbridge.check_Ck(back, self.window, roots=[beta],
                                         rvecs=[zero], states=states)
        rel = zbridge.current_pair_relation(ck, beta, tuple(-c for c in beta),
                                            zero, zero)
        return [
            ("rebuilt at level 2", verdict(level_entries)),
            ("delta-term sign flipped",
             sweep(flip_first_term(rel), self.window.modes, states)),
        ]


# ---------------------------------------------------------------------------
# prin-a1: the cyclotomic principal picture and its constant
# ---------------------------------------------------------------------------


class PrinA1:
    name = "prin-a1"
    window = TruncationWindow(6, 4, 1)
    solve_windows = (TruncationWindow(6, 4, 1), TruncationWindow(8, 4, 1))

    def module(self):
        return fockprin.PrincipalModule(rootsys.build_root_system("A", 1), 1, 2,
                                        fockprin.negation_theta)

    def setup(self, seed, tmp):
        mod = self.module()
        return {"mod": mod,
                "states": fockhom.window_states(mod.space, self.window)}

    def run(self, ctx):
        mod = ctx["mod"]
        sols = [fockprin.solve_prin_constants(mod, w) for w in self.solve_windows]
        mod.set_constants(sorted(sols[0], key=repr)[0])
        entries = fockprin.verify_52(mod, self.window, states=ctx["states"])
        fockprin.verify_principal_relations(mod, self.window, entries=entries)
        ctx["solutions"] = sols
        return entries

    def grade(self, ctx, entries, exceptions):
        sols = ctx.get("solutions") or [[], []]
        target = Cyc.rational(Fraction(-1, 16))
        checks = [
            ("C*C == -1/16", bool(sols[0]) and all(c * c == target for c in sols[0])),
            ("solutions agree across windows",
             sorted(map(repr, sols[0])) == sorted(map(repr, sols[1]))),
        ]
        return Graded(entries, load_expected(self.name), checks, exceptions)

    def controls(self, seed, tmp):
        bad = self.module()
        bad.set_constants(Fraction(1, 4))
        beta = tuple(bad.rs.roots[0])
        entries = fockprin.verify_principal_relations(
            bad, self.window, roots=[beta], rvecs=[bad.zero_r()])
        return [("constant 1/4 instead of the solved one", verdict(entries))]


# ---------------------------------------------------------------------------
# cli-small: many small CLI invocations with report writes
# ---------------------------------------------------------------------------


class CliSmall:
    name = "cli-small"
    invocations = [
        ["verify", "toroidal", "--algebra", "A1", "--n", "1",
         "--theta", "identity", "--window", "2,2,1", "--samples", "25"],
        ["verify", "toroidal", "--algebra", "A2", "--n", "1",
         "--theta", "diagram:1,0", "--window", "2,2,1", "--samples", "25"],
        ["verify", "homogeneous", "--algebra", "A1", "--window", "2,2,1"],
        ["verify", "zalg", "--algebra", "A1", "--window", "2,2,1"],
        ["verify", "roundtrip", "--algebra", "A1", "--window", "2,2,1"],
        ["verify", "principal", "--algebra", "A1", "--solve-constants",
         "--window", "4,3,1"],
        ["verify", "iso", "--algebra", "A3", "--theta", "diagram:2,1,0",
         "--samples", "100"],
        ["solve-constants", "--algebra", "A1", "--window", "4,3,1"],
        ["gen", "--algebra", "A1", "--n", "1", "--window", "1,1,1"],
        ["verify", "iso", "--algebra", "D4", "--samples", "200"],
        ["verify", "toroidal", "--algebra", "A3", "--n", "2",
         "--theta", "diagram:2,1,0"],
    ]
    repeated = 6  # run twice; the two reports must be byte-identical

    def setup(self, seed, tmp):
        argvs = [argv + ["--seed", str(seed), "--out", str(tmp / ("report-%d.json" % i))]
                 for i, argv in enumerate(self.invocations)]
        parser = cli.build_parser()
        for argv in argvs:
            args = parser.parse_args(argv)
            config.RunConfig.load(args.config, args)
        return {"argvs": argvs}

    def run(self, ctx):
        """The entries are in the written reports; grade() reads them."""
        ctx["codes"] = [cli.main(argv) for argv in ctx["argvs"]]
        return None

    @staticmethod
    def report_entries(index, path):
        """Entries of one written report; gen output counts as one entry.
        A sampled entry keeps only its sample index: the sampled operands
        vary with --seed, the number of samples does not."""
        with open(path) as fh:
            obj = json.load(fh)
        tag = "%d:" % index
        if "entries" not in obj:
            return [(tag + "gen", {"basis": len(obj["basis"]),
                                   "brackets": len(obj["brackets"])}, "pass", None)]
        out = []
        for e in obj["entries"]:
            params = e["params"]
            if "sample" in params:
                params = {"sample": params["sample"]}
            out.append((tag + e["relation_id"], params, e["status"],
                        e.get("witness")))
        return out

    def read_reports(self, ctx):
        """The entries of every report the invocations wrote."""
        entries = []
        for i, argv in enumerate(ctx["argvs"]):
            if Path(argv[-1]).exists():
                entries += self.report_entries(i, argv[-1])
        return entries

    def grade(self, ctx, _entries, exceptions):
        entries = self.read_reports(ctx)
        codes = ctx.get("codes", [])
        checks = [("exit codes all 0", codes == [0] * len(self.invocations))]
        argv = ctx["argvs"][self.repeated]
        path = Path(argv[-1])
        first = path.read_bytes() if path.exists() else b""
        again = cli.main(argv)
        checks.append(("repeated invocation byte-identical",
                       again == 0 and bool(first) and path.read_bytes() == first))
        return Graded(entries, load_expected(self.name), checks, exceptions)

    def controls(self, seed, tmp):
        path = tmp / "control-principal.json"
        code = cli.main(["verify", "principal", "--algebra", "A1",
                         "--constants", '{"1": {"order": 1, "coeffs": ["1/4"]}}',
                         "--window", "4,3,1", "--seed", str(seed),
                         "--out", str(path)])
        ok, witness = verdict(self.report_entries(0, path) if path.exists() else [])
        return [("principal constant 1/4 through the CLI (exit %d)" % code,
                 (ok or code != 1, witness))]


WORKLOADS = {w.name: w for w in (HomA2(), RoundtripA1(), PrinA1(), CliSmall())}
