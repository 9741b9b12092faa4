"""Command-line driver: torlab gen | verify <suite> | solve-constants.

Loads a RunConfig (INI file plus flag overrides, flags win), runs the
requested verification suite, and writes a deterministic JSON report.
Exit codes: 0 all entries pass, 1 verification failures, 2 configuration
errors (the message names the offending key), 3 internal errors (any
other exception, a ValueError raised inside a suite included; its
traceback goes to stderr).  Every input the configuration admits builds,
so a suite's ValueError is a bug in torlab, not in the input.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import checks
from .autom import (affine_marks, diagram_automorphism,
                    identity_automorphism, untwisted_affine_cartan)
from .config import ConfigError, RunConfig, permutation_order
from .fockhom import HomogeneousModule, l1_ball, verify_33, \
    verify_center_hom, verify_products_hom
from .fockprin import (PrincipalModule, negation_theta, solve_prin_constants,
                       verify_52, verify_principal_relations)
from .princiso import build_iso_context, n_table, verify_iso
from .report import VerificationReport, jsonable, to_text
from .rootsys import ChevalleyAlgebra, build_root_system
from .toroidal import (GeneratingRelationVerifier, ToroidalAlgebra,
                       sample_bracket_axioms)
from .zbridge import check_Ck, homogeneous_Ck, roundtrip_check, to_Zmodule, \
    verify_Zk_relations


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torlab",
        description="exact verification of twisted toroidal algebra, "
                    "Z-algebra and Fock-representation relations")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--algebra", help="root system, e.g. A2 or D4")
    common.add_argument("--n", type=int, help="number of toroidal variables")
    common.add_argument("--theta", help="identity | diagram:<perm> | principal")
    common.add_argument("--level", help="level k (only 1 is supported)")
    common.add_argument("--window", help="mode,degree,lattice bounds W,D,B")
    common.add_argument("--samples", type=int, help="random sample count")
    common.add_argument("--seed", type=int, help="PRNG seed (Mersenne Twister)")
    common.add_argument("--constants", help="JSON map root -> cyclotomic scalar")
    common.add_argument("--solve-constants", action="store_true",
                        dest="solve_constants",
                        help="solve for the structure constants first")
    common.add_argument("--out", help="report output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", parents=[common],
                   help="dump bracket structure constants as JSON")
    ver = sub.add_parser("verify", parents=[common],
                         help="run a verification suite")
    ver.add_argument("suite", choices=["toroidal", "zalg", "homogeneous",
                                       "principal", "iso", "roundtrip"])
    sub.add_parser("solve-constants", parents=[common],
                   help="solve the principal-picture constants")
    return parser


# -- shared builders ---------------------------------------------------


def _build_toroidal(cfg: RunConfig) -> ToroidalAlgebra:
    rs = build_root_system(cfg.kind, cfg.rank)
    alg = ChevalleyAlgebra(rs)
    spec = cfg.automorphism
    if spec["kind"] == "identity":
        aut = identity_automorphism(alg)
    elif spec["kind"] == "diagram":
        perm = spec["permutation"]
        aut = diagram_automorphism(alg, perm, permutation_order(perm))
    else:
        raise ConfigError("automorphism.kind: %r is not usable for this "
                          "suite (use identity or diagram)" % spec["kind"])
    return ToroidalAlgebra(alg, aut, cfg.n)


def _fock_root_system(cfg: RunConfig):
    """The root system of a Fock suite, which builds no theta but its own."""
    if cfg.automorphism["kind"] != "identity":
        raise ConfigError("automorphism.kind: %r is not built by the Fock "
                          "suites (use identity)" % cfg.automorphism["kind"])
    return build_root_system(cfg.kind, cfg.rank)


def _principal_module(cfg: RunConfig):
    """The principal module of the configured algebra, without constants,
    and the order m of its principal automorphism."""
    rs = _fock_root_system(cfg)
    marks, _ = affine_marks(untwisted_affine_cartan(rs))
    m = sum(marks)
    if m != 2:
        raise ConfigError("algebra: the principal picture acts on roots by "
                          "negation, which has order 2, so it needs A1; "
                          "%s%d has m = %d" % (cfg.kind, cfg.rank, m))
    return PrincipalModule(rs, cfg.n, m, negation_theta), m


def _header(m: int, extra=None) -> dict:
    head = {
        "dA_relation": "(1/%d) r0 t^r0 t^r k_0 + sum_i r_i t^r0 t^r k_i = 0"
                       % m,
        "prng": "random.Random(seed), Mersenne Twister",
    }
    if extra:
        head.update(extra)
    return head


# -- suites ------------------------------------------------------------


def suite_toroidal(cfg: RunConfig):
    tor = _build_toroidal(cfg)
    entries = sample_bracket_axioms(tor, cfg.samples, cfg.seed)
    rvec = (1,) + (0,) * (cfg.n - 1)
    svec = (0,) * cfg.n
    verifier = GeneratingRelationVerifier(tor, cfg.window.modes)
    entries += verifier.run(rvec, svec)
    return entries, _header(tor.m, {"theta_order": tor.m})


def suite_homogeneous(cfg: RunConfig):
    mod = HomogeneousModule(_fock_root_system(cfg), cfg.n)
    entries = verify_33(mod, cfg.window)
    verify_center_hom(mod, cfg.window, entries=entries)
    verify_products_hom(mod, cfg.window, entries=entries)
    return entries, _header(1)


def suite_zalg(cfg: RunConfig):
    mod = HomogeneousModule(_fock_root_system(cfg), cfg.n)
    w = to_Zmodule(homogeneous_Ck(mod), cfg.window)
    entries = verify_Zk_relations(w, cfg.window)
    return entries, _header(1)


def suite_roundtrip(cfg: RunConfig):
    mod = HomogeneousModule(_fock_root_system(cfg), cfg.n)
    ck = homogeneous_Ck(mod)
    entries, _w, back = roundtrip_check(ck, cfg.window)
    check_Ck(ck, cfg.window, entries=entries)
    check_Ck(back, cfg.window, entries=entries)
    return entries, _header(1)


def _solve(mod, cfg: RunConfig):
    """The solved constants, sorted, and the prin.constants_solved entry:
    it fails when the solver finds no constant."""
    sols = sorted(solve_prin_constants(mod, cfg.window), key=repr)
    entries = []
    checks.run(entries, "prin.constants_solved", {"count": len(sols)}, bool,
               sols)
    return sols, entries


def _orbit_constants(mod, constants):
    """The configured constants keyed by orbit: each key must name a root
    of one theta-orbit, and each orbit must be named exactly once."""
    out = {}
    for root, c in constants.items():
        key = "constants." + ",".join(map(str, root))
        rep = next((orbit[0] for orbit in mod.orbits if root in orbit), None)
        if rep is None:
            raise ConfigError("%s: %r is not a root of the algebra" % (key, root))
        if rep in out:
            raise ConfigError("%s: the theta-orbit of %r already has a "
                              "constant" % (key, rep))
        out[rep] = c
    for orbit in mod.orbits:
        if orbit[0] not in out:
            raise ConfigError("constants: the theta-orbit of %r has no "
                              "constant" % (orbit[0],))
    return out


def suite_principal(cfg: RunConfig):
    mod, m = _principal_module(cfg)
    extra = {"theta_order": m}
    if cfg.solve_constants:
        sols, solved = _solve(mod, cfg)
        extra["solved_constants"] = [jsonable(c) for c in sols]
        if not sols:
            return solved, _header(m, extra)
        mod.set_constants(sols[0])
        extra["constant_used"] = jsonable(sols[0])
        extra["constant_squared"] = jsonable(sols[0] * sols[0])
    elif cfg.constants is not None:
        mod.set_constants(_orbit_constants(mod, cfg.constants))
    else:
        raise ConfigError("constants: the principal suite needs explicit "
                          "constants or --solve-constants")
    entries = verify_52(mod, cfg.window)
    verify_principal_relations(mod, cfg.window, entries=entries)
    return entries, _header(m, extra)


def suite_iso(cfg: RunConfig):
    spec = cfg.automorphism
    if spec["kind"] == "identity":
        K, perm = 1, None
    elif spec["kind"] == "diagram":
        perm = spec["permutation"]
        K = permutation_order(perm)
    else:
        raise ConfigError("automorphism.kind: the iso suite needs identity "
                          "or diagram")
    ctx = build_iso_context(cfg.kind, cfg.rank, K=K, perm=perm, nvars=cfg.n)
    entries = verify_iso(ctx, samples=cfg.samples, seed=cfg.seed)
    extra = {
        "K": K,
        "theta_order": ctx.m,
        "marks": list(ctx.marks),
        "comarks": list(ctx.comarks),
        "exponents": n_table(ctx),
        "dA_conventions": {
            "domain": "(1/%d) r0 t^r0 t^r k_0 + sum_i r_i t^r0 t^r k_i = 0"
                      % K,
            "codomain": "(1/%d) r0 t^r0 t^r k_0 + sum_i r_i t^r0 t^r k_i = 0"
                        % ctx.m,
        },
    }
    return entries, _header(ctx.m, extra)


_SUITES = {
    "toroidal": suite_toroidal,
    "homogeneous": suite_homogeneous,
    "zalg": suite_zalg,
    "roundtrip": suite_roundtrip,
    "principal": suite_principal,
    "iso": suite_iso,
}


# -- commands ----------------------------------------------------------


def _emit(cfg: RunConfig, text: str):
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_verify(cfg: RunConfig, suite: str) -> int:
    entries, header = _SUITES[suite](cfg)
    header["suite"] = suite
    rep = VerificationReport(cfg.resolved(), header).extend(entries)
    _emit(cfg, rep.dumps())
    return rep.exit_code()


def run_solve(cfg: RunConfig) -> int:
    mod, m = _principal_module(cfg)
    sols, entries = _solve(mod, cfg)
    header = _header(m, {
        "suite": "solve-constants",
        "theta_order": m,
        "solved_constants": [jsonable(c) for c in sols],
        "squares": [jsonable(c * c) for c in sols],
    })
    rep = VerificationReport(cfg.resolved(), header).extend(entries)
    _emit(cfg, rep.dumps())
    return rep.exit_code()


def _key_json(key):
    if key[0] == "g":
        return {"t": "g", "sym": jsonable(key[1]), "r0": key[2],
                "r": list(key[3])}
    if key[0] == "k":
        return {"t": "k", "i": key[1], "r0": key[2], "r": list(key[3])}
    return {"t": "d", "i": key[1]}


def run_gen(cfg: RunConfig) -> int:
    """Dump bracket structure constants over the configured window."""
    from .rootsys import GElement
    from .scalar import Cyc
    from .toroidal import TorElement

    tor = _build_toroidal(cfg)
    W, B = cfg.window.modes, cfg.window.support
    basis = []
    seen = set()
    for sym in tor.alg.symbols:
        for r0 in range(-W, W + 1):
            el = tor.loop_component(GElement({sym: Cyc.one()}), r0, (0,) * cfg.n)
            if el.is_zero():
                continue
            tag = (tuple(sorted(map(repr, el.terms))), r0)
            if tag in seen:
                continue
            seen.add(tag)
            for rv in l1_ball(cfg.n, B):
                basis.append(tor.loop_component(GElement({sym: Cyc.one()}),
                                                r0, rv))
    for i in range(cfg.n + 1):
        for r0 in range(-W, W + 1):
            if r0 % tor.m:
                continue
            for rv in l1_ball(cfg.n, B):
                raw = TorElement({("k", i, r0, rv): Cyc.one()})
                if tor.normalize_dA(raw) == raw:
                    basis.append(raw)
    for i in range(cfg.n + 1):
        basis.append(tor.deriv(i))

    def el_json(el):
        terms = [{"sym": _key_json(k), "coeff": jsonable(c)}
                 for k, c in el.terms.items()]
        terms.sort(key=lambda t: json.dumps(t["sym"], sort_keys=True))
        return terms

    brackets = []
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            res = tor.bracket(basis[a], basis[b])
            if not res.is_zero():
                brackets.append({"a": a, "b": b, "terms": el_json(res)})
    dump = {
        "schema": 1,
        "config": jsonable(cfg.resolved()),
        "basis": [el_json(el) for el in basis],
        "brackets": brackets,
    }
    _emit(cfg, to_text(dump))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(getattr(args, "config", None), args)
        if args.command == "gen":
            return run_gen(cfg)
        if args.command == "solve-constants":
            return run_solve(cfg)
        return run_verify(cfg, args.suite)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
