"""Fault injection per check kind of torlab.checks.

Each case corrupts one input of a suite (a cached field, a field hook of
a module, the twist, the bracket, invariant form, derivations, k field
modes or eigencomponents of a toroidal algebra, or the data of an iso
context) and requires the relation that should notice to fail, with
exactly the witness written below.  The
witnesses were first produced by the per-suite verifiers that
torlab.checks replaced, run on the same corruptions, so a change in how a
shared kind sweeps states and modes, or builds its witness, shows up
here.  Witness coefficients are written by value, as the repr of a Cyc.

The two tests at the end pin what the per-suite verifiers did not
check: vanishes() reads every term up to its own top mode, not only the
first term's, and factorization divides by the level.
"""

import ast
from pathlib import Path

import pytest

from field_oracle import Tuples
from torlab import zbridge
from torlab.autom import diagram_automorphism, identity_automorphism
from torlab.distops import (MODE_BITS, MODE_MASK, FieldFamily,
                            HeisenbergField, ProductField, ScaledField,
                            TruncationWindow, comb_scale, dressing_operator)
from torlab.fockhom import (HomogeneousModule, verify_33, verify_center_hom,
                            verify_products_hom, window_states)
from torlab.fockprin import (PrincipalModule, negation_theta,
                             solve_prin_constants, verify_52,
                             verify_principal_relations)
from torlab.princiso import build_iso_context, verify_iso
from torlab.rootsys import ChevalleyAlgebra, GElement, build_root_system
from torlab.scalar import Cyc
from torlab.toroidal import (GeneratingRelationVerifier, TorElement,
                             ToroidalAlgebra, sample_bracket_axioms)
from torlab.zbridge import (CkModule, DkModule, TwistData, check_Ck,
                            homogeneous_Ck, roundtrip_check, to_Zmodule,
                            verify_Zk_relations)

WIN = TruncationWindow(2, 2, 1)
PWIN = TruncationWindow(4, 3, 1)
R = [(0,), (1,), (-1,)]


def _hom():
    return HomogeneousModule(build_root_system("A", 1), 1)


def _ck(k=1, twist=None):
    """V(Gamma) as a current module, and a copy of it to corrupt."""
    v = homogeneous_Ck(_hom())
    return v, CkModule(v.space, k, twist or TwistData(1), v.rs, v.lat, v.alg,
                       v._x_fn, v._beta_fn, v._k_fn, name="faulty")


def _dk(twist=None):
    """Omega(V(Gamma)) as a Z-module, and a copy of it to corrupt."""
    w = to_Zmodule(homogeneous_Ck(_hom()), WIN)
    return w, DkModule(w.space, w.k, twist or w.twist, w.rs, w.lat, w.alg,
                       w._z_fn, w._k_fn, w.omega_states, name="faulty")


def _prin():
    mod = PrincipalModule(build_root_system("A", 1), 1, 2, negation_theta)
    mod.set_constants(sorted(solve_prin_constants(mod, PWIN), key=repr)[0])
    return mod


class _EtaTwist(TwistData):
    """The identity twist with every eta scalar -1 instead of 1."""

    def eta(self, p, beta):
        return Cyc.rational(-1)


class _FaultOn(FieldFamily):
    """base, negated on one input state only: a fault that a sweep
    stopping early over the states would miss.  Its ckey is base's
    shifted up one bit, with a flag in the lowest class bit for the label
    of that state, and its core negates base's on that state's mid where
    the flag is set."""

    def __init__(self, base, state):
        super().__init__()
        self.base = base
        self.space, self.shift, self.label = base.space, base.shift, base.label
        sid = self.space.sid(state)
        self.lid, self.mid = sid >> MODE_BITS, sid & MODE_MASK

    def view(self, lid):
        e, hi, sign, ckey = self.base.view(lid)
        return e, hi, sign, (ckey << 1) | ((lid == self.lid) << MODE_BITS)

    def _base_key(self, key):
        return ((key >> (MODE_BITS + 1)) << MODE_BITS) | (key & MODE_MASK)

    def cap(self, key):
        return self.base.cap(self._base_key(key))

    def mode_state(self, n, key):
        out = self.base.core(n, self._base_key(key))
        if key >> MODE_BITS & 1 and key & MODE_MASK == self.mid:
            return comb_scale(out, -1)
        return out


def _last_hit(f, states):
    """The last state on which some window mode of f is nonzero."""
    f = Tuples(f)
    return [v for v in states
            if any(f.mode_memo(n, v)
                   for n in range(-WIN.modes, f.max_mode(v) + 1))][-1]


class _ModeOffByOne(FieldFamily):
    """base with its mode index off by one: mode n acts as mode n - 1,
    base's view with the exponent raised by 1."""

    def __init__(self, base):
        super().__init__()
        self.base = base
        self.space, self.shift, self.label = base.space, base.shift, base.label
        self.core, self.cap = base.core, base.cap

    def view(self, lid):
        e, hi, sign, ckey = self.base.view(lid)
        return e + 1, hi, sign, ckey


def _k1_doubled(base):
    """k_fn hook: k_1 scaled by 2, every other k_i as in base."""
    return lambda i, r: ScaledField(base(i, r), 2) if i == 1 else base(i, r)


def _k1_at_1(base, wrap):
    """k_fn hook: k_1 at multidegree 1 replaced by wrap(k_1), every other
    k field as in base."""
    return lambda i, r: wrap(base(i, r)) if (i, r) == (1, (1,)) else base(i, r)


def _negated_at(base, rvec):
    """x_fn / z_fn hook: the field at multidegree rvec scaled by -1."""
    return lambda b, r: ScaledField(base(b, r), -1) if r == rvec else base(b, r)


# -- vanishes: the d_A relation ----------------------------------------


def hom_center():
    mod = _hom()
    mod._fields[("k", 1, (1,))] = ScaledField(mod.kf(1, (1,)), 2)
    return verify_center_hom(mod, WIN, rvecs=R)


def ck_central():
    v, bad = _ck()
    bad._k_fn = _k1_doubled(v.kf)
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def zk_central():
    w, bad = _dk()
    bad._k_fn = _k1_doubled(w.kf)
    return verify_Zk_relations(bad, WIN, rvecs=R)


def ck_dressing():
    """The root fields of V(Gamma) dressed with E^+ at level 2 (exponent
    1/2) instead of level 1; E^- and the level of the module are left as
    they are."""
    mod = _hom()
    v = homogeneous_Ck(mod)

    def x_fn(beta, rvec):
        neg = tuple(-c for c in mod.lat.embed_root(beta))
        em = dressing_operator(mod.space, -1, neg, 1)
        ep = dressing_operator(mod.space, 1, neg, 2)
        return ProductField(em, ProductField(mod.z(beta, rvec), ep),
                            label="x%r%r" % (beta, rvec))

    bad = CkModule(v.space, 1, TwistData(1), v.rs, v.lat, v.alg, x_fn,
                   v._beta_fn, v._k_fn, name="faulty")
    return check_Ck(bad, WIN, rvecs=R)


def hom_center_late():
    mod = _hom()
    k1 = mod.kf(1, (1,))
    last = _last_hit(k1, window_states(mod.space, WIN))
    mod._fields[("k", 1, (1,))] = _FaultOn(k1, last)
    return verify_center_hom(mod, WIN, rvecs=R)


def prin_52():
    mod = _prin()
    mod._fields[("k", 1, (1,))] = ScaledField(mod.kf(1, (1,)), 2)
    return verify_52(mod, PWIN, rvecs=R)


def prin_3():
    mod = _prin()
    mod._fields[("k", 1, (1,))] = ScaledField(mod.kf(1, (1,)), 2)
    return verify_principal_relations(mod, PWIN, rvecs=R)


def ck_k0_scalar():
    """A level-1 module declared at level 2: k_0 at multidegree 0 acts
    as 1, not as the level."""
    v, bad = _ck(k=2)
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


# -- vanishes: eta-covariance ------------------------------------------


def ck_eta():
    v, bad = _ck(twist=_EtaTwist(1))
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def zk_eta():
    _w, bad = _dk(twist=_EtaTwist(1))
    return verify_Zk_relations(bad, WIN, rvecs=R)


def zk_eta_order2():
    """An order-2 twist acting trivially on roots: zeta_2^n = (-1)^n
    must then be 1 on every mode with a nonzero image, and is not."""
    _w, bad = _dk(twist=TwistData(2))
    return verify_Zk_relations(bad, WIN, rvecs=R)


def prin_eta():
    mod = _prin()
    mod._fields[("z", (-1,), (0,))] = ScaledField(mod.z((-1,), (0,)), -1)
    return verify_principal_relations(mod, PWIN, rvecs=R)


# -- holds: centrality of the k fields ---------------------------------


def prin_k_central():
    """The sample Z field at multidegree 0 negated on the first window
    state.  Its mode 0 acts there as -C instead of C, while it still
    acts as C on the states the k fields send that state to, so the k
    fields stop commuting with it."""
    mod = _prin()
    b, zero = tuple(mod.rs.roots[0]), mod.zero_r()
    first = window_states(mod.space, PWIN)[0]
    mod._fields[("z", b, zero)] = _FaultOn(mod.z(b, zero), first)
    return verify_principal_relations(mod, PWIN, rvecs=R)


def ck_k_central():
    """k_1 at multidegree 1 negated on the first window state: it stops
    commuting with the root field, which moves that state elsewhere."""
    v, bad = _ck()
    first = window_states(v.space, WIN)[0]
    bad._k_fn = _k1_at_1(v.kf, lambda f: _FaultOn(f, first))
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def zk_k_central():
    """k_1 at multidegree 1 negated on the first Omega state."""
    w, bad = _dk()
    bad._k_fn = _k1_at_1(w.kf, lambda f: _FaultOn(f, w.omega_states[0]))
    return verify_Zk_relations(bad, WIN, rvecs=R)


# -- fields_equal ------------------------------------------------------


def hom_prod():
    mod = _hom()
    a = tuple(mod.rs.roots[-1])
    mod._fields[("z", a, (1,))] = ScaledField(mod.z(a, (1,)), -1)
    return verify_products_hom(mod, WIN, rvecs=R)


def hom_prod_late():
    mod = _hom()
    a = tuple(mod.rs.roots[-1])
    z = mod.z(a, (1,))
    last = _last_hit(z, window_states(mod.space, WIN))
    mod._fields[("z", a, (1,))] = _FaultOn(z, last)
    return verify_products_hom(mod, WIN, rvecs=R)


def ck_factor():
    v, bad = _ck()
    bad._x_fn = _negated_at(v._x_fn, (1,))
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def zk_factor():
    w, bad = _dk()
    bad._z_fn = _negated_at(w._z_fn, (1,))
    return verify_Zk_relations(bad, WIN, rvecs=R)


def ck_k_factor():
    """k_1 at multidegree 1 scaled by 2."""
    v, bad = _ck()
    bad._k_fn = _k1_at_1(v.kf, lambda f: ScaledField(f, 2))
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def zk_k_factor():
    """k_1 at multidegree 1 scaled by 2."""
    w, bad = _dk()
    bad._k_fn = _k1_at_1(w.kf, lambda f: ScaledField(f, 2))
    return verify_Zk_relations(bad, WIN, rvecs=R)


def hom_prod_k0k():
    """k_1 at multidegree 1 scaled by 2."""
    mod = _hom()
    mod._fields[("k", 1, (1,))] = ScaledField(mod.kf(1, (1,)), 2)
    return verify_products_hom(mod, WIN, rvecs=R)


def prin_factor():
    mod = _prin()
    b = tuple(mod.rs.roots[0])
    mod._fields[("z", b, (1,))] = ScaledField(mod.z(b, (1,)), -1)
    return verify_principal_relations(mod, PWIN, rvecs=R)


def bridge_level():
    """A level-1 module declared at level 2: the dressings are wrong."""
    v, bad = _ck(k=2)
    entries, _w, _back = roundtrip_check(bad, WIN, roots=[tuple(v.rs.roots[0])],
                                         rvecs=R[:2])
    return entries


def bridge_beta():
    """The Cartan field beta(r) at multidegree 1 scaled by -1 in the
    original module only: the rebuilt one builds its own."""
    v, bad = _ck()
    bad._beta_fn = _negated_at(v._beta_fn, (1,))
    entries, _w, _back = roundtrip_check(bad, WIN, roots=[tuple(v.rs.roots[0])],
                                         rvecs=R)
    return entries


def bridge_k0():
    """k_0 at multidegree 1 negated on one state with a Cartan mode: the
    rebuilt k_0 applies k_0 to the state without its Cartan modes, so
    only the original sees the fault."""
    v, bad = _ck()
    state = ((0, 0, 0), ((0, 1),))
    bad._k_fn = lambda i, r: (_FaultOn(v.kf(i, r), state)
                              if i == 0 and r == (1,) else v.kf(i, r))
    entries, _w, _back = roundtrip_check(bad, WIN, roots=[tuple(v.rs.roots[0])],
                                         rvecs=R)
    return entries


def bridge_pairing():
    """omega_basis listing its first state twice: two of the pairing
    map's images are then equal, so it is not injective."""
    v = homogeneous_Ck(_hom())
    omega_basis = zbridge.omega_basis

    def doubled(mod, window):
        states, pure = omega_basis(mod, window)
        return states[:1] + states, pure

    zbridge.omega_basis = doubled
    try:
        entries, _w, _back = roundtrip_check(
            v, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R[:1])
    finally:
        zbridge.omega_basis = omega_basis
    return entries


# -- holds, degree_shift, coord_shift, nonzero -------------------------


def hom_pair_late():
    mod = _hom()
    a = tuple(mod.rs.roots[-1])
    na = tuple(-c for c in a)
    z = mod.z(na, (0,))
    last = _last_hit(z, window_states(mod.space, WIN))
    mod._fields[("z", na, (0,))] = _FaultOn(z, last)
    return verify_33(mod, WIN, root_pairs=[(a, na)], rvecs=[(0,)])


def hom_eps():
    """The lattice cocycle with eps(alpha_1, alpha_1) = 1 instead of
    (-1)^((alpha_1, alpha_1)/2) = -1: Z(alpha) loses its sign on labels
    with an odd alpha_1 coordinate."""
    mod = _hom()
    mod.lat._parity[0][0] = 0
    a = tuple(mod.rs.roots[-1])
    na = tuple(-c for c in a)
    return verify_33(mod, WIN, root_pairs=[(a, na)], rvecs=[(0,)])


def zk_pair():
    """Z(-alpha, 0) negated: on the opposite pairs only the left-hand
    side changes sign, so the central terms no longer match it."""
    w, bad = _dk()
    na = tuple(-c for c in w.rs.roots[-1])
    bad._z_fn = lambda b, r: (ScaledField(w.z(b, r), -1)
                              if (b, r) == (na, (0,)) else w.z(b, r))
    return verify_Zk_relations(bad, WIN, rvecs=R)


def zk_zero_mode():
    """Every Z(beta) replaced by Z(-beta): its outputs move the pairing
    with a simple root by (a, -beta) instead of (a, beta)."""
    w, bad = _dk()
    bad._z_fn = lambda b, r: w.z(tuple(-c for c in b), r)
    return verify_Zk_relations(bad, WIN, rvecs=R)


def ck_rel2():
    """The Cartan fields at multidegree 0 scaled by 2: their bracket
    quadruples, and its central right-hand side stays as it is."""
    v, bad = _ck()
    bad._beta_fn = lambda h, r: (ScaledField(v._beta_fn(h, r), 2)
                                 if r == (0,) else v._beta_fn(h, r))
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def ck_grading():
    """Every Cartan field with its mode index off by one."""
    v, bad = _ck()
    bad._beta_fn = lambda h, r: _ModeOffByOne(v._beta_fn(h, r))
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def ck_k_degree():
    """k_1 at multidegree 1 with its mode index off by one."""
    v, bad = _ck()
    bad._k_fn = _k1_at_1(v.kf, _ModeOffByOne)
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def zk_degree():
    """Z at multidegree 1 with its mode index off by one."""
    w, bad = _dk()
    bad._z_fn = lambda b, r: (_ModeOffByOne(w.z(b, r)) if r == (1,)
                              else w.z(b, r))
    return verify_Zk_relations(bad, WIN, rvecs=R)


def zk_k_degree():
    """k_1 at multidegree 1 with its mode index off by one."""
    w, bad = _dk()
    bad._k_fn = _k1_at_1(w.kf, _ModeOffByOne)
    return verify_Zk_relations(bad, WIN, rvecs=R)


def prin_degree():
    mod = _prin()
    b = tuple(mod.rs.roots[0])
    mod._fields[("z", b, (1,))] = _ModeOffByOne(mod.z(b, (1,)))
    return verify_principal_relations(mod, PWIN, rvecs=R)


def prin_k_degree():
    """k_1 at multidegree 1 with its mode index off by one."""
    mod = _prin()
    mod._fields[("k", 1, (1,))] = _ModeOffByOne(mod.kf(1, (1,)))
    return verify_principal_relations(mod, PWIN, rvecs=R)


def ck_coord():
    """Every k field built at the opposite multidegree."""
    v, bad = _ck()
    bad._k_fn = lambda i, r: v.kf(i, tuple(-c for c in r))
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def zk_coord():
    """Every k field built at the opposite multidegree."""
    w, bad = _dk()
    bad._k_fn = lambda i, r: w.kf(i, tuple(-c for c in r))
    return verify_Zk_relations(bad, WIN, rvecs=R)


def prin_coord():
    """Every k field built at the opposite multidegree."""
    mod = _prin()
    kf = mod.kf
    mod.kf = lambda i, r: kf(i, tuple(-c for c in r))
    return verify_principal_relations(mod, PWIN, rvecs=R)


def hom_trivial_k():
    mod = _hom()
    mod._fields[("k", 1, (0,))] = ScaledField(mod.kf(1, (0,)), 0)
    return verify_center_hom(mod, WIN, rvecs=R)


def prin_trivial_k():
    """k_1 zero at the multidegree prin.k_nontrivial samples, R[1]."""
    mod = _prin()
    mod._fields[("k", 1, R[1])] = ScaledField(mod.kf(1, R[1]), 0)
    return verify_principal_relations(mod, PWIN, rvecs=R)


# -- equal: the toroidal relations -------------------------------------


class _CentralDoubled(ToroidalAlgebra):
    """A toroidal algebra whose bracket doubles every central term k_i it
    returns; the form, and so the verifier's right-hand sides, are left
    as they are."""

    def bracket(self, a, b):
        out = super().bracket(a, b)
        return TorElement({key: c * 2 if key[0] == "k" else c
                           for key, c in out.terms.items()})


def tor_central_doubled():
    """A2 with the diagram flip, the central terms doubled in the bracket
    only."""
    alg = ChevalleyAlgebra(build_root_system("A", 2))
    tor = _CentralDoubled(alg, diagram_automorphism(alg, [1, 0], 2), 1)
    return GeneratingRelationVerifier(tor, 1).run(
        (1,), (0,), root_pairs=[((1, 0), (-1, 0))])


class _KZeroDoubled(ToroidalAlgebra):
    """A toroidal algebra whose d_A normal form rewrites k_0 at r0 != 0
    as -(2m/r0) sum_i r_i k_i instead of -(m/r0) sum_i r_i k_i."""

    def normalize_dA(self, el):
        return super().normalize_dA(TorElement(
            {key: c * 2 if key[:2] == ("k", 0) and key[2] else c
             for key, c in el.terms.items()}))


def tor_dA():
    alg = ChevalleyAlgebra(build_root_system("A", 1))
    tor = _KZeroDoubled(alg, identity_automorphism(alg), 1)
    return sample_bracket_axioms(tor, 3, 7)


def _a1_bad_h_bracket():
    """A1 whose cached [h_1, x_a] is 4 x_a instead of 2 x_a; [x_a, h_1]
    is left as it is."""
    alg = ChevalleyAlgebra(build_root_system("A", 1))
    alg._brackets[(("h", 0), ("x", (1,)))] = {("x", (1,)): Cyc.rational(4)}
    return ToroidalAlgebra(alg, identity_automorphism(alg), 1)


def tor_mixed():
    return GeneratingRelationVerifier(_a1_bad_h_bracket(), 1).run(
        (1,), (0,), root_pairs=[((1,), (1,))])


def tor_axioms():
    return sample_bracket_axioms(_a1_bad_h_bracket(), 12, 7)


def tor_axioms_25():
    return sample_bracket_axioms(_a1_bad_h_bracket(), 25, 7)


def _central_relations(tor):
    """1.5(4)-(6) and (8) of tor at r = (1,), window 1."""
    entries = []
    GeneratingRelationVerifier(tor, 1).check_central_relations((1,), entries)
    return entries


def tor_central_dA():
    alg = ChevalleyAlgebra(build_root_system("A", 1))
    return _central_relations(_KZeroDoubled(alg, identity_automorphism(alg),
                                            1))


class _DerivDoubled(ToroidalAlgebra):
    """A toroidal algebra whose derivation d_i is 2 d_i."""

    def deriv(self, i):
        return super().deriv(i).scale(2)


def tor_deriv():
    alg = ChevalleyAlgebra(build_root_system("A", 1))
    return _central_relations(_DerivDoubled(alg, identity_automorphism(alg),
                                            1))


class _KWithH(ToroidalAlgebra):
    """A toroidal algebra whose nonzero k field modes also carry the loop
    term h_a (x) t^n t^r, a the first root: no longer central."""

    def k_field_mode(self, i, rvec, n):
        k = super().k_field_mode(i, rvec, n)
        if k.is_zero():
            return k
        return k + self.loop(GElement.h(self.alg.rs.roots[0]), n, rvec)


def tor_k_not_central():
    alg = ChevalleyAlgebra(build_root_system("A", 1))
    return _central_relations(_KWithH(alg, identity_automorphism(alg), 1))


def tor_component():
    """A2 with the diagram flip, the eigencomponents of x_alpha1 scaled
    by 2 and those of x_alpha2 left as they are: theta no longer maps
    one to the other."""
    alg = ChevalleyAlgebra(build_root_system("A", 2))
    tor = ToroidalAlgebra(alg, diagram_automorphism(alg, [1, 0], 2), 1)
    sym = ("x", (1, 0))
    tor.g_component(sym, 0)
    tor._components[sym] = {cls: g.scale(2)
                            for cls, g in tor._components[sym].items()}
    entries = []
    GeneratingRelationVerifier(tor, 1).check_relation_7((1, 0), (1,), entries)
    return entries


# -- none_of: the iso invariants ---------------------------------------


def iso_bad_n():
    ctx = build_iso_context("A", 1)
    ctx.N[0] += 1
    return verify_iso(ctx, samples=0)


def iso_bad_marks():
    ctx = build_iso_context("A", 1)
    ctx.marks[0] = 2
    return verify_iso(ctx, samples=0)


def iso_no_k0():
    """phi without its central k_0 correction on weight-zero loop
    elements: the probes' k_0 coefficients set to 0."""
    ctx = build_iso_context("A", 1)
    for _span, infos in ctx.cols:
        infos[:] = [info[:3] + (0,) if info[0] == "probe" else info
                    for info in infos]
    return verify_iso(ctx, samples=12)


def iso_bad_psi0sq():
    ctx = build_iso_context("A", 1)
    ctx.psi0sq = ctx.psi0sq * 2
    return verify_iso(ctx, samples=0)


def _pair(b1, b2, i, j):
    return {"beta1": b1, "beta2": b2, "r": (1,), "s": (0,), "modes": (i, j)}


def _difference(*terms):
    return {"difference": list(terms)}


CASES = {
    # name: (run, relation id, [(params, witness) of every failing entry])
    "hom_center": (hom_center, "zhom.center", [
        ({"r": [1]}, {"state": ((-1, 0, 0), ()), "mode": -2}),
    ]),
    "ck_central": (ck_central, "ck.rel4_central", [
        ({"r": [1]}, {"state": ((-1, 0, 0), ()), "mode": -2}),
        ({"r": [-1]}, {"state": ((-1, 0, 0), ()), "mode": -2}),
    ]),
    "zk_central": (zk_central, "zk.3", [
        ({"r": [1]}, {"state": ((-1, 0, 0), ()), "mode": -2}),
        ({"r": [-1]}, {"state": ((-1, 0, 0), ()), "mode": -2}),
    ]),
    "prin_52": (prin_52, "prin.52", [
        ({"r": [1]}, {"state": ((-1, 0), ()), "mode": -4}),
    ]),
    "prin_3": (prin_3, "prin.3", [
        ({"r": [1]}, {"state": ((-1, 0), ()), "mode": -4}),
    ]),
    "prin_k_factor": (prin_3, "prin.2", [
        ({"i": 1, "r": [1], "s": [0]},
         {"state": ((-1, 0), ()), "mode": -4, "difference": [
             ("((0, 0), ((0, 1), (0, 1)))", "Cyc(-1)"),
             ("((0, 0), ((0, 2),))", "Cyc(-1)")]}),
        ({"i": 1, "r": [1], "s": [1]},
         {"state": ((-1, 0), ()), "mode": -4, "difference": [
             ("((1, 0), ((0, 1), (0, 1)))", "Cyc(2)"),
             ("((1, 0), ((0, 2),))", "Cyc(1)")]}),
        ({"i": 1, "r": [-1], "s": [1]},
         {"state": ((-1, 0), ()), "mode": -4, "difference": [
             ("((-1, 0), ((0, 2),))", "Cyc(1)")]}),
    ]),
    "prin_k_central": (prin_k_central, "prin.10", [
        ({"j": 1, "r": [0]},
         {"state": ((-1, 0), ()), "modes": (-4, 0), "difference": [
             ("((-1, 0), ((0, 2),))", "Cyc(1/2*z4^1)")]}),
        ({"j": 0, "r": [1]},
         {"state": ((-1, 0), ()), "modes": (-4, 0), "difference": [
             ("((0, 0), ((0, 1), (0, 1)))", "Cyc(1/4*z4^1)"),
             ("((0, 0), ((0, 2),))", "Cyc(1/4*z4^1)")]}),
        ({"j": 1, "r": [1]},
         {"state": ((-1, 0), ()), "modes": (-4, 0), "difference": [
             ("((0, 0), ((0, 1), (0, 1)))", "Cyc(1/2*z4^1)"),
             ("((0, 0), ((0, 2),))", "Cyc(1/2*z4^1)")]}),
        ({"j": 0, "r": [-1]},
         {"state": ((-1, 0), ()), "modes": (-4, 0), "difference": [
             ("((-2, 0), ((0, 1), (0, 1)))", "Cyc(1/4*z4^1)"),
             ("((-2, 0), ((0, 2),))", "Cyc(-1/4*z4^1)")]}),
        ({"j": 1, "r": [-1]},
         {"state": ((-1, 0), ()), "modes": (-4, 0), "difference": [
             ("((-2, 0), ((0, 1), (0, 1)))", "Cyc(-1/2*z4^1)"),
             ("((-2, 0), ((0, 2),))", "Cyc(1/2*z4^1)")]}),
    ]),
    "ck_k0_scalar": (ck_k0_scalar, "ck.k0_scalar", [
        ({}, {"state": ((-1, 0, 0), ()), "mode": 0}),
    ]),
    "ck_k_central": (ck_k_central, "ck.rel8_central", [
        ({"j": 1, "r": [1]},
         {"state": ((0, 0, 0), ()), "modes": (-2, -1), "difference": [
             ("((-1, 1, 0), ((1, 1), (1, 1)))", "Cyc(-2)"),
             ("((-1, 1, 0), ((1, 2),))", "Cyc(-2)")]}),
    ]),
    "zk_k_central": (zk_k_central, "zk.10", [
        ({"j": 1, "r": [1]},
         {"state": ((0, 0, 0), ()), "modes": (-2, -1), "difference": [
             ("((-1, 1, 0), ((1, 1), (1, 1)))", "Cyc(-2)"),
             ("((-1, 1, 0), ((1, 2),))", "Cyc(-2)")]}),
    ]),
    "ck_k_factor": (ck_k_factor, "ck.factor_k", [
        ({"i": 1, "r": [0], "s": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((-1, 1, 0), ((1, 1), (1, 1)))", "Cyc(-1)"),
             ("((-1, 1, 0), ((1, 2),))", "Cyc(-1)")]}),
        ({"i": 1, "r": [1], "s": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((-1, 2, 0), ((1, 1), (1, 1)))", "Cyc(2)"),
             ("((-1, 2, 0), ((1, 2),))", "Cyc(1)")]}),
        ({"i": 1, "r": [1], "s": [-1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((-1, 0, 0), ((1, 2),))", "Cyc(1)")]}),
    ]),
    "zk_k_factor": (zk_k_factor, "zk.2", [
        ({"i": 1, "r": [1], "s": [0]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((-1, 1, 0), ((1, 1), (1, 1)))", "Cyc(-1)"),
             ("((-1, 1, 0), ((1, 2),))", "Cyc(-1)")]}),
        ({"i": 1, "r": [1], "s": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((-1, 2, 0), ((1, 1), (1, 1)))", "Cyc(2)"),
             ("((-1, 2, 0), ((1, 2),))", "Cyc(1)")]}),
        ({"i": 1, "r": [-1], "s": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((-1, 0, 0), ((1, 2),))", "Cyc(1)")]}),
    ]),
    "ck_grading": (ck_grading, "ck.grading", [
        ({"field": "beta(0,)"},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, 0, 0), ((0, 3),))}),
    ]),
    "ck_k_degree": (ck_k_degree, "ck.rel6_d0", [
        ({"j": 1, "r": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, 1, 0), ((1, 3),))}),
    ]),
    "zk_degree": (zk_degree, "zk.4", [
        ({"beta": [-1], "r": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "out": ((-2, 1, 0), ())}),
    ]),
    "zk_k_degree": (zk_k_degree, "zk.5", [
        ({"j": 1, "r": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, 1, 0), ((1, 3),))}),
    ]),
    "zk_coord": (zk_coord, "zk.6", [
        ({"i": 1, "j": 0, "r": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, -1, 0), ((1, 1), (1, 1)))}),
        ({"i": 1, "j": 1, "r": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, -1, 0), ((1, 2),))}),
        ({"i": 1, "j": 0, "r": [-1]},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, 1, 0), ((1, 1), (1, 1)))}),
        ({"i": 1, "j": 1, "r": [-1]},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, 1, 0), ((1, 2),))}),
    ]),
    "ck_eta": (ck_eta, "ck.rel7_eta", [
        ({"beta": [-1], "p": 0},
         {"state": ((-1, 0, 0), ((0, 1),)), "mode": -2}),
    ]),
    "zk_eta": (zk_eta, "zk.9", [
        ({"beta": [-1], "p": 0}, {"state": ((0, -1, 0), ()), "mode": -1}),
        ({"beta": [1], "p": 0}, {"state": ((-1, 0, 0), ()), "mode": 1}),
    ]),
    "zk_eta_order2": (zk_eta_order2, "zk.9", [
        ({"beta": [-1], "p": 1}, {"state": ((0, -1, 0), ()), "mode": -1}),
        ({"beta": [1], "p": 1}, {"state": ((-1, 0, 0), ()), "mode": 1}),
    ]),
    "prin_eta": (prin_eta, "prin.9", [
        ({"beta": [-1], "p": 1}, {"state": ((-1, 0), ()), "mode": 0}),
        ({"beta": [1], "p": 1}, {"state": ((-1, 0), ()), "mode": 0}),
    ]),
    "hom_prod": (hom_prod, "zhom.prod_zk0", [
        ({"a": [1], "r": [0], "s": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((0, 1, 0), ((1, 1), (1, 1), (1, 1)))", "Cyc(-1/3)"),
             ("((0, 1, 0), ((1, 1), (1, 2)))", "Cyc(-1)"),
             ("((0, 1, 0), ((1, 3),))", "Cyc(-2/3)")]}),
        ({"a": [1], "r": [1], "s": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((0, 2, 0), ((1, 1), (1, 1), (1, 1)))", "Cyc(8/3)"),
             ("((0, 2, 0), ((1, 1), (1, 2)))", "Cyc(4)"),
             ("((0, 2, 0), ((1, 3),))", "Cyc(4/3)")]}),
        ({"a": [1], "r": [1], "s": [-1]},
         {"state": ((-1, 0, 0), ()), "mode": 1, "difference": [
             ("((0, 0, 0), ())", "Cyc(2)")]}),
    ]),
    "hom_prod_k0k": (hom_prod_k0k, "zhom.prod_k0k", [
        ({"i": 1, "r": [1], "s": [0]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((-1, 1, 0), ((1, 1), (1, 1)))", "Cyc(-1)"),
             ("((-1, 1, 0), ((1, 2),))", "Cyc(-1)")]}),
        ({"i": 1, "r": [1], "s": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((-1, 2, 0), ((1, 1), (1, 1)))", "Cyc(2)"),
             ("((-1, 2, 0), ((1, 2),))", "Cyc(1)")]}),
        ({"i": 1, "r": [-1], "s": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((-1, 0, 0), ((1, 2),))", "Cyc(1)")]}),
    ]),
    "ck_factor": (ck_factor, "ck.factor_x", [
        ({"beta": [-1], "r": [0], "s": [1]},
         {"state": ((-1, 0, 0), ((0, 1),)), "mode": -2, "difference": [
             ("((-2, 1, 0), ())", "Cyc(-4)")]}),
        ({"beta": [-1], "r": [1], "s": [1]},
         {"state": ((-1, 0, 0), ((0, 1),)), "mode": -2, "difference": [
             ("((-2, 2, 0), ())", "Cyc(4)")]}),
        ({"beta": [-1], "r": [1], "s": [-1]},
         {"state": ((-1, 0, 0), ((0, 1),)), "mode": -2, "difference": [
             ("((-2, 0, 0), ())", "Cyc(4)")]}),
    ]),
    "zk_factor": (zk_factor, "zk.1", [
        ({"beta": [-1], "r": [0], "s": [1]},
         {"state": ((0, -1, 0), ()), "mode": -2, "difference": [
             ("((-1, 0, 0), ((1, 1),))", "Cyc(2)")]}),
        ({"beta": [-1], "r": [1], "s": [1]},
         {"state": ((0, -1, 0), ()), "mode": -2, "difference": [
             ("((-1, 1, 0), ((1, 1),))", "Cyc(-4)")]}),
        ({"beta": [-1], "r": [1], "s": [-1]},
         {"state": ((0, -1, 0), ()), "mode": -1, "difference": [
             ("((-1, -1, 0), ())", "Cyc(-2)")]}),
    ]),
    "prin_factor": (prin_factor, "prin.1", [
        ({"beta": [-1], "r": [0], "s": [1]},
         {"state": ((-1, 0), ()), "mode": -4, "difference": [
             ("((0, 0), ((0, 1), (0, 1)))", "Cyc(-1/4*z4^1)"),
             ("((0, 0), ((0, 2),))", "Cyc(-1/4*z4^1)")]}),
        ({"beta": [-1], "r": [1], "s": [1]},
         {"state": ((-1, 0), ()), "mode": -4, "difference": [
             ("((1, 0), ((0, 1), (0, 1)))", "Cyc(1*z4^1)"),
             ("((1, 0), ((0, 2),))", "Cyc(1/2*z4^1)")]}),
        ({"beta": [-1], "r": [1], "s": [-1]},
         {"state": ((-1, 0), ()), "mode": 0, "difference": [
             ("((-1, 0), ())", "Cyc(1/2*z4^1)")]}),
    ]),
    "bridge_level": (bridge_level, "bridge.roundtrip_x", [
        ({"beta": [-1], "r": [0]},
         {"state": ((-1, 0, 0), ((0, 1),)), "mode": -2, "difference": [
             ("((-2, 0, 0), ())", "Cyc(1)")]}),
        ({"beta": [-1], "r": [1]},
         {"state": ((-1, 0, 0), ((0, 1),)), "mode": -2, "difference": [
             ("((-2, 1, 0), ())", "Cyc(1)")]}),
    ]),
    "bridge_beta": (bridge_beta, "bridge.roundtrip_beta", [
        ({"a": [1], "r": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((-1, 1, 0), ((0, 1), (1, 1)))", "Cyc(2)"),
             ("((-1, 1, 0), ((0, 2),))", "Cyc(2)"),
             ("((-1, 1, 0), ((1, 1), (1, 1)))", "Cyc(-2)"),
             ("((-1, 1, 0), ((1, 2),))", "Cyc(-2)")]}),
    ]),
    "bridge_k0": (bridge_k0, "bridge.roundtrip_k0", [
        ({"r": [1]},
         {"state": ((0, 0, 0), ((0, 1),)), "mode": -2, "difference": [
             ("((0, 1, 0), ((0, 1), (1, 1), (1, 1)))", "Cyc(1)"),
             ("((0, 1, 0), ((0, 1), (1, 2)))", "Cyc(1)")]}),
    ]),
    "bridge_pairing": (bridge_pairing, "bridge.pairing_injective", [
        ({}, None),
    ]),
    "ck_dressing": (ck_dressing, "ck.rel1", [
        ({"b1": [-1], "b2": [-1]},
         {"state": ((0, -1, 0), ((0, 1),)), "modes": (-2, -1), "difference": [
             ("((-2, -1, 0), ())", "Cyc(-1)")]}),
        ({"b1": [-1], "b2": [1]},
         {"state": ((-1, 0, 0), ()), "modes": (-2, -2), "difference": [
             ("((-1, 0, 0), ((0, 1), (0, 1), (0, 1), (0, 1)))", "Cyc(1/24)"),
             ("((-1, 0, 0), ((0, 1), (0, 1), (0, 2)))", "Cyc(1/4)"),
             ("((-1, 0, 0), ((0, 1), (0, 3)))", "Cyc(1/3)"),
             ("((-1, 0, 0), ((0, 2), (0, 2)))", "Cyc(1/8)"),
             ("((-1, 0, 0), ((0, 4),))", "Cyc(-3/4)")]}),
        ({"b1": [1], "b2": [-1]},
         {"state": ((-1, 0, 0), ()), "modes": (-2, -2), "difference": [
             ("((-1, 0, 0), ((0, 1), (0, 1), (0, 1), (0, 1)))", "Cyc(-1/24)"),
             ("((-1, 0, 0), ((0, 1), (0, 1), (0, 2)))", "Cyc(-1/4)"),
             ("((-1, 0, 0), ((0, 1), (0, 3)))", "Cyc(-1/3)"),
             ("((-1, 0, 0), ((0, 2), (0, 2)))", "Cyc(-1/8)"),
             ("((-1, 0, 0), ((0, 4),))", "Cyc(3/4)")]}),
        ({"b1": [1], "b2": [1]},
         {"state": ((-1, 0, 0), ()), "modes": (-2, -1), "difference": [
             ("((1, 0, 0), ((0, 1), (0, 1), (0, 1)))", "Cyc(-1/3)"),
             ("((1, 0, 0), ((0, 3),))", "Cyc(1/3)")]}),
    ]),
    "ck_dressing_mixed": (ck_dressing, "ck.rel3", [
        ({"h1": [1, 0, 0], "b2": [-1]},
         {"state": ((-1, 0, 0), ()), "modes": (-2, -2), "difference": [
             ("((-2, 0, 0), ((0, 1),))", "Cyc(1)")]}),
    ]),
    "hom_center_late": (hom_center_late, "zhom.center", [
        ({"r": [1]}, {"state": ((1, 0, 0), ((0, 1),)), "mode": -2}),
    ]),
    "hom_prod_late": (hom_prod_late, "zhom.prod_zk0", [
        ({"a": [1], "r": [0], "s": [1]},
         {"state": ((0, 1, 0), ((0, 1), (0, 1))), "mode": -2, "difference": [
             ("((1, 2, 0), ((0, 1), (0, 1), (1, 1)))", "Cyc(2)")]}),
        ({"a": [1], "r": [1], "s": [1]},
         {"state": ((0, 0, 0), ((0, 1), (0, 1))), "mode": -2, "difference": [
             ("((1, 2, 0), ((0, 1), (0, 1), (1, 1)))", "Cyc(-2)")]}),
    ]),
    "hom_pair_late": (hom_pair_late, "zhom.pair", [
        ({"b1": [1], "b2": [-1], "r": [0], "s": [0]},
         {"state": ((0, 0, 0), ((0, 1),)), "modes": (-2, 2), "difference": [
             ("((0, 0, 0), ((0, 1),))", "Cyc(-4)")]}),
    ]),
    "hom_eps": (hom_eps, "zhom.pair", [
        ({"b1": [1], "b2": [-1], "r": [0], "s": [0]},
         {"state": ((-1, 0, 0), ()), "modes": (-2, 2), "difference": [
             ("((-1, 0, 0), ())", "Cyc(-8)")]}),
    ]),
    "zk_pair": (zk_pair, "zk.7", [
        ({"b1": [-1], "b2": [1]},
         {"state": ((-1, 0, 0), ()), "modes": (-1, 1), "difference": [
             ("((-1, 0, 0), ())", "Cyc(2)")]}),
        ({"b1": [1], "b2": [-1]},
         {"state": ((-1, 0, 0), ()), "modes": (-2, 2), "difference": [
             ("((-1, 0, 0), ())", "Cyc(-8)")]}),
    ]),
    "zk_zero_mode": (zk_zero_mode, "zk.8", [
        ({"a": [1], "beta": [-1]},
         {"state": ((-1, 0, 0), ()), "mode": 1, "out": ((0, 0, 0), ())}),
    ]),
    "ck_rel2": (ck_rel2, "ck.rel2", [
        ({"h1": [1, 0, 0], "h2": [1, 0, 0]},
         {"state": ((-1, 0, 0), ()), "modes": (-2, 2), "difference": [
             ("((-1, 0, 0), ())", "Cyc(-12)")]}),
    ]),
    "prin_degree": (prin_degree, "prin.4", [
        ({"beta": [-1], "r": [1]},
         {"state": ((-1, 0), ()), "mode": -3,
          "out": ((0, 0), ((0, 1), (0, 1)))}),
    ]),
    "prin_k_degree": (prin_k_degree, "prin.5", [
        ({"j": 1, "r": [1]},
         {"state": ((-1, 0), ()), "mode": -3,
          "out": ((0, 0), ((0, 2),))}),
    ]),
    "ck_coord": (ck_coord, "ck.rel5_di", [
        ({"i": 1, "j": 0, "r": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, -1, 0), ((1, 1), (1, 1)))}),
        ({"i": 1, "j": 1, "r": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, -1, 0), ((1, 2),))}),
        ({"i": 1, "j": 0, "r": [-1]},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, 1, 0), ((1, 1), (1, 1)))}),
        ({"i": 1, "j": 1, "r": [-1]},
         {"state": ((-1, 0, 0), ()), "mode": -2,
          "out": ((-1, 1, 0), ((1, 2),))}),
    ]),
    "prin_coord": (prin_coord, "prin.6", [
        ({"i": 1, "j": 0, "r": [1]},
         {"state": ((-1, 0), ()), "mode": -4,
          "out": ((-2, 0), ((0, 1), (0, 1)))}),
        ({"i": 1, "j": 1, "r": [1]},
         {"state": ((-1, 0), ()), "mode": -4, "out": ((-2, 0), ((0, 2),))}),
        ({"i": 1, "j": 0, "r": [-1]},
         {"state": ((-1, 0), ()), "mode": -4,
          "out": ((0, 0), ((0, 1), (0, 1)))}),
        ({"i": 1, "j": 1, "r": [-1]},
         {"state": ((-1, 0), ()), "mode": -4, "out": ((0, 0), ((0, 2),))}),
    ]),
    "hom_trivial_k": (hom_trivial_k, "zhom.k_nontrivial", [
        ({"i": 1}, None),
    ]),
    "prin_trivial_k": (prin_trivial_k, "prin.k_nontrivial", [
        ({"j": 1}, None),
    ]),
    "tor_pair_xx": (tor_central_doubled, "1.5(1)", [
        (_pair((1, 0), (-1, 0), -1, -1),
         _difference("(('k', 1, -2, (1,)), Cyc(-1/4))")),
        (_pair((1, 0), (-1, 0), -1, 1),
         _difference("(('k', 0, 0, (1,)), Cyc(1/4))")),
        (_pair((1, 0), (-1, 0), 1, -1),
         _difference("(('k', 0, 0, (1,)), Cyc(-1/4))")),
        (_pair((1, 0), (-1, 0), 1, 1),
         _difference("(('k', 1, 2, (1,)), Cyc(-1/4))")),
    ]),
    "tor_pair_hh": (tor_central_doubled, "1.5(2)", [
        (_pair((1, 0), (-1, 0), -1, -1),
         _difference("(('k', 1, -2, (1,)), Cyc(-3/4))")),
        (_pair((1, 0), (-1, 0), -1, 1),
         _difference("(('k', 0, 0, (1,)), Cyc(3/4))")),
        (_pair((1, 0), (-1, 0), 1, -1),
         _difference("(('k', 0, 0, (1,)), Cyc(-3/4))")),
        (_pair((1, 0), (-1, 0), 1, 1),
         _difference("(('k', 1, 2, (1,)), Cyc(-3/4))")),
    ]),
    "tor_pair_hx": (tor_mixed, "1.5(3)", [
        (_pair((1,), (1,), -1, -1),
         _difference("(('g', ('x', (1,)), -2, (1,)), Cyc(2))")),
        (_pair((1,), (1,), -1, 0),
         _difference("(('g', ('x', (1,)), -1, (1,)), Cyc(2))")),
        (_pair((1,), (1,), -1, 1),
         _difference("(('g', ('x', (1,)), 0, (1,)), Cyc(2))")),
        (_pair((1,), (1,), 0, -1),
         _difference("(('g', ('x', (1,)), -1, (1,)), Cyc(2))")),
        (_pair((1,), (1,), 0, 0),
         _difference("(('g', ('x', (1,)), 0, (1,)), Cyc(2))")),
        (_pair((1,), (1,), 0, 1),
         _difference("(('g', ('x', (1,)), 1, (1,)), Cyc(2))")),
        (_pair((1,), (1,), 1, -1),
         _difference("(('g', ('x', (1,)), 0, (1,)), Cyc(2))")),
        (_pair((1,), (1,), 1, 0),
         _difference("(('g', ('x', (1,)), 1, (1,)), Cyc(2))")),
        (_pair((1,), (1,), 1, 1),
         _difference("(('g', ('x', (1,)), 2, (1,)), Cyc(2))")),
    ]),
    "tor_jacobi": (tor_axioms, "tor.jacobi", [
        ({"sample": 4}, _difference("(('g', ('x', (1,)), -2, (2,)), Cyc(8))")),
    ]),
    "tor_dA": (tor_dA, "tor.dA_zero", [
        ({"sample": 0, "r0": -1, "r": (1,)},
         _difference("(('k', 1, -1, (1,)), Cyc(-1))")),
        ({"sample": 1, "r0": -2, "r": (2,)},
         _difference("(('k', 1, -2, (2,)), Cyc(-2))")),
        ({"sample": 2, "r0": -3, "r": (2,)},
         _difference("(('k', 1, -3, (2,)), Cyc(-2))")),
    ]),
    "tor_antisym": (tor_axioms_25, "tor.antisym", [
        ({"sample": 14}, _difference("(('g', ('x', (1,)), 3, (4,)), Cyc(2))")),
        ({"sample": 16},
         _difference("(('g', ('x', (1,)), -6, (-1,)), Cyc(2))")),
    ]),
    "tor_central_dA": (tor_central_dA, "1.5(4)", [
        ({"r": (1,), "mode": -1},
         _difference("(('k', 1, -1, (1,)), Cyc(-1))")),
        ({"r": (1,), "mode": 1}, _difference("(('k', 1, 1, (1,)), Cyc(-1))")),
    ]),
    "tor_deriv_i": (tor_deriv, "1.5(5)", [
        ({"r": (1,), "mode": -1, "i": 1, "j": 0},
         _difference("(('k', 1, -1, (1,)), Cyc(1))")),
        ({"r": (1,), "mode": -1, "i": 1, "j": 1},
         _difference("(('k', 1, -1, (1,)), Cyc(1))")),
        ({"r": (1,), "mode": 0, "i": 1, "j": 0},
         _difference("(('k', 0, 0, (1,)), Cyc(1))")),
        ({"r": (1,), "mode": 1, "i": 1, "j": 0},
         _difference("(('k', 1, 1, (1,)), Cyc(-1))")),
        ({"r": (1,), "mode": 1, "i": 1, "j": 1},
         _difference("(('k', 1, 1, (1,)), Cyc(1))")),
    ]),
    "tor_deriv_0": (tor_deriv, "1.5(6)", [
        ({"r": (1,), "mode": -1, "j": 0},
         _difference("(('k', 1, -1, (1,)), Cyc(-1))")),
        ({"r": (1,), "mode": -1, "j": 1},
         _difference("(('k', 1, -1, (1,)), Cyc(-1))")),
        ({"r": (1,), "mode": 1, "j": 0},
         _difference("(('k', 1, 1, (1,)), Cyc(-1))")),
        ({"r": (1,), "mode": 1, "j": 1},
         _difference("(('k', 1, 1, (1,)), Cyc(1))")),
    ]),
    "tor_k_central": (tor_k_not_central, "1.5(8)", [
        ({"r": (1,), "mode": -1, "j": 0},
         _difference("(('g', ('x', (-1,)), 0, (2,)), Cyc(2))")),
        ({"r": (1,), "mode": -1, "j": 1},
         _difference("(('g', ('x', (-1,)), 0, (2,)), Cyc(2))")),
        ({"r": (1,), "mode": 0, "j": 0},
         _difference("(('g', ('x', (-1,)), 1, (2,)), Cyc(2))")),
        ({"r": (1,), "mode": 1, "j": 0},
         _difference("(('g', ('x', (-1,)), 2, (2,)), Cyc(2))")),
        ({"r": (1,), "mode": 1, "j": 1},
         _difference("(('g', ('x', (-1,)), 2, (2,)), Cyc(2))")),
    ]),
    "tor_theta_component": (tor_component, "1.5(7)", [
        ({"beta": (1, 0), "p": 1, "r": (1,), "mode": -1},
         _difference("(('g', ('x', (0, 1)), -1, (1,)), Cyc(1/2))",
                     "(('g', ('x', (1, 0)), -1, (1,)), Cyc(-1/2))")),
        ({"beta": (1, 0), "p": 1, "r": (1,), "mode": 0},
         _difference("(('g', ('x', (0, 1)), 0, (1,)), Cyc(1/2))",
                     "(('g', ('x', (1, 0)), 0, (1,)), Cyc(1/2))")),
        ({"beta": (1, 0), "p": 1, "r": (1,), "mode": 1},
         _difference("(('g', ('x', (0, 1)), 1, (1,)), Cyc(1/2))",
                     "(('g', ('x', (1, 0)), 1, (1,)), Cyc(-1/2))")),
    ]),
    "iso_N_simple": (iso_bad_n, "iso.N_simple", [
        ({"node": 1, "gen": "F"}, _difference("N = 0, expected -1")),
    ]),
    "iso_N_opposite": (iso_bad_n, "iso.N_opposite", [
        ({"pairs": 4}, _difference("((-2,), (2,))", "((2,), (-2,))")),
    ]),
    "iso_theta_fixed": (iso_bad_n, "iso.theta_fixed_images", [
        ({"lines": 2}, _difference("Line(cls=0, weight=(-2,))")),
    ]),
    "iso_marks": (iso_bad_marks, "iso.marks", [
        ({"marks": (2, 1), "comarks": (1, 1)}, _difference("a_0 = 2")),
    ]),
    "iso_hom": (iso_no_k0, "iso.hom", [
        ({"sample": 9, "a": ("line", 0, 2, (-1,)),
          "b": ("line", 1, -1, (-1,))},
         _difference("(('k', 1, 2, (-2,)), Cyc(-1))")),
    ]),
    "iso_phi_C": (iso_no_k0, "iso.phi_C", [
        ({"K": 1, "m": 2}, _difference("(('k', 0, 0, (0,)), Cyc(-1/2))")),
    ]),
    "iso_form_pairing": (iso_bad_psi0sq, "iso.form_pairing", [
        ({"psi0sq": "Cyc(4)"}, _difference("Cyc(4)")),
    ]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fault_fails_with_recorded_witness(name):
    run, rel, want = CASES[name]
    got = [(params, status, witness) for r, params, status, witness in run()
           if r == rel and status != "pass"]
    assert got == [(params, "fail", witness) for params, witness in want]


class _ExtraTopMode(FieldFamily):
    """base plus, one mode above base's max_mode, the input's modes with
    base's label bits and sign: base's view, with the cap raised by 1."""

    def __init__(self, base):
        super().__init__()
        self.base = base
        self.space, self.shift, self.label = base.space, base.shift, base.label
        self.view = base.view

    def cap(self, key):
        return self.base.cap(key) + 1

    def mode_state(self, n, key):
        if n == self.cap(key):
            return {key & MODE_MASK: 1}
        return self.base.core(n, key)


def test_vanishes_reaches_every_term_top_mode():
    """A k_1 mode above every mode of k_0 still enters the d_A check."""
    mod = _hom()
    k1 = mod.kf(1, (1,))
    mod._fields[("k", 1, (1,))] = _ExtraTopMode(k1)
    entries = verify_center_hom(mod, WIN, rvecs=[(1,)])
    first = window_states(mod.space, WIN)[0]
    assert entries[0] == ("zhom.center", {"r": [1]}, "fail",
                          {"state": first,
                           "mode": Tuples(k1).max_mode(first) + 1})


def test_factorization_scales_by_the_level():
    """Every k field doubled and the level set to 2: still a module."""
    v, bad = _ck(k=2)
    bad._k_fn = lambda i, r: ScaledField(v.kf(i, r), 2)
    entries = check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)
    factor = [e for e in entries if e[0].startswith("ck.factor_")]
    assert len(factor) == 18 and all(e[2] == "pass" for e in factor)


def test_omega_closed_reports_the_first_offending_cell():
    """A Z field times a Cartan field creates Cartan modes; the witness
    is the first such cell in sweep order (states, then modes upward),
    as for every other check."""
    w, bad = _dk()
    h = HeisenbergField(w.space, w.space.dir_vec(0))
    bad._z_fn = lambda b, r: ProductField(h, w.z(b, r))
    got = [e for e in verify_Zk_relations(bad, WIN)
           if e[0] == "zk.omega_closed"]
    assert got == [("zk.omega_closed", {}, "fail",
                    {"state": ((0, -1, 0), ()), "mode": -2,
                     "out": ((-1, -1, 0), ((0, 1),))})]


def test_status_literals_are_written_by_checks_alone():
    """"pass" and "fail" occur in the package only in checks.py, which
    writes every entry, and in report.py, which reads them."""
    src = Path(__file__).resolve().parent.parent / "src" / "torlab"
    files = {path.name for path in src.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant)
             and node.value in ("pass", "fail")}
    assert files == {"checks.py", "report.py"}
