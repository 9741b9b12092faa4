"""Fault injection per check kind of torlab.checks.

Each case corrupts one input of a suite (a cached field, a field hook of
a module, or the twist) and requires the relation that should notice to
fail, with exactly the witness written below.  The witnesses were
produced by the per-suite verifiers that torlab.checks replaced, run on
the same corruptions, so a change in how a shared kind sweeps states and
modes, or builds its witness, shows up here.

The two tests at the end pin what the per-suite verifiers did not
check: vanishes() reads every term up to its own top mode, not only the
first term's, and factorization divides by the level.
"""

import pytest

from torlab.distops import (FieldFamily, HeisenbergField, ProductField,
                            ScaledField, TruncationWindow, comb_scale)
from torlab.fockhom import (HomogeneousModule, verify_33, verify_center_hom,
                            verify_products_hom, window_states)
from torlab.fockprin import (PrincipalModule, negation_theta,
                             solve_prin_constants, verify_52,
                             verify_principal_relations)
from torlab.rootsys import build_root_system
from torlab.scalar import Cyc
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
    stopping early over the states would miss."""

    def __init__(self, base, state):
        super().__init__()
        self.base, self.state = base, state
        self.space, self.shift, self.label = base.space, base.shift, base.label

    def max_mode(self, v):
        return self.base.max_mode(v)

    def mode_state(self, n, v):
        out = self.base.mode_memo(n, v)
        return comb_scale(out, -1) if v == self.state else out


def _last_hit(f, states):
    """The last state on which some window mode of f is nonzero."""
    return [v for v in states
            if any(f.mode_memo(n, v)
                   for n in range(-WIN.modes, f.max_mode(v) + 1))][-1]


class _ModeOffByOne(FieldFamily):
    """base with its mode index off by one: mode n acts as mode n - 1."""

    def __init__(self, base):
        super().__init__()
        self.base = base
        self.space, self.shift, self.label = base.space, base.shift, base.label

    def max_mode(self, v):
        return self.base.max_mode(v) + 1

    def mode_state(self, n, v):
        return self.base.mode_memo(n - 1, v)


def _k1_doubled(base):
    """k_fn hook: k_1 scaled by 2, every other k_i as in base."""
    return lambda i, r: ScaledField(base(i, r), 2) if i == 1 else base(i, r)


def _negated_at(base, rvec):
    """x_fn / z_fn hook: the field at multidegree rvec scaled by -1."""
    return lambda b, r: ScaledField(base(b, r), -1) if r == rvec else base(b, r)


# -- vanishes: the d_A relation ----------------------------------------


def hom_center():
    mod = _hom()
    mod._fields[("k", 0, (1,))] = ScaledField(mod.k(0, (1,)), 2)
    return verify_center_hom(mod, WIN, rvecs=R)


def ck_central():
    v, bad = _ck()
    bad._k_fn = _k1_doubled(v.kf)
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def zk_central():
    w, bad = _dk()
    bad._k_fn = _k1_doubled(w.kf)
    return verify_Zk_relations(bad, WIN, rvecs=R)


def hom_center_late():
    mod = _hom()
    k1 = mod.k(0, (1,))
    last = _last_hit(k1, window_states(mod.space, WIN))
    mod._fields[("k", 0, (1,))] = _FaultOn(k1, last)
    return verify_center_hom(mod, WIN, rvecs=R)


def prin_52():
    mod = _prin()
    mod._fields[("k", 1, (1,))] = ScaledField(mod.k(1, (1,)), 2)
    return verify_52(mod, PWIN, rvecs=R)


def prin_3():
    mod = _prin()
    mod._fields[("k", 1, (1,))] = ScaledField(mod.k(1, (1,)), 2)
    return verify_principal_relations(mod, PWIN, rvecs=R)


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


# -- holds, degree_shift, coord_shift, nonzero -------------------------


def hom_pair_late():
    mod = _hom()
    a = tuple(mod.rs.roots[-1])
    na = tuple(-c for c in a)
    z = mod.z(na, (0,))
    last = _last_hit(z, window_states(mod.space, WIN))
    mod._fields[("z", na, (0,))] = _FaultOn(z, last)
    return verify_33(mod, WIN, root_pairs=[(a, na)], rvecs=[(0,)])


def prin_degree():
    mod = _prin()
    b = tuple(mod.rs.roots[0])
    mod._fields[("z", b, (1,))] = _ModeOffByOne(mod.z(b, (1,)))
    return verify_principal_relations(mod, PWIN, rvecs=R)


def ck_coord():
    """Every k field built at the opposite multidegree."""
    v, bad = _ck()
    bad._k_fn = lambda i, r: v.kf(i, tuple(-c for c in r))
    return check_Ck(bad, WIN, roots=[tuple(v.rs.roots[0])], rvecs=R)


def hom_trivial_k():
    mod = _hom()
    mod._fields[("k", 0, (0,))] = ScaledField(mod.k(0, (0,)), 0)
    return verify_center_hom(mod, WIN, rvecs=R)


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
             ("((0, 1, 0), ((1, 1), (1, 1), (1, 1)))", "Fraction(-1, 3)"),
             ("((0, 1, 0), ((1, 1), (1, 2)))", "Fraction(-1, 1)"),
             ("((0, 1, 0), ((1, 3),))", "Fraction(-2, 3)")]}),
        ({"a": [1], "r": [1], "s": [1]},
         {"state": ((-1, 0, 0), ()), "mode": -2, "difference": [
             ("((0, 2, 0), ((1, 1), (1, 1), (1, 1)))", "Fraction(8, 3)"),
             ("((0, 2, 0), ((1, 1), (1, 2)))", "Fraction(4, 1)"),
             ("((0, 2, 0), ((1, 3),))", "Fraction(4, 3)")]}),
        ({"a": [1], "r": [1], "s": [-1]},
         {"state": ((-1, 0, 0), ()), "mode": 1, "difference": [
             ("((0, 0, 0), ())", "Fraction(2, 1)")]}),
    ]),
    "ck_factor": (ck_factor, "ck.factor_x", [
        ({"beta": [-1], "r": [0], "s": [1]},
         {"state": ((-1, 0, 0), ((0, 1),)), "mode": -2, "difference": [
             ("((-2, 1, 0), ())", "Fraction(-4, 1)")]}),
        ({"beta": [-1], "r": [1], "s": [1]},
         {"state": ((-1, 0, 0), ((0, 1),)), "mode": -2, "difference": [
             ("((-2, 2, 0), ())", "Fraction(4, 1)")]}),
        ({"beta": [-1], "r": [1], "s": [-1]},
         {"state": ((-1, 0, 0), ((0, 1),)), "mode": -2, "difference": [
             ("((-2, 0, 0), ())", "Fraction(4, 1)")]}),
    ]),
    "zk_factor": (zk_factor, "zk.1", [
        ({"beta": [-1], "r": [0], "s": [1]},
         {"state": ((0, -1, 0), ()), "mode": -2, "difference": [
             ("((-1, 0, 0), ((1, 1),))", "Fraction(2, 1)")]}),
        ({"beta": [-1], "r": [1], "s": [1]},
         {"state": ((0, -1, 0), ()), "mode": -2, "difference": [
             ("((-1, 1, 0), ((1, 1),))", "Fraction(-4, 1)")]}),
        ({"beta": [-1], "r": [1], "s": [-1]},
         {"state": ((0, -1, 0), ()), "mode": -1, "difference": [
             ("((-1, -1, 0), ())", "Fraction(-2, 1)")]}),
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
    "hom_center_late": (hom_center_late, "zhom.center", [
        ({"r": [1]}, {"state": ((1, 0, 0), ((0, 1),)), "mode": -2}),
    ]),
    "hom_prod_late": (hom_prod_late, "zhom.prod_zk0", [
        ({"a": [1], "r": [0], "s": [1]},
         {"state": ((0, 1, 0), ((0, 1), (0, 1))), "mode": -2, "difference": [
             ("((1, 2, 0), ((0, 1), (0, 1), (1, 1)))", "Fraction(2, 1)")]}),
        ({"a": [1], "r": [1], "s": [1]},
         {"state": ((0, 0, 0), ((0, 1), (0, 1))), "mode": -2, "difference": [
             ("((1, 2, 0), ((0, 1), (0, 1), (1, 1)))", "Fraction(-2, 1)")]}),
    ]),
    "hom_pair_late": (hom_pair_late, "zhom.pair", [
        ({"b1": [1], "b2": [-1], "r": [0], "s": [0]},
         {"state": ((0, 0, 0), ((0, 1),)), "modes": (-2, 2), "difference": [
             ("((0, 0, 0), ((0, 1),))", "Cyc(-4)")]}),
    ]),
    "prin_degree": (prin_degree, "prin.4", [
        ({"beta": [-1], "r": [1]},
         {"state": ((-1, 0), ()), "mode": -3,
          "out": ((0, 0), ((0, 1), (0, 1)))}),
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
    "hom_trivial_k": (hom_trivial_k, "zhom.k_nontrivial", [
        ({"i": 1}, None),
    ]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fault_fails_with_recorded_witness(name):
    run, rel, want = CASES[name]
    got = [(params, status, witness) for r, params, status, witness in run()
           if r == rel and status != "pass"]
    assert got == [(params, "fail", witness) for params, witness in want]


class _ExtraTopMode(FieldFamily):
    """base plus the identity one mode above base's max_mode."""

    def __init__(self, base):
        super().__init__()
        self.base = base
        self.space, self.shift, self.label = base.space, base.shift, base.label

    def max_mode(self, v):
        return self.base.max_mode(v) + 1

    def mode_state(self, n, v):
        return {v: 1} if n == self.max_mode(v) else self.base.mode_memo(n, v)


def test_vanishes_reaches_every_term_top_mode():
    """A k_1 mode above every mode of k_0 still enters the d_A check."""
    mod = _hom()
    k1 = mod.k(0, (1,))
    mod._fields[("k", 0, (1,))] = _ExtraTopMode(k1)
    entries = verify_center_hom(mod, WIN, rvecs=[(1,)])
    first = window_states(mod.space, WIN)[0]
    assert entries[0] == ("zhom.center", {"r": [1]}, "fail",
                          {"state": first, "mode": k1.max_mode(first) + 1})


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
