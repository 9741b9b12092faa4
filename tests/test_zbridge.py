from fractions import Fraction

import pytest

from field_oracle import Labelled, Tuples, check_state, lhs_coeff
from torlab.distops import (MODE_MASK, DeltaRelation, DeltaTerm, ExpField,
                            IdentityField, ProductField, ScaledField,
                            TruncationWindow, comb_add, comb_scale, comb_sub,
                            dressing_operator)
from torlab.fockhom import HomogeneousModule, pair_relation, window_states
from torlab.rootsys import build_root_system
from torlab.scalar import Cyc
from torlab.zbridge import (CkModule, RestrictedField, TwistData, check_Ck,
                            current_pair_relation, from_Zmodule,
                            homogeneous_Ck, omega_basis, roundtrip_check,
                            to_Zmodule, verify_Zk_relations)


def _v(rs_type="A", rank=1):
    return homogeneous_Ck(HomogeneousModule(build_root_system(rs_type, rank), 1))


WIN = TruncationWindow(2, 2, 1)


def test_omega_basis_structure():
    V = _v()
    omega, pure = omega_basis(V, WIN)
    assert pure
    cartan = set(range(V.rs.rank))
    assert all(not any(d in cartan for d, _ in s[1]) for s in omega)
    # delta-direction modes are allowed in the vacuum space
    assert any(s[1] for s in omega)
    # and it is the exact kernel: every positive Cartan mode kills it
    space = Tuples(V.space)
    for s in omega:
        for d in cartan:
            for i in (1, 2):
                assert not space.heisenberg_act(V.space.dir_vec(d), i,
                                                {s: Cyc.one()})


def test_dressed_Z_reduces_to_lattice_operator_on_omega():
    """E^-(b) x_b E^+(b) undoes the dressing of x_b on vacuum states."""
    mod = HomogeneousModule(build_root_system("A", 1), 1)
    V = homogeneous_Ck(mod)
    W = to_Zmodule(V, WIN)
    b = mod.rs.roots[-1]
    for rvec in [(0,), (1,)]:
        zd = Tuples(W.z(b, rvec))
        zl = Tuples(mod.z(b, rvec))
        for v in W.omega_states:
            for n in range(-2, max(zd.max_mode(v), zl.max_mode(v)) + 1):
                assert not comb_sub(zd.mode_memo(n, v), zl.mode_memo(n, v))


def test_Z_commutes_with_nonzero_heisenberg_modes():
    V = _v()
    W = to_Zmodule(V, WIN)
    space = Tuples(V.space)
    b = V.rs.roots[0]
    z = Tuples(W.z(b, (0,)))
    avec = V.root_vec(V.rs.simple_roots[0])
    states = window_states(V.space, WIN)
    for v in states[:25]:
        comb = {v: Cyc.one()}
        for i in (-2, -1, 1, 2):
            for n in range(-2, z.max_mode(v) + 1):
                lhs = space.heisenberg_act(avec, i, z.mode_memo(n, v))
                rhs = z.mode(n, space.heisenberg_act(avec, i, comb))
                assert not comb_sub(lhs, rhs)


def test_dressed_commutator_identity():
    """The quadratic LHS equals E^- E^- [x, x] E^+ E^+ coefficient-wise."""
    mod = HomogeneousModule(build_root_system("A", 1), 1)
    V = homogeneous_Ck(mod)
    W = to_Zmodule(V, WIN)
    space = V.space
    b1 = V.rs.roots[0]
    b2 = V.rs.roots[-1]
    rvec = svec = (0,)
    ip = V.rs.form(b1, b2)
    rel = DeltaRelation(W.z(b1, rvec), W.z(b2, svec),
                        [(Fraction(ip), Cyc.one())], [])
    x1 = Tuples(V.x(b1, rvec))
    x2 = Tuples(V.x(b2, svec))
    em1 = Tuples(dressing_operator(space, -1, V.root_vec(b1), 1))
    em2 = Tuples(dressing_operator(space, -1, V.root_vec(b2), 1))
    ep1 = Tuples(dressing_operator(space, 1, V.root_vec(b1), 1))
    ep2 = Tuples(dressing_operator(space, 1, V.root_vec(b2), 1))

    def cmax(field, comb):
        return max((field.max_mode(s) for s in comb), default=-10)

    def rhs_coeff(A, B, v):
        # E^-(b1,z1) E^-(b2,z2) [x1(z1), x2(z2)] E^+(b1,z1) E^+(b2,z2),
        # coefficient at z1^A z2^B; the E^- modes t_i = A/B - s_i - u_i
        # vanish when positive, so every sum below is finite.
        out = {}
        for s2 in range(0, ep2.max_mode(v) + 1):
            c2 = ep2.mode_memo(s2, v)
            if not c2:
                continue
            for s1 in range(0, cmax(ep1, c2) + 1):
                c1 = ep1.mode(s1, c2)
                if not c1:
                    continue
                for u2 in range(B - s2, cmax(x2, c1) + 1):
                    w2 = x2.mode(u2, c1)
                    for u1 in range(A - s1, cmax(x1, w2) + 1):
                        mid = x1.mode(u1, w2)
                        if mid:
                            step = em2.mode(B - s2 - u2, mid)
                            out = comb_add(out,
                                           em1.mode(A - s1 - u1, step))
                for u1 in range(A - s1, cmax(x1, c1) + 1):
                    w1 = x1.mode(u1, c1)
                    for u2 in range(B - s2, cmax(x2, w1) + 1):
                        mid = x2.mode(u2, w1)
                        if mid:
                            step = em2.mode(B - s2 - u2, mid)
                            out = comb_sub(out,
                                           em1.mode(A - s1 - u1, step))
        return out

    states = [space.vacuum(), (tuple(V.root_vec(b1)), ())]
    for v in states:
        for A in range(-2, 3):
            for B in range(-2, 3):
                lhs = lhs_coeff(rel, A, B, v)
                assert not comb_sub(lhs, rhs_coeff(A, B, v)), (A, B, v)


def test_central_terms_read_the_module_k_fields():
    """The Z-relation and the current relation of the opposite pair share
    their central terms r_1 k_1 and D k_0, each a plain delta term on the
    module's own cached k field."""
    V = HomogeneousModule(build_root_system("A", 1), 1)
    r, s = (1,), (0,)
    zrel = pair_relation(V, (1,), (-1,), r, s)
    crel = current_pair_relation(homogeneous_Ck(V), (1,), (-1,), r, s)
    zterms, cterms = zrel.rhs_terms[1:], crel.rhs_terms[1:]
    assert ([(t.coeff, t.a, t.use_D) for t in zterms]
            == [(t.coeff, t.a, t.use_D) for t in cterms])
    k1, k0 = V.kf(1, r), V.kf(0, r)
    for terms in (zterms, cterms):
        assert len(terms) == 2
        assert terms[0].field is k1 and terms[1].field is k0


def test_check_Ck_small_window():
    entries = check_Ck(_v(), WIN)
    bad = [e for e in entries if e[2] != "pass"]
    assert not bad, bad[:2]


def test_Zk_relations_small_window():
    V = _v()
    W = to_Zmodule(V, WIN)
    entries = verify_Zk_relations(W, WIN)
    bad = [e for e in entries if e[2] != "pass"]
    assert not bad, bad[:2]
    assert any(e[0] == "zk.7" for e in entries)


def test_roundtrip_small_window():
    entries, W, back = roundtrip_check(_v(), WIN)
    bad = [e for e in entries if e[2] != "pass"]
    assert not bad, bad[:2]
    assert any(e[0] == "bridge.roundtrip_x" for e in entries)
    assert any(e[0] == "bridge.pairing_injective" for e in entries)


def test_dressings_store_one_zero_label_expansion(monkeypatch):
    """After roundtrip_check and check_Ck on the original and the rebuilt
    A1 module, every E^+- memo holds zero-label rows only (a labelled
    image is read off the zero-label one), and the E^+- fields built with
    equal (sign, c, vec) in one space share one memo."""
    built = []
    init = ExpField.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ExpField, "__init__", record)
    V = _v()
    entries, _w, back = roundtrip_check(V, WIN)
    entries = entries + check_Ck(V, WIN) + check_Ck(back, WIN)
    assert all(e[2] == "pass" for e in entries)
    assert any(em._memo for em in built)
    assert all(sid <= MODE_MASK for em in built for sid in em._memo)
    groups = {}
    for em in built:
        groups.setdefault((em.space, em.sign, em.c, em.vec), []).append(em)
    assert len(groups) < len(built)
    for same in groups.values():
        assert all(em._memo is same[0]._memo for em in same)


def test_composites_with_a_view_keep_one_core_row_per_mode_multiset(
        monkeypatch):
    """After roundtrip_check and check_Ck on the original and the rebuilt
    A1 module at (2, 2, 1), every ProductField and RestrictedField with a
    label view keeps its images and caps on mids only, at most one row
    per mode multiset of the space, and 1,676 core rows in all; every
    ProductField that reads the label (b' = h k_0 and the k_i k_0
    products of the factorization checks) still fills labelled rows."""
    built = []
    for cls in (ProductField, RestrictedField):
        def record(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", record)
    V = _v()
    entries, _w, back = roundtrip_check(V, WIN)
    entries = entries + check_Ck(V, WIN) + check_Ck(back, WIN)
    assert all(e[2] == "pass" for e in entries)
    viewed = [f for f in built if f.view is not None]
    labelled = [f for f in built
                if f.view is None and isinstance(f, ProductField)]
    assert viewed and labelled
    mids = len(V.space._modes)
    for f in viewed:
        assert all(key <= MODE_MASK for key in f._memo), f.label
        assert len(f._memo) <= mids, f.label
        assert all(key <= MODE_MASK for key in getattr(f, "_caps", ())), \
            f.label
    assert {f.label[:2] for f in labelled} == {"b'", "k1", "1x"}
    for f in labelled:
        assert any(key > MODE_MASK for key in f._memo), f.label
    assert sum(len(f._memo) for f in viewed) == 1676


def _moved(rel, i, other):
    """rel's delta terms with term i's field taken from other, the same
    relation at another multidegree."""
    t = rel.rhs_terms[i]
    moved = DeltaTerm(t.coeff, t.a, other.rhs_terms[i].field, t.use_D)
    return rel.rhs_terms[:i] + [moved] + rel.rhs_terms[i + 1:]


def test_composite_pairs_fold_as_the_labelled_sweep():
    """On A1 at (2, 2, 1), every ck.rel1 relation of homogeneous_Ck and of
    its from_Zmodule rebuild and every zk.7 relation of to_Zmodule sweeps
    two composites with a view, none of them an E^- dressing.  Intact,
    with the first delta term's sign flipped, and with the first or the
    last delta term moved to another multidegree, each gives on every
    state of its module the (ok, witness) of the same relation on
    Labelled operands, which have no view.  Each witness is check_state's
    at its cell, every intact relation holds and every corrupted one
    fails."""
    mod = HomogeneousModule(build_root_system("A", 1), 1)
    ck = homogeneous_Ck(mod)
    w = to_Zmodule(ck, WIN)
    rebuilt = from_Zmodule(w)
    zero, one = (0,), (1,)
    suites = [(current_pair_relation, ck, window_states(ck.space, WIN)),
              (current_pair_relation, rebuilt,
               window_states(rebuilt.space, WIN)),
              (pair_relation, w, w.omega_states)]
    seen = set()
    for build, m, states in suites:
        for b1 in m.rs.roots:
            for b2 in m.rs.roots:
                rel = build(m, b1, b2, zero, zero)
                other = build(m, b1, b2, zero, one)
                assert isinstance(rel.f, ProductField) and rel.f.view
                assert isinstance(rel.g, ProductField) and rel.g.view
                terms = rel.rhs_terms
                variants = [("intact", terms)]
                if terms:
                    t = terms[0]
                    variants += [
                        ("flip", [DeltaTerm(-t.coeff, t.a, t.field, t.use_D)]
                         + terms[1:]),
                        ("first", _moved(rel, 0, other)),
                        ("last", _moved(rel, len(terms) - 1, other))]
                for name, rhs in variants:
                    folded = DeltaRelation(rel.f, rel.g, rel.factors, rhs)
                    ref = DeltaRelation(Labelled(rel.f), Labelled(rel.g),
                                        rel.factors, rhs)
                    fails = 0
                    for v in states:
                        got = folded.check_window(WIN.modes, v)
                        assert got == ref.check_window(WIN.modes, v), \
                            (m.name, name, b1, b2, v)
                        if not got[0]:
                            fails += 1
                            assert check_state(folded, *got[1]["modes"],
                                               v) == got, (m.name, name, v)
                    assert (fails > 0) == (name != "intact"), \
                        (m.name, name, b1, b2)
                    seen.add((m.name, name))
    assert len(seen) == 12


def test_factorization_counterexample():
    """k_0 forced to 2*Id with unscaled root fields breaks (3)."""
    mod = HomogeneousModule(build_root_system("A", 1), 1)
    V = homogeneous_Ck(mod)

    def bad_k(i, rvec):
        if i == 0:
            return ScaledField(IdentityField(dim=V.space.dim), 2)
        return V.kf(i, rvec)

    broken = CkModule(V.space, 2, TwistData(1), V.rs, V.lat, V.alg,
                      V._x_fn, V._beta_fn, bad_k, name="broken")
    win = TruncationWindow(1, 1, 1)
    entries = check_Ck(broken, win)
    fails = [e for e in entries if e[0] == "ck.factor_x" and e[2] == "fail"]
    assert fails and fails[0][3] is not None


def test_zero_level_rejected():
    mod = HomogeneousModule(build_root_system("A", 1), 1)
    V = homogeneous_Ck(mod)
    V0 = CkModule(V.space, 0, TwistData(1), V.rs, V.lat, V.alg,
                  V._x_fn, V._beta_fn, V._k_fn)
    with pytest.raises(ValueError):
        to_Zmodule(V0, WIN)
    with pytest.raises(ValueError):
        check_Ck(V0, WIN)
    W = to_Zmodule(V, WIN)
    W.k = Cyc.zero()
    with pytest.raises(ValueError):
        from_Zmodule(W)
