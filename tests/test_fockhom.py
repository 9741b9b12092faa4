import gc
import random
import weakref
from fractions import Fraction

import pytest

from field_oracle import Labelled, Tuples, check_state, comb_eq, ref_vertex
from torlab import distops
from torlab.checks import default_rvecs, fields_equal, holds, nonzero
from torlab.distops import (MODE_BITS, MODE_MASK, DeltaRelation, DeltaTerm,
                            HeisenbergField, ProductField, TruncationWindow,
                            ZeroModeTimesField, _cells, comb_scale, comb_sub)
from torlab.fockhom import (HeisTimesXField, HomogeneousModule,
                            VertexXField, ZField, pair_relation, verify_33,
                            verify_center_hom, verify_products_hom,
                            window_states)
from torlab.fockprin import PrincipalModule, negation_theta
from torlab.rootsys import build_root_system
from torlab.scalar import Cyc


def _a1():
    return HomogeneousModule(build_root_system("A", 1), 1)


def _a2():
    return HomogeneousModule(build_root_system("A", 2), 1)


def test_window_states_shape():
    mod = _a1()
    win = TruncationWindow(2, 2, 1)
    states = window_states(mod.space, win)
    assert mod.vacuum() in states
    assert len(states) == len(set(states))
    for s in states:
        assert sum(abs(c) for c in s[0]) <= 1
        assert mod.space.degree(s) >= -2


def test_k0_vacuum_modes():
    mod = _a1()
    vac = mod.vacuum()
    k0 = Tuples(mod.k0((1,)))
    # on the vacuum the exponent is 0: modes <= 0, mode 0 shifts the label
    assert k0.max_mode(vac) == 0
    assert mod.lat.delta((1,)) == (0, 1, 0)
    shifted = ((0, 1, 0), ())
    assert comb_eq(k0.mode_memo(0, vac), {shifted: Cyc.one()})
    # mode -1 creates delta(-1) on the shifted label
    assert mod.rs.rank == 1  # coordinate of delta_1
    assert comb_eq(k0.mode_memo(-1, vac),
                   {((0, 1, 0), ((1, 1),)): Cyc.one()})


def test_z_vacuum_mode():
    mod = _a1()
    vac = mod.vacuum()
    a = mod.rs.roots[-1]
    z = Tuples(mod.z(a, (0,)))
    assert z.max_mode(vac) == -1
    out = z.mode_memo(-1, vac)
    assert comb_eq(out, {(mod.lat.embed_root(a), ()): Cyc.one()})
    assert z.mode_memo(0, vac) == {}


def test_field_modes_shift_degree():
    """[d_0, F] = DF: mode n changes the state degree by exactly n."""
    mod = _a2()
    states = window_states(mod.space, TruncationWindow(2, 2, 1))
    rng = random.Random(7)
    fields = [mod.k0((1,)), mod.kf(1, (-1,)), mod.z(mod.rs.roots[0], (1,)),
              mod.heis(mod.lat.embed_root(mod.rs.roots[2]), (0,))]
    for f in fields:
        for _ in range(30):
            v = states[rng.randrange(len(states))]
            n = rng.randint(-3, 3)
            for s in Tuples(f).mode_memo(n, v):
                assert mod.space.degree(s) == mod.space.degree(v) + n


def test_d_i_eigenvalue_shift():
    """[d_1, F(r)] = r_1 F(r): the label's delta-coordinate moves by r_1."""
    mod = _a1()
    didx = mod.rs.rank
    states = window_states(mod.space, TruncationWindow(2, 2, 1))
    for rvec in [(1,), (-1,), (0,)]:
        for f in (mod.k0(rvec), mod.z(mod.rs.roots[0], rvec)):
            for v in states[:40]:
                for n in range(-2, 1):
                    for s in Tuples(f).mode_memo(n, v):
                        assert s[0][didx] - v[0][didx] == rvec[0]


def test_zero_mode_bracket_with_z():
    """[a(0), Z(b, r, z)] = (a, b) Z(b, r, z) for Cartan a."""
    mod = _a2()
    states = window_states(mod.space, TruncationWindow(2, 2, 1))
    b = mod.rs.roots[1]
    z = Tuples(mod.z(b, (1,)))
    space = Tuples(mod.space)
    for a in (mod.rs.simple_roots[0], mod.rs.simple_roots[1]):
        avec = mod.lat.embed_root(a)
        ip = mod.rs.form(a, b)
        for v in states[:30]:
            comb = {v: Cyc.one()}
            for n in range(-2, z.max_mode(v) + 1):
                lhs = comb_sub(
                    space.heisenberg_act(avec, 0, z.mode_memo(n, v)),
                    z.mode(n, space.heisenberg_act(avec, 0, comb)))
                rhs = comb_scale(z.mode_memo(n, v), ip)
                assert comb_eq(lhs, rhs)


def test_k_fields_central():
    mod = _a1()
    states = window_states(mod.space, TruncationWindow(2, 2, 1))
    k = mod.kf(1, (1,))
    z = mod.z(mod.rs.roots[0], (-1,))
    rel = DeltaRelation(k, z, [], [])
    for v in states[:25]:
        for a in range(-2, 3):
            for b in range(-2, 3):
                ok, w = check_state(rel, a, b, v)
                assert ok, w


def test_product_factorizations():
    mod = _a1()
    win = TruncationWindow(2, 2, 1)
    entries = verify_products_hom(mod, win)
    bad = [e for e in entries if e[2] != "pass"]
    assert not bad, bad[:2]


def test_center_and_nontriviality():
    mod = _a1()
    entries = verify_center_hom(mod, TruncationWindow(2, 2, 1))
    bad = [e for e in entries if e[2] != "pass"]
    assert not bad, bad[:2]
    assert any(e[0] == "zhom.k_nontrivial" for e in entries)


def test_pair_relation_small_window():
    mod = _a1()
    win = TruncationWindow(2, 2, 1)
    a = mod.rs.roots[-1]
    na = mod.rs.roots[0]
    pairs = [(a, a), (a, na), (na, a)]
    entries = verify_33(mod, win, root_pairs=pairs,
                        rvecs=[(0,), (1,)])
    assert len(entries) == 3 * 4
    bad = [e for e in entries if e[2] != "pass"]
    assert not bad, bad[:2]


def _vec_x_cases(name):
    """(module, window, [(vec, field(rvec))]): k_1 on every module, and
    beta(r) for each simple root on the homogeneous ones."""
    if name == "prin-A1":
        mod = PrincipalModule(build_root_system("A", 1), 1, 2, negation_theta)
        return mod, TruncationWindow(4, 3, 1), [
            (mod.delta((1,)), lambda r: mod.kf(1, r))]
    mod = _a1() if name == "hom-A1" else _a2()
    fields = [(mod.delta((1,)), lambda r: mod.kf(1, r))]
    for a in mod.rs.simple_roots:
        vec = mod.lat.embed_root(a)
        fields.append((vec, lambda r, vec=vec: mod.heis(vec, r)))
    return mod, TruncationWindow(2, 2, 1), fields


@pytest.mark.parametrize("name", ["hom-A1", "hom-A2", "prin-A1"])
def test_vec_times_x_is_the_product_field(name):
    """The shared vec(z^w) X(delta_r, z^w) field equals the generic
    ProductField(HeisenbergField(vec), k_0(r)) at every mode from -4W
    up, on every window state; the principal module runs the weight-m
    path."""
    mod, win, fields = _vec_x_cases(name)
    states = window_states(mod.space, win)
    lo = -4 * win.modes
    for vec, field in fields:
        for rvec in default_rvecs(mod.N):
            got = field(rvec)
            want = ProductField(HeisenbergField(mod.space, vec), mod.k0(rvec))
            assert nonzero(got, states, lo), (vec, rvec)
            assert [Tuples(got).max_mode(v) for v in states] == \
                [Tuples(want).max_mode(v) for v in states]
            assert fields_equal(got, want, states, lo) == (True, None), \
                (vec, rvec)


def test_vec_times_x_reads_the_weight():
    """On the principal A1 module (m = 2) the vector (0, 1) pairs with the
    mode direction, and k_0(0) is the identity, so vec(z^m) k_0(0, z^m)
    is the Heisenberg field itself: same max_mode on every window state
    (which carries the weight m) and same modes."""
    mod = PrincipalModule(build_root_system("A", 1), 1, 2, negation_theta)
    states = window_states(mod.space, TruncationWindow(4, 3, 1))
    got = Tuples(HeisTimesXField(mod.space, (0, 1), mod.k0((0,)), "h*k0"))
    want = Tuples(HeisenbergField(mod.space, (0, 1)))
    assert [got.max_mode(v) for v in states] == \
        [want.max_mode(v) for v in states]
    assert any(want.max_mode(v) > 0 for v in states)
    for v in states:
        for n in range(-16, 17):
            assert comb_eq(got.mode_memo(n, v), want.mode_memo(n, v)), (v, n)


def test_a_swept_module_is_freed_without_the_cycle_collector():
    """No field refers back to its module, so with the cycle collector
    off a module whose Z field has filled the E^- memo it reads is freed
    as soon as its last reference goes, and with it every memo filled."""
    gc.disable()
    try:
        mod = _a1()
        z = mod.z((1,), (1,))
        for state in window_states(mod.space, TruncationWindow(2, 2, 1)):
            for n in range(-3, 4):
                z.mode_memo(n, mod.space.sid(state))
        assert z.x.em._memo
        gone = weakref.ref(mod)
        del mod, z
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["A1", "A2"])
def test_views_read_their_parts(name):
    """k_0(r) and Z(alpha, r) at every root and default r: from -W up to
    one above max_mode, mode_memo is the image of mode_parts with the
    label bits and the sign put on, key order included, it equals the
    exponential series of ref_vertex, and above max_mode it is empty.
    Some Z meets a window state with cocycle sign -1."""
    mod = _a1() if name == "A1" else _a2()
    win = TruncationWindow(2, 2, 1)
    W = win.modes
    rvecs = default_rvecs(mod.N)
    fields = [mod.k0(r) for r in rvecs]
    fields += [mod.z(a, r) for a in mod.rs.roots for r in rvecs]
    signs = set()
    for f in fields:
        for v in window_states(mod.space, win):
            sid = mod.space.sid(v)
            top = f.max_mode(sid)
            for n in range(min(-W, top + 1), top + 2):
                hi, sign, image = f.mode_parts(n, sid)
                assert list(f.mode_memo(n, sid).items()) == \
                    [(hi | k, sign * c) for k, c in image.items()]
                assert comb_eq(Tuples(f).mode_memo(n, v),
                               ref_vertex(f, n, v)), (f.label, v, n)
                if n > top:
                    assert image == {}
                signs.add((type(f), sign))
    assert (VertexXField, -1) not in signs
    assert (ZField, -1) in signs


class _Unsigned(ZField):
    """Z(alpha, r) with its cocycle sign dropped."""

    def view(self, lid):
        e, hi, _sign = super().view(lid)
        return e, hi, 1


def test_a_negative_cocycle_sign_reaches_the_sweep():
    """On A2, Z(alpha_1) has sign -1 on window states, and its pair
    relation with alpha_2 passes; with that sign dropped the sweep fails,
    with the witness the cell oracle gives."""
    mod = _a2()
    win = TruncationWindow(2, 2, 1)
    states = window_states(mod.space, win)
    b1, b2 = mod.rs.simple_roots
    rel = pair_relation(mod, b1, b2, (0,), (1,))
    assert any(rel.f.mode_parts(0, mod.space.sid(v))[1] < 0 for v in states)
    assert holds(rel, states, win.modes) == (True, None)
    rel.f = _Unsigned(mod, b1, (0,))
    ok, witness = holds(rel, states, win.modes)
    assert not ok and witness["difference"]
    assert check_state(rel, *witness["modes"], witness["state"]) == \
        (False, witness)


def test_views_store_no_images():
    """After a sweep of one opposite A2 root pair at (2, 2, 1), no Z or
    k_0 field keeps a memo, and every dict either keeps has at most one
    entry per label: their images are read from the E^- memo, which the
    sweep filled."""
    mod = _a2()
    a = mod.rs.roots[0]
    entries = verify_33(mod, TruncationWindow(2, 2, 1),
                        root_pairs=[(a, tuple(-c for c in a))])
    assert entries and all(e[2] == "pass" for e in entries)
    views = [f for f in mod._fields.values()
             if isinstance(f, (ZField, VertexXField))]
    assert {type(f) for f in views} == {ZField, VertexXField}
    labels = len(mod.space._labels)
    for f in views:
        assert f._memo == {}, f.label
        for attr, val in vars(f).items():
            if isinstance(val, dict):
                assert len(val) <= labels, (f.label, attr)
    assert all(f.em._memo for f in views)


def _memo_product(outer, inner, sid, n_o, n_i):
    """The nonzero (key, coefficient) pairs of outer(n_o) inner(n_i) on
    sid, each image read through mode_memo, keys in order of first
    appearance."""
    acc = {}
    for w, cw in inner.mode_memo(n_i, sid).items():
        for k, v in outer.mode_memo(n_o, w).items():
            acc[k] = acc.get(k, 0) + v * cw
    return tuple((k, v) for k, v in acc.items() if v)


def test_view_products_are_the_general_products():
    """On A2 at (2, 2, 1), for every ordered pair of Z views with r and s
    in default_rvecs, every window state and every mode pair from -2W to
    one above each view's top mode, the zero-label cells _cells takes
    from the product memo of the two E^- dressings, with the outer view's
    label bits and the sign s_o s_i put on, are the products of the two
    mode_memo images: the same keys in the same order with the same
    values, both when a call fills the memo and when it only reads it.
    Some nonempty cell has the sign -1."""
    mod = _a2()
    win = TruncationWindow(2, 2, 1)
    W = win.modes
    rvecs = default_rvecs(mod.N)
    views = [mod.z(a, r) for a in mod.rs.roots for r in rvecs]
    signs = set()
    for v in window_states(mod.space, win):
        sid = mod.space.sid(v)
        for outer in views:
            for inner in views:
                e_i, hi_i, s_i = inner.view(sid >> MODE_BITS)
                e_o, hi_o, s_o = outer.view(hi_i >> MODE_BITS)
                modes = [(p, n_o, n_i) for p, (n_o, n_i) in enumerate(
                    (a, b) for a in range(-2 * W, e_o + 2)
                    for b in range(-2 * W, e_i + 2))]
                want = [(p, cell) for p, n_o, n_i in modes
                        for cell in [_memo_product(outer, inner, sid,
                                                   n_o, n_i)] if cell]
                dressing_modes = [(p, n_o - e_o, n_i - e_i)
                                  for p, n_o, n_i in modes]
                for _fill_then_read in range(2):
                    got = _cells(outer.em, inner.em, sid & MODE_MASK,
                                 dressing_modes, 0, -1, True)
                    assert [(p, tuple((k | hi_o, s_o * s_i * c)
                                      for k, c in items))
                            for p, items in got] == want
                if want:
                    signs.add(s_o * s_i)
    assert signs == {1, -1}


def test_a_sweep_stores_one_product_per_mode_triple(monkeypatch):
    """One verify_33 sweep of A2 at (2, 2, 1) reads 187,888 nonempty
    product cells from its rows, counting in each row the cells through
    the outer mode u its a-loops need, and stores 836 mode-level products
    in 320 rows on its E^- dressings, one per (inner dressing, outer
    mode, inner mode, input modes) it met where neither dressing is the
    identity E^-(delta_0)."""
    mod = _a2()
    W = 2
    reads = []
    state = DeltaRelation._state

    def recorded(self, sid, W):
        got = state(self, sid, W)
        reads.append(got)
        return got

    monkeypatch.setattr(DeltaRelation, "_state", recorded)
    entries = verify_33(mod, TruncationWindow(W, 2, 1))
    assert entries and all(e[2] == "pass" for e in entries)
    read = 0
    for orders, _terms, top in reads:
        for e_o, e_i, _cap, _sign, _hi, umax, rows, _key, _fill in orders:
            for S in range(-2 * W, min(2 * W, top) + 1):
                u = min(min(W, S + W) - e_o, umax)
                read += sum(m <= u for m, _items in rows[S - e_o - e_i][1])
    dressings = mod.space._dressings
    identity = {index for (_sign, _c, vec), (index, *_rest)
                in dressings.items() if not any(vec)}
    assert identity
    stored = count = 0
    for (_sign, _c, vec), (_index, _memo, _terms, rows) in \
            dressings.items():
        assert any(vec) or not rows
        assert not set(rows) & identity
        for by_mid in rows.values():
            for by_t in by_mid.values():
                count += len(by_t)
                stored += sum(len(cells) for _top, cells in by_t.values())
    assert read == 187888
    assert stored == 836
    assert count == 320


def _flip_or_raise(rel):
    """(name, factors, terms) for rel, its copy with the first delta
    term's sign flipped and its copy with the binomial exponents raised
    by 1."""
    out = [("intact", rel.factors, rel.rhs_terms),
           ("exp", [(c + 1, a) for c, a in rel.factors], rel.rhs_terms)]
    if rel.rhs_terms:
        t, *rest = rel.rhs_terms
        out.append(("flip", rel.factors,
                    [DeltaTerm(-t.coeff, t.a, t.field, t.use_D)] + rest))
    return out


def test_shared_rows_give_the_sweep_of_a_fresh_module():
    """A2 at (2, 2, 1): every zhom.pair relation, intact, with its first
    delta term's sign flipped and with its binomial exponents raised by 1,
    gives the same (ok, witness) on a module whose rows every other pair
    already filled (one full verify_33 first) as on a fresh module, and
    each witness is check_state's at its cell.  Once rel.f is reassigned
    to a Z field of another root and multidegree, the relation's sweep is
    that of a relation built on the new field: the rows and per-label
    reads of the old operands are dropped."""
    win = TruncationWindow(2, 2, 1)
    W = win.modes
    shared = _a2()
    states = window_states(shared.space, win)
    assert all(e[2] == "pass" for e in verify_33(shared, win))
    roots = [tuple(a) for a in shared.rs.roots]
    rvecs = default_rvecs(shared.N)
    seen = set()
    moved = 0
    for b1 in roots:
        for b2 in roots:
            for r in rvecs:
                for s in rvecs:
                    for name, factors, terms in _flip_or_raise(
                            pair_relation(shared, b1, b2, r, s)):
                        rel = DeltaRelation(shared.z(b1, r), shared.z(b2, s),
                                            factors, terms)
                        got = holds(rel, states, W)
                        fresh = _a2()
                        for fname, ffactors, fterms in _flip_or_raise(
                                pair_relation(fresh, b1, b2, r, s)):
                            if fname == name:
                                ref = DeltaRelation(fresh.z(b1, r),
                                                    fresh.z(b2, s),
                                                    ffactors, fterms)
                        assert got == holds(ref, states, W), (name, b1, b2, r, s)
                        if not got[0]:
                            w = got[1]
                            assert check_state(rel, *w["modes"], w["state"]) \
                                == (False, w)
                        seen.add((name, got[0]))
                        rel.f = shared.z(tuple(-c for c in b1), rvecs[
                            (rvecs.index(r) + 1) % len(rvecs)])
                        again = holds(rel, states, W)
                        assert again == holds(DeltaRelation(
                            rel.f, rel.g, factors, terms), states, W)
                        moved += again != got
    assert seen == {("intact", True), ("flip", False), ("exp", False)}
    assert moved


def _relabelled_field(mod, field, tot):
    """The delta-term field, built at the multidegree tot instead."""
    if isinstance(field, ZeroModeTimesField):
        return ZeroModeTimesField(mod.space, field.vec,
                                  _relabelled_field(mod, field.base, tot))
    if isinstance(field, ZField):
        return mod.z(field.alpha, tot)
    if isinstance(field, HeisTimesXField):
        return mod.kf(1, tot)
    return mod.k0(tot)


def _corruptions(mod, rel, tot):
    """(name, terms, factors) for rel and its corrupted copies: the first
    delta term's sign flipped, the binomial exponents raised by 1, the
    ZeroModeTimesField vec negated, and the first, the last and each k_i
    (HeisTimesXField) delta term moved to another multidegree, so that
    its label differs from the products'."""
    terms = rel.rhs_terms
    out = [("intact", terms, rel.factors)]
    if terms:
        t = terms[0]
        out.append(("flip", [DeltaTerm(-t.coeff, t.a, t.field, t.use_D)]
                    + terms[1:], rel.factors))
    out.append(("exp", terms, [(c + 1, a) for c, a in rel.factors]))
    for i, t in enumerate(terms):
        if isinstance(t.field, ZeroModeTimesField):
            bad = ZeroModeTimesField(mod.space,
                                     tuple(-c for c in t.field.vec),
                                     t.field.base)
            out.append(("vec", terms[:i] + [DeltaTerm(t.coeff, t.a, bad)]
                        + terms[i + 1:], rel.factors))
    other = tuple(c + 1 for c in tot)
    for i in sorted({i for i, t in enumerate(terms)
                     if i in (0, len(terms) - 1)
                     or isinstance(t.field, HeisTimesXField)}):
        t = terms[i]
        moved = DeltaTerm(t.coeff, t.a,
                          _relabelled_field(mod, t.field, other), t.use_D)
        out.append(("label", terms[:i] + [moved] + terms[i + 1:],
                    rel.factors))
    return out


def test_the_folded_sweep_is_the_labelled_sweep():
    """On A2 at (2, 2, 1), one root pair of each inner-product class with
    r and s in default_rvecs, and the corrupted copies of _corruptions:
    on every window state the sweep of the two Z views, read from the
    dressings' product memo, gives the (ok, witness) of the same relation
    on Labelled operands, which have no view.  Each kind of corruption
    fails on some pair, a delta term at another multidegree too."""
    mod = _a2()
    win = TruncationWindow(2, 2, 1)
    states = window_states(mod.space, win)
    roots = [tuple(a) for a in mod.rs.roots]
    pairs = {}
    for b1 in roots:
        for b2 in roots:
            pairs.setdefault(mod.rs.form(b1, b2), (b1, b2))
    assert sorted(pairs) == [-2, -1, 1, 2]
    seen = set()
    for b1, b2 in pairs.values():
        for r in default_rvecs(mod.N):
            for s in default_rvecs(mod.N):
                rel = pair_relation(mod, b1, b2, r, s)
                tot = tuple(x + y for x, y in zip(r, s))
                for name, terms, factors in _corruptions(mod, rel, tot):
                    folded = DeltaRelation(rel.f, rel.g, factors, terms)
                    ref = DeltaRelation(Labelled(rel.f), Labelled(rel.g),
                                        factors, terms)
                    assert folded._sweep_plan()[5][2]
                    assert not ref._sweep_plan()[5][2]
                    fails = 0
                    for v in states:
                        got = folded.check_window(win.modes, v)
                        assert got == ref.check_window(win.modes, v), \
                            (name, b1, b2, r, s, v)
                        fails += not got[0]
                    seen.add((name, fails > 0))
    assert seen >= {("intact", False), ("flip", True), ("exp", True),
                    ("vec", True), ("label", True)}
