import random
from collections import Counter
from fractions import Fraction

import pytest

from field_oracle import (Monomial, Tuples, check_state, comb_eq, ref_max_mode,
                          ref_mode, z_factor)
from torlab.checks import default_rvecs
from torlab.distops import (MODE_BITS, MODE_MASK, DeltaRelation, DeltaTerm,
                            ExpField, FieldFamily, FockSpace, HeisenbergField,
                            IdentityField, ProductField, TruncationWindow,
                            _acc, _scalar, binomial_coefficient,
                            binomial_factor, comb_scale, comb_sub,
                            dressing_operator, partitions,
                            product_of_binomials, series_mul)
from torlab.fockhom import HomogeneousModule, window_states
from torlab.fockprin import PrincipalModule, negation_theta
from torlab.rootsys import build_root_system
from torlab.scalar import Cyc, cyc_root_of_unity
from torlab.zbridge import (from_Zmodule, homogeneous_Ck, roundtrip_check,
                            to_Zmodule)


def test_truncation_window():
    w = TruncationWindow(3, 3, 2)
    assert (w.modes, w.degree, w.support) == (3, 3, 2)


def test_binomial_coefficient_values():
    assert binomial_coefficient(Fraction(2), 2) == 1
    assert binomial_coefficient(Fraction(2), 3) == 0
    assert binomial_coefficient(Fraction(-1), 3) == -1
    assert binomial_coefficient(Fraction(1, 2), 2) == Fraction(-1, 8)


def test_binomial_factor_examples():
    # (1 - u)^2 terminates
    assert binomial_factor(2, 1, 4) == [Cyc.rational(q) for q in (1, -2, 1, 0, 0)]
    # (1 - a u)^(-1) is the geometric series in a
    a = cyc_root_of_unity(4, 1)
    got = binomial_factor(-1, a, 3)
    assert got == [Cyc.one(), a, a * a, a * a * a]
    # square root squares back
    half = binomial_factor(Fraction(1, 2), 1, 6)
    sq = series_mul(half, half, 6)
    assert sq == binomial_factor(1, 1, 6)
    # product over factors multiplies exponents
    assert (product_of_binomials([(1, Cyc.one()), (1, Cyc.one())], 5)
            == binomial_factor(2, 1, 5))


def test_one_scalar_rule():
    """_scalar gives an int for an integral rational, a Fraction for any
    other rational and the Cyc itself otherwise; comb_scale hands back
    its argument at a unit scale."""
    i = cyc_root_of_unity(4, 1)
    for x, want, kind in [(3, 3, int), (Fraction(6, 2), 3, int),
                          (Fraction(1, 2), Fraction(1, 2), Fraction),
                          (Cyc.rational(4), 4, int),
                          (Cyc.rational(Fraction(-1, 3)), Fraction(-1, 3),
                           Fraction),
                          (i, i, Cyc)]:
        got = _scalar(x)
        assert got == want and type(got) is kind
    assert _scalar(i) is i
    image = {1: 2, 5: Fraction(1, 3)}
    for one in (1, Fraction(1), Cyc.one()):
        assert comb_scale(image, one) is image
    assert comb_scale(image, Fraction(2)) == {1: 4, 5: Fraction(2, 3)}
    assert type(comb_scale(image, Fraction(2))[1]) is int


def test_partition_counts():
    counts = [len(partitions(n)) for n in range(10)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def _rank2_space(scale=1, weight=1):
    # two paired directions (a, b) with (a,b) = 1, plus (a,a) = 2
    gram = [[2, 1], [1, 0]]
    return FockSpace(gram, [0, 1], mode_scale=scale, weight=weight)


def _random_state(space, rng, depth=3):
    label = tuple(rng.randint(-2, 2) for _ in range(space.dim))
    modes = tuple(sorted((rng.randrange(space.dim), rng.randint(1, 3))
                         for _ in range(rng.randint(0, depth))))
    return (label, modes)


def test_heisenberg_commutation():
    space = _rank2_space(scale=Fraction(3))
    rng = random.Random(20260825)
    vecs = [(1, 0), (0, 1), (1, -2)]
    act = Tuples(space).heisenberg_act
    for _ in range(40):
        v = _random_state(space, rng)
        comb = {v: Cyc.one()}
        n = rng.randint(1, 3)
        for u in vecs:
            for w in vecs:
                ab = act(u, n, act(w, -n, comb))
                ba = act(w, -n, act(u, n, comb))
                diff = comb_sub(ab, ba)
                expect = {v: Cyc.rational(n * Fraction(3) * space.pair(u, w))}
                assert comb_eq(diff, {k: c for k, c in expect.items() if c})


def test_degree_grading():
    space = _rank2_space()
    v = ((1, -1), ((0, 2), (1, 1)))
    # -(gamma,gamma)/2 - sum(n) with (gamma,gamma) = 2 - 2 + 0 = 0
    assert space.degree(v) == -3
    spacew = _rank2_space(weight=2)
    assert spacew.degree(v) == -6
    # heisenberg_act(n) shifts degree by n * weight
    out = Tuples(spacew).heisenberg_act((1, 0), -2, {v: Cyc.one()})
    assert all(spacew.degree(s) == spacew.degree(v) - 4 for s in out)


def test_exp_field_low_modes():
    space = _rank2_space()
    vac = space.vacuum()
    c = Fraction(2)
    em = Monomial(ExpField(space, (1, 0), -c, -1))
    # mode 0 is the identity
    assert comb_eq(em.mode_state(0, vac), {vac: Cyc.one()})
    # mode -1: -c * a(-1)
    got = em.mode_state(-1, vac)
    assert comb_eq(got, {((0, 0), ((0, 1),)): Cyc.rational(-c)})
    # mode -2: -c/2 * a(-2) + c^2/2 * a(-1)^2
    got = em.mode_state(-2, vac)
    s1 = ((0, 0), ((0, 2),))
    s2 = ((0, 0), ((0, 1), (0, 1)))
    assert comb_eq(got, {s1: Cyc.rational(-c / 2), s2: Cyc.rational(c * c / 2)})
    # annihilation side is the identity on the vacuum
    ep = Monomial(ExpField(space, (1, 0), c, 1))
    assert ep.max_mode(vac) == 0
    assert comb_eq(ep.mode_state(0, vac), {vac: Cyc.one()})


def test_dressing_operator_wrapper():
    space = _rank2_space()
    em = Tuples(dressing_operator(space, -1, (1, 0), 2, m=4))
    vac = space.vacuum()
    got = em.mode_state(-1, vac)
    assert comb_eq(got, {((0, 0), ((0, 1),)): Cyc.rational(Fraction(-2))})


def test_exponential_exchange_identity():
    """E^+(b, z1) E^-(g, z2) = (1 - z1/z2)^c E^-(g, z2) E^+(b, z1)
    with c = -c_plus * c_minus * scale * (b, g), checked exactly."""
    rng = random.Random(99)
    for scale in (1, 2):
        space = _rank2_space(scale=scale)
        for bvec, gvec in [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((1, -1), (2, 1))]:
            cp = Fraction(1, 2)
            cm = Fraction(-3, 2)
            ep = Tuples(ExpField(space, bvec, cp, 1))
            em = Tuples(ExpField(space, gvec, cm, -1))
            c = -cp * cm * scale * space.pair(bvec, gvec)
            for _ in range(6):
                v = _random_state(space, rng)
                comb = {v: Cyc.one()}
                for A in range(0, 4):
                    for B in range(-3, 1):
                        lhs = ep.mode(A, em.mode(B, comb))
                        coefs = binomial_factor(c, 1, A)
                        rhs = {}
                        for n in range(A + 1):
                            if coefs[n]:
                                mid = ep.mode(A - n, comb)
                                if mid:
                                    for k, val in em.mode(B + n, mid).items():
                                        rhs[k] = rhs.get(k, Cyc.zero()) + val * coefs[n]
                        rhs = {k: val for k, val in rhs.items() if val}
                        assert comb_eq(lhs, rhs), (bvec, gvec, A, B, v)


def test_heisenberg_two_point_relation():
    """h(z1) h(z2) - h(z2) h(z1) = scale * (h,h) * Ddelta(z1/z2)."""
    for scale in (1, 3):
        space = _rank2_space(scale=scale)
        h = HeisenbergField(space, (1, 0))
        rel = DeltaRelation(h, h, [], [
            DeltaTerm(Cyc.rational(scale * space.pair((1, 0), (1, 0))),
                      Cyc.one(), IdentityField(), use_D=True)])
        rng = random.Random(5)
        for _ in range(8):
            v = _random_state(space, rng)
            for a in range(-2, 3):
                for b in range(-2, 3):
                    ok, witness = check_state(rel, a, b, v)
                    assert ok, witness


def test_weighted_modes():
    # principal-style fields: exponents are multiples of the weight
    space = _rank2_space(weight=3)
    h = Tuples(HeisenbergField(space, (1, 0)))
    vac = space.vacuum()
    assert h.mode_state(-1, vac) == {}
    got = h.mode_state(-3, vac)
    assert comb_eq(got, {((0, 0), ((0, 1),)): Cyc.one()})
    em = Tuples(ExpField(space, (1, 0), Fraction(1), -1))
    assert em.mode_state(-2, vac) == {}
    assert comb_eq(em.mode_state(-3, vac), {((0, 0), ((0, 1),)): Cyc.one()})


def _composite_fields(win):
    """The x, x', b' and k fields of A1 at N = 2 and of its roundtrip
    through the Z-algebra, and the products Z(beta, 0) Z(beta, e_1),
    whose left factor's z-exponent moves with the label the right one
    leaves."""
    mod = HomogeneousModule(build_root_system("A", 1), 2)
    V = homogeneous_Ck(mod)
    back = from_Zmodule(to_Zmodule(V, win))
    zero, e1 = (0, 0), (1, 0)
    hvec = V.root_vec(V.rs.simple_roots[0])
    fields = []
    for beta in (V.rs.roots[0], V.rs.roots[-1]):
        fields += [V.x(beta, zero), V.x(beta, e1), back.x(beta, zero),
                   back.x(beta, e1),
                   ProductField(mod.z(beta, zero), mod.z(beta, e1))]
    fields += [back.beta_field(hvec, zero), back.beta_field(hvec, e1),
               V.kf(1, e1), back.kf(0, e1), back.kf(1, zero), back.kf(2, e1)]
    return V.space, fields


def _principal_products():
    """The products checks.dk_relations builds on principal A1 at m = 2,
    a space of weight 2: Z(beta, r) k_0(s), Z = C k_0 with C = 1/4, and
    k_0(r) k_1(s), for r, s in default_rvecs."""
    mod = PrincipalModule(build_root_system("A", 1), 1, 2, negation_theta,
                          constants=Fraction(1, 4))
    beta = mod.rs.roots[0]
    fields = []
    for r in default_rvecs(mod.N):
        for s in default_rvecs(mod.N):
            fields += [ProductField(mod.z(beta, r), mod.k0(s)),
                       ProductField(mod.k0(r), mod.kf(1, s))]
    return mod.space, fields


def test_composite_caches_match_uncached_oracle():
    """Per-state caps and in-place merges of the composite fields agree
    with a recomputation that keeps no per-field cache and sums with
    comb_add, on two fresh builds whose window states are visited in
    opposite orders: the A1 fields of _composite_fields at (2, 2, 1),
    and the weight-2 principal products at (6, 4, 1), where the core
    exponent of k_0 is -2(delta, label)."""
    inputs = [(_composite_fields, TruncationWindow(2, 2, 1), 10000),
              (lambda _win: _principal_products(), TruncationWindow(6, 4, 1),
               5000)]
    for visit in (list, lambda states: states[::-1]):
        for build, win, least in inputs:
            lo = -2 * win.modes
            space, fields = build(win)
            seen = {}
            cells = 0
            for v in visit(window_states(space, win)):
                for f in fields:
                    hi = Tuples(f).max_mode(v)
                    assert hi == ref_max_mode(f, v), (f.label, v)
                    for n in range(lo, hi + 1):
                        got = Tuples(f).mode_memo(n, v)
                        assert comb_eq(got, ref_mode(f, n, v, seen)), \
                            (f.label, v, n)
                        cells += len(got)
            assert cells > least


def _memo_product_image(field, n, sid):
    """ProductField's mode n on sid with g read through g.mode_memo, the
    relabelled dict, and f applied to it by f.mode."""
    fcap = field.f.max_mode(field.space.shifted(sid, field.g.shift))
    out = {}
    for q in range(n - fcap, field.g.max_mode(sid) + 1):
        mid = field.g.mode_memo(q, sid)
        if mid:
            for k, v in field.f.mode(n - q, mid).items():
                _acc(out, k, v)
    if field.scale is not None:
        out = comb_scale(out, field.scale)
    return out


def _product_nodes(field, out):
    """Every ProductField reachable from field through its factors, bases
    and X parts, keyed by id."""
    if isinstance(field, ProductField):
        out[id(field)] = field
    for name in ("f", "g", "base", "x"):
        sub = getattr(field, name, None)
        if isinstance(sub, FieldFamily):
            _product_nodes(sub, out)
    return out


@pytest.mark.parametrize("rank", [1, 2])
def test_product_reads_its_right_factor_through_parts(rank):
    """Every ProductField inside the x fields of homogeneous_Ck and of
    from_Zmodule(to_Zmodule(.)), and inside h Z(alpha, r) for each root
    alpha, gives on the labelled window states the image of g read
    through mode_memo, key order included.  Some g puts label bits on
    and some Z puts the cocycle sign -1 on."""
    win = TruncationWindow(2, 2, 1)
    W = win.modes
    mod = HomogeneousModule(build_root_system("A", rank), 1)
    V = homogeneous_Ck(mod)
    back = from_Zmodule(to_Zmodule(V, win))
    h = HeisenbergField(mod.space, V.root_vec(V.rs.simple_roots[0]))
    nodes = {}
    for beta in V.rs.roots:
        for rvec in default_rvecs(V.N)[:2]:
            for f in (V.x(beta, rvec), back.x(beta, rvec),
                      ProductField(h, mod.z(beta, rvec))):
                _product_nodes(f, nodes)
    states = [mod.space.sid(v) for v in window_states(mod.space, win)]
    assert any(sid > MODE_MASK for sid in states)
    seen = set()
    cells = 0
    for node in nodes.values():
        for sid in states:
            for q in range(-W, node.g.max_mode(sid) + 1):
                hi, sign, _image = node.g.mode_parts(q, sid)
                seen.add((bool(hi), sign))
            for n in range(-W, node.max_mode(sid) + 1):
                got = node.mode_memo(n, sid)
                want = _memo_product_image(node, n, sid)
                assert list(got.items()) == list(want.items()), (
                    node.label, mod.space.state_of(sid), n)
                cells += len(got)
    assert (True, 1) in seen and (True, -1) in seen
    assert cells > 1000


def _id_spaces():
    """(space, window states) of homogeneous A1 and A2 at (2,2,1), of
    principal A1 with m = 2 at (6,4,1), and of the A1 space after a
    roundtrip through the Z-algebra has interned its own states first."""
    win = TruncationWindow(2, 2, 1)
    out = []
    for rank in (1, 2):
        space = HomogeneousModule(build_root_system("A", rank), 1).space
        out.append((space, window_states(space, win)))
    prin = PrincipalModule(build_root_system("A", 1), 1, 2, negation_theta)
    out.append((prin.space, window_states(prin.space, TruncationWindow(6, 4, 1))))
    ck = homogeneous_Ck(HomogeneousModule(build_root_system("A", 1), 1))
    roundtrip_check(ck, win)
    out.append((ck.space, window_states(ck.space, win)))
    return out


def test_state_ids_round_trip_and_transitions():
    """sid and state_of invert each other on every window state, distinct
    states get distinct ids, and the add-mode, remove-mode, join,
    multiset-difference, z and label-shift transitions agree with the
    same operations on tuples."""
    for space, states in _id_spaces():
        sids = [space.sid(v) for v in states]
        assert len(set(sids)) == len(states)
        vecs = [space.dir_vec(i) for i in range(space.dim)]
        vecs += [tuple(-c for c in vec) for vec in vecs]
        vecs.append(tuple(range(1, space.dim + 1)))
        for v, sid in zip(states, sids):
            label, modes = v
            assert space.state_of(sid) == v
            mid = sid & MODE_MASK
            assert space.modes_of(mid) == modes
            for d in space.heis_dirs:
                for j in (1, 2, 3):
                    new = tuple(sorted(modes + ((d, j),)))
                    got, mult = space.created(mid, d, j)
                    assert (space.modes_of(got), mult) == (new, new.count((d, j)))
            want = [(d, j, modes.count((d, j)),
                     modes[:i] + modes[i + 1:])
                    for i, (d, j) in enumerate(modes)
                    if not i or modes[i - 1] != (d, j)]
            got = [(d, j, count, space.modes_of(rest))
                   for d, j, count, rest in space.removable(mid)]
            assert got == want
            assert space.z(mid) == z_factor(modes)
            for other in states[:5]:
                omid = space.sid(other) & MODE_MASK
                joined = space.joined(mid, omid)
                assert space.modes_of(joined) == tuple(sorted(modes + other[1]))
                assert space.removed(joined, omid) == mid
                inside = not Counter(other[1]) - Counter(modes)
                assert (space.removed(mid, omid) is not None) == inside
            for vec in vecs:
                shifted = tuple(a + b for a, b in zip(label, vec))
                assert space.state_of(space.shifted(sid, vec)) == (shifted, modes)
                assert space.label_pair(vec, sid >> MODE_BITS) == \
                    space.pair(vec, label)
