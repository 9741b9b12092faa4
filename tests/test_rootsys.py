import itertools
import random

import pytest

from torlab.rootsys import (ChevalleyAlgebra, GElement, Lattice,
                            build_root_system)
from torlab.scalar import Cyc


def brute_force_roots(rs, radius=3):
    # independent oracle: every lattice vector of norm 2 in a box
    out = []
    for v in itertools.product(range(-radius, radius + 1), repeat=rs.rank):
        if rs.form(v, v) == 2:
            out.append(v)
    return sorted(out)


def test_root_counts_against_box_oracle():
    a2 = build_root_system("A", 2)
    assert sorted(a2.roots) == brute_force_roots(a2)
    assert len(a2.roots) == 6
    d4 = build_root_system("D", 4)
    assert sorted(d4.roots) == brute_force_roots(d4)
    assert len(d4.roots) == 24


def test_a1_roots():
    a1 = build_root_system("A", 1)
    assert set(a1.roots) == {(1,), (-1,)}


def test_invalid_type_rejected():
    with pytest.raises(ValueError):
        build_root_system("B", 2)
    with pytest.raises(ValueError):
        build_root_system("E", 9)


def _basis_and_sums(lat):
    basis = [tuple(1 if j == i else 0 for j in range(lat.dim)) for i in range(lat.dim)]
    sums = [tuple(x + y for x, y in zip(a, b))
            for a, b in itertools.combinations(basis, 2)]
    return basis + sums


def cocycle_axioms_hold(lat, vectors):
    for a in vectors:
        assert lat.eps(a, a) == (-1) ** ((lat.form(a, a) // 2) % 2)
        for b in vectors:
            assert lat.eps(a, b) * lat.eps(b, a) == (-1) ** (lat.form(a, b) % 2)
            for c in vectors[:6]:
                ab = tuple(x + y for x, y in zip(a, b))
                bc = tuple(x + y for x, y in zip(b, c))
                assert lat.eps(ab, c) == lat.eps(a, c) * lat.eps(b, c)
                assert lat.eps(a, bc) == lat.eps(a, b) * lat.eps(a, c)


def test_cocycle_axioms_a2_d4_extended():
    for kind, rank in (("A", 2), ("D", 4)):
        lat = Lattice(build_root_system(kind, rank), 2)
        cocycle_axioms_hold(lat, _basis_and_sums(lat))


def test_cocycle_values_on_roots():
    rs = build_root_system("A", 2)
    lat = Lattice(rs, 1)
    for a in rs.roots:
        av = lat.embed_root(a)
        neg = tuple(-x for x in av)
        assert lat.eps(av, av) == -1
        assert lat.eps(av, neg) == -1
        assert lat.eps((0,) * lat.dim, av) == 1
        # the extension convention forces eps(alpha, delta_r) = 1
        for r in ((1,), (-1,), (2,)):
            assert lat.eps(av, lat.delta(r)) == 1


def test_chevalley_bracket_examples():
    rs = build_root_system("A", 2)
    alg = ChevalleyAlgebra(rs)
    a = rs.simple_roots[0]
    na = tuple(-x for x in a)
    got = alg.bracket(GElement.x(a), GElement.x(na))
    assert got == GElement.h(a).scale(-1)
    # [h, x_a] = (h, a) x_a
    got = alg.bracket(GElement.h(a), GElement.x(a))
    assert got == GElement.x(a).scale(2)
    # a + a is never a root
    assert alg.bracket(GElement.x(a), GElement.x(a)).is_zero()


def test_invariant_form_values():
    rs = build_root_system("A", 2)
    alg = ChevalleyAlgebra(rs)
    a = rs.simple_roots[0]
    b = rs.simple_roots[1]
    na = tuple(-x for x in a)
    assert alg.form(GElement.h(a), GElement.h(a)) == 2
    assert alg.form(GElement.x(a), GElement.x(b)) == 0
    assert alg.form(GElement.x(a), GElement.x(na)) == -1
    # the normalization solves <[x_a, x_-a], h_a> = <x_a, [x_-a, h_a]>
    lhs = alg.form(alg.bracket(GElement.x(a), GElement.x(na)), GElement.h(a))
    rhs = alg.form(GElement.x(a), alg.bracket(GElement.x(na), GElement.h(a)))
    assert lhs == rhs


def _random_element(alg, rng):
    out = GElement()
    for _ in range(3):
        sym = alg.symbols[rng.randrange(alg.dim)]
        out = out + GElement({sym: Cyc.rational(rng.randint(-3, 3))})
    return out


def test_jacobi_and_antisymmetry_a2_exhaustive():
    rs = build_root_system("A", 2)
    alg = ChevalleyAlgebra(rs)
    basis = [GElement({s: Cyc.one()}) for s in alg.symbols]
    for u in basis:
        for v in basis:
            assert alg.bracket(u, v) == alg.bracket(v, u).scale(-1)
    for u, v, w in itertools.product(basis, repeat=3):
        acc = (alg.bracket(u, alg.bracket(v, w))
               + alg.bracket(v, alg.bracket(w, u))
               + alg.bracket(w, alg.bracket(u, v)))
        assert acc.is_zero()


def test_jacobi_d4_random():
    rs = build_root_system("D", 4)
    alg = ChevalleyAlgebra(rs)
    rng = random.Random(1234)
    for _ in range(100):
        u, v, w = (_random_element(alg, rng) for _ in range(3))
        acc = (alg.bracket(u, alg.bracket(v, w))
               + alg.bracket(v, alg.bracket(w, u))
               + alg.bracket(w, alg.bracket(u, v)))
        assert acc.is_zero()


def test_form_invariance_random():
    rs = build_root_system("D", 4)
    alg = ChevalleyAlgebra(rs)
    rng = random.Random(99)
    for _ in range(200):
        u, v, w = (_random_element(alg, rng) for _ in range(3))
        assert alg.form(alg.bracket(u, v), w) == alg.form(u, alg.bracket(v, w))


def test_equality_with_a_foreign_operand_is_false():
    x = GElement.x((1,))
    assert not x == "k"
    assert x != "k"
    assert "k" in [x, "k"] and [x, "k"].index("k") == 1
    assert x == GElement.x((1,)).scale(Cyc.one())
