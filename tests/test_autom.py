import random

import pytest

from torlab.autom import (TwistData, affine_marks,
                          automorphism_from_generator_images,
                          diagram_automorphism, eigenspace_decompose, eta,
                          identity_automorphism, untwisted_affine_cartan)
from torlab.rootsys import ChevalleyAlgebra, GElement, build_root_system
from torlab.scalar import Cyc, cyc_root_of_unity


def test_identity_decomposition():
    alg = ChevalleyAlgebra(build_root_system("A", 2))
    aut = identity_automorphism(alg)
    x = GElement.x(alg.rs.simple_roots[0]) + GElement.h(alg.rs.simple_roots[1])
    assert eigenspace_decompose(aut, x) == [(0, x)]


def test_diagram_automorphism_a2():
    alg = ChevalleyAlgebra(build_root_system("A", 2))
    aut = diagram_automorphism(alg, [1, 0], 2)
    aut.validate()
    assert aut.order == 2
    perm = aut.root_permutation()
    assert perm is not None
    a0, a1 = alg.rs.simple_roots
    assert perm[a0] == a1


def test_diagram_automorphism_a3():
    alg = ChevalleyAlgebra(build_root_system("A", 3))
    aut = diagram_automorphism(alg, [2, 1, 0], 2)
    aut.validate()


def test_eigenspace_projector_reassembles():
    alg = ChevalleyAlgebra(build_root_system("A", 2))
    aut = diagram_automorphism(alg, [1, 0], 2)
    rng = random.Random(5)
    for _ in range(100):
        x = GElement()
        for _ in range(3):
            sym = alg.symbols[rng.randrange(alg.dim)]
            x = x + GElement({sym: Cyc.rational(rng.randint(-3, 3))})
        comps = eigenspace_decompose(aut, x)
        total = GElement()
        for i, comp in comps:
            total = total + comp
            got = aut.apply(comp)
            assert got == comp.scale(cyc_root_of_unity(2, i))
        assert total == x


def test_eta_chain_rule():
    alg = ChevalleyAlgebra(build_root_system("A", 2))
    aut = diagram_automorphism(alg, [1, 0], 2)
    perm = aut.root_permutation()
    for beta in alg.rs.roots:
        assert eta(aut, 0, beta) == 1
        for p in range(2):
            for q in range(2):
                tq = beta
                for _ in range(q):
                    tq = perm[tq]
                assert eta(aut, p + q, beta) == eta(aut, p, tq) * eta(aut, q, beta)


def test_eta_identity_automorphism():
    alg = ChevalleyAlgebra(build_root_system("A", 1))
    aut = identity_automorphism(alg)
    for p in range(3):
        assert eta(aut, p, alg.rs.roots[0]) == 1


def test_affine_marks_a1():
    marks, comarks = affine_marks([[2, -2], [-2, 2]])
    assert marks == [1, 1]
    assert comarks == [1, 1]


def test_affine_marks_a_ell():
    for ell in (2, 3, 4):
        rs = build_root_system("A", ell)
        marks, comarks = affine_marks(untwisted_affine_cartan(rs))
        assert marks == [1] * (ell + 1)
        assert comarks == [1] * (ell + 1)
        assert marks[0] == 1


def test_affine_marks_d4():
    rs = build_root_system("D", 4)
    marks, comarks = affine_marks(untwisted_affine_cartan(rs))
    assert marks[0] == 1
    assert sum(marks) == 6  # Coxeter number of D4
    cart = untwisted_affine_cartan(rs)
    for i in range(5):
        assert sum(cart[i][j] * marks[j] for j in range(5)) == 0


def test_corank_error():
    with pytest.raises(ValueError):
        affine_marks([[2, -1], [-1, 2]])


def coxeter_lift_a2(alg):
    """The order-3 lift of A2's Coxeter element: x_(+-a1) -> x_(+-a2) and
    x_(+-a2) -> x_(-+(a1 + a2)), all signs +1.  It sends some roots to
    non-simple roots, in two orbits of three."""
    a1, a2 = alg.rs.simple_roots
    s = tuple(x + y for x, y in zip(a1, a2))

    def neg(b):
        return tuple(-c for c in b)

    pairs = [(GElement.x(a1), GElement.x(a2)),
             (GElement.x(neg(a1)), GElement.x(neg(a2))),
             (GElement.x(a2), GElement.x(neg(s))),
             (GElement.x(neg(a2)), GElement.x(s))]
    return automorphism_from_generator_images(alg, pairs, 3).validate()


def _twisted_automorphisms():
    """The Coxeter lift of A2 and every diagram automorphism the toroidal
    sweeps run on: A2 1,0, A3 2,1,0, D4 0,1,3,2 and the D4 triality."""
    a2 = ChevalleyAlgebra(build_root_system("A", 2))
    yield coxeter_lift_a2(a2)
    yield diagram_automorphism(a2, [1, 0], 2)
    yield diagram_automorphism(ChevalleyAlgebra(build_root_system("A", 3)),
                               [2, 1, 0], 2)
    d4 = ChevalleyAlgebra(build_root_system("D", 4))
    yield diagram_automorphism(d4, [0, 1, 3, 2], 2)
    yield diagram_automorphism(d4, [2, 1, 3, 0], 3)


def test_twist_of_an_automorphism_is_its_theta_data():
    """TwistData.of(aut): aut^p sends x_b to eta_p(b) x_(theta^p b) and
    h_b to h_(theta^p b); theta has order m on roots; eta obeys the
    chain rule; and theta^p preserves the form, so the twisted Cartan
    pairing <theta^p h_b1, h_b2> is the root form (theta^p b1, b2)."""
    for aut in _twisted_automorphisms():
        alg, rs = aut.alg, aut.alg.rs
        tw = TwistData.of(aut)
        assert tw.m == aut.order
        orbits = tw.orbits(rs.roots)
        assert sorted(b for orbit in orbits for b in orbit) == sorted(rs.roots)
        assert all(tw.theta_root(1, orbit[-1]) == orbit[0] for orbit in orbits)
        for b in rs.roots:
            walk = b
            for p in range(tw.m):
                assert tw.theta_root(p, b) == walk
                img = aut.power(p)
                assert img.apply(GElement.x(b)) == \
                    GElement.x(walk).scale(tw.eta(p, b))
                assert img.apply(GElement.h(b)) == GElement.h(walk)
                walk = tw.theta_root(1, walk)
            assert walk == b
            for p in range(tw.m):
                for q in range(tw.m):
                    assert tw.eta(p + q, b) == \
                        tw.eta(p, tw.theta_root(q, b)) * tw.eta(q, b)
                for b2 in rs.roots:
                    assert rs.form(tw.theta_root(p, b), tw.theta_root(p, b2)) \
                        == rs.form(b, b2)
                    assert alg.form(aut.power(p).apply(GElement.h(b)),
                                    GElement.h(b2)) == \
                        rs.form(tw.theta_root(p, b), b2)


def test_twist_of_the_identity_is_the_identity_twist():
    for kind, rank in (("A", 1), ("A", 2), ("D", 4)):
        alg = ChevalleyAlgebra(build_root_system(kind, rank))
        tw = TwistData.of(identity_automorphism(alg))
        assert tw.m == 1
        for b in alg.rs.roots:
            for p in range(3):
                assert tw.theta_root(p, b) == b
                assert tw.eta(p, b) == 1


def test_twist_of_an_automorphism_off_the_root_lines_is_refused():
    alg = ChevalleyAlgebra(build_root_system("A", 1))
    a = alg.rs.roots[0]
    aut = identity_automorphism(alg)
    aut.action[("x", a)] = GElement.x(a) + GElement.h(a)
    with pytest.raises(ValueError, match="root lines"):
        TwistData.of(aut)
