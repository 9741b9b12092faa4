import random
from fractions import Fraction

from test_autom import coxeter_lift_a2
from torlab.autom import diagram_automorphism, identity_automorphism
from torlab.rootsys import (ChevalleyAlgebra, GElement, LinearCombination,
                            build_root_system)
from torlab.scalar import Cyc, cyc_root_of_unity
from torlab.toroidal import (GeneratingRelationVerifier, TorElement,
                             ToroidalAlgebra, apply_loop_automorphism)


def _a1_untwisted():
    alg = ChevalleyAlgebra(build_root_system("A", 1))
    return ToroidalAlgebra(alg, identity_automorphism(alg), 1)


def test_bracket_example_a1():
    tor = _a1_untwisted()
    a = tor.alg.rs.roots[1]  # (1,)
    na = tor.alg.rs.roots[0]
    lhs = tor.bracket(tor.loop(GElement.x(a), 1, (2,)),
                      tor.loop(GElement.x(na), -1, (-2,)))
    expect = (tor.loop(GElement.h(a), 0, (0,)).scale(-1)
              + tor.central(0, 0, (0,)).scale(-1)
              + tor.central(1, 0, (0,)).scale(-2))
    assert lhs == expect


def test_central_terms_are_central():
    tor = _a1_untwisted()
    k = tor.central(1, 2, (1,))
    x = tor.loop(GElement.x(tor.alg.rs.roots[0]), 3, (1,))
    assert tor.bracket(k, x).is_zero()
    assert tor.bracket(x, k).is_zero()


def test_derivation_action():
    tor = _a1_untwisted()
    x = tor.loop(GElement.x(tor.alg.rs.roots[0]), 2, (3,))
    assert tor.bracket(tor.deriv(1), x) == x.scale(3)
    assert tor.bracket(tor.deriv(0), x) == x.scale(2)


def test_normalize_examples():
    tor = _a1_untwisted()
    # the relation element itself dies
    rel = (TorElement({("k", 0, 2, (3,)): Cyc.rational(Fraction(2, 1))})
           + TorElement({("k", 1, 2, (3,)): Cyc.rational(3)}))
    assert tor.normalize_dA(rel).is_zero()
    # k_i at multidegree zero survives untouched
    k = TorElement({("k", 1, 0, (0,)): Cyc.one()})
    assert tor.normalize_dA(k) == k
    # m=1, N=1: k_0 at (1,(1)) becomes -k_1
    got = tor.normalize_dA(TorElement({("k", 0, 1, (1,)): Cyc.one()}))
    assert got == TorElement({("k", 1, 1, (1,)): Cyc.rational(-1)})
    assert tor.normalize_dA(got) == got


def _configs():
    alg1 = ChevalleyAlgebra(build_root_system("A", 1))
    yield ToroidalAlgebra(alg1, identity_automorphism(alg1), 2)
    alg2 = ChevalleyAlgebra(build_root_system("A", 2))
    yield ToroidalAlgebra(alg2, diagram_automorphism(alg2, [1, 0], 2), 1)


def random_element(tor, rng):
    out = TorElement()
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        r0 = rng.randint(-3, 3)
        rvec = tuple(rng.randint(-2, 2) for _ in range(tor.N))
        if kind < 0.6:
            sym = tor.alg.symbols[rng.randrange(tor.alg.dim)]
            g = GElement({sym: Cyc.rational(rng.randint(-2, 2))})
            out = out + tor.loop_component(g, r0, rvec)
        elif kind < 0.85:
            i = rng.randint(0, tor.N)
            r0 -= r0 % tor.m
            out = out + tor.normalize_dA(
                TorElement({("k", i, r0, rvec): Cyc.rational(rng.randint(-2, 2))}))
        else:
            out = out + tor.deriv(rng.randint(0, tor.N)).scale(rng.randint(-2, 2))
    return out


def test_antisymmetry_and_jacobi_random():
    for tor in _configs():
        rng = random.Random(424242)
        for _ in range(60):
            a, b, c = (random_element(tor, rng) for _ in range(3))
            assert (tor.bracket(a, b) + tor.bracket(b, a)).is_zero()
            acc = (tor.bracket(a, tor.bracket(b, c))
                   + tor.bracket(b, tor.bracket(c, a))
                   + tor.bracket(c, tor.bracket(a, b)))
            assert acc.is_zero()


def test_theta_fixed_closure():
    alg = ChevalleyAlgebra(build_root_system("A", 2))
    tor = ToroidalAlgebra(alg, diagram_automorphism(alg, [1, 0], 2), 1)
    rng = random.Random(11)
    for _ in range(30):
        a = random_element(tor, rng)
        b = random_element(tor, rng)
        br = tor.bracket(a, b)
        assert tor.normalize_dA(apply_loop_automorphism(tor.aut, br)) == br


def test_generating_relations_small_window():
    for tor in _configs():
        ver = GeneratingRelationVerifier(tor, 2)
        rvec = (1,) + (0,) * (tor.N - 1)
        svec = (-1,) + (0,) * (tor.N - 1)
        roots = tor.alg.rs.roots
        pairs = [(roots[0], roots[0]), (roots[0], roots[-1]), (roots[-1], roots[0])]
        entries = ver.run(rvec, svec, root_pairs=pairs)
        bad = [e for e in entries if e[2] != "pass"]
        assert not bad, bad[:3]


def test_generating_relations_on_a_rescaled_form():
    """1.5(1)-(8) hold when the bracket's invariant form is rescaled, by
    a rational or by an irrational scalar: the central terms of 1.5(1)
    and 1.5(2) carry the same scale as the bracket."""
    alg = ChevalleyAlgebra(build_root_system("A", 2))
    theta = diagram_automorphism(alg, [1, 0], 2)
    for scale in (Cyc.rational(2), cyc_root_of_unity(3, 1)):
        tor = ToroidalAlgebra(alg, theta, 1, form_scale=scale)
        entries = GeneratingRelationVerifier(tor, 2).run((1,), (0,))
        assert {e[0] for e in entries} == {"1.5(%d)" % i for i in range(1, 9)}
        bad = [e for e in entries if e[2] != "pass"]
        assert not bad, (scale, bad[:3])


def test_generating_relations_on_the_coxeter_lift_of_a2():
    """1.5(1)-(8) at m = 3, on a theta that sends simple roots to
    non-simple roots: every root pair, window 2."""
    alg = ChevalleyAlgebra(build_root_system("A", 2))
    tor = ToroidalAlgebra(alg, coxeter_lift_a2(alg), 1)
    assert tor.m == 3
    entries = GeneratingRelationVerifier(tor, 2).run((1,), (0,))
    assert {e[0] for e in entries} == {"1.5(%d)" % i for i in range(1, 9)}
    bad = [e for e in entries if e[2] != "pass"]
    assert not bad, bad[:3]
    pairs = [e for e in entries if e[0] in ("1.5(1)", "1.5(2)", "1.5(3)")]
    assert len(pairs) == 3 * 6 * 6 * 5 * 5


def test_both_element_classes_take_their_operations_from_one_class():
    """GElement and TorElement define none of the operations of
    LinearCombination, and each operation returns the operand's class."""
    shared = {"__init__", "__add__", "__sub__", "__neg__", "scale",
              "is_zero", "__eq__", "__repr__"}
    g = GElement.x((1,))
    t = TorElement({("d", 0): Cyc.one()})
    for el in (g, t):
        cls = type(el)
        assert issubclass(cls, LinearCombination)
        assert not shared & set(vars(cls))
        for got in (el + el, el - el, -el, el.scale(2), el.scale(0)):
            assert type(got) is cls
        assert repr(el.scale(0)) == cls.__name__ + "({})"
    assert (g + g).terms == {("x", (1,)): Cyc.rational(2)}
    assert (t - t).is_zero() and t.scale(Fraction(1, 2)) != t


def test_tor_element_equality_with_a_foreign_operand_is_false():
    el = TorElement({("k", 0, 0, (0,)): Cyc.one()})
    assert not el == "k" and el != "k" and el != GElement.x((1,))
    assert el == TorElement({("k", 0, 0, (0,)): Cyc.one()})
