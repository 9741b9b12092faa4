from fractions import Fraction

import pytest

from field_oracle import Tuples
from torlab.distops import TruncationWindow
from torlab.fockhom import pair_relation, window_states
from torlab.fockprin import (PrincipalModule, _sqrt_in_cyc, negation_theta,
                             solve_prin_constants, verify_52,
                             verify_principal_relations)
from torlab.rootsys import build_root_system
from torlab.scalar import Cyc, cyc_root_of_unity


def _mod(constants=None):
    return PrincipalModule(build_root_system("A", 1), 1, 2, negation_theta,
                           constants=constants)


WIN = TruncationWindow(4, 3, 1)


def test_hand_oracle_for_the_constant():
    """(1-x)^2 (1+x)^(-2) = 1 + sum 4n(-x)^n forces C^2 = -1/16."""
    # expand by hand with Fractions, independently of the library series
    coef = [Fraction(0)] * 8
    for i in range(8):
        # (1-x)^2 coefficients: 1, -2, 1
        for j, c2 in ((0, 1), (1, -2), (2, 1)):
            n = i - j
            if n >= 0:
                # (1+x)^(-2) coefficient at x^n: (-1)^n (n+1)
                coef[i] += c2 * Fraction((-1) ** n * (n + 1))
    assert coef[0] == 1
    assert all(coef[n] == Fraction((-1) ** n * 4 * n) for n in range(1, 8))
    # u * coef[a] = -(1/4) * (-1)^a * a for every a >= 1
    for a in range(1, 8):
        assert Fraction(-1, 16) * coef[a] == Fraction(-1, 4) * (-1) ** a * a


def test_solver_recovers_imaginary_constant():
    mod = _mod()
    sols = solve_prin_constants(mod, TruncationWindow(6, 4, 2))
    i4 = cyc_root_of_unity(4, 1) * Fraction(1, 4)
    assert sorted(map(repr, sols)) == sorted(map(repr, [i4, -i4]))
    assert all(c * c == Cyc.rational(Fraction(-1, 16)) for c in sols)


def test_solver_window_stability():
    mod = _mod()
    a = solve_prin_constants(mod, TruncationWindow(6, 4, 2))
    b = solve_prin_constants(mod, TruncationWindow(8, 4, 2))
    assert sorted(map(repr, a)) == sorted(map(repr, b))


def test_sqrt_rejects_nonsquares():
    """No square root in Q(zeta_M) is a finding: the solver returns none."""
    assert _sqrt_in_cyc(Cyc.rational(Fraction(2))) == []
    assert _sqrt_in_cyc(cyc_root_of_unity(3, 1)) == []


def test_k0_zero_is_identity():
    mod = _mod()
    k0 = Tuples(mod.k0((0,)))
    for v in window_states(mod.space, WIN)[:20]:
        assert k0.mode_memo(0, v) == {v: 1} or k0.mode_memo(0, v) == {v: Fraction(1)}
        for n in (-2, -1, 1, 2):
            assert not k0.mode_memo(n, v)


def test_X_vacuum_action():
    mod = _mod()
    out = Tuples(mod.k0((1,))).mode_memo(0, mod.vacuum())
    assert out == {((1, 0), ()): 1} or out == {((1, 0), ()): Fraction(1)}


def test_k_fields_supported_on_multiples_of_m():
    mod = _mod()
    states = window_states(mod.space, WIN)
    for f in (Tuples(mod.k0((1,))), Tuples(mod.kf(1, (1,)))):
        for v in states[:30]:
            for n in range(-4, f.max_mode(v) + 1):
                if n % mod.m and f.mode_memo(n, v):
                    raise AssertionError((f.obj.label, v, n))


def test_verify_52():
    entries = verify_52(_mod(), WIN)
    assert entries and all(e[2] == "pass" for e in entries)


def test_relations_pass_with_solved_constant():
    mod = _mod()
    mod.set_constants(solve_prin_constants(mod, WIN)[0])
    entries = verify_principal_relations(mod, WIN)
    bad = [e for e in entries if e[2] != "pass"]
    assert not bad, bad[:2]
    ids = {e[0] for e in entries}
    assert {"prin.%d" % i for i in range(1, 11)} <= ids
    assert all(e[2] == "pass" for e in entries if e[0] == "prin.k_nontrivial")


def test_prin8_needs_a_trivial_fixed_cartan():
    """With theta the identity the fixed Cartan is all of h (dim 1 on
    A1), so relation (8) cannot be left out; negation fixes nothing."""
    win = TruncationWindow(2, 2, 1)
    ident = PrincipalModule(build_root_system("A", 1), 1, 2, lambda b: b,
                            constants={(1,): 1, (-1,): 1})
    neg = _mod(constants=1)
    got = [e for mod in (ident, neg)
           for e in verify_principal_relations(mod, win) if e[0] == "prin.8"]
    assert got == [("prin.8", {"dim_h0": 1}, "fail", None),
                   ("prin.8", {"dim_h0": 0}, "pass", None)]


def test_orbit_independence():
    """Keying the constant by the other orbit element changes nothing."""
    mod1 = _mod()
    c = solve_prin_constants(mod1, WIN)[0]
    mod1.set_constants({(1,): c})
    mod2 = _mod()
    mod2.set_constants({(-1,): c})
    e1 = verify_principal_relations(mod1, WIN)
    e2 = verify_principal_relations(mod2, WIN)
    assert e1 == e2


def test_wrong_constant_fails_with_witness():
    mod = _mod(constants=Cyc.rational(Fraction(1, 4)))
    states = window_states(mod.space, WIN)
    rel = pair_relation(mod, (1,), (-1,), (0,), (0,))
    hits = [rel.check_window(WIN.modes, v) for v in states]
    assert any(not ok for ok, _ in hits)
    witness = next(wit for ok, wit in hits if not ok)
    assert witness is not None and "difference" in witness


def test_errors():
    mod = _mod()
    with pytest.raises(ValueError):
        mod.constant((1,))
    with pytest.raises(ValueError):
        mod.orbit_rep((2,))
    with pytest.raises(ValueError):
        mod.set_constants({(1,): Cyc.one(), (2,): Cyc.one()})
    with pytest.raises(NotImplementedError):
        solve_prin_constants(
            PrincipalModule(build_root_system("A", 2), 1, 1,
                            lambda b: b), WIN)


def test_z_operator_is_scalar_times_k0():
    mod = _mod()
    c = solve_prin_constants(mod, WIN)[0]
    mod.set_constants(c)
    z = Tuples(mod.z((1,), (1,)))
    k0 = Tuples(mod.k0((1,)))
    for v in window_states(mod.space, WIN)[:20]:
        for n in range(-3, k0.max_mode(v) + 1):
            lhs = z.mode_memo(n, v)
            rhs = {s: c * q for s, q in k0.mode_memo(n, v).items()}
            assert not {k for k in lhs} ^ {k for k in rhs} and \
                all(lhs[k] == rhs[k] for k in lhs)
