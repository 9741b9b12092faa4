from collections import Counter
from fractions import Fraction

import pytest

from field_oracle import Labelled, Tuples
from torlab.checks import default_rvecs, holds
from torlab.distops import (DeltaRelation, DeltaTerm, ScaledField,
                            TruncationWindow)
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


def test_scaled_fields_store_no_images():
    """After the principal relations at the solved constant, no Z =
    C k_0 (a ScaledField) keeps an image: each read scales the image of
    k_0, which keeps none either."""
    mod = _mod()
    mod.set_constants(solve_prin_constants(mod, WIN)[0])
    entries = verify_principal_relations(mod, WIN)
    assert entries and all(e[2] == "pass" for e in entries)
    scaled = [f for f in mod._fields.values() if isinstance(f, ScaledField)]
    assert scaled
    assert all(f._memo == {} for f in scaled)


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


# ---------------------------------------------------------------------------
# constant scalars factored out of the delta-relation sweeps
# ---------------------------------------------------------------------------


def _plain(rel):
    """rel with both operands and every delta-term field read through
    Labelled, which is not a ScaledField, so a DeltaRelation sweeps a
    scaled field's own images."""
    return DeltaRelation(
        Labelled(rel.f), Labelled(rel.g), rel.factors,
        [DeltaTerm(t.coeff, t.a, Labelled(t.field), t.use_D)
         for t in rel.rhs_terms])


def _prin7(mod):
    """The prin.7 relations of verify_principal_relations."""
    r1, zero = default_rvecs(mod.N)[1], mod.zero_r()
    roots = [tuple(b) for b in mod.rs.roots]
    return [pair_relation(mod, b1, b2, r, s)
            for b1 in roots for b2 in roots
            for r, s in [(zero, zero), (r1, zero), (r1, r1)]]


def _prin10(mod):
    """The prin.10 relations of verify_principal_relations."""
    z = mod.z(tuple(mod.rs.roots[0]), mod.zero_r())
    return [DeltaRelation(mod.kf(j, r), z, [], [])
            for r in default_rvecs(mod.N)[:3] for j in range(mod.N + 1)]


I4 = cyc_root_of_unity(4, 1)
GOLDEN_FAIL_CONSTANTS = [Cyc.rational(Fraction(1, 4)), (1 + I4) * Fraction(1, 4),
                         I4 * Fraction(1, 2)]


@pytest.mark.parametrize("constant", [None] + GOLDEN_FAIL_CONSTANTS, ids=repr)
def test_factored_sweep_equals_the_plain_sweep(constant):
    """With C factored out of Z = C k_0, every prin.7 and prin.10
    relation gives the (ok, witness) of the unfactored sweep on every
    window state, at the solved constant and at the golden-fail ones."""
    mod = _mod()
    mod.set_constants(solve_prin_constants(mod, WIN)[0]
                      if constant is None else constant)
    states = window_states(mod.space, WIN)
    fails = 0
    for rel in _prin7(mod) + _prin10(mod):
        ref = _plain(rel)
        for v in states:
            got = rel.check_window(WIN.modes, v)
            assert got == ref.check_window(WIN.modes, v), (rel.f.label, v)
            fails += not got[0]
    assert (fails == 0) == (constant is None)


def test_factoring_guards():
    """A zero coefficient is not factored, nested ScaledFields are, and
    the relation keeps the caller's operands: reassigning rel.f after a
    sweep takes effect."""
    mod = _mod()
    mod.set_constants(solve_prin_constants(mod, WIN)[0])
    states = window_states(mod.space, WIN)
    W = WIN.modes
    rel = pair_relation(mod, (1,), (-1,), (0,), (0,))
    f, g, terms = rel.f, rel.g, rel.rhs_terms

    for zero in (DeltaRelation(ScaledField(f, 0), g, rel.factors, terms),
                 DeltaRelation(f, g, rel.factors, [
                     DeltaTerm(t.coeff, t.a, ScaledField(t.field, 0), t.use_D)
                     for t in terms])):
        got = holds(zero, states, W)
        assert not got[0] and got == holds(_plain(zero), states, W)

    nested = DeltaRelation(ScaledField(f, -1), g, rel.factors, terms)
    got = holds(nested, states, W)
    assert not got[0] and got == holds(_plain(nested), states, W)

    assert holds(rel, states, W) == (True, None)
    assert rel.f is f and rel.g is g and rel.rhs_terms is terms
    rel.f = ScaledField(f, 2)
    got = holds(rel, states, W)
    assert not got[0] and got == holds(_plain(rel), states, W)
    rel.f = f
    assert holds(rel, states, W) == (True, None)


_CYC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__")


def test_principal_sweep_runs_in_int(monkeypatch):
    """Once its delta coefficients are cached, a prin.7 sweep at the
    solved constant makes no Cyc arithmetic: C^2 stays out of the cells."""
    mod = _mod()
    mod.set_constants(solve_prin_constants(mod, WIN)[0])
    states = window_states(mod.space, WIN)
    rels = _prin7(mod)
    for rel in rels:
        assert holds(rel, states, WIN.modes) == (True, None)
    calls = Counter()
    for name in _CYC_OPS:
        def counted(*args, _op=getattr(Cyc, name), _name=name):
            calls[_name] += 1
            return _op(*args)
        monkeypatch.setattr(Cyc, name, counted)
    for rel in rels:
        assert holds(rel, states, WIN.modes) == (True, None)
    assert not calls, calls
