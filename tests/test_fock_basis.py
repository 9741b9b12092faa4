"""The basis b_lambda = p_lambda / z_lambda of the Fock spaces against
the monomial basis p_lambda, the closed-form exponential series against
their recursion, the binomial tables that the homogeneous sweeps share,
and fault injection into the homogeneous pair relation.

z_lambda = prod_(d,j) j^m m! over the distinct modes (d, j) of
multiplicity m.  An operator with monomial matrix element M(out, in)
has the matrix element M(out, in) * z_out / z_in in the basis b_lambda.
"""

from fractions import Fraction
from functools import partial

import pytest

from field_oracle import (Tuples, check_state, comb_eq, exp_series,
                          monomial_act, z_factor)
from torlab.distops import (DeltaRelation, DeltaTerm, ExpField,
                            TruncationWindow, dressing_operator,
                            product_of_binomials)
from torlab.fockhom import HomogeneousModule, pair_relation, window_states
from torlab.fockprin import PrincipalModule, negation_theta
from torlab.rootsys import build_root_system
from torlab.scalar import Cyc

WIN = TruncationWindow(2, 2, 1)
PWIN = TruncationWindow(6, 6, 1)
RVECS = [(0,), (1,), (-1,)]


def _homogeneous(rank):
    """A_rank at N = 1: its window and the vectors the series tests
    dress with, among them a root with two directions in A2."""
    mod = HomogeneousModule(build_root_system("A", rank), 1)
    vecs = [mod.lat.delta((1,)),
            tuple(-x for x in mod.lat.embed_root(mod.rs.roots[0])),
            tuple(a + b for a, b in zip(mod.lat.embed_root(mod.rs.roots[-1]),
                                        mod.lat.delta((-1,))))]
    if rank > 1:
        vecs.append(mod.lat.embed_root(mod.rs.highest_root()))
    return mod, WIN, vecs


def _principal():
    """A1 at N = 1 in the principal picture, m = 2: the delta_1 modes sit
    at even exponents, and (delta_1 + d_1) both creates and absorbs them."""
    mod = PrincipalModule(build_root_system("A", 1), 1, 2, negation_theta)
    return mod, PWIN, [mod.delta((1,)), (1, 1), (-2, 1)]


SPACES = {"1": partial(_homogeneous, 1), "2": partial(_homogeneous, 2),
          "prin": _principal}


def _fields(mod):
    """The field families of the window by a readable name: k_0, k_1 and
    the E^- of k_0 in both pictures, and in the homogeneous one also Z,
    beta and the E^-/E^+ dressings of the root fields."""
    out = {}
    for r in RVECS:
        out["k0%r" % (r,)] = mod.k0(r)
        out["k1%r" % (r,)] = mod.kf(1, r)
        out["E-%r" % (r,)] = mod.k0(r).em
    if isinstance(mod, PrincipalModule):
        return out
    for r in RVECS:
        for a in mod.rs.roots:
            out["Z%r%r" % (a, r)] = mod.z(a, r)
        for a in mod.rs.simple_roots:
            out["beta%r%r" % (a, r)] = mod.heis(mod.lat.embed_root(a), r)
    for a in mod.rs.roots:
        # the E^- / E^+ dressing of the root field x_a in homogeneous_Ck
        neg = tuple(-c for c in mod.lat.embed_root(a))
        out["E-%r" % (a,)] = dressing_operator(mod.space, -1, neg, 1)
        out["E+%r" % (a,)] = dressing_operator(mod.space, 1, neg, 1)
    return out


def _matches_monomial(got, want, v):
    """got, an image of v in the basis b_lambda, is want, the image in
    the monomial basis, times z_out / z_in, with the same keys."""
    assert set(got) == set(want)
    for k, c in got.items():
        assert c == want[k] * Fraction(z_factor(k[1]), z_factor(v[1])), k
    return len(got)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_normalized_basis_matches_monomial(name):
    """The two leaves, vec(n) and E^+-, against the monomial action and
    the recursion on it; every field but E^+ has int matrix elements."""
    mod, win, vecs = SPACES[name]()
    space = mod.space
    act = Tuples(space).heisenberg_act
    mono = partial(monomial_act, space)
    states = window_states(space, win)
    W = win.modes
    cells = 0
    for vec in vecs:
        for v in states:
            for n in range(-W, W + 1):
                got = act(vec, n, {v: 1})
                cells += _matches_monomial(got, mono(vec, n, {v: 1}), v)
                assert all(type(c) is int for c in got.values())
        for sign in (1, -1):
            for c in (1, -2, Fraction(1, 2)):
                em = Tuples(ExpField(space, vec, c, sign))
                for v in states:
                    for n in range(-W, W + 1):
                        got = em.mode_memo(n, v)
                        want = exp_series(space, vec, c, sign, v, n, act=mono)
                        cells += _matches_monomial(got, want, v)
                        if type(c) is int and sign < 0:
                            assert all(type(x) is int for x in got.values())
    for fname, f in _fields(mod).items():
        f = Tuples(f)
        for v in states:
            for n in range(-W, f.max_mode(v) + 1):
                for k, c in f.mode_memo(n, v).items():
                    if not fname.startswith("E+"):
                        assert type(c) is int, (fname, v, n, k, c)
                    cells += 1
    assert cells > 1000


@pytest.mark.parametrize("name", sorted(SPACES))
def test_exp_series_shared_across_labels(name):
    """The E^+- series is expanded on the zero label and read by every
    other label; it matches the recursion on the labelled state, key
    order included."""
    assert "mode_memo" not in ExpField.__dict__
    mod, win, vecs = SPACES[name]()
    space = mod.space
    states = window_states(space, win)
    assert len({v[0] for v in states}) > 1
    W = win.modes
    cells = 0
    for vec in vecs:
        for sign in (1, -1):
            for c in (1, -1, 2, Fraction(1, 2), Fraction(-3, 2)):
                em = Tuples(ExpField(space, vec, c, sign))
                for v in states:
                    for n in range(-W, W + 1):
                        got = em.mode_memo(n, v)
                        want = exp_series(space, vec, c, sign, v, n)
                        assert comb_eq(got, want), (vec, sign, c, v, n)
                        assert list(got) == list(want), (vec, sign, c, v, n)
                        assert all(k[0] == v[0] for k in got)
                        cells += len(got)
    assert cells > 100


def test_exp_series_is_closed_form(monkeypatch):
    """A mode of E^+- on the zero label calls no Heisenberg action and
    reads no other mode of the series."""
    mod, win, vecs = SPACES["2"]()
    space = mod.space
    monkeypatch.setattr(space, "heisenberg_act", None)
    for vec in vecs:
        for sign in (1, -1):
            em = ExpField(space, vec, 2, sign)
            for v in window_states(space, win):
                mid = space.mid(v[1])
                n = max(em.max_mode(mid), 0) if sign > 0 else -win.modes
                em.mode_memo(n, mid)
                assert list(em._memo[mid][1]) == [n]


def test_binomial_table_shared_by_equal_factors():
    mod = HomogeneousModule(build_root_system("A", 2), 1)
    roots = mod.rs.roots
    pairs = [(a, b) for a in roots for b in roots if mod.rs.form(a, b) == -1]
    rel1 = pair_relation(mod, pairs[0][0], pairs[0][1], (0,), (0,))
    rel2 = pair_relation(mod, pairs[1][0], pairs[1][1], (1,), (-1,))
    other = pair_relation(mod, roots[0], roots[0], (0,), (0,))
    assert rel1 is not rel2 and rel1.factors == rel2.factors
    table = rel1._coefs(5)
    assert rel2._coefs(5) is table
    assert list(table) == product_of_binomials(rel1.factors, len(table) - 1)
    # grown on demand, and the growth is shared too
    longer = rel2._coefs(len(table) + 3)
    assert len(longer) > len(table) + 3
    assert rel1._coefs(len(table) + 3) is longer
    assert list(longer) == product_of_binomials(rel1.factors,
                                               len(longer) - 1)
    assert other.factors != rel1.factors
    assert other._coefs(5) is not table


# Witnesses that the monomial-basis implementation (the one before the
# normalized basis) reports for the same corruptions, taken verbatim.
_VAC = "((-1, 0, 0), ())"
_FLIP_R0 = {"state": ((-1, 0, 0), ()), "modes": (-2, 2),
            "difference": [(_VAC, "Cyc(4)")]}
_EXP_R0 = {"state": ((-1, 0, 0), ()), "modes": (-2, 2),
           "difference": [(_VAC, "Cyc(-3)")]}
_OUT_R1 = ["((-1, 1, 0), ((1, 1), (1, 1), (1, 1), (1, 1)))",
           "((-1, 1, 0), ((1, 1), (1, 1), (1, 2)))",
           "((-1, 1, 0), ((1, 1), (1, 3)))",
           "((-1, 1, 0), ((1, 2), (1, 2)))",
           "((-1, 1, 0), ((1, 4),))"]


def _r1(values):
    return {"state": ((-1, 0, 0), ()), "modes": (-2, -2),
            "difference": list(zip(_OUT_R1, values))}


SEED_WITNESSES = {
    ((0,), "flip", 0): _FLIP_R0,
    ((0,), "flip", 1): _FLIP_R0,
    ((0,), "exponent", None): _EXP_R0,
    ((1,), "flip", 0): _r1(["Cyc(1/6)", "Cyc(1)", "Cyc(4/3)", "Cyc(1/2)",
                            "Cyc(1)"]),
    ((1,), "flip", 1): _r1(["Cyc(-1/3)", "Cyc(-2)", "Cyc(-8/3)", "Cyc(-1)",
                            "Cyc(-2)"]),
    ((1,), "flip", 2): _r1(["Cyc(1/6)", "Cyc(1)", "Cyc(4/3)", "Cyc(1/2)",
                            "Cyc(1)"]),
    ((1,), "exponent", None): {
        "state": ((-1, 0, 0), ()), "modes": (-2, 0),
        "difference": [("((-1, 1, 0), ((1, 1), (1, 1)))", "Cyc(-1/2)"),
                       ("((-1, 1, 0), ((1, 2),))", "Cyc(-1/2)")]},
}


def _corrupt(rel, kind, i):
    if kind == "flip":
        terms = list(rel.rhs_terms)
        t = terms[i]
        terms[i] = DeltaTerm(-t.coeff, t.a, t.field, t.use_D)
        return DeltaRelation(rel.f, rel.g, rel.factors, terms)
    return DeltaRelation(rel.f, rel.g, [(c + 1, a) for c, a in rel.factors],
                         rel.rhs_terms)


@pytest.mark.parametrize("rvec, kind, i", sorted(SEED_WITNESSES, key=repr))
def test_pair_relation_fault_injection(rvec, kind, i):
    """A sign-flipped delta term or a binomial exponent one too high on
    the opposite pair (a, -a) of A1 fails with the monomial witness."""
    mod = HomogeneousModule(build_root_system("A", 1), 1)
    rel = pair_relation(mod, (1,), (-1,), rvec, (0,))
    assert rel.factors == [(-2, Cyc.one())]
    bad = _corrupt(rel, kind, i)
    states = window_states(mod.space, WIN)
    for v in states:
        assert rel.check_window(WIN.modes, v) == (True, None)
    witness = None
    for v in states:
        ok, witness = bad.check_window(WIN.modes, v)
        if not ok:
            break
    assert witness == SEED_WITNESSES[(rvec, kind, i)]
    # the cell-by-cell oracle reports the same witness at that cell
    a, b = witness["modes"]
    assert check_state(bad, a, b, witness["state"]) == (False, witness)
