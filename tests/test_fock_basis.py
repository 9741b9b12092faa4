"""The normalized basis b_lambda = p_lambda / z_lambda of the homogeneous
Fock space against the monomial basis p_lambda, the exponential series
and binomial tables that the homogeneous sweeps share, and fault
injection into the homogeneous pair relation.

z_lambda = prod_(d,j) j^m m! over the distinct modes (d, j) of
multiplicity m.  An operator with monomial matrix element M(out, in)
has the normalized matrix element M(out, in) * z_out / z_in.
"""

from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from field_oracle import Tuples, check_state, comb_eq
from torlab.distops import (DeltaRelation, DeltaTerm, ExpField,
                            TruncationWindow, comb_add, comb_scale,
                            dressing_operator, product_of_binomials)
from torlab.fockhom import HomogeneousModule, pair_relation, window_states
from torlab.rootsys import build_root_system
from torlab.scalar import Cyc

WIN = TruncationWindow(2, 2, 1)
RVECS = [(0,), (1,), (-1,)]


def _z(modes):
    z = 1
    for (_d, j), m in Counter(modes).items():
        z *= j ** m * factorial(m)
    return z


def _fields(mod):
    """Every homogeneous field family of the window, by a readable name."""
    out = {}
    for r in RVECS:
        out["k0%r" % (r,)] = mod.k0(r)
        out["k1%r" % (r,)] = mod.k(1, r)
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


@pytest.mark.parametrize("rank", [1, 2])
def test_normalized_basis_matches_monomial(rank):
    rs = build_root_system("A", rank)
    norm = HomogeneousModule(rs, 1)
    mono = HomogeneousModule(rs, 1, normalized=False)
    assert norm.space.normalized and not mono.space.normalized
    states = window_states(norm.space, WIN)
    assert states == window_states(mono.space, WIN)
    fn, fm = _fields(norm), _fields(mono)
    cells = 0
    for name, f in fn.items():
        f, g = Tuples(f), Tuples(fm[name])
        for v in states:
            assert f.max_mode(v) == g.max_mode(v)
            for n in range(-WIN.modes, f.max_mode(v) + 1):
                got = f.mode_memo(n, v)
                want = g.mode_memo(n, v)
                assert set(got) == set(want), (name, v, n)
                for k, c in got.items():
                    assert c * Fraction(_z(v[1]), _z(k[1])) == want[k], \
                        (name, v, n, k)
                    if not name.startswith("E+"):
                        assert type(c) is int, (name, v, n, k, c)
                    cells += 1
    assert cells > 1000


def _exp_oracle(space, vec, c, sign, state, n):
    """Mode n of exp(c sum_(j>0) vec(sign j) z^(sign j) / j) applied to
    the labelled state itself: t F_t = c sum_(j=1..t) vec(sign j) F_(t-j)."""
    if sign * n < 0:
        return {}
    series = [{state: 1}]
    for t in range(1, sign * n + 1):
        acc = {}
        for j in range(1, t + 1):
            acc = comb_add(acc, Tuples(space).heisenberg_act(vec, sign * j,
                                                             series[t - j]))
        series.append(comb_scale(acc, Fraction(c) / t))
    return series[sign * n]


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("normalized", [True, False])
def test_exp_series_shared_across_labels(rank, normalized):
    """The E^+- series is expanded on the zero label and read by every
    other label; it matches the expansion on the labelled state."""
    assert "mode_memo" not in ExpField.__dict__
    mod = HomogeneousModule(build_root_system("A", rank), 1,
                            normalized=normalized)
    space = mod.space
    states = window_states(space, WIN)
    assert len({v[0] for v in states}) > 1
    vecs = [mod.lat.delta((1,)),
            tuple(-x for x in mod.lat.embed_root(mod.rs.roots[0])),
            tuple(a + b for a, b in zip(mod.lat.embed_root(mod.rs.roots[-1]),
                                        mod.lat.delta((-1,))))]
    cells = 0
    for vec in vecs:
        for sign in (1, -1):
            for c in (1, -1, Fraction(1, 2)):
                em = Tuples(ExpField(space, vec, c, sign))
                for v in states:
                    for n in range(-WIN.modes, WIN.modes + 1):
                        got = em.mode_memo(n, v)
                        want = _exp_oracle(space, vec, c, sign, v, n)
                        assert comb_eq(got, want), (vec, sign, c, v, n)
                        assert all(k[0] == v[0] for k in got)
                        cells += len(got)
    assert cells > 100


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
