"""The (twisted) toroidal Lie algebra and its generating-function relations.

Elements are Cyc-linear combinations (TorElement, a
rootsys.LinearCombination) of
  loop terms     g (x) t^r0 t^rvec      (g a Chevalley basis symbol),
  central terms  t^r0 t^rvec k_i        (0 <= i <= N),
  derivations    d_i                    (0 <= i <= N),
held in a deterministic normal form modulo the central relations
  (1/m) r0 t^r0 t^rvec k_0 + sum_i r_i t^r0 t^rvec k_i = 0.
The relation verifier reads theta as autom.TwistData.of(aut), and the
summands of 1.5(1)-(3) from fockhom, as the Fock pictures do.
"""

from __future__ import annotations

from fractions import Fraction

from . import checks
from .autom import Automorphism, TwistData, eigenspace_decompose
from .distops import _acc
from .fockhom import LatticeRoots, cartan_pair_terms, root_pair_terms
from .rootsys import ChevalleyAlgebra, GElement, LinearCombination
from .scalar import Cyc, cyc_root_of_unity


class TorElement(LinearCombination):
    """Combination of toroidal basis symbols (already normalized)."""

    __slots__ = ()


class ToroidalAlgebra:
    """Bracket engine for the twisted toroidal algebra of an automorphism.

    The central divisor in the bracket and in the d_A relation is the
    automorphism order m.  form_scale rescales the invariant form (used
    by the principal-realization contexts where the form is normalized).
    """

    def __init__(self, alg: ChevalleyAlgebra, aut: Automorphism, N: int, form_scale=None):
        self.alg = alg
        self.aut = aut
        self.N = N
        self.m = aut.order
        self.form_scale = Cyc.one() if form_scale is None else form_scale
        self._components = {}   # sym -> dict class -> GElement

    # -- constructors of elements ------------------------------------

    def loop(self, g: GElement, r0: int, rvec) -> TorElement:
        rvec = tuple(rvec)
        return TorElement({("g", sym, r0, rvec): c for sym, c in g.terms.items()})

    def central(self, i: int, r0: int, rvec) -> TorElement:
        return self.normalize_dA(TorElement({("k", i, r0, tuple(rvec)): Cyc.one()}))

    def deriv(self, i: int) -> TorElement:
        return TorElement({("d", i): Cyc.one()})

    def g_component(self, sym, cls: int) -> GElement:
        """Projection of a Chevalley basis symbol onto the cls eigenspace."""
        cls %= self.m
        table = self._components.get(sym)
        if table is None:
            comps = eigenspace_decompose(self.aut, GElement({sym: Cyc.one()}))
            table = {i: comp for i, comp in comps}
            self._components[sym] = table
        return table.get(cls, GElement())

    def loop_component(self, g: GElement, r0: int, rvec) -> TorElement:
        """g's (r0 mod m) eigencomponent placed at t^r0 t^rvec."""
        proj = GElement()
        for sym, c in g.terms.items():
            proj = proj + self.g_component(sym, r0).scale(c)
        return self.loop(proj, r0, rvec)

    # -- normal form ---------------------------------------------------

    def normalize_dA(self, el: TorElement) -> TorElement:
        out = {}
        m = self.m
        for key, c in el.terms.items():
            if key[0] != "k":
                _acc(out, key, c)
                continue
            _, j, r0, rvec = key
            if r0 != 0 and j == 0:
                # k_0 = -(m/r0) sum_i r_i k_i at this multidegree
                f = Cyc.rational(Fraction(-m, r0)) * c
                for i, ri in enumerate(rvec):
                    if ri:
                        _acc(out, ("k", i + 1, r0, rvec), f * ri)
            elif r0 == 0 and any(rvec) and j >= 1:
                j0 = next(i for i, ri in enumerate(rvec) if ri) + 1
                if j == j0:
                    f = c * Fraction(-1, rvec[j0 - 1])
                    for i in range(j0, len(rvec)):
                        if rvec[i]:
                            _acc(out, ("k", i + 1, 0, rvec), f * rvec[i])
                else:
                    _acc(out, key, c)
            else:
                _acc(out, key, c)
        return TorElement(out)

    # -- bracket -------------------------------------------------------

    def bracket(self, a: TorElement, b: TorElement) -> TorElement:
        alg = self.alg
        m = self.m
        out = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                t1, t2 = k1[0], k2[0]
                if t1 == "g" and t2 == "g":
                    _, s1, r0, rv = k1
                    _, s2, s0, sv = k2
                    c = c1 * c2
                    tot0 = r0 + s0
                    totv = tuple(x + y for x, y in zip(rv, sv))
                    for sym, sc in alg.bracket_basis(s1, s2).items():
                        _acc(out, ("g", sym, tot0, totv), sc * c)
                    fv = alg.form_basis(s1, s2)
                    if fv:
                        f = self.form_scale * fv * c
                        if r0:
                            _acc(out, ("k", 0, tot0, totv), f * Fraction(r0, m))
                        for i, ri in enumerate(rv):
                            if ri:
                                _acc(out, ("k", i + 1, tot0, totv), f * ri)
                elif t1 == "d" and t2 in ("g", "k"):
                    r0, rv = k2[2], k2[3]
                    deg = r0 if k1[1] == 0 else rv[k1[1] - 1]
                    if deg:
                        _acc(out, k2, c1 * c2 * deg)
                elif t2 == "d" and t1 in ("g", "k"):
                    r0, rv = k1[2], k1[3]
                    deg = r0 if k2[1] == 0 else rv[k2[1] - 1]
                    if deg:
                        _acc(out, k1, -(c1 * c2 * deg))
                # k with anything, d with d: zero
        return self.normalize_dA(TorElement(out))

    # -- fields --------------------------------------------------------

    def x_field_mode(self, g: GElement, rvec, n: int) -> TorElement:
        return self.loop_component(g, n, tuple(rvec))

    def k_field_mode(self, i: int, rvec, n: int) -> TorElement:
        if n % self.m:
            return TorElement()
        return self.normalize_dA(TorElement({("k", i, n, tuple(rvec)): Cyc.one()}))


def apply_loop_automorphism(aut: Automorphism, el: TorElement) -> TorElement:
    """Loop extension: scale by w^(-r0), apply aut to the Chevalley part."""
    out = TorElement()
    m = aut.order
    for key, c in el.terms.items():
        if key[0] == "g":
            _, sym, r0, rv = key
            img = aut.apply(GElement({sym: c * cyc_root_of_unity(m, -r0)}))
            out = out + TorElement({("g", s2, r0, rv): c2 for s2, c2 in img.terms.items()})
        elif key[0] == "k":
            out = out + TorElement({key: c * cyc_root_of_unity(m, -key[2])})
        else:
            out = out + TorElement({key: c})
    return out


# the fields of b1 and b2 bracketed in relations 1.5(1)-(3), in run order
_PAIR_FIELDS = {"1.5(1)": (GElement.x, GElement.x),
                "1.5(2)": (GElement.h, GElement.h),
                "1.5(3)": (GElement.h, GElement.x)}


class GeneratingRelationVerifier(LatticeRoots):
    """Coefficient-wise checks of the eight generating-function relations.
    fockhom.root_pair_terms and cartan_pair_terms read this verifier as
    their module: its twist TwistData.of(tor.aut), rs, alg and form_xx."""

    def __init__(self, tor: ToroidalAlgebra, window: int):
        self.tor = tor
        self.window = window
        self.m = tor.m
        self.alg = tor.alg
        self.rs = tor.alg.rs
        self.twist = TwistData.of(tor.aut)

    def check_pair_relation(self, rel, b1, b2, rvec, svec, entries):
        """Relation rel, one of 1.5(1)-(3), at every mode pair (i, j) of
        the window: [x_b1(r, z1), x_b2(s, z2)], [h_b1(r, z1), h_b2(s, z2)]
        or [h_b1(r, z1), x_b2(s, z2)] against its delta-function
        expansion, a sum of one summand per p = 0..m-1.

        Nothing a cell reads but the bracket depends on both i and j, so
        these are built once per relation, through the algebra's own
        field modes: the left modes lf[i], the right modes rf[j], each
        summand's root or h_b2 mode at every n = i + j, the k modes of
        the central term at every n, and the coefficients cs[t, i].  The
        bracket tor.bracket(lf[i], rf[j]) is taken in every cell."""
        tor, W = self.tor, self.window
        left, right = _PAIR_FIELDS[rel]
        tot = tuple(x + y for x, y in zip(rvec, svec))
        # (a, c, x, z): summand a = zeta_m^-p is c a^i times the mode of x
        # at t^(i+j) t^tot (a root vector, or h_b2 for 1.5(1) at b1 = -b2;
        # none for 1.5(2)), plus z a^i times the central term, which
        # carries the form scale, as in tor.bracket.  At a zero summand
        # lead has the factor <x_b2, x_-b2> = -1, so h_b2 gets -lead.
        if rel == "1.5(1)":
            terms = [(a, lead, GElement.x(summed), 0) if summed is not None
                     else (a, -lead, GElement.h(b2), lead)
                     for a, lead, summed in root_pair_terms(self, b1, b2)[1]]
        elif rel == "1.5(2)":
            terms = [(a, 0, None, lead)
                     for a, lead in cartan_pair_terms(self, b1, b2)]
        else:
            terms = [(a, lead, GElement.x(b2), 0)
                     for a, lead in cartan_pair_terms(self, b1, b2)]
        modes = range(-W, W + 1)
        sums = range(-2 * W, 2 * W + 1)
        lf = {i: tor.x_field_mode(left(b1), rvec, i) for i in modes}
        rf = {j: tor.x_field_mode(right(b2), svec, j) for j in modes}
        vec = {t: {n: tor.x_field_mode(x, tot, n) for n in sums}
               for t, (_, _, x, _) in enumerate(terms) if x is not None}
        ks = {n: self._central_modes(rvec, tot, n) for n in sums} \
            if any(z for *_, z in terms) else {}
        cs = {(t, i): (c * a ** i, z * a ** i * tor.form_scale)
              for t, (a, c, _, z) in enumerate(terms) for i in modes}
        for i in modes:
            for j in modes:
                lhs = tor.bracket(lf[i], rf[j])
                rhs = TorElement()
                for t, (_, _, x, z) in enumerate(terms):
                    c, cz = cs[t, i]
                    if x is not None:
                        rhs = rhs + vec[t][i + j].scale(c)
                    if z:
                        rhs = self._plus_central(rhs, cz, rvec, i, ks[i + j])
                checks.run(entries, rel, {"beta1": b1, "beta2": b2, "r": rvec,
                                          "s": svec, "modes": (i, j)},
                           checks.equal, lhs, rhs)

    def _central_modes(self, rvec, tot, n):
        """The k modes at t^n t^tot that the central term reads: k_0 and
        each k_l with r_l != 0, by l."""
        ls = [0] + [l + 1 for l, rl in enumerate(rvec) if rl]
        return {l: self.tor.k_field_mode(l, tot, n) for l in ls}

    def _plus_central(self, el, c, rvec, i, k):
        """el + c (sum_l r_l k_l + (i/m) k_0), k the modes of
        _central_modes at one t^n t^tot: the central term of 1.5(1)-(2)
        once c carries the form scale; at c = 1, tot = rvec and i = n it
        is the left-hand side of 1.5(4)."""
        for l, rl in enumerate(rvec):
            if rl:
                el = el + k[l + 1].scale(c * rl)
        return el + k[0].scale(c * Fraction(i, self.m))

    def check_central_relations(self, rvec, entries):
        """(4): (1/m) Dk_0 + sum r_i k_i = 0; (5)/(6): derivation action;
        (8): centrality."""
        tor, m, W = self.tor, self.m, self.window
        zero = TorElement()
        sample = tor.x_field_mode(GElement.x(self.alg.rs.roots[0]), rvec, 1)
        for n in range(-W, W + 1):
            if n % m:
                continue
            checks.run(entries, "1.5(4)", {"r": rvec, "mode": n}, checks.equal,
                       self._plus_central(zero, 1, rvec, n,
                                          self._central_modes(rvec, rvec, n)),
                       zero)
            for j in range(tor.N + 1):
                kj = tor.k_field_mode(j, rvec, n)
                for i in range(1, tor.N + 1):
                    checks.run(entries, "1.5(5)",
                               {"r": rvec, "mode": n, "i": i, "j": j},
                               checks.equal, tor.bracket(tor.deriv(i), kj),
                               kj.scale(rvec[i - 1]))
                checks.run(entries, "1.5(6)", {"r": rvec, "mode": n, "j": j},
                           checks.equal, tor.bracket(tor.deriv(0), kj),
                           kj.scale(n))
                checks.run(entries, "1.5(8)", {"r": rvec, "mode": n, "j": j},
                           checks.equal, tor.bracket(kj, sample), zero)

    def check_relation_7(self, beta, rvec, entries):
        tor, tw, W = self.tor, self.twist, self.window
        for p in range(self.m):
            tb = GElement.x(tw.theta_root(p, beta))
            et = tw.eta(p, beta)
            for n in range(-W, W + 1):
                lhs = tor.x_field_mode(GElement.x(beta), rvec, n).scale(
                    tw.root_of_unity(p * n))
                rhs = tor.x_field_mode(tb, rvec, n).scale(et)
                checks.run(entries, "1.5(7)",
                           {"beta": beta, "p": p, "r": rvec, "mode": n},
                           checks.equal, lhs, rhs)

    def run(self, rvec, svec, root_pairs=None):
        entries = []
        rs = self.alg.rs
        pairs = root_pairs
        if pairs is None:
            pairs = [(a, b) for a in rs.roots for b in rs.roots]
        for b1, b2 in pairs:
            for rel in _PAIR_FIELDS:
                self.check_pair_relation(rel, b1, b2, rvec, svec, entries)
        for beta in rs.roots:
            self.check_relation_7(beta, rvec, entries)
        self.check_central_relations(rvec, entries)
        self.check_central_relations(svec, entries)
        return entries


def sample_bracket_axioms(tor: ToroidalAlgebra, samples: int, seed: int,
                          r0max: int = 3, rimax: int = 2, entries=None):
    """Antisymmetry and Jacobi on seeded random elements, plus d_A zeros.

    Elements are drawn uniformly from theta-compatible loop components,
    central monomials and derivations with |r0| <= r0max, |r_i| <= rimax.
    The PRNG is random.Random(seed) (Mersenne Twister), so witnesses are
    reproducible from the seed alone.
    """
    import random
    if entries is None:
        entries = []
    rng = random.Random(seed)

    def rand_elem():
        kind = rng.randrange(6)
        r0 = rng.randint(-r0max, r0max)
        rv = tuple(rng.randint(-rimax, rimax) for _ in range(tor.N))
        if kind < 4:
            sym = tor.alg.symbols[rng.randrange(tor.alg.dim)]
            el = tor.loop_component(GElement({sym: Cyc.one()}), r0, rv)
            if not el.is_zero():
                return el
            return rand_elem()
        if kind == 4:
            return tor.central(rng.randrange(tor.N + 1), r0 - r0 % tor.m, rv)
        return tor.deriv(rng.randrange(tor.N + 1))

    zero = TorElement()
    for t in range(samples):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        checks.run(entries, "tor.antisym", {"sample": t}, checks.equal,
                   tor.bracket(a, b) + tor.bracket(b, a), zero)
        jac = tor.bracket(a, tor.bracket(b, c)) + \
            tor.bracket(b, tor.bracket(c, a)) + \
            tor.bracket(c, tor.bracket(a, b))
        checks.run(entries, "tor.jacobi", {"sample": t}, checks.equal, jac,
                   zero)
    for t in range(samples):
        r0 = rng.randint(-r0max, r0max)
        rv = tuple(rng.randint(-rimax, rimax) for _ in range(tor.N))
        rel = TorElement({("k", 0, r0, rv): Cyc.rational(Fraction(r0, tor.m))})
        for i, ri in enumerate(rv):
            if ri:
                rel = rel + TorElement({("k", i + 1, r0, rv): Cyc.rational(ri)})
        checks.run(entries, "tor.dA_zero", {"sample": t, "r0": r0, "r": rv},
                   checks.equal, tor.normalize_dA(rel), zero)
    return entries
