"""Homogeneous Fock-space realization (untwisted, level 1), and the one
builder of the quadratic Z-relation.

V(Gamma) = S(h^-) (x) C[Gamma] over the extended lattice Gamma: states
are a lattice label together with creation modes in the root and delta
directions.  The d-directions carry no modes; they only appear in
labels, which is what makes the k-fields nontrivial.

Operator conventions (see also the mode convention in toroidal):
  X(delta_r, z)  = E^-(delta_r, z) e^{delta_r} z^{-delta_r(0)} E^+,
                   with E^- = exp(+ sum_{n>0} delta_r(-n) z^{-n}/n);
                   E^+ acts as the identity here.
  k_0(r, z)      = X(delta_r, z)
  k_i(r, z)      = delta_i(z) X(delta_r, z)
  Z(a, 0, z)     = eps(a, .) e^a z^{-1-(a, .)}   (pure lattice operator)
  Z(a, r, z)     = Z(a, 0, z) k_0(r, z)
  beta(r, z)     = beta(z) k_0(r, z)             (level k = 1)
The z^{-...} exponents read the shifted label, which keeps degrees
bounded above and makes [d_0, F] = DF exact.

Basis: a state (label, modes) names b_lambda = p_lambda / z_lambda, the
monomial p_lambda in the creation modes divided by
z_lambda = prod_(d,j) j^m m! per mode (d, j) of multiplicity m (see
FockSpace).  In this basis every matrix element of the fields above is
an integer, so the sweeps run in int arithmetic; the change of basis is
diagonal, so pass/fail is the same as in the monomial basis, and failing
witnesses are converted back to the monomial basis.

State ids: the fields act on the FockSpace's int ids
sid = (lid << 32) | mid (label id, mode-multiset id), and window_states
hands out (label, modes) tuples that the sweeps convert once.  Every
E^+- dressing ignores the label, so its images are kept once per mid, on
the zero label, whose sid is the mid itself, and once per distinct
dressing of the space (distops.ExpField).  X(delta_r) and Z(alpha, r)
are views of the E^-(delta_r) memo (distops.RelabelledView): mode_parts
returns the zero-label image with the label bits of the final label,
lambda + delta_r or lambda + delta_r + alpha, and Z's cocycle sign, read
from a per-label cache (view); a dressing's own labelled images are
views the same way.  A ProductField of such fields has a view too, and
keeps one zero-label core image per mode multiset: the label and the
sign go on when a caller reads the image (distops.FieldFamily).  The
k_i and beta(r) fields are ProductFields of k_0(r) over the Heisenberg
field of delta_i or beta, which commute with it, as both pair to zero
with delta_r.  They read the label through a mode 0 as well, so their
views carry the class of that pairing (the ckey), and they keep one
core image per (class, mode multiset).  The quadratic Z-relation of
every root pair multiplies the same E^-(delta_r) E^-(delta_s) images on
the modes of a state:
distops.DeltaRelation.check_window reads the products of each
anti-diagonal as one row on zero-label keys, kept by the outer
dressing and shared by every root pair, multidegree and label
(distops._cell_row).  It folds the signs into the coefficients, reads
the k_i and h(0) k_0 terms on their class cores in the same sweep and
puts the label on a failing witness only.  E^-(delta_0) is the
identity: its rows are kept on the relation, not on a dressing.

The bracket of two root fields is written once, for every picture:
root_pair_terms gives its binomial prefactors and its summands over
p = 0..m-1 (a root term where theta^p b1 + b2 is a root, a zero summand
where it is 0) from a module's twist (autom.TwistData, the identity
here) and root data, cartan_pair_terms the twisted Cartan pairings of
the Cartan brackets, and central_terms the r_i k_i and D k_0 delta terms
of a zero summand on the module's k fields.  pair_relation builds the
quadratic Z-relation on them for this module (identity twist, level 1),
a Z-module of zbridge or the principal module of fockprin; zbridge's
current relations, the principal constant solver and the toroidal
verifier of relations 1.5(1)-(3) read the same functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import checks
from .autom import TwistData
from .distops import (MODE_BITS, DeltaRelation, DeltaTerm, ExpField,
                      FockSpace, HeisenbergField, ProductField,
                      RelabelledView, TruncationWindow, ZeroModeTimesField,
                      partitions)
from .rootsys import ChevalleyAlgebra, GElement, Lattice, RootSystem
from .scalar import Cyc


class LatticeRoots:
    """Root data for root_pair_terms and pair_relation: root_vec from a
    module's .lat, and form_xx from its .alg, which is all the toroidal
    verifier reads."""

    def root_vec(self, beta):
        return self.lat.embed_root(beta)

    def form_xx(self, beta) -> Cyc:
        """<x_beta, x_-beta> in the Chevalley normalization."""
        return self.alg.form(GElement.x(tuple(beta)),
                             GElement.x(tuple(-c for c in beta)))


class KFields:
    """What both Fock modules share: the field cache, the vacuum and the
    central fields k_0(r, z^w) = X(delta_r, z^w) and
    k_i(r, z^w) = delta_i(z^w) X(delta_r, z^w), w the weight of the
    space (1 here, m in the principal picture), at level k = 1.  A
    module supplies the space, N and delta(rvec), the label vector
    delta_r."""

    def __init__(self, space: FockSpace, N: int):
        self.space = space
        self.N = N
        self.k = Cyc.one()
        self._fields = {}

    def _cached(self, key, build):
        """The field cached under key, built by build() on first use."""
        hit = self._fields.get(key)
        if hit is None:
            hit = self._fields[key] = build()
        return hit

    def vacuum(self, label=None):
        return self.space.vacuum(label)

    def zero_r(self):
        return (0,) * self.N

    def k0(self, rvec):
        """k_0(r, z^w) = X(delta_r, z^w)."""
        rvec = tuple(rvec)
        return self._cached(("k0", rvec), lambda: VertexXField(
            self.space, self.delta(rvec), "k0%r" % (rvec,)))

    def kf(self, i, rvec):
        """k_i(r, z^w) = delta_i(z^w) X(delta_r, z^w), 1-based i, the
        ProductField of k_0(r) over the Heisenberg field of delta_i, and
        k_0(r, z^w) at i = 0."""
        rvec = tuple(rvec)
        if i == 0:
            return self.k0(rvec)
        unit = tuple(1 if j == i else 0 for j in range(1, self.N + 1))
        return self._cached(("k", i, rvec), lambda: ProductField(
            self.k0(rvec), HeisenbergField(self.space, self.delta(unit)),
            "k%d%r" % (i, rvec)))


class HomogeneousModule(KFields, LatticeRoots):
    """The Fock module V(Gamma) with its field dictionary: the identity
    twist at level 1."""

    def __init__(self, rs: RootSystem, N: int):
        self.rs = rs
        self.lat = Lattice(rs, N)
        self.alg = ChevalleyAlgebra(rs, self.lat)
        self.twist = TwistData()
        heis = list(range(rs.rank + N))
        super().__init__(FockSpace(self.lat.gram, heis, mode_scale=1,
                                   weight=1), N)

    def delta(self, rvec):
        return self.lat.delta(rvec)

    def z(self, alpha, rvec):
        return self._cached(("z", tuple(alpha), tuple(rvec)),
                            lambda: ZField(self, alpha, rvec))

    def heis(self, vec, rvec):
        """beta(r, z) = beta(z) k_0(r, z) for beta in the Cartan span."""
        rvec = tuple(rvec)
        return self._cached(("b", tuple(vec), rvec), lambda: ProductField(
            self.k0(rvec), HeisenbergField(self.space, vec),
            "beta%r" % (rvec,)))


class VertexXField(RelabelledView):
    """X(delta, z^w), w the weight of the space: shifts the label by
    delta, multiplies the z-exponent -w(delta, label), and dresses with
    E^-(delta, z^w).  E^+ is the identity because delta pairs to zero
    with every mode the space carries.

    A view: view(lid) is (-w(delta, label), label bits of
    label + delta, 1, 0), and mode n of a state is the zero-label E^- image
    at n minus that exponent, with those label bits put on."""

    def __init__(self, space: FockSpace, vec, label):
        self.space = space
        self.vec = tuple(vec)
        self.shift = self.vec
        self.label = label
        super().__init__(ExpField(space, self.vec, 1, -1))

    def _view(self, lid):
        space = self.space
        return (-space.weight * int(space.label_pair(self.vec, lid)),
                space.shifted(lid << MODE_BITS, self.vec), 1, 0)


class ZField(RelabelledView):
    """Z(alpha, r, z) = Z(alpha, 0, z) k_0(r, z); the alpha-part is a pure
    lattice operator, so each input state meets exactly one split.

    A view: view(lid) is (the z-exponent of both parts, label bits of
    lambda + delta_r + alpha, cocycle sign, 0), and mode n of a state is the
    zero-label E^-(delta_r) image of k_0 = X(delta_r) at n minus that
    exponent, with the label bits and the sign put on."""

    def __init__(self, mod: HomogeneousModule, alpha, rvec):
        self.x = mod.k0(rvec)
        super().__init__(self.x.em)
        self.lat = mod.lat
        self.space = mod.space
        self.alpha = tuple(alpha)
        self.avec = mod.lat.embed_root(alpha)
        self.shift = tuple(a + b for a, b in zip(self.avec, self.x.shift))
        self.label = "Z" + repr(self.alpha) + repr(tuple(rvec))
        self._half = int(mod.space.pair(self.avec, self.avec)) // 2

    def _view(self, lid):
        space = self.space
        # the lattice part reads the post-shift label, and
        # (alpha, delta_r) = 0 makes that shift invisible
        zexp = -int(space.label_pair(self.avec, lid)) - self._half
        return (zexp + self.x.view(lid)[0],
                space.shifted(lid << MODE_BITS, self.shift),
                self.lat.eps(self.avec, space.label_of(lid)), 0)


# ---------------------------------------------------------------------------
# window-state enumeration
# ---------------------------------------------------------------------------


def l1_ball(dim, radius):
    """Integer vectors of length dim and L1-norm <= radius, in
    lexicographic order."""
    if dim == 0:
        yield ()
        return
    for c in range(-radius, radius + 1):
        for rest in l1_ball(dim - 1, radius - abs(c)):
            yield (c,) + rest


def _mode_multisets(dirs, total):
    if not dirs:
        if total == 0:
            yield ()
        return
    d = dirs[0]
    for t0 in range(total + 1):
        for lam in partitions(t0):
            head = tuple(sorted((d, part) for part, mult in lam
                                for _ in range(mult)))
            for rest in _mode_multisets(dirs[1:], total - t0):
                yield tuple(sorted(head + rest))


def window_states(space: FockSpace, window: TruncationWindow):
    """All states with label L1-norm <= support and degree >= -degree."""
    out = []
    for label in l1_ball(space.dim, window.support):
        cap = (Fraction(window.degree, space.weight)
               - Fraction(space.pair(label, label), 2))
        if cap < 0:
            continue
        for total in range(int(cap) + 1):
            for modes in _mode_multisets(tuple(space.heis_dirs), total):
                out.append((tuple(label), modes))
    return out


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def cartan_pair_terms(mod, b1, b2):
    """The summands of the bracket of the Cartan fields of b1 and b2, read
    from mod's twist and rs: one (a, lead) for each p = 0..m-1 with
    a nonzero <theta^p h_b1, h_b2>, a = zeta_m^-p and lead that pairing
    over m.  theta^p preserves the form and sends x_(+-b) to multiples of
    x_(+-theta^p b), so it sends h_b to h_(theta^p b), and the pairing is
    the root form (theta^p b1, b2)."""
    tw = mod.twist
    out = []
    for p in range(tw.m):
        ip = mod.rs.form(tw.theta_root(p, b1), b2)
        if ip:
            out.append((tw.root_of_unity(-p), Fraction(ip, tw.m)))
    return out


def root_pair_terms(mod, b1, b2):
    """The bracket of the root fields of b1 and b2, read from mod's
    twist, rs, alg.eps_roots and form_xx, as (factors, terms).

    factors holds (<theta^p b1, b2>, zeta_m^-p) for each p = 0..m-1 with
    a nonzero pairing, the pairings of cartan_pair_terms: the prefactors
    prod_p (1 - zeta_m^-p z1/z2)^(<theta^p b1, b2>).  terms holds one
    (a, lead, summed) for each p where theta^p b1 + b2 is a root, summed,
    or 0, summed None, with a = zeta_m^-p and lead the coefficient of
    that summand: eta_p(b1) eps(theta^p b1, b2)/m at a root and
    eta_p(b1) <x_b2, x_-b2>/m at 0."""
    tw = mod.twist
    m = tw.m
    factors = [(lead * m, a) for a, lead in cartan_pair_terms(mod, b1, b2)]
    terms = []
    for p in range(m):
        tb1 = tw.theta_root(p, b1)
        a = tw.root_of_unity(-p)
        summed = tuple(x + y for x, y in zip(tb1, b2))
        if summed in mod.rs.root_set:
            terms.append((a, tw.eta(p, b1) * mod.alg.eps_roots(tb1, b2)
                          * Fraction(1, m), summed))
        elif not any(summed):
            terms.append((a, tw.eta(p, b1) * mod.form_xx(b2)
                          * Fraction(1, m), None))
    return factors, terms


def central_terms(mod, lead, a, rvec, tot, kinv):
    """The central delta terms of a zero summand with coefficient lead:
    lead r_i k_i(r + s) for each nonzero r_i, then lead kinv/m D k_0(r + s),
    the fields read from mod.kf."""
    out = [DeltaTerm(lead * ri, a, mod.kf(i, tot))
           for i, ri in enumerate(rvec, 1) if ri]
    out.append(DeltaTerm(lead * kinv * Fraction(1, mod.twist.m), a,
                         mod.kf(0, tot), use_D=True))
    return out


def pair_relation(mod, b1, b2, rvec, svec) -> DeltaRelation:
    """The quadratic Z-relation of a root pair: the prefactors and
    summands of root_pair_terms, with a Z term at each root summand and
    the terms h(0) k_0, sum_i r_i k_i and D k_0 at each zero summand,
    read from mod's level k, root_vec and fields z and kf."""
    kinv = mod.k.inv()
    tot = tuple(a + b for a, b in zip(rvec, svec))
    factors, terms = root_pair_terms(mod, b1, b2)
    rhs = []
    for a, lead, summed in terms:
        if summed is not None:
            rhs.append(DeltaTerm(lead, a, mod.z(summed, tot)))
            continue
        rhs.append(DeltaTerm(-lead * kinv, a, ZeroModeTimesField(
            mod.space, mod.root_vec(b2), mod.kf(0, tot))))
        rhs += central_terms(mod, lead, a, rvec, tot, kinv)
    return DeltaRelation(mod.z(b1, rvec), mod.z(b2, svec), factors, rhs)


def verify_33(mod: HomogeneousModule, window: TruncationWindow,
              root_pairs=None, rvecs=None, states=None, entries=None):
    """Sweep the quadratic relation over root pairs, multidegrees, window
    states and mode pairs; every coefficient is compared exactly."""
    if entries is None:
        entries = []
    if root_pairs is None:
        root_pairs = [(a, b) for a in mod.rs.roots for b in mod.rs.roots]
    if rvecs is None:
        rvecs = checks.default_rvecs(mod.N)
    if states is None:
        states = window_states(mod.space, window)
    for b1, b2 in root_pairs:
        for rvec in rvecs:
            for svec in rvecs:
                checks.run(entries, "zhom.pair",
                           {"b1": list(b1), "b2": list(b2),
                            "r": list(rvec), "s": list(svec)},
                           checks.holds, pair_relation(mod, b1, b2, rvec, svec),
                           states, window.modes)
    return entries


def verify_center_hom(mod: HomogeneousModule, window: TruncationWindow,
                      rvecs=None, states=None, entries=None):
    """D k_0(r, z) + sum_i r_i k_i(r, z) = 0, plus k_i nontriviality and
    the k-field product factorizations."""
    if entries is None:
        entries = []
    if rvecs is None:
        rvecs = checks.default_rvecs(mod.N)
    if states is None:
        states = window_states(mod.space, window)
    W = window.modes
    for rvec in rvecs:
        checks.run(entries, "zhom.center", {"r": list(rvec)},
                   checks.central, mod.kf, 1, rvec, states, -W)
    # nontriviality: each k_i has a nonzero mode on some window state
    for i in range(1, mod.N + 1):
        checks.run(entries, "zhom.k_nontrivial", {"i": i},
                   checks.nonzero, mod.kf(i, (0,) * mod.N), states, -W)
    return entries


def verify_products_hom(mod: HomogeneousModule, window: TruncationWindow,
                        alpha=None, rvecs=None, states=None, entries=None):
    """Factorization through k_0: Z(a, r, z) k_0(s, z) = Z(a, r+s, z) and
    k_0(r, z) k_i(s, z) = k_i(r+s, z), as same-variable mode identities."""
    if entries is None:
        entries = []
    if rvecs is None:
        rvecs = checks.default_rvecs(mod.N)
    if states is None:
        states = window_states(mod.space, window)
    if alpha is None:
        alpha = mod.rs.roots[-1]
    W = window.modes
    z = partial(mod.z, alpha)
    k1 = partial(mod.kf, 1)
    checks.factorization(entries, "zhom.prod_zk0", {"a": list(alpha)},
                         z, mod.k0, z, rvecs, states, -W)
    checks.factorization(entries, "zhom.prod_k0k", {"i": 1},
                         mod.k0, k1, k1, rvecs, states, -W)
    return entries
